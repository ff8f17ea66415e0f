"""Determinant-line fibers and the gerbe multiplication.

A pair of cuts carries the line of its stratum: det(E), the wedge of an
arc eigenbasis, when positive; the dual of its swap's line, framed by
``ctx.positive``, when negative; the scalars when null.  Elements are an
orthonormal frame plus a complex coefficient, so every identification is
an O(k^3) change-of-basis determinant instead of exterior-algebra tensors.

Canonical frames (``ArcContext.basis`` order, shared eigenvector columns)
are chosen so that for a descending triple of cuts the frame of the outer
arc is literally the concatenation of the frames of the two inner arcs.
With that choice the triple section is the constant 1 in canonical
coordinates and all numeric content lives in frame determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import POINT_TOL, CutCirclePoint
from .errors import DimensionError, IncomparableError
from .linalg import UNITARITY_TOL, SpectralDecomposition, UnitaryMatrix, _perm_sign
from .linalg import random_unitary
from .projectors import ArcContext, Classification, classify

ELEMENT_TOL = 1e-9
FRAME_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DetLineElement:
    """coeff times the wedge of the frame columns (or its dual functional).

    positive stratum: the element coeff * (f_1 ^ ... ^ f_k).
    negative stratum: the functional sending f_1 ^ ... ^ f_k to coeff;
    the frame spans the arc of ``ctx.positive``.
    null stratum: the number coeff in the canonical trivialization.
    """

    ctx: ArcContext
    frame: np.ndarray  # n x k, orthonormal, k = ctx.arc_dim (0 for scalar)
    coeff: complex

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=complex)
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "coeff", complex(self.coeff))
        k = f.shape[1]
        if k != self.ctx.arc_dim:
            raise DimensionError(
                f"frame has {k} columns, the "
                f"{self.ctx.classification.name.lower()} "
                f"context's arc has dimension {self.ctx.arc_dim}"
            )
        if k and np.linalg.norm(f.conj().T @ f - np.eye(k)) > FRAME_TOL:
            raise DimensionError("frame is not orthonormal")

    @property
    def norm(self) -> float:
        return abs(self.coeff)


def _canonical_frame(ctx: ArcContext) -> np.ndarray:
    pos = ctx.positive
    return np.zeros((ctx.dim, 0), dtype=complex) if pos is None else pos.basis


def fiber_element(ctx: ArcContext, coeff: complex) -> DetLineElement:
    """The element coeff times the canonical frame wedge (or its dual)."""
    return DetLineElement(ctx, _canonical_frame(ctx), coeff)


def canonical_scalar(a: DetLineElement) -> complex:
    """Coefficient of ``a`` relative to the canonical frame of its context."""
    if a.ctx.classification is Classification.NULL:
        return a.coeff
    q = _canonical_frame(a.ctx).conj().T @ a.frame
    det = np.linalg.det(q)
    if a.ctx.classification is Classification.POSITIVE:
        return a.coeff * det
    return a.coeff / det


def _same_base(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b are one group element, to UNITARITY_TOL n in norm."""
    return a.shape == b.shape and float(np.linalg.norm(a - b)) <= UNITARITY_TOL * len(a)


def _same_ctx(a: ArcContext, b: ArcContext) -> bool:
    return (
        abs(a.z1.value - b.z1.value) <= POINT_TOL
        and abs(a.z2.value - b.z2.value) <= POINT_TOL
        and _same_base(a.spec.matrix, b.spec.matrix)
    )


def same_element(a: DetLineElement, b: DetLineElement) -> tuple[bool, float]:
    """Whether a and b represent the same fiber vector, plus the discrepancy."""
    if not _same_ctx(a.ctx, b.ctx):
        raise IncomparableError("elements live over different points")
    ca, cb = canonical_scalar(a), canonical_scalar(b)
    disc = abs(ca - cb)
    return disc <= ELEMENT_TOL * max(1.0, abs(ca)), disc


def gerbe_product(a: DetLineElement, b: DetLineElement) -> DetLineElement:
    """Multiplication L_{(z1,z2)} x L_{(z2,z3)} -> L_{(z1,z3)}.

    In canonical coordinates the multiplication is scalar multiplication
    (the triple section is 1 there), so the product is the canonical
    element with coefficient canonical_scalar(a) * canonical_scalar(b).
    """
    if abs(a.ctx.z2.value - b.ctx.z1.value) > POINT_TOL:
        raise IncomparableError("middle cut points do not match")
    if not _same_base(a.ctx.spec.matrix, b.ctx.spec.matrix):
        raise IncomparableError("group elements do not match")
    target = classify(a.ctx.z1, b.ctx.z2, a.ctx.spec)
    return fiber_element(target, canonical_scalar(a) * canonical_scalar(b))


def dual_pairing(dual: DetLineElement, elt: DetLineElement) -> complex:
    """Evaluate a dual-line element on a det-line element over the same arc."""
    signs = (dual.ctx.classification.value, elt.ctx.classification.value)
    if signs != (-1, 1):
        raise IncomparableError("pairing needs a dual element and a det element")
    if not _same_ctx(dual.ctx.swapped(), elt.ctx):
        raise IncomparableError("elements live over different arcs")
    return canonical_scalar(dual) * canonical_scalar(elt)


def swap_transport(a: DetLineElement) -> DetLineElement:
    """The element of the swapped-cut (dual) line pairing to 1 against a/|a|^2.

    For a unit element the transport inverts the canonical coefficient,
    so the dual pairing of the transport with the original is exactly 1.
    """
    if a.ctx.classification is not Classification.POSITIVE:
        raise IncomparableError("swap transport is defined on det elements")
    return fiber_element(a.ctx.swapped(), 1.0 / canonical_scalar(a))


def _sorted_desc(cuts):
    """Cuts in descending circular order plus the permutation sign."""
    idx = sorted(range(len(cuts)), key=lambda i: -cuts[i].angle)
    return [cuts[i] for i in idx], _perm_sign(idx)


def section_value(
    z1: CutCirclePoint,
    z2: CutCirclePoint,
    z3: CutCirclePoint,
    spec: SpectralDecomposition,
) -> complex:
    """Scalar of the multiplication section in canonical frames.

    For a descending triple it is the determinant comparing the outer
    canonical frame with the concatenation of the two inner ones (which
    the frame convention makes exactly 1); other orderings extend by
    antisymmetry, raising the sorted value to the permutation sign.
    """
    (w1, w2, w3), sign = _sorted_desc([z1, z2, z3])
    inner = [_canonical_frame(classify(a, b, spec)) for a, b in ((w1, w2), (w2, w3))]
    outer = _canonical_frame(classify(w1, w3, spec))
    # a null pair's frame has no columns, and a 0 x 0 determinant is 1
    val = complex(np.linalg.det(outer.conj().T @ np.hstack(inner)))
    return val if sign > 0 else 1.0 / val


def random_element(ctx: ArcContext, rng) -> DetLineElement:
    """Unit-norm element in a randomly rotated frame (canonical for scalars)."""
    coeff = complex(np.exp(1j * rng.uniform(0.0, 2 * math.pi)))
    frame = _canonical_frame(ctx)
    k = frame.shape[1]
    if k:
        frame = frame @ random_unitary(k, rng).mat
    return DetLineElement(ctx, frame, coeff)


def associativity_check(
    z1: CutCirclePoint,
    z2: CutCirclePoint,
    z3: CutCirclePoint,
    z4: CutCirclePoint,
    spec: SpectralDecomposition,
    rng,
) -> float:
    """Max defect of ((a*b)*c) vs (a*(b*c)) over random unit elements."""
    defect = 0.0
    for _ in range(4):
        a = random_element(classify(z1, z2, spec), rng)
        b = random_element(classify(z2, z3, spec), rng)
        c = random_element(classify(z3, z4, spec), rng)
        left = gerbe_product(gerbe_product(a, b), c)
        right = gerbe_product(a, gerbe_product(b, c))
        _, d = same_element(left, right)
        defect = max(defect, d)
    return defect


def conjugate_fiber(
    k: UnitaryMatrix, a: DetLineElement, spec: SpectralDecomposition
) -> DetLineElement:
    """Push a fiber element along g -> k g k^{-1}, frame vectors by v -> k v.

    ``spec`` must decompose k g k^{-1}, or ``IncomparableError`` is raised.
    """
    ctx = a.ctx
    if k.dim != ctx.dim:
        raise DimensionError("conjugator dimension mismatch")
    if not _same_base(spec.matrix, k.mat @ ctx.spec.matrix @ k.mat.conj().T):
        raise IncomparableError("spec does not decompose k g k^-1")
    return DetLineElement(classify(ctx.z1, ctx.z2, spec), k.mat @ a.frame, a.coeff)


def weyl_line_map(
    g: UnitaryMatrix, a: DetLineElement, spec: SpectralDecomposition
) -> DetLineElement:
    """Fiber map over t -> g t g^{-1} on a torus; ``spec`` decomposes g t g^{-1}."""
    t = a.ctx.spec.matrix
    if float(np.linalg.norm(t - np.diag(np.diagonal(t)))) > UNITARITY_TOL * a.ctx.dim:
        raise DimensionError("base element is not a torus (diagonal) matrix")
    return conjugate_fiber(g, a, spec)
