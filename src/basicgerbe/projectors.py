"""Spectral-arc projectors and their derivatives.

An ordered pair of cut points (z1, z2) together with a unitary g defines
an arc of the circle and hence a sum of eigenspaces: a range of columns of
the eigenvector frame, each carrying its eigenvalue.  This module
classifies such pairs into strata (positive/null/negative), builds the Riesz
projector onto the arc eigenspaces (closed form and contour quadrature),
extracts the canonically ordered eigenbasis that determinant-line fibers
use as a frame, and differentiates projectors in tangent directions.
Every finite-difference point g exp(tA) is a ``_step``: exp(tA) through
``eigh`` of the Hermitian iA, refused by the one step rule ``_refuse_reach``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import (
    Contour,
    CutCirclePoint,
    _check_cuts,
    _resolvent_integral,
    circle_gt,
)
from .errors import EmptySpaceError, GapError, StepTooLargeError
from .linalg import (
    TWO_PI,
    SpectralDecomposition,
    TangentVector,
    UnitaryMatrix,
    _differences,
    _eigenbasis_sum,
    spectral_decompose,
)

FD_STEP = 1e-5
MIN_SIMPLE_GAP = 1e-3


def _refuse_reach(
    spec: SpectralDecomposition, h: float, reach: float, *cuts: CutCirclePoint
) -> None:
    """The step rule: a step h that moves a stencil point by up to ``reach``
    must stay below the distance from spec(g) to the cuts, so that no
    eigenvalue meets a cut and every arc keeps its eigenvalue count."""
    distance = min(float(np.min(np.abs(spec.eigenvalues - z.value))) for z in cuts)
    if not reach < distance:
        raise StepTooLargeError(
            f"FD step h = {h:g} moves an eigenvalue up to {reach:.4g}, which "
            f"reaches the distance {distance:.4g} from spec(g) to the nearest cut"
        )


def _step(
    spec: SpectralDecomposition, a: np.ndarray, t: float, *cuts: CutCirclePoint
) -> SpectralDecomposition:
    """The decomposition of g exp(tA), g = ``spec.matrix``, with reach |t| ||A||_2.

    With iA = V diag(mu) V^H, exp(tA) = V diag(e^{-i t mu}) V^H, and by
    Bauer-Fike for normal g every eigenvalue of g exp(sA) lies within
    ||exp(sA) - 1||_2 <= |s| max |mu| of spec(g), for every |s| <= |t|.
    """
    mu, v = np.linalg.eigh(1j * a)
    _refuse_reach(spec, abs(t), abs(t) * float(np.max(np.abs(mu))), *cuts)
    return spectral_decompose(
        UnitaryMatrix(spec.matrix @ (v * np.exp(-1j * t * mu)) @ v.conj().T)
    )


class Classification(enum.Enum):
    """The stratum of a cut pair; the value is the sign of the pair's line."""

    POSITIVE = 1
    NULL = 0
    NEGATIVE = -1


@dataclass(frozen=True, eq=False)
class ArcContext:
    """A pair of cut points with the eigenvalues of g caught between them.

    The arc between the cuts avoids 1, so ``arc_indices`` is the range of
    the frame columns of ``spec`` whose eigenvalues lie on it.  ``classify``
    memoizes one context per cut pair on the decomposition, and ``basis``
    caches its canonical arc basis.
    """

    z1: CutCirclePoint
    z2: CutCirclePoint
    spec: SpectralDecomposition
    classification: Classification
    arc_indices: range

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def arc_dim(self) -> int:
        """Eigenvalues between the cuts, counted with multiplicity."""
        return len(self.arc_indices)

    def swapped(self) -> "ArcContext":
        return classify(self.z2, self.z1, self.spec)

    @property
    def positive(self) -> "ArcContext | None":
        """The positive context of the same arc, or None for a null pair.

        The stratum rule: a quantity on this pair is ``classification.value``
        times the same quantity on ``positive``, and 0 when that is None.
        """
        if self.classification is Classification.NULL:
            return None
        return self if self.classification.value > 0 else self.swapped()

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis (n x arc_dim) of the arc eigenspace, in canonical order.

        It is the arc's column block of ``spec.frame`` reversed, a read-only
        view cached on the context: columns run descending in angle from z1
        toward z2, and in reverse frame order within a repeated eigenvalue,
        so an arc's basis is those of its two parts side by side.
        """
        if self.classification is not Classification.POSITIVE:
            raise EmptySpaceError("arc basis requires a positive context")
        # z1 is the upper cut, so descending from z1 is descending column
        return self.spec.frame[:, self.arc_indices.start:self.arc_indices.stop][:, ::-1]

    @property
    def contour(self) -> Contour:
        """Annular sector enclosing exactly the eigenvalues between the cuts.

        The radial sides sit halfway between each cut and the nearest
        eigenvalue outside the arc (or the identity), so the contour stays
        well away from every pole of the resolvent.
        """
        if not self.arc_indices:
            raise EmptySpaceError("no eigenvalues between the cut points")
        angles = self.spec.angles
        i, j = self.arc_indices.start, self.arc_indices.stop
        lo, hi = sorted((self.z1.angle, self.z2.angle))
        below = angles[i - 1] if i else 0.0
        above = angles[j] if j < self.dim else TWO_PI
        return Contour(lo - (lo - below) / 2, hi + (above - hi) / 2)


def classify(
    z1: CutCirclePoint, z2: CutCirclePoint, spec: SpectralDecomposition
) -> ArcContext:
    """Classify (z1, z2, g) and record which eigenvalues lie between the cuts.

    Memoized in ``spec.arcs``: a pair seen before on this decomposition
    returns the same object.  A rejected cut is not stored; it raises again.
    """
    if (z1.value, z2.value) in spec.arcs:
        return spec.arcs[z1.value, z2.value]
    _check_cuts(spec.eigenvalues, z1, z2)
    positive = circle_gt(z1, z2)  # coincident cuts raise here
    lo, hi = np.searchsorted(spec.angles, sorted((z1.angle, z2.angle)))
    arc = range(lo, hi)
    cls = Classification((1 if positive else -1) if arc else 0)
    ctx = spec.arcs[z1.value, z2.value] = ArcContext(z1, z2, spec, cls, arc)
    return ctx


def arc_projector(ctx: ArcContext, method: str = "residue") -> np.ndarray:
    """Projector onto the sum of eigenspaces between the cuts.

    The null stratum gives the zero matrix.  The negative stratum is never
    computed directly; callers read the projector of ``ctx.positive``.
    """
    n = ctx.dim
    if ctx.classification is Classification.NULL:
        return np.zeros((n, n), dtype=complex)
    if ctx.classification is Classification.NEGATIVE:
        raise EmptySpaceError(
            "negative context: swap the cuts and work with the dual line"
        )
    if method == "residue":
        b = ctx.basis
        return b @ b.conj().T
    if method == "quadrature":
        return _resolvent_integral(ctx.contour, ctx.spec.matrix, lambda xs, r: r)
    raise ValueError(f"unknown method {method!r}")


def _context_at(ctx: ArcContext, a: np.ndarray, t: float) -> ArcContext:
    """The same cut pair at g exp(tA), which ``_step`` keeps on every arc."""
    return classify(ctx.z1, ctx.z2, _step(ctx.spec, a, t, ctx.z1, ctx.z2))


def _fd_projector(ctx: ArcContext, x: TangentVector) -> np.ndarray:
    """Central difference, step ``FD_STEP``, of t -> arc projector at g exp(tA)."""
    h = FD_STEP
    plus, minus = (arc_projector(_context_at(ctx, x.direction, s)) for s in (h, -h))
    return (plus - minus) / (2 * h)


def _indicator_derivative(
    spec: SpectralDecomposition, indices, x: TangentVector
) -> np.ndarray:
    """Derivative along X of the projector onto the frame columns ``indices``.

    sum_ij (chi_i - chi_j) / (lambda_i - lambda_j) P_i X P_j, the divided
    difference of the indicator chi of ``indices``, which holds whole clusters.
    """
    chi = np.zeros(spec.dim)
    chi[indices] = 1.0
    w = (chi[:, None] - chi[None, :]) / _differences(spec.eigenvalues)
    return _eigenbasis_sum(spec, w, x.ambient)


def projector_derivative(
    ctx: ArcContext, x: TangentVector, method: str = "residue"
) -> np.ndarray:
    """Directional derivative of the arc projector along X = gA.

    Closed form: sum over i in the arc, j outside, of
    (lambda_i - lambda_j)^{-1} (P_i X P_j + P_j X P_i).
    """
    if ctx.classification is not Classification.POSITIVE:
        raise EmptySpaceError("projector derivative requires a positive context")
    if method == "fd":
        return _fd_projector(ctx, x)
    if method != "residue":
        raise ValueError(f"unknown method {method!r}")
    return _indicator_derivative(ctx.spec, ctx.arc_indices, x)


def single_projector_derivative(
    spec: SpectralDecomposition, k: int, x: TangentVector
) -> np.ndarray:
    """Derivative along X = gA of the projector onto the eigenvalue of column k."""
    lam = spec.eigenvalues
    same = lam == lam[k]
    gaps = np.where(same, np.inf, np.abs(lam - lam[k]))
    if float(gaps.min()) < MIN_SIMPLE_GAP:
        raise GapError(
            f"eigenvalue {k} is within {float(gaps.min()):.2e} of a neighbor"
        )
    return _indicator_derivative(spec, same, x)
