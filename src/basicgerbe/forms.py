"""Pointwise evaluation of the differential forms on G and on the cut cover.

Wedge-evaluation convention used everywhere: a k-form written as a trace
with k matrix-one-form slots is evaluated on k tangent vectors as the
full signed sum over all k! slot permutations, with no 1/k! factor.
Under this convention tr(M dg N dg)(X, Y) = tr(M X N Y) - tr(M Y N X).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from .contour import (
    CutCirclePoint,
    _check_cuts,
    _resolvent,
    arc_contour,
    log_cut,
    log_cut_array,
    quad_integrate,
    spectrum_contour,
)
from .errors import DimensionError, RealignmentError, StepTooLargeError
from .linalg import (
    SpectralDecomposition,
    TangentVector,
    UnitaryMatrix,
    _differences,
    _eigenbasis_sum,
    _perm_sign,
    spectral_decompose,
)
from .projectors import (
    ArcContext,
    Classification,
    arc_basis,
    arc_projector,
    classify,
    projector_derivative,
)

FD_STEP = 1e-5
FD_STEP_NESTED = 1e-3
REALIGN_LIMIT = 0.1


def wedge_trace_eval(mats, slots) -> complex:
    """tr(M1 dg M2 dg ... Mk dg) evaluated on k slot matrices.

    Full permutation sum with signs, no 1/k! factor.  ``mats`` are the k
    coefficient matrices, ``slots`` the k ambient tangent matrices.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    slots = [np.asarray(s, dtype=complex) for s in slots]
    if len(mats) != len(slots):
        raise DimensionError("coefficient/slot count mismatch")
    k = len(slots)
    total = 0j
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        acc = np.eye(mats[0].shape[0], dtype=complex)
        for m, p in zip(mats, perm):
            acc = acc @ m @ slots[p]
        total += sign * np.trace(acc)
    return complex(total)


def _pair_sum(
    spec: SpectralDecomposition, w: np.ndarray, xm: np.ndarray, ym: np.ndarray
) -> complex:
    """sum_ij w_ij [tr(P_i X P_j Y) - tr(P_i Y P_j X)].

    The second trace is the first with w transposed, so one eigenbasis sum
    with the antisymmetrized weights gives both.
    """
    return complex(np.sum(_eigenbasis_sum(spec, w - w.T, xm) * ym.T))


def _wedge_resolvent_trace(
    r: np.ndarray, xm: np.ndarray, ym: np.ndarray, insert: np.ndarray | None = None
) -> np.ndarray:
    """tr(R X R^2 [insert] Y) - tr(R Y R^2 [insert] X) at every node R = r[k].

    As tr((R X R)(R [insert] Y)): R X and R Y (and R [insert] X, Y) are one
    2-D product each over the stacked nodes, then two batched products.
    """

    def times(m: np.ndarray) -> np.ndarray:  # R m at every node
        return (r.reshape(-1, m.shape[0]) @ m).reshape(r.shape)

    rx, ry = times(xm), times(ym)
    rpx, rpy = (rx, ry) if insert is None else (times(insert @ xm), times(insert @ ym))
    return np.einsum("nij,nji->n", rx @ r, rpy) - np.einsum("nij,nji->n", ry @ r, rpx)


def _signed(ctx: ArcContext):
    """(positive context, sign) implementing the swap/zero stratum rules."""
    if ctx.classification is Classification.NULL:
        return None, 0.0
    if ctx.classification is Classification.NEGATIVE:
        return ctx.swapped(), -1.0
    return ctx, 1.0


def curvature_via_projectors(
    ctx: ArcContext, x: TangentVector, y: TangentVector, method: str = "residue"
) -> complex:
    """tr(P dP dP)(X, Y), with dP from ``projector_derivative(method)``.

    method "residue" uses the closed form of dP, "fd" central differences.
    """
    pos, sign = _signed(ctx)
    if sign == 0.0:
        return 0j
    p = arc_projector(pos)
    dpx = projector_derivative(pos, x, method)
    dpy = projector_derivative(pos, y, method)
    return sign * complex(np.trace(p @ dpx @ dpy) - np.trace(p @ dpy @ dpx))


def curvature_via_contour(
    ctx: ArcContext, x: TangentVector, y: TangentVector, method: str = "residue"
) -> complex:
    """The curvature two-form of the determinant-line connection.

    quadrature: (1 / 4 pi i) of the contour integral of
    tr((xi-g)^{-1} dg (xi-g)^{-2} dg) around the arc.
    residue: the closed form
    -sum_{i not in arc, j in arc} (lam_i - lam_j)^{-2}
        [tr(P_i X P_j Y) - tr(P_i Y P_j X)].
    """
    pos, sign = _signed(ctx)
    if sign == 0.0:
        return 0j
    xm, ym = x.ambient, y.ambient
    if method == "residue":
        spec = pos.spec
        inside = np.zeros(spec.count)
        inside[list(pos.arc_indices)] = 1.0
        w = -np.outer(1.0 - inside, inside) / _differences(spec.eigenvalues) ** 2
        return sign * _pair_sum(spec, w, xm, ym)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return sign * 0.5 * quad_integrate(
        arc_contour(pos.z1, pos.z2, pos.spec),
        lambda xs: _wedge_resolvent_trace(_resolvent(pos.spec.matrix, xs), xm, ym),
        vectorized=True,
    )


def projector_inserted_curvature(
    ctx: ArcContext, x: TangentVector, y: TangentVector
) -> complex:
    """(1 / 2 pi i) contour integral of tr((xi-g)^{-1} dg (xi-g)^{-2} P dg).

    Equal to curvature_via_contour as two-forms; the projector insertion
    halves the symmetry of the integrand, hence no 1/2 prefactor.
    """
    pos, sign = _signed(ctx)
    if sign == 0.0:
        return 0j
    xm, ym = x.ambient, y.ambient
    g = pos.spec.matrix
    p = arc_projector(pos)
    return sign * quad_integrate(
        arc_contour(pos.z1, pos.z2, pos.spec),
        lambda xs: _wedge_resolvent_trace(_resolvent(g, xs), xm, ym, insert=p),
        vectorized=True,
    )


def _curving_weights(z: CutCirclePoint, lam: np.ndarray) -> np.ndarray:
    """Residue sums of log_z(xi) / ((xi - lam_i)(xi - lam_j)^2) over all poles.

    Off the diagonal:
    (log_z lam_i - log_z lam_j) / (lam_i - lam_j)^2 - 1 / (lam_j (lam_i - lam_j));
    on it, the order-3 residue -1 / (2 lam_i^2).
    """
    logs = np.array([log_cut(z, v) for v in lam])
    d = _differences(lam)
    w = (logs[:, None] - logs[None, :]) / d**2 - 1.0 / (lam[None, :] * d)
    np.fill_diagonal(w, -0.5 / lam**2)
    return w


def curving_eval(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
    method: str = "residue",
    rho: float = 0.5,
) -> complex:
    """The curving two-form f at (z, g).

    quadrature: (1 / 8 pi^2) of the contour integral of
    log_z(xi) tr((xi-g)^{-1} dg (xi-g)^{-2} dg) around all of spec(g).
    residue: (i / 4 pi) sum_ij w_ij [tr(P_i X P_j Y) - tr(P_i Y P_j X)],
    with w_ij the residues of the integrand's scalar part at lam_i, lam_j
    (``_curving_weights``), summed in the eigenbasis of g.
    """
    xm, ym = x.ambient, y.ambient
    if method == "residue":
        _check_cuts(spec.eigenvalues, z)
        w = _curving_weights(z, spec.eigenvalues)
        return complex(1j / (4 * math.pi) * _pair_sum(spec, w, xm, ym))
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    def integrand(xs: np.ndarray) -> np.ndarray:
        r = _resolvent(spec.matrix, xs)
        return log_cut_array(z, xs) * _wedge_resolvent_trace(r, xm, ym)

    return complex(
        1j
        / (4 * math.pi)
        * quad_integrate(spectrum_contour(z, spec, rho), integrand, vectorized=True)
    )


def delta_pairs(
    form,
    z1: CutCirclePoint,
    z2: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
) -> complex:
    """The alternating-sum pullback of a two-form on the cut cover.

    delta(f)(z1, z2, g) = f(z2, g) - f(z1, g); the sign is pinned so the
    result matches tr(P dP dP) on positive pairs.
    """
    return form(z2, spec, x, y) - form(z1, spec, x, y)


def basic_three_form(
    g: UnitaryMatrix, x: TangentVector, y: TangentVector, z: TangentVector
) -> complex:
    """nu = -(1 / 24 pi^2) tr((g^{-1} dg)^3), the canonical closed 3-form."""
    eye = np.eye(g.dim)
    val = wedge_trace_eval([eye, eye, eye], [x.direction, y.direction, z.direction])
    return complex(-val / (24 * math.pi**2))


def three_curvature(
    g: UnitaryMatrix, x: TangentVector, y: TangentVector, z: TangentVector
) -> complex:
    """omega = 2 pi i nu = -(i / 12 pi) tr((g^{-1} dg)^3)."""
    return 2j * math.pi * basic_three_form(g, x, y, z)


def _shifted(g: UnitaryMatrix, a: np.ndarray, t: float) -> UnitaryMatrix:
    return UnitaryMatrix(g.mat @ scipy.linalg.expm(t * a))


def exterior_derivative_fd(
    form,
    g: UnitaryMatrix,
    x: TangentVector,
    y: TangentVector,
    z: TangentVector,
    h: float = FD_STEP,
) -> complex:
    """Cartan-formula exterior derivative of a two-form on G.

    ``form(g, A, B)`` evaluates the two-form at g on the directions A, B.
    Tangents extend left-invariantly (X(h) = hA), so the bracket terms use
    the matrix commutators of the directions.
    """
    dirs = [x.direction, y.direction, z.direction]

    def d_along(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
        plus = form(_shifted(g, a, h), b, c)
        minus = form(_shifted(g, a, -h), b, c)
        return (plus - minus) / (2 * h)

    a, b, c = dirs
    term1 = d_along(a, b, c) - d_along(b, a, c) + d_along(c, a, b)
    term2 = (
        form(g, a @ b - b @ a, c)
        - form(g, a @ c - c @ a, b)
        + form(g, b @ c - c @ b, a)
    )
    return complex(term1 - term2)


def curving_form_on_group(z: CutCirclePoint):
    """Adapter: the curving at a fixed cut as a two-form on G for FD work."""

    def form(g: UnitaryMatrix, a: np.ndarray, b: np.ndarray) -> complex:
        spec = spectral_decompose(g)
        return curving_eval(
            z, spec, TangentVector(g, a), TangentVector(g, b), method="residue"
        )

    return form


def curving_z_derivative_fd(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
    h: float = FD_STEP,
) -> complex:
    """Derivative of the curving in the cut direction (contract: zero)."""
    zp = CutCirclePoint(complex(np.exp(1j * (z.angle + h))))
    zm = CutCirclePoint(complex(np.exp(1j * (z.angle - h))))
    return (curving_eval(zp, spec, x, y) - curving_eval(zm, spec, x, y)) / (2 * h)


# ---------------------------------------------------------------------------
# the determinant-line connection in frames


def _gauged_frame(
    z1: CutCirclePoint,
    z2: CutCirclePoint,
    g: UnitaryMatrix,
    pivots,
    reference: np.ndarray | None,
) -> np.ndarray:
    ctx = classify(z1, z2, spectral_decompose(g))
    if ctx.classification is not Classification.POSITIVE:
        raise StepTooLargeError("curve left the positive stratum")
    f = arc_basis(ctx).basis.copy()
    if reference is not None and f.shape != reference.shape:
        raise StepTooLargeError("arc dimension changed along the curve")
    for j, p in enumerate(pivots):
        ph = f[p, j]
        if abs(ph) < 1e-12:
            raise RealignmentError("pivot entry vanished along the curve")
        f[:, j] *= abs(ph) / ph
    if reference is not None:
        q = reference.conj().T @ f
        if float(np.linalg.norm(q - np.eye(q.shape[0]))) > REALIGN_LIMIT:
            raise RealignmentError("frame drifted too far to align continuously")
    return f


def connection_one_form(ctx: ArcContext, a: np.ndarray, h: float = FD_STEP) -> complex:
    """Value on A of the determinant connection: sum_i <b_i, b_i'>.

    The frames b_i at t = -h, 0, h along g exp(tA) share one smooth gauge:
    each column's phase is pinned at the pivot row of its t = 0 column,
    which stays smooth while consecutive frames stay close (enforced via
    the realignment limit).
    """
    if ctx.classification is not Classification.POSITIVE:
        raise StepTooLargeError("frames need a positive context")
    g0 = UnitaryMatrix(ctx.spec.matrix)
    f0 = arc_basis(ctx).basis
    pivots = [int(np.argmax(np.abs(f0[:, j]))) for j in range(f0.shape[1])]
    f0 = _gauged_frame(ctx.z1, ctx.z2, g0, pivots, None)
    fm = _gauged_frame(ctx.z1, ctx.z2, _shifted(g0, a, -h), pivots, f0)
    fp = _gauged_frame(ctx.z1, ctx.z2, _shifted(g0, a, h), pivots, f0)
    dot = (fp - fm) / (2 * h)
    return complex(np.einsum("ij,ij->", f0.conj(), dot))


def connection_curvature_fd(
    ctx: ArcContext, a: np.ndarray, b: np.ndarray, h: float = FD_STEP_NESTED
) -> complex:
    """Curvature of the determinant connection by nested finite differences.

    Uses the chart (s, t) -> g exp(sA + tB); coordinate fields commute, so
    the curvature on (gA, gB) is d/ds a(d_t) - d/dt a(d_s) at the origin.
    """
    if ctx.classification is not Classification.POSITIVE:
        raise StepTooLargeError("curvature stencil needs a positive context")
    g0 = UnitaryMatrix(ctx.spec.matrix)
    f0 = arc_basis(ctx).basis
    pivots = [int(np.argmax(np.abs(f0[:, j]))) for j in range(f0.shape[1])]
    ref = _gauged_frame(ctx.z1, ctx.z2, g0, pivots, None)

    def frame_at(s: float, t: float) -> np.ndarray:
        g = UnitaryMatrix(g0.mat @ scipy.linalg.expm(s * a + t * b))
        return _gauged_frame(ctx.z1, ctx.z2, g, pivots, ref)

    def conn_t(s: float) -> complex:
        fc = frame_at(s, 0.0)
        dot = (frame_at(s, h) - frame_at(s, -h)) / (2 * h)
        return complex(np.einsum("ij,ij->", fc.conj(), dot))

    def conn_s(t: float) -> complex:
        fc = frame_at(0.0, t)
        dot = (frame_at(h, t) - frame_at(-h, t)) / (2 * h)
        return complex(np.einsum("ij,ij->", fc.conj(), dot))

    ds_at = (conn_t(h) - conn_t(-h)) / (2 * h)
    dt_as = (conn_s(h) - conn_s(-h)) / (2 * h)
    return complex(ds_at - dt_as)
