"""Pointwise evaluation of the differential forms on G and on the cut cover.

Wedge-evaluation convention used everywhere: a k-form written as a trace
with k matrix-one-form slots is evaluated on k tangent vectors as the
full signed sum over all k! slot permutations, with no 1/k! factor.
Under this convention tr(M dg N dg)(X, Y) = tr(M X N Y) - tr(M Y N X).
For nu = -(1 / 24 pi^2) tr((g^{-1} dg)^3) the six signed slot orders are,
by cyclicity of the trace, three copies of tr(A [B, C]), so nu is
evaluated as -(1 / 8 pi^2) tr(A [B, C]) on directions A, B, C.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import (
    DEFAULT_RADIAL_HALF_WIDTH,
    CutCirclePoint,
    _check_cuts,
    _log_gap_phi,
    _resolvent_integral,
    cut_point,
    log_cut_array,
    spectrum_contour,
)
from .errors import IncomparableError
from .linalg import (
    SpectralDecomposition,
    TangentVector,
    UnitaryMatrix,
    _differences,
    _eigenbasis_sum,
)
from .projectors import (
    FD_STEP,
    ArcContext,
    _central,
    _context_at,
    _refuse_reach,
    _step,
    arc_projector,
    projector_derivative,
)

LOOP_STEP = 1e-3


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

    As tr((R X)(Q [insert] Y)) with Q = R R, the one product of two node
    stacks: R X, R Y, Q [insert] X and Q [insert] Y are each one 2-D
    product, the stack reshaped to (k n, n) times a fixed matrix.
    """
    q = r @ r
    px, py = (xm, ym) if insert is None else (insert @ xm, insert @ ym)
    rx, ry, qpx, qpy = ((s.reshape(-1, len(m)) @ m).reshape(s.shape)
                        for s, m in ((r, xm), (r, ym), (q, px), (q, py)))
    return np.einsum("kij,kji->k", rx, qpy) - np.einsum("kij,kji->k", ry, qpx)


def curvature_via_projectors(
    ctx: ArcContext, x: TangentVector, y: TangentVector, method: str = "residue"
) -> complex:
    """tr(P dP dP)(X, Y), with dP from ``projector_derivative(method)``.

    method "residue" uses the closed form of dP, "fd" central differences.
    """
    pos = ctx.positive
    if pos is None:
        return 0j
    p = arc_projector(pos)
    dpx = projector_derivative(pos, x, method)
    dpy = projector_derivative(pos, y, method)
    tr = np.trace(p @ dpx @ dpy) - np.trace(p @ dpy @ dpx)
    return ctx.classification.value * complex(tr)


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
    pos = ctx.positive
    if pos is None:
        return 0j
    xm, ym = x.ambient, y.ambient
    if method == "residue":
        spec = pos.spec
        inside = np.zeros(spec.dim)
        inside[pos.arc_indices] = 1.0
        w = -np.outer(1.0 - inside, inside) / _differences(spec.eigenvalues) ** 2
        return ctx.classification.value * _pair_sum(spec, w, xm, ym)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return ctx.classification.value * 0.5 * _resolvent_integral(
        pos.contour, pos.spec.matrix, lambda xs, r: _wedge_resolvent_trace(r, xm, ym)
    )


def projector_inserted_curvature(
    ctx: ArcContext, x: TangentVector, y: TangentVector
) -> complex:
    """(1 / 2 pi i) contour integral of tr((xi-g)^{-1} dg (xi-g)^{-2} P dg).

    Equal to curvature_via_contour as two-forms; the projector insertion
    halves the symmetry of the integrand, hence no 1/2 prefactor.
    """
    pos = ctx.positive
    if pos is None:
        return 0j
    xm, ym = x.ambient, y.ambient
    p = arc_projector(pos)
    return ctx.classification.value * _resolvent_integral(
        pos.contour, pos.spec.matrix, lambda xs, r: _wedge_resolvent_trace(r, xm, ym, p)
    )


def _curving_weights(z: CutCirclePoint, lam: np.ndarray) -> np.ndarray:
    """Residue sums of log_z(xi) / ((xi - lam_i)(xi - lam_j)^2) over all poles:
    -phi_2(s) / (lam_j^2 phi_1(s)^2) of the log gaps s (``_log_gap_phi``)."""
    _, phi1, phi2 = _log_gap_phi(z, lam)
    return -phi2 / (lam**2 * phi1**2)


def curving_eval(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
    method: str = "residue",
    rho: float = DEFAULT_RADIAL_HALF_WIDTH,
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
    return complex(1j / (4 * math.pi) * _resolvent_integral(
        spectrum_contour(z, spec, rho),
        spec.matrix,
        lambda xs, r: log_cut_array(z, xs) * _wedge_resolvent_trace(r, xm, ym),
    ))


def delta_pairs(
    z1: CutCirclePoint,
    z2: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
) -> complex:
    """delta of the curving: its alternating-sum pullback to pairs of cuts.

    delta(f)(z1, z2, g) = f(z2, g) - f(z1, g) for f = ``curving_eval``; the
    sign is pinned so the result matches tr(P dP dP) on positive pairs.
    """
    return curving_eval(z2, spec, x, y) - curving_eval(z1, spec, x, y)


def basic_three_form(
    g: UnitaryMatrix, x: TangentVector, y: TangentVector, z: TangentVector
) -> complex:
    """nu = -(1 / 24 pi^2) tr((g^{-1} dg)^3) = -(1 / 8 pi^2) tr(A [B, C])."""
    a, b, c = x.direction, y.direction, z.direction
    val = np.einsum("ij,ji->", a, b @ c - c @ b)
    return complex(-val / (8 * math.pi**2))


def three_curvature(
    g: UnitaryMatrix, x: TangentVector, y: TangentVector, z: TangentVector
) -> complex:
    """omega = 2 pi i nu = -(i / 12 pi) tr((g^{-1} dg)^3)."""
    return 2j * math.pi * basic_three_form(g, x, y, z)


def exterior_derivative_fd(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
    w: TangentVector,
) -> complex:
    """Cartan-formula exterior derivative of the curving at the cut z on G.

    ``spec`` is the decomposition of g = ``x.base``, where the bracket terms
    evaluate; each of the six stencil points g exp(+-hA) is a
    ``projectors._step`` from ``spec``, differenced by ``projectors._central``.
    Tangents extend left-invariantly (X(h) = hA), so the bracket terms use
    the matrix commutators of the directions.
    """
    if not np.array_equal(spec.matrix, x.base.mat):
        raise IncomparableError("spec is not the decomposition of the base point")

    def form(hspec: SpectralDecomposition, a, b) -> complex:
        h = UnitaryMatrix(hspec.matrix)
        return curving_eval(z, hspec, TangentVector(h, a), TangentVector(h, b))

    def d_along(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
        return _central(lambda t: form(_step(spec, a, t, z), b, c))

    a, b, c = x.direction, y.direction, w.direction
    term1 = d_along(a, b, c) - d_along(b, a, c) + d_along(c, a, b)
    term2 = (
        form(spec, a @ b - b @ a, c)
        - form(spec, a @ c - c @ a, b)
        + form(spec, b @ c - c @ b, a)
    )
    return complex(term1 - term2)


def curving_z_derivative_fd(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    x: TangentVector,
    y: TangentVector,
) -> complex:
    """Derivative of the curving in the cut direction (contract: zero).

    Turning z by +-h moves it along a chord of at most h: the reach is h.
    """
    _refuse_reach(spec, FD_STEP, FD_STEP, z)
    return _central(lambda t: curving_eval(cut_point(z.angle + t), spec, x, y))


# ---------------------------------------------------------------------------
# the determinant-line connection as a plaquette holonomy

_SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))  # corners in (s, t), counter-clockwise


def connection_holonomy(
    ctx: ArcContext, a: np.ndarray, b: np.ndarray, h: float = LOOP_STEP
) -> complex:
    """Holonomy of the connection sum_i <b_i, db_i> round a square of side h.

    The square is centred at g in the chart (s, t) -> g exp(sA + tB) and runs
    counter-clockwise.  The holonomy is the product of the link determinants
    det(F_k^H F_{k+1}) of the corner arc frames F_k (Fukui, Hatsugai & Suzuki
    2005), in which any choice of frame cancels; only a positive context has
    frames.  1j * angle(hol) / h**2 is the curvature on (gA, gB) up to O(h^2).
    Each corner is a ``projectors._step`` by h/2 along +-A +-B from g.
    """
    f = np.array([_context_at(ctx, s * a + t * b, h / 2).basis for s, t in _SQUARE])
    # link k is det(F_k^H F_{k+1}); the last one closes the loop
    links = np.linalg.det(f.conj().swapaxes(1, 2) @ np.roll(f, -1, axis=0))
    return complex(np.prod(links))
