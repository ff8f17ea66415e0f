"""Geometry of the cut unit circle and contour integration.

The circle U(1) with the identity removed carries the partial order
"z1 > z2 iff z2 rotates counter-clockwise into z1 without passing 1".
This module implements that order, the betweenness predicate, the family
of branch logarithms log_z with cut along the ray through z and
log_z(1) = 0 (``log_cut_array``), the cut-exclusion check, the
annular-sector contour (``projectors.ArcContext.contour`` builds the one
round a spectral arc) and adaptive Gauss-Kronrod contour quadrature.

In polar coordinates (r, theta) the annular sector
{1-rho <= |xi| <= 1+rho, theta_lo <= arg xi <= theta_hi} is the rectangle
[1-rho, 1+rho] x [theta_lo, theta_hi], and its panels are straight pieces
of that rectangle's boundary, mapped by xi = r e^{i theta}: each arc of
radius r is cut into equal panels at most 4 |log r| wide in angle, and each
radial side is cut at r = 1, so every pole on the unit circle stays outside
the golden Bernstein ellipse of each arc panel and sits at an end of a
radial one.  Quadrature applies one Gauss-Kronrod rule to every panel: a
pass evaluates the 2n+1 Kronrod nodes of every panel once, n of which are
the nodes of the n-point Gauss-Legendre rule, and returns the Kronrod
estimate once the Gauss estimate agrees with it to QUAD_RTOL relative to
max(1, |value|).  It starts at Gauss n = DEFAULT_NODES = 32 and doubles n;
if the two still differ at n = MAX_NODES = 1024 (2049 nodes per panel), it
raises QuadratureError.  A vectorized integrand gets all panels of a pass
in as few calls as hold them, at most ``max_nodes`` nodes each.  The rules
are built once per n in O(n^2) operations and O(n) memory, by one Newton
solver in theta = arccos(1 - 2t) on Chebyshev cosine series: that of P_n
gives the n Gauss nodes, that of the Stieltjes polynomial E_{n+1} the n+1
new ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BoundaryError,
    EvaluationError,
    IllConditionedCutError,
    IncomparableError,
    QuadratureError,
)
from .linalg import TWO_PI, SpectralDecomposition

POINT_TOL = 1e-12
CUT_EXCLUSION = 1e-6  # minimal chordal distance between a cut and an eigenvalue
DEFAULT_RADIAL_HALF_WIDTH = 0.5
DEFAULT_NODES = 32
MAX_NODES = 1024
QUAD_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class CutCirclePoint:
    """A point of U(1) \\ {1}."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not cmath.isfinite(v):
            raise BoundaryError(f"cut point {v!r} is not finite")
        if abs(abs(v) - 1.0) > POINT_TOL:
            raise BoundaryError(f"|z| = {abs(v)!r} is not on the unit circle")
        if abs(v - 1.0) <= POINT_TOL:
            raise BoundaryError("the identity 1 is not a cut point")

    @property
    def angle(self) -> float:
        """Argument in (0, 2*pi)."""
        return math.atan2(self.value.imag, self.value.real) % TWO_PI


def cut_point(angle: float) -> CutCirclePoint:
    """Cut point at the given angle (radians)."""
    return CutCirclePoint(complex(np.exp(1j * angle)))


def circle_gt(z1: CutCirclePoint, z2: CutCirclePoint) -> bool:
    """True iff z2 rotates counter-clockwise into z1 without passing 1."""
    if abs(z1.value - z2.value) <= POINT_TOL:
        raise IncomparableError("equal cut points are incomparable")
    return z1.angle > z2.angle


def circle_between(z1: CutCirclePoint, z2: CutCirclePoint, lam: complex) -> bool:
    """True iff lam lies in the component of U(1) - {z1, z2} not containing 1.

    Symmetric in (z1, z2).
    """
    if abs(z1.value - z2.value) <= POINT_TOL:
        raise IncomparableError("cut points coincide")
    lam = complex(lam)
    if min(abs(lam - z1.value), abs(lam - z2.value)) <= POINT_TOL:
        raise BoundaryError("point coincides with an arc endpoint")
    lo, hi = sorted((z1.angle, z2.angle))
    a = math.atan2(lam.imag, lam.real) % TWO_PI
    return lo < a < hi


def log_cut_array(z: CutCirclePoint, xs: np.ndarray) -> np.ndarray:
    """Branch of log cut along the ray R_z, normalized by log_z(1) = 0.

    Vectorized over ``xs``.  Off the ray the imaginary part lies in
    (arg z - 2*pi, arg z) for arg z in (0, 2*pi); callers keep ``xs`` off
    the ray, where the branch jumps.
    """
    xs = np.asarray(xs, dtype=complex)
    a = z.angle
    phi = np.angle(xs)
    phi -= TWO_PI * np.floor((phi - (a - TWO_PI)) / TWO_PI)
    return np.log(np.abs(xs)) + 1j * phi


# ---------------------------------------------------------------------------
# contours


@dataclass(frozen=True)
class Contour:
    """CCW boundary of {1-rho <= |xi| <= 1+rho, theta_lo <= arg xi <= theta_hi}."""

    theta_lo: float
    theta_hi: float
    rho: float = DEFAULT_RADIAL_HALF_WIDTH

    @property
    def segments(self) -> np.ndarray:
        """The panels in CCW order, one row (r0, theta0, r1, theta1) each:
        the outer arc, a radial side, the inner arc, the other radial side."""
        r_in, r_out = 1.0 - self.rho, 1.0 + self.rho
        rows = []
        for r, a, b, r_next in ((r_out, self.theta_lo, self.theta_hi, r_in),
                                (r_in, self.theta_hi, self.theta_lo, r_out)):
            k = max(1, math.ceil(abs(b - a) / (4 * abs(math.log(r)))))
            ts = np.linspace(a, b, k + 1)
            rows += [(r, t0, r, t1) for t0, t1 in zip(ts[:-1], ts[1:])]
            rows += [(r, b, 1.0, b), (1.0, b, r_next, b)]
        return np.array(rows)


def _check_cuts(eigenvalues: np.ndarray, *cuts: CutCirclePoint) -> None:
    """Reject cuts closer than CUT_EXCLUSION to any of the eigenvalues."""
    for z in cuts:
        d = float(np.min(np.abs(eigenvalues - z.value)))
        if d < CUT_EXCLUSION:
            raise IllConditionedCutError(
                f"cut within {d:.2e} of an eigenvalue (limit {CUT_EXCLUSION:.0e})"
            )


def spectrum_contour(
    z: CutCirclePoint,
    spec: SpectralDecomposition,
    rho: float = DEFAULT_RADIAL_HALF_WIDTH,
) -> Contour:
    """Annular-sector contour around all of spec(g), avoiding the ray R_z."""
    _check_cuts(spec.eigenvalues, z)
    a = z.angle
    shifted = (np.angle(spec.eigenvalues) - a) % TWO_PI
    gap_lo = shifted.min()
    gap_hi = TWO_PI - shifted.max()
    return Contour(a + gap_lo / 2, a + TWO_PI - gap_hi / 2, rho)


def _resolvent(g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(xi - g)^{-1} at every node xi of ``xs``, stacked along the first axis."""
    return np.linalg.inv(xs[:, None, None] * np.eye(g.shape[0]) - g)


def _cosine_sum(top: float, coef: np.ndarray, th: np.ndarray):
    """sum_k coef_k cos((top - 2k) th) and its derivative in th, at every th.

    Horner's rule in u = exp(-2i th): with S = sum_k coef_k u^k, the sum is
    Re(e^{i top th} S) and its derivative Re(i e^{i top th} (top S - 2u S')),
    O(len(th) len(coef)) work in O(len(th)) memory.
    """
    u = np.exp(-2j * th)
    s = ds = np.zeros_like(u)
    for c in coef[::-1]:
        ds = ds * u + s
        s = s * u + c
    ph = np.exp(1j * top * th)
    return (ph * s).real, (1j * ph * (top * s - 2.0 * u * ds)).real


def _newton(top: float, coef: np.ndarray, th: np.ndarray) -> np.ndarray:
    """The zeros of _cosine_sum(top, coef, .) that Newton's method reaches
    from the angles th."""
    for _ in range(10):  # no n tried needs more than 5
        f, df = _cosine_sum(top, coef, th)
        dth = f / df
        th = th - dth
        if np.max(np.abs(dth)) < 1e-15:
            return th
    raise EvaluationError("Gauss-Kronrod nodes did not converge: Newton's method "
                          f"on a cosine series of degree {top:g}")


@lru_cache(maxsize=32)
def _kronrod(n: int):
    """The (2n+1)-node Gauss-Kronrod rule on [0, 1] that extends the n-node
    Gauss-Legendre rule.

    Returns the 2n+1 ascending nodes, whose odd positions hold the n Gauss
    nodes, and a (2, 2n+1) array of weights: the Kronrod rule's, then the
    Gauss rule's on the same nodes (zero at the n+1 new ones).

    With x = 1 - 2t = cos(theta), _newton finds both node sets of the half
    [0, 1/2], which the rule mirrors, as zeros of cosine series:
    - the Gauss nodes, of P_n(cos theta) = sum_k g_k g_{n-k} cos((n-2k) theta)
      with g_k = binom(2k, k) / 4^k, from Tricomi's guesses pi (4k-1) / (4n+2)
      (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652); their weights
      on [0, 1] are 1 / (dP_n/dtheta)^2;
    - the n+1 new nodes, of the Stieltjes polynomial E_{n+1}(cos theta) =
      sum_k c_k cos((n+1-2k) theta), from the midpoints between neighbouring
      Gauss angles; Piessens & Branders (Math. Comp. 28 (1974) 135) give the
      c_k by a recurrence.
    The Kronrod weights are those of the interpolatory rule on the zeros of
    P_n E_{n+1}: at every node, a Gauss weight (zero at a new node) plus
    -C sin(theta) / (d/dtheta)(P_n E_{n+1}), with C = 2^{2n+1} n!^2 / (2n+1)!
    on [-1, 1].  All of it is O(n^2) work in O(n) memory.
    """
    h = (n + 1) // 2  # the Gauss nodes in (0, 1/2], and E's last index
    a = n + 2.0 * np.arange(1, h)
    nn = n * (n + 1.0)
    tau = (n + 2.0) / (2 * n + 3) * np.cumprod(np.concatenate(
        ([1.0], ((a - 1) * a - nn) * (a + 2) / (a * ((a + 3) * (a + 2) - nn)))))
    c = np.empty(h + 1)
    c[0], c[1] = 1.0, tau[0] - 1.0
    for j in range(2, h + 1):
        c[j] = tau[:j] @ c[j - 1::-1]
    if n % 2:
        c[h] /= 2  # the cos(0) term
    i = np.arange(1, n + 1)
    g = np.cumprod(np.concatenate(([1.0], (2.0 * i - 1) / (2.0 * i))))
    k = np.arange(n // 2 + 1)
    p_coef = np.where(2 * k < n, 2.0, 1.0) * g[k] * g[n - k]
    # the ascending angles of [0, 1/2]: Gauss at odd positions, new at even;
    # the midpoint pi/2 is the last Gauss guess for odd n, the last midpoint
    # between Gauss angles for even n
    ths = np.empty(n + 1)
    ths[1::2] = _newton(float(n), p_coef, np.pi * (4 * k[:h] + 3) / (4 * n + 2))
    edges = np.concatenate(([0.0], ths[1::2], [np.pi - ths[-2]] if n % 2 == 0 else []))
    ths[0::2] = _newton(n + 1.0, c, (edges[:-1] + edges[1:]) / 2)
    p, dp = _cosine_sum(float(n), p_coef, ths)
    e, de = _cosine_sum(n + 1.0, c, ths)
    C = 2.0 / (2 * n + 1) * np.prod(2.0 * i / (2.0 * i - 1))
    w = np.zeros((2, n + 1))
    w[1, 1::2] = 1.0 / dp[1::2] ** 2
    w[0] = w[1] - C * np.sin(ths) / (dp * e + p * de) / 2.0
    t = np.sin(ths / 2.0) ** 2
    t[n] = 0.5  # the midpoint, a zero of P_n for odd n and of E_{n+1} for even n
    # mirror [0, 1/2] onto [1/2, 1], with the midpoint once
    return (np.concatenate((t, 1.0 - t[n - 1::-1])),
            np.concatenate((w, w[:, n - 1::-1]), axis=1))


def _quad_once(panels: np.ndarray, integrand, nodes: int, max_nodes: int,
               vectorized: bool):
    """The Kronrod and the Gauss estimate, stacked, from one evaluation of
    the 2n+1 Kronrod nodes of every panel."""
    t, w = _kronrod(nodes)
    # r and theta move linearly along each panel; xi = r e^{i theta}
    r0, th0, r1, th1 = panels.T[:, :, None]
    dr, dth = r1 - r0, th1 - th0
    r, e = r0 + dr * t, np.exp(1j * (th0 + dth * t))
    xs = (r * e).ravel()
    wds = (w[:, None] * ((dr + 1j * dth * r) * e)).reshape(2, -1)
    total = 0j
    for i in range(0, len(xs), max_nodes):  # all panels, max_nodes per call
        chunk = xs[i:i + max_nodes]
        if vectorized:
            vals = np.asarray(integrand(chunk), dtype=complex)
        else:
            vals = np.asarray([integrand(complex(x)) for x in chunk], dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("integrand is not finite on the contour")
        total = total + np.tensordot(wds[:, i:i + max_nodes], vals, axes=(1, 0))
    return np.asarray(total) / (2j * np.pi)


def quad_integrate(
    contour: Contour,
    integrand,
    start_nodes: int = DEFAULT_NODES,
    max_nodes: int = MAX_NODES,
    vectorized: bool = False,
):
    """(1/2*pi*i) times the contour integral of ``integrand``.

    Composite Gauss-Kronrod per panel (row of ``contour.segments``): a pass
    evaluates the 2n+1 Kronrod nodes of every panel once, n of which carry
    the n-node Gauss rule, starting at n = ``start_nodes``.  It returns the
    Kronrod estimate K, exact for polynomials of degree 3n+1 on a panel,
    once the Gauss estimate G, exact to degree 2n-1, certifies it:
    |K - G| <= QUAD_RTOL max(1, |K|).  Otherwise n doubles, and
    QuadratureError is raised if they still differ at n = ``max_nodes``,
    2 max_nodes + 1 nodes per panel.  The integrand may return a scalar or
    an ndarray; with ``vectorized`` it receives the nodes of all panels, at
    most ``max_nodes`` per call (leading axis = nodes).
    """
    panels, nodes = contour.segments, start_nodes
    while True:
        kronrod, gauss = _quad_once(panels, integrand, nodes, max_nodes, vectorized)
        diff = float(np.max(np.abs(kronrod - gauss)))
        if diff <= QUAD_RTOL * max(1.0, float(np.max(np.abs(kronrod)))):
            return kronrod if kronrod.shape else complex(kronrod)
        if nodes >= max_nodes:
            raise QuadratureError(
                f"no convergence on {len(panels)} panels at {nodes} nodes "
                f"each: last difference {diff:.2e} between the {nodes}-node "
                f"Gauss and {2 * nodes + 1}-node Kronrod estimates"
            )
        nodes *= 2
