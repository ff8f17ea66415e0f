"""The flag-torus parametrization (Q, lambda) -> sum lambda_i q_i q_i^H.

A point of (full flag manifold) x (torus) is a unitary frame Q, column q_i
spanning the line of P_i = q_i q_i^H, with distinct unit eigenvalues; the
parametrization is an n!-sheeted covering over regular unitaries.  A tangent
is dlambda and a frame generator G, dP_i = Q [G, E_ii] Q^H.  Includes the
Maurer-Cartan pullback, tangent transport, and the closed forms for the
pulled-back curving, its exterior derivative, and the pulled-back
three-curvature (raw and simplified, kept separately as a regression pair).
Geometry only: ``cli`` reads and writes these points in the ``eval`` point
file, through the stack converters ``_flag_frame`` and ``_flag_generator``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contour import CutCirclePoint, _check_cuts, log_cut_array
from .errors import DimensionError, RegularityError, SamplingError
from .linalg import (
    SpectralDecomposition,
    TangentVector,
    UnitaryMatrix,
    _perm_sign,
    _random_skew,
    random_unitary,
    unitary_check,
)

PROJECTOR_TOL = 1e-10
SAMPLING_GAP = 1e-3
REGULARITY_GAP = 1e-6
MAX_RESAMPLE = 1000


def _separated(vals: np.ndarray, gap: float) -> bool:
    """Every pair of the values at least ``gap`` apart (chordal distance)."""
    dist = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(dist, np.inf)
    return bool(np.min(dist, initial=np.inf) >= gap)


@dataclass(frozen=True, eq=False)
class FlagTorusPoint:
    """A unitary frame of a full flag with distinct torus eigenvalues."""

    frame: np.ndarray  # (n, n) unitary, column i spans the line of P_i
    torus_values: np.ndarray  # (n,) unit modulus, distinct

    def __post_init__(self):
        q = np.asarray(self.frame, dtype=complex)
        lam = np.asarray(self.torus_values, dtype=complex)
        object.__setattr__(self, "frame", q)
        object.__setattr__(self, "torus_values", lam)
        n = lam.size
        if n == 0 or q.shape != (n, n) or lam.shape != (n,):
            raise DimensionError("flag frame and torus values shape mismatch")
        if not np.all(np.abs(np.abs(lam) - 1.0) <= PROJECTOR_TOL):
            raise DimensionError("torus values must be finite, of unit modulus")
        # a unitary frame (NaN fails it) is the same condition as a complete,
        # orthogonal family of rank-one Hermitian projectors q_i q_i^H
        if not unitary_check(q)[0]:
            raise DimensionError("projections are not complete and orthogonal")

    @property
    def dim(self) -> int:
        return len(self.torus_values)

    @property
    def projections(self) -> np.ndarray:
        """The (n, n, n) stack P_i = q_i q_i^H, formed on each call."""
        q = self.frame.T
        return q[:, :, None] * q.conj()[:, None, :]

    def is_regular(self) -> bool:
        """Every pair of torus values at least ``REGULARITY_GAP`` apart."""
        return _separated(self.torus_values, REGULARITY_GAP)


def _flag_frame(p: np.ndarray) -> np.ndarray:
    """The frame Q with P_i = q_i q_i^H, from an (n, n, n) projector stack.

    q_i is P_i's column at its largest diagonal entry, scaled to unit length
    there; P_i must equal q_i q_i^H, so be Hermitian of rank one.  Whether Q
    is unitary is the point's own check.
    """
    n = p.shape[-1]
    if p.shape != (n, n, n) or not np.isfinite(p).all():
        raise DimensionError(f"a full flag of U({n}) needs {n} finite projections")
    i = np.arange(n)
    pivot = np.argmax(p[:, i, i].real, axis=1)
    # no positive diagonal entry: q_i = 0 (not unitary) or q_i q_i^H is not P_i
    top = np.maximum(p[i, pivot, pivot].real, np.finfo(float).tiny)
    q = p[i, :, pivot].T / np.sqrt(top)
    defect = np.max(np.abs(p - q.T[:, :, None] * q.T.conj()[:, None, :]), axis=(1, 2))
    bad = np.flatnonzero(defect > PROJECTOR_TOL)
    if bad.size:
        raise DimensionError(f"projection {bad[0]} is not Hermitian of rank one")
    return q


def _require_regular(pt: FlagTorusPoint) -> None:
    if not pt.is_regular():
        raise RegularityError("point is not regular (repeated or close eigenvalues)")


@dataclass(frozen=True, eq=False)
class FlagTangent:
    """Tangent data (dlambda_i, G) at a flag-torus point.

    Each flag tangent is dP_i = [A, P_i] for a skew-Hermitian A; G is Q^H A Q
    less its diagonal, which moves no P_i, so dP_i = Q [G, E_ii] Q^H.
    """

    point: FlagTorusPoint
    dlam: np.ndarray  # (n,), each tangent to U(1) at lambda_i
    generator: np.ndarray  # (n, n), skew-Hermitian with a zero diagonal

    def __post_init__(self):
        dlam = np.asarray(self.dlam, dtype=complex)
        gen = np.asarray(self.generator, dtype=complex)
        object.__setattr__(self, "dlam", dlam)
        object.__setattr__(self, "generator", gen)
        pt = self.point
        n = pt.dim
        if dlam.shape != (n,) or gen.shape != (n, n):
            raise DimensionError("tangent data shape mismatch")
        if not (np.isfinite(dlam).all() and np.isfinite(gen).all()):
            raise DimensionError("tangent data has non-finite entries")
        # dlambda_i must be tangent to the circle: dlam_i / (i lam_i) real
        radial = np.max(np.abs((dlam * np.conj(pt.torus_values)).real))
        if radial > PROJECTOR_TOL * max(1.0, np.max(np.abs(dlam))):
            raise DimensionError("dlambda is not tangent to the unit circle")
        # dP_i - dP_i^H = Q [G + G^H, E_ii] Q^H
        if np.linalg.norm(gen + gen.conj().T) > PROJECTOR_TOL * n:
            raise DimensionError("dP_i must be Hermitian")
        # the bracket tables are exactly 0 on their diagonals only if G's is
        if np.diagonal(gen).any():
            raise DimensionError("the frame generator must have a zero diagonal")

    @property
    def dP(self) -> np.ndarray:
        """The (n, n, n) stack dP_i, formed on each call."""
        return _generator_stack(self.point.frame, self.generator)


def _generator_stack(q: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """dP_k = Q [G, E_kk] Q^H = (Q G)[:, k] q_k^H - q_k (G Q^H)[k, :]."""
    qg, gq, qt = (q @ gen).T, gen @ q.conj().T, q.T
    return qg[:, :, None] * qt.conj()[:, None, :] - qt[:, :, None] * gq[:, None, :]


def _flag_generator(q: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """G_jk = q_j^H dP_k q_k (j != k), from an (n, n, n) stack dP at the frame Q.

    dP must equal its reconstruction from G: each dP_k off-diagonal for P_k,
    summing to zero.  G skew-Hermitian (dP_k Hermitian) is the tangent's check.
    """
    n = q.shape[0]
    if dp.shape != (n, n, n) or not np.isfinite(dp).all():
        raise DimensionError(f"a tangent of U({n}) needs {n} finite {n} x {n} dP_i")
    gen = q.conj().T @ np.einsum("kab,bk->ak", dp, q)
    np.fill_diagonal(gen, 0)
    defect = np.linalg.norm(dp - _generator_stack(q, gen), axis=(1, 2))
    if np.max(defect) > PROJECTOR_TOL * n:
        raise DimensionError("dP_i must be off-diagonal for P_i and sum to zero")
    return gen


def _flag_mc(tan: FlagTangent) -> np.ndarray:
    """g^{-1} sum_j lam_j dP_j in the frame: Lam^{-1} (G Lam - Lam G)."""
    lam, gen = tan.point.torus_values, tan.generator
    return gen * lam / lam[:, None] - gen


def weyl_apply(pt: FlagTorusPoint) -> UnitaryMatrix:
    """g = sum_i lambda_i P_i."""
    return UnitaryMatrix((pt.frame * pt.torus_values) @ pt.frame.conj().T)


def mc_pullback(tan: FlagTangent) -> np.ndarray:
    """Pullback of g^{-1} dg on the tangent:

    sum_i lam_i^{-1} dlam_i P_i + sum_{i,j} lam_i^{-1} lam_j P_i dP_j,
    which is Q (diag(dlam / lam) + Lam^{-1} (G Lam - Lam G)) Q^H.
    """
    q, lam = tan.point.frame, tan.point.torus_values
    return q @ (np.diag(tan.dlam / lam) + _flag_mc(tan)) @ q.conj().T


def weyl_tangent(tan: FlagTangent) -> TangentVector:
    """The image tangent vector X = g * (pullback of g^{-1} dg)."""
    return TangentVector(weyl_apply(tan.point), mc_pullback(tan))


def preimage_count(spec: SpectralDecomposition) -> int:
    """Number of flag-torus points mapping to a regular g (equals n!).

    They are the n! reorderings of the eigenline family (lambda_i, P_i),
    each a preimage exactly when the family is one: when the match table
    ||(g - lambda_j) P_i|| <= tol is the identity.  Any other table counts 0.
    ``spec`` is the spectral decomposition of g.
    """
    lam = spec.eigenvalues
    # for rank-one P_i = b_i b_i^H, a unitary eigenbasis is the same condition
    # as a Hermitian, complete and orthogonal projector family
    b = spec.frame.T
    if not unitary_check(b)[0]:
        raise DimensionError("eigenbasis of g is not unitary")
    if not _separated(lam, REGULARITY_GAP):
        raise RegularityError("g is not regular (repeated or close eigenvalues)")
    # P_i = b_i b_i^H for the unit rows b_i of b, so the table is
    # ||(g - lambda_j) b_i||, built one column j at a time to stay n x n
    gb = b @ spec.matrix.T
    resid = np.stack([np.linalg.norm(gb - v * b, axis=1) for v in lam], axis=1)
    match = np.array_equal(resid <= 1e-10 * spec.dim, np.eye(spec.dim, dtype=bool))
    return math.factorial(spec.dim) if match else 0


def sample_regular(n: int, rng) -> FlagTorusPoint:
    """Random regular point: Haar frame, eigenvalues ``SAMPLING_GAP`` apart."""
    q = random_unitary(n, rng).mat
    for _ in range(MAX_RESAMPLE):
        lam = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=n))
        if _separated(np.append(lam, 1.0), SAMPLING_GAP):
            return FlagTorusPoint(q, lam)
    raise SamplingError(f"no regular spectrum found in {MAX_RESAMPLE} draws")


def random_flag_tangent(pt: FlagTorusPoint, rng) -> FlagTangent:
    """Random tangent: dP_i = [A, P_i] for skew-Hermitian A, circular dlam."""
    frame_gen = pt.frame.conj().T @ _random_skew(pt.dim, rng) @ pt.frame
    np.fill_diagonal(frame_gen, 0)
    dlam = 1j * pt.torus_values * rng.standard_normal(pt.dim)
    return FlagTangent(pt, dlam, frame_gen)


def _p_bracket(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T[i, k] = tr(P_i [dP^v_k, dP^w_k]) for i != k (0 if i == k), from V, W."""
    return w * v.T - v * w.T


def _dp_bracket(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T[i, k] = tr(dP^u_i [dP^v_k, dP^w_k]), from the frame generators U, V, W."""
    return -v * (w @ u).T + w * (v @ u).T + (u @ v) * w.T - (u @ w) * v.T


def pullback_curving_closed(
    pt: FlagTorusPoint, z: CutCirclePoint, tan1: FlagTangent, tan2: FlagTangent
) -> complex:
    """Closed form of the pulled-back curving at a regular point:

    (i / 4 pi) sum_{i != k}
        (log_z lam_i - log_z lam_k + 1 - lam_i / lam_k) tr(P_i dP_k dP_k).
    """
    _require_regular(pt)
    _check_cuts(pt.torus_values, z)
    lam = pt.torus_values
    logs = log_cut_array(z, lam)
    # zero on the diagonal, where the sum excludes i == k
    coeffs = logs[:, None] - logs[None, :] + 1 - lam[:, None] / lam[None, :]
    val = np.sum(coeffs * _p_bracket(tan1.generator, tan2.generator))
    return complex(1j / (4 * math.pi) * val)


def pullback_df_closed(
    pt: FlagTorusPoint, tan1: FlagTangent, tan2: FlagTangent, tan3: FlagTangent
) -> complex:
    """Closed form of the exterior derivative of the pulled-back curving.

    (i / 4 pi) sum_{i != k} (dlam_i / lam_i - dlam_k / lam_k)
        (1 - lam_i / lam_k) tr(P_i dP_k dP_k)
    - (i / 4 pi) sum_{i != k} (lam_i / lam_k) tr(dP_i dP_k dP_k).

    Independent of the cut; also the simplified pulled-back 3-curvature.
    The slot antisymmetrization is the cyclic sum over which tangent
    fills the first slot, with the other two swapped in a commutator.
    """
    _require_regular(pt)
    lam = pt.torus_values
    ratio = lam[:, None] / lam[None, :]
    total = 0j
    for u, v, w in ((tan1, tan2, tan3), (tan2, tan3, tan1), (tan3, tan1, tan2)):
        rate = u.dlam / lam
        bracket = (rate[:, None] - rate[None, :]) * (1 - ratio)
        total += np.sum(bracket * _p_bracket(v.generator, w.generator))
        total -= np.sum(ratio * _dp_bracket(u.generator, v.generator, w.generator))
    return complex(1j / (4 * math.pi) * total)


def pullback_nu_closed(
    pt: FlagTorusPoint, tan1: FlagTangent, tan2: FlagTangent, tan3: FlagTangent
) -> complex:
    """Pulled-back 3-curvature 2 pi i nu as the raw two-term sum:

    -(i / 4 pi) tr(Lam2 D g^{-1} D) - (i / 12 pi) tr((g^{-1} D)^3)
    with Lam2 = sum lam_i^{-2} dlam_i P_i and D = sum lam_j dP_j,
    antisymmetrized over the three slots.  Its simplified form is
    pullback_df_closed; comparing the two checks the wedge convention.
    The traces are taken in the frame, where g^{-1} D is _flag_mc and
    Lam2 D g^{-1} D is diag(dlam / lam) (g^{-1} D)^2.
    """
    _require_regular(pt)
    lam = pt.torus_values
    tans = (tan1, tan2, tan3)
    m = [_flag_mc(t) for t in tans]
    total = 0j
    for perm in itertools.permutations(range(3)):
        u, v, w = perm
        t1 = np.trace(np.diag(tans[u].dlam / lam) @ m[v] @ m[w])
        t2 = np.trace(m[u] @ m[v] @ m[w])
        total += _perm_sign(perm) * (t1 / (4 * math.pi) + t2 / (12 * math.pi))
    return complex(-1j * total)
