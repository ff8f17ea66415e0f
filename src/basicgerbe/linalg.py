"""Dense complex linear algebra on unitary groups.

Unitary matrices, skew-Hermitian tangent vectors, Haar sampling, spectral
decomposition with eigenvalue clustering (one unitary eigenvector frame,
one eigenvalue per frame column), block embeddings U(n) -> U(N), g |->
diag(g, 1), and ``matrix_stack_from_json``, the point file's one matrix
reader, with the object-and-field check every point-file reader uses.

Everything here is numpy: a unitary g is diagonalised through ``eigh`` of
its Cayley transform i(w + g)(w - g)^{-1}, a Hermitian function of g.
"""

from __future__ import annotations

import array
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousClusterError, DimensionError, SchemaError

UNITARITY_TOL = 1e-12
POLAR_STEP_TOL = 1e-14  # above this defect / n, g is stored one step nearer unitary
CLUSTER_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def unitary_check(m: np.ndarray) -> tuple[bool, float]:
    """Return (is_unitary, defect) with defect = ||m m^H - I||_F."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        return False, math.nan
    n = m.shape[0]
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(n)))
    return defect <= UNITARITY_TOL * n, defect


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """An element g of U(n), stored as a dense complex matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        ok, defect = unitary_check(mat)
        if not ok:
            raise DimensionError(
                f"matrix is not unitary: ||g g^H - I||_F = {defect:.3e}"
            )
        if defect > POLAR_STEP_TOL * len(mat):  # Newton-Schulz: defect d -> O(d^2)
            mat = mat - 0.5 * (mat @ mat.conj().T - np.eye(len(mat))) @ mat
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def conjugate_by(self, k: "UnitaryMatrix") -> "UnitaryMatrix":
        """Return k g k^{-1}."""
        if k.dim != self.dim:
            raise DimensionError("conjugator dimension mismatch")
        return UnitaryMatrix(k.mat @ self.mat @ k.mat.conj().T)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector X = g A at g, with A skew-Hermitian."""

    base: UnitaryMatrix
    direction: np.ndarray  # the skew-Hermitian A

    def __post_init__(self):
        a = np.asarray(self.direction, dtype=complex)
        object.__setattr__(self, "direction", a)
        n = self.base.dim
        if a.shape != (n, n):
            raise DimensionError("tangent direction shape mismatch")
        if not np.isfinite(a).all():
            raise DimensionError("tangent direction has non-finite entries")
        # past ~1e154 an entry's square overflows, and inf > inf would pass
        with np.errstate(over="ignore"):
            scale = float(np.linalg.norm(a))
        if not np.isfinite(scale):
            raise DimensionError("tangent direction norm overflows")
        if np.linalg.norm(a + a.conj().T) > UNITARITY_TOL * n * max(1.0, scale):
            raise DimensionError("tangent direction is not skew-Hermitian")

    @property
    def ambient(self) -> np.ndarray:
        """The ambient representative X = g A."""
        return self.base.mat @ self.direction


def random_unitary(n: int, rng) -> UnitaryMatrix:
    """Haar-distributed element of U(n), drawn from ``rng``.

    QR of a complex Ginibre matrix with the R-diagonal phase fix.
    """
    if n < 1:
        raise DimensionError("dimension must be at least 1")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def _random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-Frobenius-norm skew-Hermitian (b - b^H) / 2 from complex Gaussian b."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (b - b.conj().T) / 2
    a /= np.linalg.norm(a)
    return a


def tangent_random(g: UnitaryMatrix, rng) -> TangentVector:
    """Random unit-Frobenius-norm skew-Hermitian direction at g."""
    return TangentVector(g, _random_skew(g.dim, rng))


def _perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct integers."""
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """g = U diag(lambda) U^H, one unit-circle eigenvalue per frame column.

    ``frame`` is a read-only unitary U and ``eigenvalues`` has one entry per
    column of it.  The entries of a cluster are its mean, bit for bit, and
    distinct clusters have distinct entries, so the projector onto the
    eigenvalue lambda is the sum of u_k u_k^H over the columns k with
    lambda_k == lambda.  Eigenvalues are sorted by angle in [0, 2*pi), so
    those on an arc of the circle that avoids 1 are a column range of
    ``frame``; ``arcs`` is the classify memo.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
    arcs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def angles(self) -> np.ndarray:
        """Eigenvalue angles in [0, 2*pi), ascending."""
        return np.angle(self.eigenvalues) % TWO_PI

    @property
    def marks(self) -> np.ndarray:
        """The circle marks (0, angles..., 2*pi): the identity at both ends,
        so consecutive marks bound the angular gaps, zero-width ones included."""
        return np.concatenate(([0.0], self.angles, [TWO_PI]))


def _eigenbasis_sum(
    spec: SpectralDecomposition, weights: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """U (W o U^H X U) U^H for U = ``spec.frame`` and (n, n) weights W.

    With w_kl = f[lambda_k, lambda_l] this is sum_ij f[lambda_i, lambda_j]
    P_i X P_j over the distinct eigenvalues (Daleckii-Krein).
    """
    u = spec.frame
    uh = u.conj().T
    return u @ (weights * (uh @ x @ u)) @ uh


def _differences(lam: np.ndarray) -> np.ndarray:
    """lam_i - lam_j, with ones where lam_i == lam_j so it can divide."""
    d = lam[:, None] - lam[None, :]
    d[d == 0] = 1.0
    return d


def spectral_decompose(g: UnitaryMatrix) -> SpectralDecomposition:
    """Spectral resolution of a unitary matrix with eigenvalue clustering.

    For w on the unit circle off the spectrum, the Cayley transform
    H = i(w + g)(w - g)^{-1} is Hermitian with eigenvalue -cot((theta -
    arg w) / 2) on the eigenvector of e^{i theta}, increasing with the angle
    from w.  So ``eigh(H)`` gives an eigenvector frame orthonormal to
    rounding, in circular order from w, and the eigenvalues are the Rayleigh
    quotients diag(U^H g U).  Re w is the middle of the widest gap of
    {-1, Re spectrum, 1}, so |w - lambda| is at least half that gap.

    A cluster is a run of consecutive quotients closer than ``CLUSTER_TOL``;
    a run whose ends are ``CLUSTER_TOL`` or more apart is ambiguous.  Each
    column of a run gets the run's mean, normalized; the columns are rotated
    to ascending angle in [0, 2*pi), and each one's largest entry is made
    real positive.
    """
    m, n = g.mat, g.dim
    re = [-1.0, *np.linalg.eigvalsh((m + m.conj().T) / 2).tolist(), 1.0]
    k = max(range(n + 1), key=lambda i: re[i + 1] - re[i])
    x = (re[k] + re[k + 1]) / 2
    w = complex(x, math.sqrt(1.0 - x * x))
    # H = 2iw (w - g)^{-1} - iI; eigh reads only the lower triangle and the
    # real part of the diagonal, so the -iI needs no subtraction
    u = np.linalg.eigh((2j * w) * np.linalg.inv(w * np.eye(n) - m))[1]
    q = (u.conj() * (m @ u)).sum(axis=0).tolist()
    starts = [0] + [j for j in range(1, n) if abs(q[j] - q[j - 1]) >= CLUSTER_TOL]
    stops = starts[1:] + [n]
    lam = []
    for lo, hi in zip(starts, stops):
        span = abs(q[hi - 1] - q[lo])
        if span >= CLUSTER_TOL:
            raise AmbiguousClusterError(
                f"eigenvalue run spans {span:.3e} >= tolerance {CLUSTER_TOL:.3e}"
            )
        mean = sum(q[lo:hi]) / (hi - lo)
        lam += [mean / abs(mean)] * (hi - lo)
    start = min(starts, key=lambda j: cmath.phase(lam[j]) % TWO_PI)
    frame = np.concatenate((u[:, start:], u[:, :start]), axis=1)
    pivot = frame[np.argmax(np.abs(frame), axis=0), np.arange(n)]
    frame /= pivot / np.abs(pivot)
    frame.flags.writeable = False
    return SpectralDecomposition(m, np.array(lam[start:] + lam[:start]), frame)


def embed_block(g: UnitaryMatrix, big_dim: int) -> UnitaryMatrix:
    """Embed g in U(N) as diag(g, I_{N-n})."""
    n = g.dim
    if big_dim < n:
        raise DimensionError(f"cannot embed U({n}) into U({big_dim})")
    out = np.eye(big_dim, dtype=complex)
    out[:n, :n] = g.mat
    return UnitaryMatrix(out)


def embed_tangent(x: TangentVector, big_dim: int) -> TangentVector:
    """Embed a tangent vector alongside embed_block: A |-> diag(A, 0)."""
    base = embed_block(x.base, big_dim)
    n = x.base.dim
    a = np.zeros((big_dim, big_dim), dtype=complex)
    a[:n, :n] = x.direction
    return TangentVector(base, a)


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix as {"dim", "re", "im"} (row-major)."""
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _field(obj, key: str, path: str):
    """``obj[key]``, where ``obj`` at ``path`` must be an object holding it."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing field")
    return obj[key]


def matrix_stack_from_json(items: list) -> np.ndarray:
    """The (m, n, n) stack of the (matrix, path) pairs ``items``.

    The point file's one matrix reader: each {"dim": n, "re", "im"} needs the
    integer n >= 1 of the first and n rows of n JSON numbers per block, and a
    fault is reported at its path.  Rows go through ``array.fromlist`` into
    one float64 buffer, bit for bit ``np.asarray(row, dtype=float)``.
    """
    buf = array.array("d")
    for obj, path in items:
        n, re, im = [_field(obj, key, path) for key in ("dim", "re", "im")]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise SchemaError(path, "'dim' is not an integer >= 1")
        if n != items[0][0]["dim"]:
            raise SchemaError(path, "size differs from [0]")
        shape = f"expected {n}x{n} 're' and 'im' blocks"
        if not all(isinstance(b, list) and len(b) == n for b in (re, im)):
            raise SchemaError(path, shape)
        try:
            for row in re + im:
                if not isinstance(row, list) or len(row) != n:
                    raise SchemaError(path, shape)
                buf.fromlist(row)
        except (TypeError, OverflowError) as exc:
            raise SchemaError(path, f"matrix entries are not doubles: {exc}") from None
    parts = np.frombuffer(buf).reshape(len(items), 2, n, n)
    out = np.empty((len(items), n, n), dtype=complex)
    out.real, out.imag = parts[:, 0], parts[:, 1]
    return out


def matrix_from_json(obj: dict, path: str = "$") -> np.ndarray:
    """Parse one {"dim", "re", "im"} matrix, reported at ``path``."""
    return matrix_stack_from_json([(obj, path)])[0]
