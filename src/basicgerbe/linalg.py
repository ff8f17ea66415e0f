"""Dense complex linear algebra on unitary groups.

Unitary matrices, skew-Hermitian tangent vectors, Haar sampling, spectral
decomposition with eigenvalue clustering into one unitary eigenvector
frame, block embeddings U(n) -> U(N), g |-> diag(g, 1), and the JSON
matrix leaf with the object-and-field check every point-file reader uses.

Everything here is numpy: a unitary g is diagonalised through ``eigh`` of
its Cayley transform i(w + g)(w - g)^{-1}, a Hermitian function of g, and
exp(tA) through ``eigh`` of the Hermitian iA.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousClusterError, DimensionError, SchemaError, StepTooLargeError
)

UNITARITY_TOL = 1e-12
CLUSTER_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def unitary_check(m: np.ndarray) -> tuple[bool, float]:
    """Return (is_unitary, defect) with defect = ||m m^H - I||_F."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(n)))
    return defect <= UNITARITY_TOL * n, defect


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """An element g of U(n), stored as a dense complex matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        ok, defect = unitary_check(mat)
        if not ok:
            raise DimensionError(
                f"matrix is not unitary: ||g g^H - I||_F = {defect:.3e}"
            )

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


def _shifted(g: UnitaryMatrix, a: np.ndarray, t: float) -> UnitaryMatrix:
    """g exp(tA), the point t along the left-invariant curve through g.

    With iA = V diag(mu) V^H, exp(tA) = V diag(e^{-i t mu}) V^H.  A phase
    t mu carries a rounding error of |t mu| eps, so the step is refused
    once that reaches ``UNITARITY_TOL`` (|t mu| about 4.5e3).
    """
    mu, v = np.linalg.eigh(1j * a)
    reach, limit = float(np.max(np.abs(t * mu))), UNITARITY_TOL / np.finfo(float).eps
    if not reach < limit:
        raise StepTooLargeError(
            f"g exp(tA) overflows at t = {t:g}: max |t mu| = {reach:.4g} reaches "
            f"{limit:.4g}, where exp(-i t mu) loses the unitarity tolerance"
        )
    return UnitaryMatrix(g.mat @ (v * np.exp(-1j * t * mu)) @ v.conj().T)


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
    """g = sum_i lambda_i P_i with distinct unit-circle eigenvalues.

    ``frame`` is a read-only unitary U with g = U diag(lambda) U^H: eigenvalue
    i owns the next ``multiplicities[i]`` columns U_i, and P_i = U_i U_i^H.
    Eigenvalues are sorted by angle in [0, 2*pi), so those on an arc of the
    circle that avoids 1 are an index range of ``angles``, and their
    eigenvectors a column range of ``frame``; ``arcs`` is the classify memo.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
    multiplicities: np.ndarray
    arcs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def angles(self) -> np.ndarray:
        """Eigenvalue angles in [0, 2*pi), ascending."""
        return np.angle(self.eigenvalues) % TWO_PI

    def columns(self, lo: int, hi: int) -> slice:
        """The columns of ``frame`` that eigenvalues lo, ..., hi - 1 own."""
        start = int(self.multiplicities[:lo].sum())
        return slice(start, start + int(self.multiplicities[lo:hi].sum()))


def _eigenbasis_sum(
    spec: SpectralDecomposition, weights: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """sum_ij w_ij P_i X P_j for an (m, m) weight matrix over the clusters.

    In the eigenbasis U = ``spec.frame`` this is U (W~ o U^H X U) U^H, where
    W~ repeats w_ij over the columns of clusters i and j (Daleckii-Krein).
    """
    u = spec.frame
    label = np.repeat(np.arange(spec.count), spec.multiplicities)
    w = weights[label][:, label]
    uh = u.conj().T
    return u @ (w * (uh @ x @ u)) @ uh


def _differences(lam: np.ndarray) -> np.ndarray:
    """lam_i - lam_j, with ones on the diagonal so it can divide."""
    d = lam[:, None] - lam[None, :]
    np.fill_diagonal(d, 1.0)
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
    a run whose ends are ``CLUSTER_TOL`` or more apart is ambiguous.  The
    runs are rotated to ascending angle in [0, 2*pi), and each column's
    largest entry is made real positive.
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
    reps, mult = [], []
    for lo, hi in zip(starts, stops):
        span = abs(q[hi - 1] - q[lo])
        if span >= CLUSTER_TOL:
            raise AmbiguousClusterError(
                f"eigenvalue run spans {span:.3e} >= tolerance {CLUSTER_TOL:.3e}"
            )
        mean = sum(q[lo:hi]) / (hi - lo)
        reps.append(mean / abs(mean))
        mult.append(hi - lo)
    first = min(range(len(reps)), key=lambda i: cmath.phase(reps[i]) % TWO_PI)
    start = starts[first]
    frame = np.concatenate((u[:, start:], u[:, :start]), axis=1)
    pivot = frame[np.argmax(np.abs(frame), axis=0), np.arange(n)]
    frame /= pivot / np.abs(pivot)
    frame.flags.writeable = False
    return SpectralDecomposition(
        m, np.array(reps[first:] + reps[:first]), frame, np.array(mult[first:] + mult[:first])
    )


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
    n = x.base.dim
    if big_dim < n:
        raise DimensionError(f"cannot embed U({n}) into U({big_dim})")
    a = np.zeros((big_dim, big_dim), dtype=complex)
    a[:n, :n] = x.direction
    return TangentVector(embed_block(x.base, big_dim), a)


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


def matrix_from_json(obj: dict, path: str = "$") -> np.ndarray:
    """Parse the {"dim", "re", "im"} matrix schema."""
    n, re, im = [_field(obj, key, path) for key in ("dim", "re", "im")]
    try:
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(path, f"matrix entries are not doubles: {exc}") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise SchemaError(path, f"expected {n}x{n} 're' and 'im' blocks")
    return re + 1j * im
