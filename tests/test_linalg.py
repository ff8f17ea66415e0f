import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from basicgerbe import (
    AmbiguousClusterError,
    DimensionError,
    SchemaError,
    StepTooLargeError,
    TangentVector,
    UnitaryMatrix,
    classify,
    cut_point,
    embed_block,
    embed_tangent,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    spectral_decompose,
    tangent_random,
    unitary_check,
)
from basicgerbe.linalg import (
    CLUSTER_TOL,
    TWO_PI,
    UNITARITY_TOL,
    _eigenbasis_sum,
    _shifted,
)

EPS = np.finfo(float).eps
# the largest |t mu| that _shifted accepts, mu an eigenvalue of iA
STEP_REACH = UNITARITY_TOL / EPS


def mgs_projectors(g: UnitaryMatrix) -> np.ndarray:
    """Cluster projectors, the reference for spectral_decompose.

    Two Schur eigenvalues share a cluster when a chain of pairwise
    distances below ``CLUSTER_TOL`` links them, and each cluster's basis is
    re-orthonormalized by a modified Gram-Schmidt loop.
    """
    t, z = scipy.linalg.schur(g.mat, output="complex")
    raw = np.diagonal(t)
    near = (np.abs(raw[:, None] - raw[None, :]) < CLUSTER_TOL).astype(int)
    linked = near
    for _ in range(len(raw)):
        linked = np.minimum(linked @ near, 1)
    out = []
    for cl in {tuple(np.flatnonzero(row)) for row in linked}:
        basis = z[:, cl].copy()
        for j in range(basis.shape[1]):
            for i in range(j):
                basis[:, j] -= (basis[:, i].conj() @ basis[:, j]) * basis[:, i]
            basis[:, j] /= np.linalg.norm(basis[:, j])
        out.append((np.angle(raw[list(cl)].mean()) % TWO_PI, basis @ basis.conj().T))
    return np.stack([p for _, p in sorted(out, key=lambda item: item[0])])


def cluster_projectors(spec) -> np.ndarray:
    """P_i = U_i U_i^H from the frame block U_i of each eigenvalue."""
    blocks = (spec.frame[:, spec.columns(i, i + 1)] for i in range(spec.count))
    return np.stack([b @ b.conj().T for b in blocks])


def mp_projectors(g: UnitaryMatrix) -> np.ndarray:
    """Eigenprojectors of g, whose eigenvalues must be distinct, from
    mpmath's eigenvectors at 40 digits, in ascending angle."""
    with mpmath.workdps(40):
        lam, v = mpmath.eig(mpmath.matrix(g.mat.tolist()))
        out = []
        for j in range(g.dim):
            col = v[:, j] / mpmath.norm(v[:, j])
            p = col * col.transpose_conj()
            out.append((float(mpmath.arg(lam[j])) % TWO_PI, np.array(p.tolist(), complex)))
    return np.stack([p for _, p in sorted(out, key=lambda item: item[0])])


def conjugate_of(angles, rng) -> UnitaryMatrix:
    """A random conjugate of diag(e^{i angles})."""
    q = random_unitary(len(angles), rng).mat
    return UnitaryMatrix((q * np.exp(1j * np.asarray(angles))) @ q.conj().T)


def with_multiplicities(rng) -> UnitaryMatrix:
    """A random conjugate of diag(e^{0.4i} x3, e^{2.1i} x2, e^{4.0i} x4)."""
    return conjugate_of(np.repeat([0.4, 2.1, 4.0], [3, 2, 4]), rng)


def near_pair(rng) -> UnitaryMatrix:
    """A random conjugate in U(6) with two eigenvalues 1e-8 apart."""
    return conjugate_of([1.0, 1.0 + 1e-8, 2.0, 3.0, 4.0, 5.5], rng)


def straddling_zero(rng) -> UnitaryMatrix:
    """A random conjugate in U(5) with a cluster of three round angle 0."""
    return conjugate_of([-1e-12, 1e-12, -2e-12, np.pi, 2.0], rng)


# inputs of the decomposition accuracy test, each drawn from one Generator
DECOMPOSITION_CASES = {
    **{f"U({n})": (lambda rng, n=n: random_unitary(n, rng)) for n in (1, 2, 6, 32, 128)},
    "+I": lambda rng: UnitaryMatrix(np.eye(6)),
    "-I": lambda rng: UnitaryMatrix(-np.eye(6)),
    "multiplicities-3-2-4": with_multiplicities,
    "pair-1e-8-apart": near_pair,
    "U(4)-in-U(32)": lambda rng: embed_block(random_unitary(4, rng), 32),
    "cluster-straddling-0": straddling_zero,
}


class TestUnitaryCheck:
    def test_identity(self):
        ok, defect = unitary_check(np.eye(3))
        assert ok and defect == 0.0

    def test_diagonal_unitary(self):
        ok, _ = unitary_check(np.diag([1j, -1j]))
        assert ok

    def test_non_unitary(self):
        ok, defect = unitary_check(np.diag([2.0, 1.0]))
        assert not ok and defect > 1.0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            unitary_check(np.ones((2, 3)))


class TestRandomUnitary:
    def test_dim_one(self):
        g = random_unitary(1, np.random.default_rng(0))
        assert abs(abs(g.mat[0, 0]) - 1.0) < 1e-12

    def test_determinism(self):
        a = random_unitary(4, np.random.default_rng(7))
        b = random_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a.mat, b.mat)

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            random_unitary(0, np.random.default_rng(1))

    def test_unitary_spectrum_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_unitary(4, rng)
            assert unitary_check(g.mat)[0]
            eigs = np.linalg.eigvals(g.mat)
            assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-10


class TestSpectralDecompose:
    def test_identity(self):
        spec = spectral_decompose(UnitaryMatrix(np.eye(2)))
        assert spec.count == 1
        assert spec.multiplicities[0] == 2
        assert np.allclose(cluster_projectors(spec)[0], np.eye(2))

    def test_diag_pair(self):
        spec = spectral_decompose(UnitaryMatrix(np.diag([1j, -1j])))
        assert spec.count == 2
        assert np.allclose(spec.eigenvalues, [1j, -1j])
        proj = cluster_projectors(spec)
        assert np.allclose(proj[0], np.diag([1.0, 0.0]))
        assert np.allclose(proj[1], np.diag([0.0, 1.0]))

    def test_reconstruction(self):
        g = random_unitary(5, np.random.default_rng(11))
        spec = spectral_decompose(g)
        rebuilt = np.einsum("i,ijk->jk", spec.eigenvalues, cluster_projectors(spec))
        assert np.linalg.norm(rebuilt - g.mat) < 1e-10

    def test_projector_algebra_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = spectral_decompose(random_unitary(4, rng))
            proj = cluster_projectors(spec)
            total = proj.sum(axis=0)
            assert np.linalg.norm(total - np.eye(4)) < 1e-10
            for i in range(spec.count):
                p = proj[i]
                assert np.linalg.norm(p @ p - p) < 1e-10
                assert np.linalg.norm(p - p.conj().T) < 1e-10
                for j in range(i + 1, spec.count):
                    assert np.linalg.norm(p @ proj[j]) < 1e-10

    def test_cluster_merging(self):
        eps = 1e-12
        g = UnitaryMatrix(np.diag([1.0, np.exp(1j * eps), 1j]))
        spec = spectral_decompose(g)
        assert spec.count == 2
        assert spec.multiplicities[0] == 2

    @pytest.mark.parametrize("eps", [1e-12, 3e-10])
    def test_cluster_straddling_angle_zero(self, eps):
        # e^{-2i eps}, e^{-i eps} and e^{i eps} sit on both sides of angle 0
        lam = np.exp(1j * np.array([-eps, eps, np.pi, -2 * eps]))
        spec = spectral_decompose(UnitaryMatrix(np.diag(lam)))
        assert spec.count == 2
        assert list(spec.multiplicities) == [1, 3]
        assert abs(spec.angles[0] - np.pi) < 1e-15
        assert abs(spec.angles[1] - TWO_PI) < 1e-9
        # the straddling cluster is last, so a cut pair round pi catches -1 only
        for z1, z2 in ((np.pi + 0.5, np.pi - 0.5), (np.pi - 0.5, np.pi + 0.5)):
            ctx = classify(cut_point(z1), cut_point(z2), spec)
            assert ctx.arc_indices == (0,)
            assert ctx.arc_dim == 1

    def test_ambiguous_chain(self):
        # each neighbor within tol, total spread above it
        angles = np.arange(5) * 0.6 * CLUSTER_TOL
        g = UnitaryMatrix(np.diag(np.exp(1j * angles)))
        with pytest.raises(AmbiguousClusterError):
            spectral_decompose(g)

    def test_regular_memory_is_quadratic(self):
        # a regular U(128) has 128 clusters; one dense n x n projector per
        # cluster would hold 128^3 complex entries, 32 MB
        g = random_unitary(128, np.random.default_rng(5))
        tracemalloc.start()
        try:
            spec = spectral_decompose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.count == 128
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: embed_block(random_unitary(4, rng), 64),
            with_multiplicities,
            lambda rng: UnitaryMatrix(np.eye(5)),
            lambda rng: UnitaryMatrix(-np.eye(5)),
            straddling_zero,
        ],
        ids=["U(4)-in-U(64)", "multiplicities-3-2-4", "+I", "-I", "straddling-0"],
    )
    def test_repeated_clusters_match_gram_schmidt(self, make):
        g = make(np.random.default_rng(21))
        spec = spectral_decompose(g)
        assert max(spec.multiplicities) > 1
        assert np.max(np.abs(cluster_projectors(spec) - mgs_projectors(g))) < 1e-13
        u = spec.frame
        assert np.max(np.abs(u.conj().T @ u - np.eye(g.dim))) < 1e-13

    def test_frame_diagonalizes_g(self):
        g = with_multiplicities(np.random.default_rng(8))
        spec = spectral_decompose(g)
        u, lam = spec.frame, np.repeat(spec.eigenvalues, spec.multiplicities)
        assert list(spec.multiplicities) == [3, 2, 4]
        assert np.linalg.norm((u * lam) @ u.conj().T - g.mat) < 1e-12
        # each column's largest-magnitude entry is real positive
        pivot = u[np.argmax(np.abs(u), axis=0), np.arange(9)]
        assert np.all(pivot.real > 0) and np.max(np.abs(pivot.imag)) < 1e-15
        assert not u.flags.writeable
        assert [spec.columns(i, i + 1) for i in range(3)] == [
            slice(0, 3),
            slice(3, 5),
            slice(5, 9),
        ]
        assert spec.columns(1, 3) == slice(3, 9) and spec.columns(2, 2) == slice(5, 5)

    @pytest.mark.parametrize("case", DECOMPOSITION_CASES)
    def test_accuracy_against_schur(self, case):
        g = DECOMPOSITION_CASES[case](np.random.default_rng(31))
        n = g.dim
        spec = spectral_decompose(g)
        u, lam = spec.frame, np.repeat(spec.eigenvalues, spec.multiplicities)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-13
        # residual against Schur's, which keeps each eigenvalue apart; a
        # cluster's shared eigenvalue adds how far its members sit from it
        t, z = scipy.linalg.schur(g.mat, output="complex")
        raw = np.diagonal(t)
        schur_residual = np.linalg.norm(g.mat @ z - z * raw)
        spread = np.max(np.min(np.abs(raw[:, None] - spec.eigenvalues), axis=1))
        residual = np.linalg.norm(g.mat @ u - u * lam)
        assert residual <= 10 * max(schur_residual, n * EPS) + np.sqrt(n) * spread
        # a projector moves by about eps / gap under a backward error of eps
        ring = np.append(spec.eigenvalues, spec.eigenvalues[:1])
        gap = min(2.0, *np.abs(np.diff(ring))) if spec.count > 1 else 2.0
        want = mp_projectors(g) if case == "pair-1e-8-apart" else mgs_projectors(g)
        assert np.max(np.abs(cluster_projectors(spec) - want)) <= 2 * n * EPS / gap


class TestShiftedStep:
    """g exp(tA) holds while every phase t mu of exp(tA) keeps the
    unitarity tolerance, |t mu| eps < UNITARITY_TOL."""

    def direction(self, top):
        # iA has eigenvalues -top, 0.5 and top
        q = random_unitary(3, np.random.default_rng(17)).mat
        return (q * (-1j * np.array([-top, 0.5, top]))) @ q.conj().T

    def test_matches_the_exponential_series(self):
        g = random_unitary(3, np.random.default_rng(16))
        a = tangent_random(g, np.random.default_rng(18)).direction
        series = sum(
            np.linalg.matrix_power(0.3 * a, k) / math.factorial(k) for k in range(30)
        )
        assert np.max(np.abs(_shifted(g, a, 0.3).mat - g.mat @ series)) < 1e-15

    @pytest.mark.parametrize("t", [1.0, -1.0, 1e-5])
    def test_just_below_the_bound(self, t):
        g = random_unitary(3, np.random.default_rng(16))
        h = _shifted(g, self.direction(0.999 * STEP_REACH / abs(t)), t)
        assert np.isfinite(h.mat).all() and unitary_check(h.mat)[0]

    @pytest.mark.parametrize("t", [1.0, -1.0, 1e-5])
    def test_just_above_the_bound(self, t):
        g = random_unitary(3, np.random.default_rng(16))
        with pytest.raises(StepTooLargeError, match="^g exp\\(tA\\) overflows"):
            _shifted(g, self.direction(1.001 * STEP_REACH / abs(t)), t)

    def test_refuses_a_non_finite_phase(self):
        g = random_unitary(3, np.random.default_rng(16))
        with pytest.raises(StepTooLargeError):
            _shifted(g, self.direction(1.0), np.inf)


class TestEigenbasisSum:
    def test_matches_projector_loop(self):
        # a doubly repeated eigenvalue exercises the expansion by cluster
        rng = np.random.default_rng(11)
        q = random_unitary(5, rng).mat
        ang = np.array([0.7, 0.7, 2.0, 3.3, 5.1])
        spec = spectral_decompose(UnitaryMatrix((q * np.exp(1j * ang)) @ q.conj().T))
        assert list(spec.multiplicities) == [2, 1, 1, 1]
        m = spec.count
        w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        proj = cluster_projectors(spec)
        want = sum(
            w[i, j] * proj[i] @ x @ proj[j]
            for i in range(m)
            for j in range(m)
        )
        assert np.max(np.abs(_eigenbasis_sum(spec, w, x) - want)) < 1e-13


class TestTangentRandom:
    def test_skew_hermitian(self):
        g = random_unitary(3, np.random.default_rng(1))
        x = tangent_random(g, np.random.default_rng(2))
        assert np.linalg.norm(x.direction + x.direction.conj().T) < 1e-12

    def test_determinism(self):
        g = random_unitary(3, np.random.default_rng(1))
        x, y = (tangent_random(g, np.random.default_rng(9)) for _ in range(2))
        assert np.array_equal(x.direction, y.direction)

    def test_entry_mean(self):
        g = random_unitary(3, np.random.default_rng(1))
        rng = np.random.default_rng(4)
        mean = np.mean(
            [tangent_random(g, rng).direction for _ in range(100)], axis=0
        )
        # entries are zero-mean with std ~ 1/(3 sqrt(100))
        assert np.max(np.abs(mean)) < 3 * 0.2

    def test_rejects_non_skew(self):
        g = random_unitary(2, np.random.default_rng(1))
        with pytest.raises(DimensionError):
            TangentVector(g, np.eye(2))

    def test_rejects_non_finite(self):
        g = random_unitary(2, np.random.default_rng(1))
        a = np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)
        with pytest.raises(DimensionError):
            TangentVector(g, a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_rejects_overflowing_norm(self, scale):
        # both norms overflow to inf, and inf > inf would let a + a^H != 0 pass
        g = random_unitary(2, np.random.default_rng(1))
        with pytest.raises(DimensionError, match="overflows"):
            TangentVector(g, scale * np.eye(2))


class TestEmbedding:
    def test_scalar_into_three(self):
        g = embed_block(UnitaryMatrix(np.diag([1j])), 3)
        assert np.allclose(g.mat, np.diag([1j, 1.0, 1.0]))

    def test_identity_embedding(self):
        g = random_unitary(3, np.random.default_rng(8))
        assert np.array_equal(embed_block(g, 3).mat, g.mat)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            embed_block(random_unitary(3, np.random.default_rng(0)), 2)

    def test_decomposition_commutes(self):
        g = random_unitary(3, np.random.default_rng(12))
        spec = spectral_decompose(g)
        bigspec = spectral_decompose(embed_block(g, 5))
        non_unit = [
            (v, p)
            for v, p in zip(bigspec.eigenvalues, cluster_projectors(bigspec))
            if abs(v - 1.0) > 1e-8
        ]
        small = {
            round(float(np.angle(v)), 6): p
            for v, p in zip(spec.eigenvalues, cluster_projectors(spec))
        }
        assert len(non_unit) == len(small)
        for v, p in non_unit:
            q = small[round(float(np.angle(v)), 6)]
            padded = np.zeros((5, 5), dtype=complex)
            padded[:3, :3] = q
            assert np.linalg.norm(p - padded) < 1e-9

    def test_tangent_embedding(self):
        g = random_unitary(2, np.random.default_rng(3))
        x = tangent_random(g, np.random.default_rng(4))
        xe = embed_tangent(x, 4)
        assert np.allclose(xe.direction[:2, :2], x.direction)
        assert np.linalg.norm(xe.direction[2:, :]) == 0.0


class TestMatrixJson:
    def test_round_trip(self):
        m = random_unitary(3, np.random.default_rng(6)).mat
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_missing_field(self):
        with pytest.raises(SchemaError) as err:
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})
        assert ".im" in str(err.value)

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_non_numeric(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"dim": 1, "re": [["x"]], "im": [[0.0]]})
