import json
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
from basicgerbe.cli import _decode, flag_point_to_json
from basicgerbe.linalg import (
    CLUSTER_TOL,
    POLAR_STEP_TOL,
    TWO_PI,
    UNITARITY_TOL,
    _eigenbasis_sum,
    matrix_stack_from_json,
)
from basicgerbe.projectors import _step
from basicgerbe.sampling import _gap_list, sample_rng
from basicgerbe.weyl import sample_regular
from refusals import refused, refusal_test

EPS = np.finfo(float).eps


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


def cluster_runs(spec) -> list[range]:
    """The column ranges of the runs of equal eigenvalues, in frame order."""
    lam = spec.eigenvalues
    cuts = [0, *(np.flatnonzero(lam[1:] != lam[:-1]) + 1).tolist(), len(lam)]
    return [range(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def cluster_sizes(spec) -> list[int]:
    return [len(r) for r in cluster_runs(spec)]


def distinct_eigenvalues(spec) -> np.ndarray:
    return spec.eigenvalues[[r.start for r in cluster_runs(spec)]]


def cluster_projectors(spec) -> np.ndarray:
    """P_i = U_i U_i^H from the frame columns U_i of each eigenvalue."""
    blocks = (spec.frame[:, r.start:r.stop] for r in cluster_runs(spec))
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


# inputs with a repeated eigenvalue, each drawn from one Generator
REPEATED_CASES = {
    "U(4)-in-U(64)": lambda rng: embed_block(random_unitary(4, rng), 64),
    "multiplicities-3-2-4": with_multiplicities,
    "+I": lambda rng: UnitaryMatrix(np.eye(5)),
    "-I": lambda rng: UnitaryMatrix(-np.eye(5)),
    "straddling-0": straddling_zero,
}

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
        refused(DimensionError, "expected a square matrix, got shape (2, 3)",
                lambda: unitary_check(np.ones((2, 3))))

    @pytest.mark.parametrize("entry", [math.inf, complex(0, -math.inf), math.nan])
    def test_non_finite_entry(self, entry):
        # m m^H of a non-finite m once warned "invalid value encountered in matmul"
        m = np.eye(3, dtype=complex)
        m[0, 1] = entry
        ok, defect = unitary_check(m)
        assert not ok and math.isnan(defect)

    @pytest.mark.parametrize("defect", [0.5 * POLAR_STEP_TOL, 2 * POLAR_STEP_TOL,
                                        0.9 * UNITARITY_TOL])
    def test_polar_step_above_threshold_only(self, defect):
        # a Haar g scaled so that ||g g^H - I||_F is about defect * n: below
        # POLAR_STEP_TOL n it is stored bit for bit, above it after one
        # Newton-Schulz step, whose defect is O(defect^2) plus rounding
        n = 6
        for seed in range(4):
            m = random_unitary(n, np.random.default_rng(seed)).mat
            m = m * (1 + defect * math.sqrt(n) / 2)
            before = unitary_check(m)[1]
            assert 0.9 * defect * n < before < 1.1 * defect * n
            stored = UnitaryMatrix(m).mat
            if before <= POLAR_STEP_TOL * n:
                assert np.array_equal(stored, m)
            else:
                assert unitary_check(stored)[1] <= POLAR_STEP_TOL * n


class TestRandomUnitary:
    def test_dim_one(self):
        g = random_unitary(1, np.random.default_rng(0))
        assert abs(abs(g.mat[0, 0]) - 1.0) < 1e-12

    def test_determinism(self):
        a = random_unitary(4, np.random.default_rng(7))
        b = random_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a.mat, b.mat)

    def test_zero_dim_rejected(self):
        refused(DimensionError, "dimension must be at least 1",
                lambda: random_unitary(0, np.random.default_rng(1)))

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
        assert cluster_sizes(spec) == [2]
        assert np.allclose(cluster_projectors(spec)[0], np.eye(2))

    def test_diag_pair(self):
        spec = spectral_decompose(UnitaryMatrix(np.diag([1j, -1j])))
        assert cluster_sizes(spec) == [1, 1]
        assert np.allclose(spec.eigenvalues, [1j, -1j])
        proj = cluster_projectors(spec)
        assert np.allclose(proj[0], np.diag([1.0, 0.0]))
        assert np.allclose(proj[1], np.diag([0.0, 1.0]))

    def test_reconstruction(self):
        g = random_unitary(5, np.random.default_rng(11))
        spec = spectral_decompose(g)
        proj = cluster_projectors(spec)
        rebuilt = np.einsum("i,ijk->jk", distinct_eigenvalues(spec), proj)
        assert np.linalg.norm(rebuilt - g.mat) < 1e-10

    def test_projector_algebra_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = spectral_decompose(random_unitary(4, rng))
            proj = cluster_projectors(spec)
            total = proj.sum(axis=0)
            assert np.linalg.norm(total - np.eye(4)) < 1e-10
            for i in range(len(proj)):
                p = proj[i]
                assert np.linalg.norm(p @ p - p) < 1e-10
                assert np.linalg.norm(p - p.conj().T) < 1e-10
                for j in range(i + 1, len(proj)):
                    assert np.linalg.norm(p @ proj[j]) < 1e-10

    def test_cluster_merging(self):
        eps = 1e-12
        g = UnitaryMatrix(np.diag([1.0, np.exp(1j * eps), 1j]))
        spec = spectral_decompose(g)
        assert cluster_sizes(spec) == [2, 1]

    @pytest.mark.parametrize("eps", [1e-12, 3e-10])
    def test_cluster_straddling_angle_zero(self, eps):
        # e^{-2i eps}, e^{-i eps} and e^{i eps} sit on both sides of angle 0
        lam = np.exp(1j * np.array([-eps, eps, np.pi, -2 * eps]))
        spec = spectral_decompose(UnitaryMatrix(np.diag(lam)))
        assert cluster_sizes(spec) == [1, 3]
        assert abs(spec.angles[0] - np.pi) < 1e-15
        assert np.max(np.abs(spec.angles[1:] - TWO_PI)) < 1e-9
        # the straddling cluster is last, so a cut pair round pi catches -1 only
        for z1, z2 in ((np.pi + 0.5, np.pi - 0.5), (np.pi - 0.5, np.pi + 0.5)):
            ctx = classify(cut_point(z1), cut_point(z2), spec)
            assert ctx.arc_indices == range(0, 1)
            assert ctx.arc_dim == 1

    def test_ambiguous_chain(self):
        # each neighbor within tol, total spread above it
        angles = np.arange(5) * 0.6 * CLUSTER_TOL
        g = UnitaryMatrix(np.diag(np.exp(1j * angles)))
        refused(AmbiguousClusterError,
                "eigenvalue run spans 2.400e-09 >= tolerance 1.000e-09",
                lambda: spectral_decompose(g))

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
        assert len(cluster_runs(spec)) == 128
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("make", REPEATED_CASES.values(), ids=REPEATED_CASES)
    def test_repeated_clusters_match_gram_schmidt(self, make):
        g = make(np.random.default_rng(21))
        spec = spectral_decompose(g)
        assert max(cluster_sizes(spec)) > 1
        assert np.max(np.abs(cluster_projectors(spec) - mgs_projectors(g))) < 1e-13
        u = spec.frame
        assert np.max(np.abs(u.conj().T @ u - np.eye(g.dim))) < 1e-13

    @pytest.mark.parametrize("make", REPEATED_CASES.values(), ids=REPEATED_CASES)
    def test_equal_eigenvalues_are_the_gram_schmidt_blocks(self, make):
        # two columns carry the same eigenvalue, bit for bit, exactly when
        # the reference puts them in the same cluster projector
        g = make(np.random.default_rng(21))
        spec = spectral_decompose(g)
        u = spec.frame
        weight = np.linalg.norm(mgs_projectors(g) @ u, axis=1)  # (cluster, column)
        assert np.all((weight > 1 - 1e-12) | (weight < 1e-12))
        label = np.argmax(weight, axis=0)
        lam = spec.eigenvalues
        assert np.array_equal(lam[:, None] == lam, label[:, None] == label)

    def test_frame_diagonalizes_g(self):
        g = with_multiplicities(np.random.default_rng(8))
        spec = spectral_decompose(g)
        u, lam = spec.frame, spec.eigenvalues
        assert cluster_sizes(spec) == [3, 2, 4]
        assert np.linalg.norm((u * lam) @ u.conj().T - g.mat) < 1e-12
        # each column's largest-magnitude entry is real positive
        pivot = u[np.argmax(np.abs(u), axis=0), np.arange(9)]
        assert np.all(pivot.real > 0) and np.max(np.abs(pivot.imag)) < 1e-15
        assert not u.flags.writeable
        assert cluster_runs(spec) == [range(0, 3), range(3, 5), range(5, 9)]
        # an arc is the column range of its clusters, empty between two
        assert classify(cut_point(5.0), cut_point(1.0), spec).arc_indices == range(3, 9)
        null = classify(cut_point(3.5), cut_point(3.0), spec).arc_indices
        assert (null.start, null.stop) == (5, 5)

    @pytest.mark.parametrize("case", DECOMPOSITION_CASES)
    def test_accuracy_against_schur(self, case):
        g = DECOMPOSITION_CASES[case](np.random.default_rng(31))
        n = g.dim
        spec = spectral_decompose(g)
        u, lam = spec.frame, spec.eigenvalues
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
        distinct = distinct_eigenvalues(spec)
        ring = np.append(distinct, distinct[:1])
        gap = min(2.0, *np.abs(np.diff(ring))) if len(distinct) > 1 else 2.0
        want = mp_projectors(g) if case == "pair-1e-8-apart" else mgs_projectors(g)
        assert np.max(np.abs(cluster_projectors(spec) - want)) <= 2 * n * EPS / gap


class TestMarks:
    """``marks`` is (0, angles..., 2*pi): the identity at both ends, so its
    consecutive differences are the angular gaps, zero-width ones kept."""

    def test_one_eigenvalue(self):
        spec = spectral_decompose(UnitaryMatrix(np.array([[np.exp(2j)]])))
        assert spec.marks.tolist() == [0.0, spec.angles[0], TWO_PI]
        assert abs(spec.marks[1] - 2.0) < 1e-15

    def test_eigenvalue_at_the_identity(self):
        spec = spectral_decompose(UnitaryMatrix(np.diag([1j, 1.0, -1j])))
        assert spec.marks.tolist() == [0.0, 0.0, np.pi / 2, 3 * np.pi / 2, TWO_PI]
        # the first gap, from the identity to the eigenvalue 1, has zero width
        # and is not an angular gap
        assert _gap_list(spec) == [(0.0, np.pi / 2), (np.pi / 2, 3 * np.pi / 2),
                                   (3 * np.pi / 2, TWO_PI)]

    def test_repeated_eigenvalue(self):
        spec = spectral_decompose(with_multiplicities(np.random.default_rng(8)))
        marks = spec.marks
        assert np.array_equal(marks[1:-1], spec.angles)
        assert (marks[0], marks[-1]) == (0.0, TWO_PI)
        # a zero-width gap between each two columns of a cluster (3, 2, 4)
        assert np.flatnonzero(np.diff(marks) == 0).tolist() == [1, 2, 4, 6, 7, 8]
        assert len(_gap_list(spec)) == 4


class TestShiftedStep:
    """``_step`` decomposes g exp(tA) while |t| ||A||_2 stays below the
    distance from spec(g) to the cuts, and refuses it from there on."""

    # g has eigenvalues at angles 1, 2 and 4; the cut at angle 3 is
    # 2 sin(1/2) ~ 0.959 from the nearest two
    CUT = cut_point(3.0)

    def spec(self):
        q = random_unitary(3, np.random.default_rng(16)).mat
        return spectral_decompose(
            UnitaryMatrix((q * np.exp(1j * np.array([1.0, 2.0, 4.0]))) @ q.conj().T)
        )

    def bound(self, spec):
        return float(np.min(np.abs(spec.eigenvalues - self.CUT.value)))

    def direction(self, top):
        # iA has eigenvalues -top, 0.5 top and top, so ||A||_2 = top
        q = random_unitary(3, np.random.default_rng(17)).mat
        return (q * (-1j * top * np.array([-1.0, 0.5, 1.0]))) @ q.conj().T

    def test_matches_the_exponential_series(self):
        spec = self.spec()
        g = UnitaryMatrix(spec.matrix)
        a = tangent_random(g, np.random.default_rng(18)).direction
        series = sum(
            np.linalg.matrix_power(0.3 * a, k) / math.factorial(k) for k in range(30)
        )
        step = _step(spec, a, 0.3, self.CUT)
        assert np.max(np.abs(step.matrix - spec.matrix @ series)) < 1e-15

    @pytest.mark.parametrize("t", [1.0, -1.0, 1e-5])
    def test_just_below_the_bound(self, t):
        spec = self.spec()
        reach = 0.999 * self.bound(spec)
        step = _step(spec, self.direction(reach / abs(t)), t, self.CUT)
        # Bauer-Fike: every eigenvalue moved by at most the reach
        moved = np.abs(step.eigenvalues[:, None] - spec.eigenvalues[None, :])
        assert np.max(np.min(moved, axis=1)) <= reach

    @pytest.mark.parametrize("t", [1.0, -1.0, 1e-5])
    def test_just_above_the_bound(self, t):
        spec = self.spec()
        a = self.direction(1.001 * self.bound(spec) / abs(t))
        refused(StepTooLargeError, f"FD step h = {abs(t):g} moves an eigenvalue up to "
                "0.9598, which reaches the distance 0.9589 from spec(g) to the nearest "
                "cut", lambda: _step(spec, a, t, self.CUT))

class TestEigenbasisSum:
    def test_matches_projector_loop(self):
        # a doubly repeated eigenvalue: column weights that are constant on
        # each pair of clusters give the sum over cluster projectors
        rng = np.random.default_rng(11)
        q = random_unitary(5, rng).mat
        ang = np.array([0.7, 0.7, 2.0, 3.3, 5.1])
        spec = spectral_decompose(UnitaryMatrix((q * np.exp(1j * ang)) @ q.conj().T))
        assert cluster_sizes(spec) == [2, 1, 1, 1]
        m = 4
        w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        proj = cluster_projectors(spec)
        want = sum(
            w[i, j] * proj[i] @ x @ proj[j]
            for i in range(m)
            for j in range(m)
        )
        label = np.repeat(np.arange(m), cluster_sizes(spec))
        got = _eigenbasis_sum(spec, w[label][:, label], x)
        assert np.max(np.abs(got - want)) < 1e-13


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
        refused(DimensionError, "tangent direction is not skew-Hermitian",
                lambda: TangentVector(g, np.eye(2)))

class TestEmbedding:
    def test_scalar_into_three(self):
        g = embed_block(UnitaryMatrix(np.diag([1j])), 3)
        assert np.allclose(g.mat, np.diag([1j, 1.0, 1.0]))

    def test_identity_embedding(self):
        g = random_unitary(3, np.random.default_rng(8))
        assert np.array_equal(embed_block(g, 3).mat, g.mat)

    def test_too_small(self):
        g = random_unitary(3, np.random.default_rng(0))
        x = tangent_random(g, np.random.default_rng(1))
        for call in (lambda: embed_block(g, 2), lambda: embed_tangent(x, 2)):
            refused(DimensionError, "cannot embed U(3) into U(2)", call)

    def test_decomposition_commutes(self):
        g = random_unitary(3, np.random.default_rng(12))
        spec = spectral_decompose(g)
        bigspec = spectral_decompose(embed_block(g, 5))
        non_unit = [
            (v, p)
            for v, p in zip(distinct_eigenvalues(bigspec), cluster_projectors(bigspec))
            if abs(v - 1.0) > 1e-8
        ]
        small = {
            round(float(np.angle(v)), 6): p
            for v, p in zip(distinct_eigenvalues(spec), cluster_projectors(spec))
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
        refused(SchemaError, "$.im: missing field",
                lambda: matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]}))

    def test_shape_mismatch(self):
        refused(SchemaError, "$: expected 2x2 're' and 'im' blocks",
                lambda: matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]}))

    def test_non_numeric(self):
        refused(SchemaError,
                "$: matrix entries are not doubles: must be real number, not str",
                lambda: matrix_from_json({"dim": 1, "re": [["x"]], "im": [[0.0]]}))

    def test_booleans_read_as_zero_and_one(self):
        got = matrix_from_json({"dim": 2, "re": [[True, 0], [False, -1]],
                                "im": [[0, False], [0, True]]})
        assert np.array_equal(got, np.diag([1.0, -1.0 + 1j]))


# the float edges of test_decode_bit_identical_to_json, subnormal to 64-bit ints
EDGES = [5e-324, -0.0, 1e23, 1.7976931348623157e308, 2**63 - 1, -(2**63)]


class TestMatrixStack:
    """``matrix_stack_from_json`` gives the bits ``np.asarray(rows, dtype=float)``
    gives, in each block of each matrix."""

    @staticmethod
    def flag_stack(n, edges=False):
        rng = sample_rng(0, "matrix-stack", n)
        stack = flag_point_to_json(sample_regular(n, rng))["projections"]
        if edges:
            stack[0]["re"][0][:3], stack[0]["re"][1][:3] = EDGES[:3], EDGES[3:]
            stack[-1]["im"][-1][-3:], stack[-1]["im"][0][-3:] = EDGES[:3], EDGES[3:]
        # decoded as eval decodes a point file
        return _decode(json.dumps(stack).encode())

    @pytest.mark.parametrize("n, edges", [(3, False), (16, False), (3, True),
                                          (16, True)])
    def test_bit_identical_to_asarray(self, n, edges):
        stack = self.flag_stack(n, edges)
        got = matrix_stack_from_json([(m, f"$[{i}]") for i, m in enumerate(stack)])
        assert got.shape == (n, n, n) and got.dtype == complex
        for part, key in ((got.real, "re"), (got.imag, "im")):
            want = np.asarray([m[key] for m in stack], dtype=float)
            assert part.tobytes() == want.tobytes()
        if edges:
            assert got[0, 0, 1].real == 0.0 and np.signbit(got[0, 0, 1].real)
            assert got[0, 1, 1].real == 2.0**63

    def test_one_matrix_is_its_one_item_stack(self):
        (m,) = self.flag_stack(3, edges=True)[:1]
        got = matrix_stack_from_json([(m, "$.g")])
        assert got.shape == (1, 3, 3)
        assert got[0].tobytes() == matrix_from_json(m, "$.g").tobytes()


def first_fault(index, change):
    """A call: read a U(3) flag stack after ``change`` to its matrix ``index``."""
    return lambda: matrix_stack_from_json([
        ({**m, **change} if i == index else m, f"$[{i}]")
        for i, m in enumerate(TestMatrixStack.flag_stack(3))])


SHIFT, G2 = TestShiftedStep(), random_unitary(2, np.random.default_rng(1))
ROWS = [[0.0] * 3] * 2  # two rows of a 3 x 3 block

REFUSALS = {
    "step-inf": (StepTooLargeError, "FD step h = inf moves an eigenvalue up to inf, "
     "which reaches the distance 0.9589 from spec(g) to the nearest cut",
     lambda: _step(SHIFT.spec(), SHIFT.direction(1.0), np.inf, SHIFT.CUT)),
    "tangent-non-finite": (DimensionError, "tangent direction has non-finite entries",
     lambda: TangentVector(G2, np.array([[0, np.nan], [np.nan, 0]], dtype=complex))),
    # both norms overflow to inf, and inf > inf would let a + a^H != 0 pass
    "tangent-norm-1e160": (DimensionError, "tangent direction norm overflows",
     lambda: TangentVector(G2, 1e160 * np.eye(2))),
    "tangent-norm-1e200": (DimensionError, "tangent direction norm overflows",
     lambda: TangentVector(G2, 1e200 * np.eye(2))),
    # the first fault of a stack read, at its path
    "size-differs": (SchemaError, "$[1]: size differs from [0]",
     first_fault(1, {"dim": 2})),
    "float-dim": (SchemaError, "$[2]: 'dim' is not an integer >= 1",
     first_fault(2, {"dim": 3.0})),
    "short-block": (SchemaError, "$[0]: expected 3x3 're' and 'im' blocks",
     first_fault(0, {"re": ROWS})),
    "long-row": (SchemaError, "$[2]: expected 3x3 're' and 'im' blocks",
     first_fault(2, {"im": ROWS + [[0.0] * 4]})),
    "null-row": (SchemaError, "$[1]: expected 3x3 're' and 'im' blocks",
     first_fault(1, {"im": ROWS + [None]})),
    "string-entry": (SchemaError,
     "$[1]: matrix entries are not doubles: must be real number, not str",
     first_fault(1, {"re": ROWS + [[0.0, "0", 0.0]]})),
}
test_refused = refusal_test(REFUSALS)
