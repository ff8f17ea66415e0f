import dataclasses
import itertools

import numpy as np
import pytest

from basicgerbe import (
    Classification,
    EmptySpaceError,
    GapError,
    IllConditionedCutError,
    StepTooLargeError,
    UnitaryMatrix,
    arc_projector,
    classify,
    cut_point,
    embed_block,
    projector_derivative,
    random_unitary,
    single_projector_derivative,
    spectral_decompose,
    tangent_random,
)
from basicgerbe.contour import BLOCK_ENTRIES, CUT_EXCLUSION, quad_integrate
from basicgerbe.fibers import _canonical_frame
from basicgerbe.projectors import FD_STEP, _step
from basicgerbe.sampling import (
    random_cuts,
    random_null_pair,
    random_positive_context,
    sample_rng,
    well_separated_unitary,
)


@pytest.fixture
def diag_spec():
    return spectral_decompose(UnitaryMatrix(np.diag([1j, -1j])))


class TestClassify:
    def test_positive(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        assert ctx.classification is Classification.POSITIVE
        assert ctx.arc_indices == range(0, 1)

    def test_negative(self, diag_spec):
        ctx = classify(cut_point(np.pi / 4), cut_point(3 * np.pi / 4), diag_spec)
        assert ctx.classification is Classification.NEGATIVE
        assert ctx.arc_indices == range(0, 1)

    def test_null(self, diag_spec):
        ctx = classify(cut_point(np.pi / 8), cut_point(np.pi / 4), diag_spec)
        assert ctx.classification is Classification.NULL
        assert (ctx.arc_indices.start, ctx.arc_indices.stop) == (0, 0)

    def test_cut_on_eigenvalue(self, diag_spec):
        with pytest.raises(IllConditionedCutError):
            classify(cut_point(np.pi / 2 + 1e-9), cut_point(np.pi / 4), diag_spec)

    def test_swapped(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        sw = ctx.swapped()
        assert sw.classification is Classification.NEGATIVE
        assert sw.z1 is ctx.z2 and sw.z2 is ctx.z1
        assert sw.swapped().classification is Classification.POSITIVE


def _between(z1, z2, lam) -> bool:
    """lam lies on the arc between the cuts that avoids 1."""
    lo, hi = sorted((z1.angle, z2.angle))
    return lo < float(np.angle(lam)) % (2 * np.pi) < hi


def _sorted_hstack_basis(ctx):
    """Reference arc basis: the arc's frame columns by angle below z1, the
    columns of a repeated eigenvalue in reverse frame order."""
    a1, spec = ctx.z1.angle, ctx.spec
    order = sorted(
        ctx.arc_indices,
        key=lambda i: ((a1 - float(np.angle(spec.eigenvalues[i]))) % (2 * np.pi), -i),
    )
    return spec.frame[:, order]


def _spectrum_with_identity_and_repeat(n, rng):
    """A random U(n) element with one eigenvalue repeated, embedded in
    U(n + 1) so that 1 is an eigenvalue too."""
    angles = rng.uniform(0.0, 2 * np.pi, size=n)
    if n > 1:
        angles[1] = angles[0]
    q = random_unitary(n, rng).mat
    g = UnitaryMatrix(q @ np.diag(np.exp(1j * angles)) @ q.conj().T)
    return spectral_decompose(embed_block(g, n + 1))


class TestClassifyDefinition:
    """``classify`` reads the arc as a column range of the angle order; its
    definition is the angle predicate ``_between``, column by column."""

    def test_arc_indices_are_the_eigenvalues_between_the_cuts(self):
        rng = np.random.default_rng(16)
        seen = set()
        for n in range(1, 9):
            for _ in range(25):
                spec = _spectrum_with_identity_and_repeat(n, rng)
                z1, z2 = (cut_point(a) for a in rng.uniform(0.0, 2 * np.pi, 2))
                near = [abs(z.value - v) for z in (z1, z2) for v in spec.eigenvalues]
                if min(near) < 10 * CUT_EXCLUSION or abs(z1.value - z2.value) < 1e-6:
                    continue
                eigs = enumerate(spec.eigenvalues)
                want = [i for i, v in eigs if _between(z1, z2, v)]
                for a, b in ((z1, z2), (z2, z1)):
                    ctx = classify(a, b, spec)
                    assert list(ctx.arc_indices) == want
                    seen.add(ctx.classification)
                    if ctx.classification is Classification.POSITIVE:
                        assert np.array_equal(ctx.basis, _sorted_hstack_basis(ctx))
        assert seen == set(Classification)

    def test_identity_and_repeat_are_present(self):
        spec = _spectrum_with_identity_and_repeat(4, np.random.default_rng(0))
        sizes = np.unique(spec.eigenvalues, return_counts=True)[1]
        assert sorted(sizes.tolist()) == [1, 1, 1, 2]
        assert np.min(np.abs(spec.eigenvalues - 1.0)) < 1e-12


class TestArcMemo:
    def test_repeat_returns_same_context(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        # equal cut values, new CutCirclePoint objects
        again = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        assert again is ctx
        assert ctx.swapped() is ctx.swapped()
        assert ctx.swapped().swapped() is ctx
        assert len(diag_spec.arcs) == 2

    def test_fresh_decomposition_does_not_share(self):
        g = UnitaryMatrix(np.diag([1j, -1j]))
        z1, z2 = cut_point(3 * np.pi / 4), cut_point(np.pi / 4)
        spec_a, spec_b = spectral_decompose(g), spectral_decompose(g)
        ctx_a, ctx_b = classify(z1, z2, spec_a), classify(z1, z2, spec_b)
        assert ctx_a is not ctx_b
        assert ctx_a.spec is spec_a and ctx_b.spec is spec_b
        assert ctx_a.basis is not ctx_b.basis
        assert dataclasses.replace(spec_a).arcs == {}

    def test_rejected_cut_raises_every_call(self, diag_spec):
        near = cut_point(np.pi / 2 + 0.5 * CUT_EXCLUSION)
        for _ in range(2):
            with pytest.raises(IllConditionedCutError):
                classify(near, cut_point(np.pi / 4), diag_spec)
        assert diag_spec.arcs == {}

    def test_cached_basis_is_read_only_and_unchanged(self):
        for k in range(10):
            rng = sample_rng(4, "proj-test", k)
            _, spec = well_separated_unitary(5, rng)
            ctx = random_positive_context(spec, rng)
            basis = ctx.basis
            assert ctx.basis is basis
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 0.0
            assert np.array_equal(basis, _sorted_hstack_basis(ctx))

    def test_basis_is_the_reversed_frame_block(self):
        # repeated eigenvalues inside the arcs: the basis reverses their
        # columns too, so an outer arc's basis is its two parts' side by side
        q = random_unitary(7, np.random.default_rng(9)).mat
        lam = np.exp(1j * np.array([0.5, 1.5, 1.5, 2.5, 4.0, 4.0, 5.5]))
        spec = spectral_decompose(UnitaryMatrix((q * lam) @ q.conj().T))
        z1, z2, z3 = (cut_point(a) for a in (4.5, 2.0, 0.2))
        u = spec.frame
        # the eigenvalue of each frame column, read off g itself
        col_lam = np.einsum("ij,ik,kj->j", u.conj(), spec.matrix, u)
        between = [j for j in range(7) if _between(z1, z3, col_lam[j])]
        basis = classify(z1, z3, spec).basis
        assert not basis.flags.writeable
        assert np.shares_memory(basis, u)
        assert between == [0, 1, 2, 3, 4, 5]
        assert np.array_equal(basis, u[:, between[::-1]])
        inner = (classify(z1, z2, spec).basis, classify(z2, z3, spec).basis)
        assert [b.shape[1] for b in inner] == [3, 3]
        assert np.array_equal(basis, np.hstack(inner))

    def test_negative_frame_is_swapped_positive_basis(self):
        for k in range(10):
            rng = sample_rng(5, "proj-test", k)
            _, spec = well_separated_unitary(4, rng)
            pos = random_positive_context(spec, rng)
            neg = classify(pos.z2, pos.z1, spec)
            assert neg.classification is Classification.NEGATIVE
            assert np.array_equal(_canonical_frame(neg), pos.basis)


class TestArcProjector:
    def test_documented_pair(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        p = arc_projector(ctx)
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_null_is_zero(self, diag_spec):
        ctx = classify(cut_point(np.pi / 8), cut_point(np.pi / 4), diag_spec)
        assert np.array_equal(arc_projector(ctx), np.zeros((2, 2)))

    def test_negative_rejected(self, diag_spec):
        ctx = classify(cut_point(np.pi / 4), cut_point(3 * np.pi / 4), diag_spec)
        with pytest.raises(EmptySpaceError):
            arc_projector(ctx)

    def test_residue_vs_quadrature_sweep(self):
        for k in range(30):
            rng = sample_rng(0, "proj-test", k)
            _, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            pr = arc_projector(ctx, method="residue")
            pq = arc_projector(ctx, method="quadrature")
            assert np.linalg.norm(pr - pq) < 1e-10
            assert np.linalg.norm(pr @ pr - pr) < 1e-12
            assert np.linalg.norm(pr - pr.conj().T) < 1e-12
            assert abs(np.trace(pr) - len(ctx.arc_indices)) < 1e-12
            assert np.linalg.norm(ctx.spec.matrix @ pr - pr @ ctx.spec.matrix) < 1e-12

    def test_quadrature_blocks_are_invisible(self):
        # at n = 16 a block holds 32 nodes, fewer than one 65-node panel, so
        # every pass is split; each inverse is LAPACK's on one matrix, and the
        # values are those of one inverse over each whole chunk, bit for bit
        assert BLOCK_ENTRIES // 16**2 == 32
        rng = sample_rng(0, "proj-blocks", 0)
        g = random_unitary(16, rng)
        ctx = random_positive_context(spectral_decompose(g), rng)
        whole = quad_integrate(
            ctx.contour,
            lambda xs: np.linalg.inv(xs[:, None, None] * np.eye(16) - g.mat),
            vectorized=True,
        )
        assert np.array_equal(arc_projector(ctx, "quadrature"), whole)

    def test_unknown_method(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        with pytest.raises(ValueError):
            arc_projector(ctx, method="cubature")


class TestArcBasis:
    def test_order_descending_from_first_cut(self):
        g = UnitaryMatrix(np.diag(np.exp(1j * np.array([0.5, 1.5, 2.5]))))
        ctx = classify(cut_point(3.0), cut_point(0.2), spectral_decompose(g))
        basis = ctx.basis
        # each column's eigenvalue, read as b^H g b
        lams = np.einsum("ij,ik,kj->j", basis.conj(), g.mat, basis)
        assert np.allclose(np.angle(lams), [2.5, 1.5, 0.5])
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(3)) < 1e-12

    def test_spans_projector(self):
        for k in range(10):
            rng = sample_rng(1, "proj-test", k)
            _, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            basis = ctx.basis
            p = basis @ basis.conj().T
            assert np.linalg.norm(p - arc_projector(ctx)) < 1e-12

    def test_requires_positive(self, diag_spec):
        ctx = classify(cut_point(np.pi / 8), cut_point(np.pi / 4), diag_spec)
        with pytest.raises(EmptySpaceError):
            ctx.basis


class TestProjectorDerivative:
    def test_documented_value(self, diag_spec):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), diag_spec)
        from basicgerbe import TangentVector

        g = UnitaryMatrix(diag_spec.matrix)
        a = TangentVector(g, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
        dp = projector_derivative(ctx, a)
        # (i - (-i))^{-1} (P1 X P2 + P2 X P1) with X = g A
        assert np.linalg.norm(dp - np.array([[0.0, 0.5], [0.5, 0.0]])) < 1e-12

    def test_residue_vs_fd(self):
        for k in range(20):
            rng = sample_rng(2, "proj-test", k)
            g, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            a = tangent_random(g, rng)
            dr = projector_derivative(ctx, a, method="residue")
            df = projector_derivative(ctx, a, method="fd")
            assert np.linalg.norm(dr - df) < 1e-6

    def test_leibniz_off_diagonal(self):
        # P dP P = 0 and (1-P) dP (1-P) = 0
        for k in range(20):
            rng = sample_rng(3, "proj-test", k)
            g, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            a = tangent_random(g, rng)
            p = arc_projector(ctx)
            dp = projector_derivative(ctx, a)
            q = np.eye(4) - p
            assert np.linalg.norm(p @ dp @ p) < 1e-10
            assert np.linalg.norm(q @ dp @ q) < 1e-10
            assert np.linalg.norm(dp - dp.conj().T) < 1e-10

    def test_step_too_large(self, diag_spec):
        ctx = classify(cut_point(np.pi / 2 + 2e-6), cut_point(np.pi / 4), diag_spec)
        from basicgerbe import TangentVector

        g = UnitaryMatrix(diag_spec.matrix)
        a = TangentVector(g, np.diag([1j, -1j]))
        with pytest.raises(StepTooLargeError):
            projector_derivative(ctx, a, method="fd")

    def test_negative_rejected(self, diag_spec):
        g = UnitaryMatrix(diag_spec.matrix)
        ctx = classify(cut_point(np.pi / 4), cut_point(3 * np.pi / 4), diag_spec)
        with pytest.raises(EmptySpaceError):
            projector_derivative(ctx, tangent_random(g, np.random.default_rng(0)))


class TestStep:
    """Below the cut bound no eigenvalue meets a cut along g exp(sA), |s| <=
    |t|, so every cut pair keeps its stratum and its arc eigenvalue count."""

    @staticmethod
    def directions(spec, cuts, rng):
        """A random direction, and the one that turns the eigenvalue nearest
        a cut straight at it for t > 0: exp(t i c P_k) turns lambda_k by tc."""
        dist = np.abs(spec.eigenvalues[:, None] - np.array([z.value for z in cuts]))
        k, j = np.unravel_index(np.argmin(dist), dist.shape)
        turn = (cuts[j].angle - spec.angles[k] + np.pi) % (2 * np.pi) - np.pi
        u = spec.frame[:, spec.eigenvalues == spec.eigenvalues[k]]
        return tangent_random(UnitaryMatrix(spec.matrix), rng).direction, (
            1j * np.sign(turn) * u @ u.conj().T
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_keeps_every_arc_at_0999_of_the_bound(self, n):
        for k in range(10):
            rng = sample_rng(0, "step-test", 10 * n + k)
            _, spec = well_separated_unitary(n, rng)
            cuts = random_cuts(spec, rng, min(n + 1, 4))
            bound = min(np.min(np.abs(spec.eigenvalues - z.value)) for z in cuts)
            dirs = self.directions(spec, cuts, rng)
            for t, a in itertools.product((FD_STEP, -1.0), dirs):
                a = 0.999 * bound * a / (t * np.linalg.norm(a, 2))
                step = _step(spec, a, t, *cuts)
                for z1, z2 in itertools.permutations(cuts, 2):
                    before, after = classify(z1, z2, spec), classify(z1, z2, step)
                    assert after.classification is before.classification
                    assert after.arc_dim == before.arc_dim


class TestSingleProjectorDerivative:
    def test_sum_is_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g, spec = well_separated_unitary(4, rng)
            a = tangent_random(g, rng)
            total = sum(
                single_projector_derivative(spec, k, a) for k in range(spec.dim)
            )
            assert np.linalg.norm(total) < 1e-10

    def test_repeated_eigenvalue_is_its_arc(self):
        # either column of a doubled eigenvalue gives the derivative of the
        # whole eigenspace's projector, as an arc round only that pair does
        q = random_unitary(5, np.random.default_rng(12)).mat
        lam = np.exp(1j * np.array([0.5, 1.5, 1.5, 3.0, 4.5]))
        g = UnitaryMatrix((q * lam) @ q.conj().T)
        spec = spectral_decompose(g)
        x = tangent_random(g, np.random.default_rng(13))
        ctx = classify(cut_point(2.0), cut_point(1.0), spec)
        assert ctx.arc_indices == range(1, 3)
        want = projector_derivative(ctx, x)
        for k in ctx.arc_indices:
            got = single_projector_derivative(spec, k, x)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_small_gap_rejected(self):
        g = UnitaryMatrix(np.diag([1.0 * 1j, np.exp(1j * (np.pi / 2 + 1e-4)), -1.0]))
        spec = spectral_decompose(g)
        x = tangent_random(g, np.random.default_rng(0))
        with pytest.raises(GapError):
            single_projector_derivative(spec, 0, x)


class TestSampling:
    def test_well_separated(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g, _ = well_separated_unitary(4, rng)
            ang = np.sort(np.angle(np.linalg.eigvals(g.mat)) % (2 * np.pi))
            full = np.concatenate([[0.0], ang, [2 * np.pi]])
            assert np.min(np.diff(full)) >= 0.2 - 1e-12

    def test_null_pair_really_null(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            _, spec = well_separated_unitary(4, rng)
            z1, z2 = random_null_pair(spec, rng)
            assert classify(z1, z2, spec).classification is Classification.NULL

    def test_rng_stable(self):
        a = sample_rng(5, "suite", 3).integers(0, 1 << 30, size=4)
        b = sample_rng(5, "suite", 3).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
