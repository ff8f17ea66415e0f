import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from basicgerbe import (
    DimensionError,
    FlagTangent,
    FlagTorusPoint,
    RegularityError,
    TangentVector,
    UnitaryMatrix,
    curving_eval,
    cut_point,
    mc_pullback,
    preimage_count,
    pullback_curving_closed,
    pullback_df_closed,
    pullback_nu_closed,
    random_flag_tangent,
    random_unitary,
    sample_regular,
    spectral_decompose,
    three_curvature,
    weyl_apply,
    weyl_tangent,
)
from basicgerbe import cli, weyl
from basicgerbe.cli import SuiteConfig, run_suite
from basicgerbe.sampling import random_cuts, sample_rng
from basicgerbe.weyl import PROJECTOR_TOL
from flag_reference import pullback_curving, pullback_df
from refusals import refused, refusal_test


def regular_instance(index, n=4):
    rng = sample_rng(0, "weyl-test", index)
    pt = sample_regular(n, rng)
    tans = [random_flag_tangent(pt, rng) for _ in range(3)]
    return rng, pt, tans


def stack_point(p, lam):
    """The point of a projector stack, built as the JSON parse builds it."""
    return FlagTorusPoint(weyl._flag_frame(np.asarray(p, dtype=complex)), lam)


def stack_tangent(pt, dlam, dp):
    """The tangent of a dP stack, built as the JSON parse builds it."""
    gen = weyl._flag_generator(pt.frame, np.asarray(dp, dtype=complex))
    return FlagTangent(pt, dlam, gen)


def cayley_step(pt, e):
    """U = (1 - eS/2)^{-1} (1 + eS/2) for a unit skew-Hermitian S: 1 + eS + O(e^2)."""
    b = random_unitary(pt.dim, np.random.default_rng(9)).mat
    s = (b - b.conj().T) / np.linalg.norm(b - b.conj().T)
    one = np.eye(pt.dim)
    return np.linalg.solve(one - e * s / 2, one + e * s / 2)


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestFlagTorusPoint:
    def test_valid_from_columns(self):
        _, pt, _ = regular_instance(0)
        assert pt.is_regular()
        assert pt.dim == 4
        assert pt.frame.shape == (4, 4)
        q = pt.frame[:, 2]
        assert np.array_equal(pt.projections[2], np.outer(q, q.conj()))

    def test_frame_recovered_from_projections(self):
        _, pt, _ = regular_instance(6)
        again = stack_point(pt.projections, pt.torus_values)
        # each column is recovered up to a unit phase
        overlap = np.abs(np.sum(again.frame.conj() * pt.frame, axis=0))
        assert np.max(np.abs(overlap - 1.0)) < 1e-12

    def test_sample_regular_memory_is_quadratic(self):
        # an n x n x n projector stack at n = 128 would take 32 MB
        rng = sample_rng(0, "weyl-test", 128)
        pt, peak = peak_bytes(sample_regular, 128, rng)
        assert pt.frame.shape == (128, 128)
        assert peak <= 4 * 2**20

    def test_incomplete_rejected(self):
        q = np.eye(3)
        proj = np.stack([np.outer(q[:, i], q[:, i]) for i in range(2)])
        refused(DimensionError, "a full flag of U(3) needs 3 finite projections",
                lambda: stack_point(proj, np.exp(1j * np.array([0.3, 1.1]))))

    def test_non_orthogonal_rejected(self):
        p = np.stack([np.diag([1.0, 0.0]), np.diag([0.3, 1.0])])
        refused(DimensionError, "projection 1 is not Hermitian of rank one",
                lambda: stack_point(p, np.exp(1j * np.array([0.3, 1.1]))))

    @pytest.mark.parametrize("e, accepted", [(1e-3, False), (1e-7, True)])
    def test_orthogonality_bound(self, e, accepted):
        # complete and Hermitian; P0^2 - P0 = e^2 I, below the tol for 1e-7
        p0 = np.array([[1.0, e], [e, 0.0]], dtype=complex)
        p = np.stack([p0, np.eye(2) - p0])
        lam = np.exp(1j * np.array([0.3, 1.1]))
        if accepted:
            stack_point(p, lam)
        else:
            refused(DimensionError, "projection 0 is not Hermitian of rank one",
                    lambda: stack_point(p, lam))

    @pytest.mark.parametrize(
        "rank, defect",
        [(1, 0.0), (1, 0.95), (2, 0.95)],
        ids=["m=n-0.0", "m=n-0.95", "m<n-0.95"],
    )
    def test_orthogonality_defect_below_diagonal(self, rank, defect):
        # orthonormal real frame (v, u, w); the last projector is w w^T and
        # the first gets E = -i d w v^T, which maps range(P_0) into
        # range(P_last): P_0 stays idempotent, the family complete to |E|,
        # and every block but P_last P_0 = E stays exact.  E - E^H =
        # -i d (w v^T + v w^T) is entrywise smaller than E, so at ``defect``
        # times the Hermitian bound E still exceeds the orthogonality bound,
        # and P_0 is farther than PROJECTOR_TOL from q_0 q_0^H.  A partial
        # flag (m < n) is rejected whatever its defect
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        w = np.array([0.0, c, s])
        v = np.array([np.sin(np.pi / 10), np.cos(np.pi / 10) * s,
                      -np.cos(np.pi / 10) * c])
        u = np.cross(v, w)
        e = np.outer(w, v)
        e = -1j * defect * PROJECTOR_TOL / np.max(np.abs(e + e.T)) * e
        vv, uu, ww = np.outer(v, v), np.outer(u, u), np.outer(w, w)
        # m = n = 3, or m = 2 < n with P_0 of rank 2
        p = np.stack([vv + e, uu, ww] if rank == 1 else [vv + uu + e, ww])
        m = len(p)
        lam = np.exp(1j * np.array([0.3, 1.1, 2.0][:m]))
        over = [(a, b) for a in range(m) for b in range(m)
                if np.max(np.abs(p[a] @ p[b] - (a == b) * p[a])) > PROJECTOR_TOL]
        if not defect:
            assert over == []
            stack_point(p, lam)
        else:
            assert over == [(m - 1, 0)]
            message = ("projection 0 is not Hermitian of rank one" if rank == 1
                       else "a full flag of U(3) needs 3 finite projections")
            refused(DimensionError, message, lambda: stack_point(p, lam))

    def test_non_unit_values_rejected(self):
        p = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        refused(DimensionError, "torus values must be finite, of unit modulus",
                lambda: stack_point(p, np.array([2.0, 1j])))

    def test_repeated_values_irregular(self):
        p = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        pt = stack_point(p, np.array([1j, 1j * np.exp(1e-8j)]))
        assert not pt.is_regular()


class TestFlagTangent:
    def test_radial_dlam_rejected(self):
        _, pt, _ = regular_instance(1)
        refused(DimensionError, "dlambda is not tangent to the unit circle",
                lambda: stack_tangent(pt, pt.torus_values.copy(),
                                      np.zeros_like(pt.projections)))

    def test_dP_sum_must_vanish(self):
        _, pt, tans = regular_instance(2)
        bad = tans[0].dP.copy()
        bad[0] += np.eye(pt.dim) * 0.1
        refused(DimensionError, "dP_i must be off-diagonal for P_i and sum to zero",
                lambda: stack_tangent(pt, tans[0].dlam, bad))

    @pytest.mark.parametrize("e, accepted", [(1e-3, False), (1e-7, True)])
    @pytest.mark.parametrize("route, message", [
        ("stack", "dP_i must be off-diagonal for P_i and sum to zero"),
        ("generator", "dP_i must be Hermitian"),
    ], ids=["stack-off-diagonal", "generator-Hermitian"])
    def test_tangent_bound(self, route, message, e, accepted):
        # a step U = 1 + eS + O(e^2) along a skew-Hermitian S: the stack
        # U P_i U^H - P_i is off [eS, P_i] and the generator of U - 1 is off
        # skew-Hermitian by O(e^2), below the tol for 1e-7
        _, pt, tans = regular_instance(9)
        uq = cayley_step(pt, e) @ pt.frame
        if route == "stack":
            moved = uq.T[:, :, None] * uq.T.conj()[:, None, :]
            build = lambda: stack_tangent(pt, tans[0].dlam, moved - pt.projections)
        else:
            gen = pt.frame.conj().T @ uq - np.eye(pt.dim)
            np.fill_diagonal(gen, 0)
            build = lambda: FlagTangent(pt, tans[0].dlam, gen)
        if accepted:
            build()
        else:
            refused(DimensionError, message, build)

    def test_random_tangent_memory_is_quadratic(self):
        # one n x n x n dP stack at n = 128 would take 32 MB
        rng = sample_rng(0, "weyl-test", 128)
        pt = sample_regular(128, rng)
        tan, peak = peak_bytes(random_flag_tangent, pt, rng)
        assert tan.generator.shape == (128, 128)
        assert peak <= 8 * 2**20

    def test_commutator_tangents_accepted(self):
        _, pt, tans = regular_instance(3)
        for t in tans:
            assert t.point is pt


class TestWeylMap:
    def test_apply_is_unitary(self):
        _, pt, _ = regular_instance(4)
        g = weyl_apply(pt)
        spec = spectral_decompose(g)
        u, lam = spec.frame, spec.eigenvalues
        assert np.linalg.norm((u * lam) @ u.conj().T - g.mat) < 1e-10

    def test_preimage_count(self):
        for n in (2, 3):
            rng = sample_rng(1, "weyl-test", n)
            spec = spectral_decompose(weyl_apply(sample_regular(n, rng)))
            assert preimage_count(spec) == math.factorial(n)

    def test_preimage_count_fails_on_mispaired_family(self, monkeypatch):
        # eigenvalues rolled by one against their projectors: the family no
        # longer maps to g, so the count and the weyl suite's row must fail
        def rolled(g):
            spec = spectral_decompose(g)
            return dataclasses.replace(spec, eigenvalues=np.roll(spec.eigenvalues, 1))

        for n in (2, 3):
            pt = sample_regular(n, sample_rng(1, "weyl-test", n))
            assert preimage_count(rolled(weyl_apply(pt))) != math.factorial(n)
        monkeypatch.setattr(cli, "spectral_decompose", rolled)
        report = run_suite(SuiteConfig(suite="weyl", dim=3, samples=2, seed=0))
        row = next(c for c in report["checks"] if c["name"] == "preimage-count")
        assert row["failures"] == 2
        assert not report["passed"]

    def test_preimage_memory_is_quadratic(self):
        # the match table of a U(128) as one n x n x n residual took 65 MB
        g = random_unitary(128, np.random.default_rng(5))
        count, peak = peak_bytes(preimage_count, spectral_decompose(g))
        assert count == math.factorial(128)
        assert peak <= 8 * 2**20

    def test_preimage_rejects_irregular(self):
        g = UnitaryMatrix(np.diag([1j, 1j, -1j]))
        refused(RegularityError, "g is not regular (repeated or close eigenvalues)",
                lambda: preimage_count(spectral_decompose(g)))

    def test_mc_pullback_exact(self):
        # linearization: dg = sum dlam_i P_i + sum lam_j dP_j = g * pullback
        for k in range(20):
            _, pt, tans = regular_instance(10 + k)
            t = tans[0]
            dg = np.einsum("i,ijk->jk", t.dlam, pt.projections) + np.einsum(
                "j,jkl->kl", pt.torus_values, t.dP
            )
            g = weyl_apply(pt)
            assert np.linalg.norm(dg - g.mat @ mc_pullback(t)) < 1e-10

    def test_weyl_tangent_skew(self):
        _, pt, tans = regular_instance(40)
        x = weyl_tangent(tans[0])
        assert np.linalg.norm(x.direction + x.direction.conj().T) < 1e-9


class TestPullbackForms:
    def test_curving_matches_downstairs(self):
        for k in range(10):
            rng, pt, tans = regular_instance(50 + k)
            angles = np.sort(np.angle(pt.torus_values) % (2 * np.pi))
            mids = np.concatenate([angles, [angles[0] + 2 * np.pi]])
            gaps = np.diff(mids)
            j = int(np.argmax(gaps))
            z = cut_point((mids[j] + gaps[j] / 2) % (2 * np.pi))
            up = pullback_curving_closed(pt, z, tans[0], tans[1])
            g = weyl_apply(pt)
            spec = spectral_decompose(g)
            down = curving_eval(
                z,
                spec,
                TangentVector(g, mc_pullback(tans[0])),
                TangentVector(g, mc_pullback(tans[1])),
            )
            assert abs(up - down) < 1e-8

    def test_torus_directions_kill_curving(self):
        _, pt, _ = regular_instance(70)
        # pure torus tangents dlam_i = i rate_i lam_i, with generator 0
        t1, t2 = (FlagTangent(pt, 1j * r * pt.torus_values, np.zeros((4, 4)))
                  for r in np.eye(4)[:2])
        z = cut_point(np.angle(pt.torus_values[0]) % (2 * np.pi) + 1e-2)
        # tr(P_i dP_k dP_k) vanishes when dP = 0
        assert pullback_curving_closed(pt, z, t1, t2) == 0j

    def test_raw_vs_simplified(self):
        for k in range(15):
            _, pt, tans = regular_instance(80 + k)
            raw = pullback_nu_closed(pt, *tans)
            assert abs(raw - pullback_df_closed(pt, *tans)) < 1e-9

    def test_df_matches_three_curvature(self):
        for k in range(10):
            _, pt, tans = regular_instance(100 + k)
            g = weyl_apply(pt)
            xs = [TangentVector(g, mc_pullback(t)) for t in tans]
            up = pullback_df_closed(pt, *tans)
            down = three_curvature(g, *xs)
            assert abs(up - down) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 32])
    def test_closed_forms_match_stack_reference(self, n):
        rng, pt, tans = regular_instance(140 + n, n)
        z = random_cuts(spectral_decompose(weyl_apply(pt)), rng, 1)[0]
        curving = pullback_curving_closed(pt, z, tans[0], tans[1])
        assert abs(curving - pullback_curving(pt, z, tans[0], tans[1])) < 1e-13
        assert abs(pullback_df_closed(pt, *tans) - pullback_df(pt, *tans)) < 1e-13

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-5])
    def test_curving_of_a_near_pair_matches_mpmath(self, gap):
        # s + 1 - e^s formed as written cancels about -2 log10(gap) digits
        lam = np.exp(1j * np.array([1.0, 1.0 + gap]))
        pt = FlagTorusPoint(np.eye(2), lam)
        t1 = FlagTangent(pt, 1j * lam * [0.3, -0.2], np.array([[0, 1], [-1, 0]]))
        t2 = FlagTangent(pt, 1j * lam * [0.1, 0.5], np.array([[0, 1j], [1j, 0]]))
        want = pullback_curving(pt, cut_point(4.5), t1, t2)
        got = pullback_curving_closed(pt, cut_point(4.5), t1, t2)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_curving_constant_within_gap(self):
        # moving the cut inside one spectral gap leaves the pullback unchanged
        _, pt, tans = regular_instance(120)
        angles = np.sort(np.angle(pt.torus_values) % (2 * np.pi))
        mids = np.concatenate([angles, [angles[0] + 2 * np.pi]])
        gaps = np.diff(mids)
        j = int(np.argmax(gaps))
        z1 = cut_point((mids[j] + gaps[j] * 0.4) % (2 * np.pi))
        z2 = cut_point((mids[j] + gaps[j] * 0.6) % (2 * np.pi))
        v1 = pullback_curving_closed(pt, z1, tans[0], tans[1])
        v2 = pullback_curving_closed(pt, z2, tans[0], tans[1])
        assert abs(v1 - v2) < 1e-10


def close_pair():
    # 1e-8 apart: separate clusters (tol 1e-9), closer than REGULARITY_GAP
    spec = spectral_decompose(UnitaryMatrix(np.diag([1j, 1j * np.exp(1e-8j), -1j])))
    assert len(np.unique(spec.eigenvalues)) == 3
    return preimage_count(spec)


def tilted_eigenbasis():
    # one eigenvector tilted toward another: the rank-one projectors are no
    # longer orthogonal, so the family guard must fail
    spec = spectral_decompose(weyl_apply(PT))
    u = spec.frame.copy()
    u[:, 0] = (u[:, 0] + 1e-3 * u[:, 1]) / np.linalg.norm(u[:, 0] + 1e-3 * u[:, 1])
    return preimage_count(dataclasses.replace(spec, frame=u))


# a regular point of U(4) and a tangent T at it; E_k projects C^3 onto e_k
_, PT, (T, *_) = regular_instance(5)
E0, E1, E2 = (np.diag(row) for row in np.eye(3))
LAM2, LAM3 = np.exp([0.3j, 1.1j]), np.exp([0.3j, 1.1j, 2.0j])
H = np.diag([1.0, 2.0, 3.0, 4.0]) + np.ones((4, 4))  # Hermitian

REFUSALS = {
    "frame-not-unitary": (DimensionError, "projections are not complete and orthogonal",
     lambda: FlagTorusPoint(np.array([[1.0, 0.1], [0.0, 1.0]]), LAM2)),
    # each projector Hermitian of rank one, but onto lines 45 degrees apart
    "lines-45-degrees": (DimensionError, "projections are not complete and orthogonal",
     lambda: stack_point([np.outer(c, c) for c in ([1, 0], [0.5**0.5] * 2)], LAM2)),
    # complete, Hermitian and orthogonal, but P_0 = 0 and P_1 has rank 2
    "zero-rank-family": (DimensionError, "projection 1 is not Hermitian of rank one",
     lambda: stack_point([0 * E0, E0 + E1, E2], np.exp([2j, 4j, 1j]))),
    # complete idempotents with P_a P_b = 0, but P0 and P1 not Hermitian
    "oblique": (DimensionError, "projection 0 is not Hermitian of rank one",
     lambda: stack_point([E0 + 0.7 * np.eye(3, k=1), E1 - 0.7 * np.eye(3, k=1), E2],
                         LAM3)),
    "non-finite-value": (DimensionError, "torus values must be finite, of unit modulus",
     lambda: stack_point([E0[:2, :2], E1[:2, :2]], np.array([1j, np.nan]))),
    "non-finite-projection": (DimensionError,
     "a full flag of U(2) needs 2 finite projections",
     lambda: stack_point([[[1, np.nan], [0, 0]], E1[:2, :2]], np.array([1j, -1j]))),
    # a block of dP_i inside P_i moves P_i off the projectors: dP_0 gives 0.1 P_3
    # to dP_3
    "diagonal-dP": (DimensionError, "dP_i must be off-diagonal for P_i and sum to zero",
     lambda: stack_tangent(PT, T.dlam, T.dP + np.multiply.outer([-0.1, 0, 0, 0.1],
                                                               PT.projections[3]))),
    # dP_i = [H, P_i] for Hermitian H is skew-Hermitian; it sums to zero and is
    # off-diagonal for P_i, so only the Hermitian check sees it
    "skew-dP": (DimensionError, "dP_i must be Hermitian",
     lambda: stack_tangent(PT, T.dlam, H @ PT.projections - PT.projections @ H)),
    "non-finite-dlambda": (DimensionError, "tangent data has non-finite entries",
     lambda: stack_tangent(PT, np.r_[np.nan, T.dlam[1:]], T.dP)),
    # the diagonal moves no P_i, and the closed forms read it as zero
    "generator-diagonal": (DimensionError,
     "the frame generator must have a zero diagonal",
     lambda: FlagTangent(PT, T.dlam, T.generator + 1j * np.eye(4))),
    "close-eigenvalues": (RegularityError,
     "g is not regular (repeated or close eigenvalues)", close_pair),
    "tilted-eigenbasis": (DimensionError, "eigenbasis of g is not unitary",
     tilted_eigenbasis),
}
test_refused = refusal_test(REFUSALS)
