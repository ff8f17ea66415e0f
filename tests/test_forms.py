import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from basicgerbe import (
    Classification,
    DetLineElement,
    DimensionError,
    EmptySpaceError,
    IllConditionedCutError,
    IncomparableError,
    StepTooLargeError,
    TangentVector,
    UnitaryMatrix,
    arc_projector,
    projector_derivative,
    projector_inserted_curvature,
    random_unitary,
    basic_three_form,
    classify,
    connection_holonomy,
    curvature_via_contour,
    curvature_via_projectors,
    curving_eval,
    cut_point,
    delta_pairs,
    exterior_derivative_fd,
    spectral_decompose,
    tangent_random,
    three_curvature,
)
from basicgerbe import projectors
from basicgerbe.forms import (
    LOOP_STEP,
    _curving_weights,
    _wedge_resolvent_trace,
    curving_z_derivative_fd,
)
from basicgerbe.sampling import (
    descending_cuts,
    random_null_pair,
    random_positive_context,
    sample_rng,
    well_separated_unitary,
)
from residue_reference import residue_eval
from wedge_reference import wedge_trace_eval

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def diag_instance():
    g = UnitaryMatrix(np.diag([1j, -1j]))
    spec = spectral_decompose(g)
    ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), spec)
    x = TangentVector(g, np.array([[0, 1], [-1, 0]], dtype=complex))
    y = TangentVector(g, np.array([[0, 1j], [1j, 0]], dtype=complex))
    return g, spec, ctx, x, y


def random_instance(index, n=4, suite="forms-test"):
    rng = sample_rng(0, suite, index)
    g, spec = well_separated_unitary(n, rng)
    ctx = random_positive_context(spec, rng)
    x = tangent_random(g, rng)
    y = tangent_random(g, rng)
    return rng, g, spec, ctx, x, y


def mp_curving_weights(z, lam) -> np.ndarray:
    """``_curving_weights`` at 50 digits from the log-difference form, with
    log_z's imaginary part in (arg z - 2 pi, arg z] as in ``log_cut_array``."""
    with mpmath.workdps(50):
        top, turn = mpmath.mpf(z.angle), 2 * mpmath.pi
        vs = [mpmath.mpc(complex(v)) for v in lam]
        logs = []
        for v in vs:
            phase = mpmath.arg(v)
            phase -= turn * mpmath.floor((phase - top + turn) / turn)
            logs.append(mpmath.log(abs(v)) + 1j * phase)
        out = np.empty((len(vs), len(vs)), complex)
        for i, vi in enumerate(vs):
            for j, vj in enumerate(vs):
                d = vi - vj
                if i == j:
                    out[i, j] = complex(-1 / (2 * vj**2))
                else:
                    out[i, j] = complex((logs[i] - logs[j]) / d**2 - 1 / (vj * d))
    return out


class TestWedgeTrace:
    def test_degree_one(self):
        m = np.diag([2.0, 3.0])
        s = np.diag([1.0, 1.0])
        assert wedge_trace_eval([m], [s]) == 5.0

    def test_degree_two_antisymmetric(self):
        rng = np.random.default_rng(0)
        m1, m2, s1, s2 = (rng.standard_normal((3, 3)) for _ in range(4))
        fwd = wedge_trace_eval([m1, m2], [s1, s2])
        assert abs(fwd + wedge_trace_eval([m1, m2], [s2, s1])) < 1e-12
        want = np.trace(m1 @ s1 @ m2 @ s2) - np.trace(m1 @ s2 @ m2 @ s1)
        assert abs(fwd - want) < 1e-12

    def test_degree_three_alternating(self):
        rng = np.random.default_rng(1)
        eye = np.eye(3)
        s1, s2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        assert abs(wedge_trace_eval([eye] * 3, [s1, s1, s2])) < 1e-12

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            wedge_trace_eval([np.eye(2)], [np.eye(2), np.eye(2)])


class TestCurvature:
    def test_pinned_value(self):
        _, _, ctx, x, y = diag_instance()
        assert abs(curvature_via_projectors(ctx, x, y) - (-0.5j)) < 1e-12
        assert abs(curvature_via_contour(ctx, x, y, "residue") - (-0.5j)) < 1e-12
        assert abs(curvature_via_contour(ctx, x, y, "quadrature") - (-0.5j)) < 1e-10

    def test_three_routes_sweep(self):
        for k in range(15):
            _, _, _, ctx, x, y = random_instance(k)
            a = curvature_via_projectors(ctx, x, y)
            b = curvature_via_contour(ctx, x, y, "residue")
            c = curvature_via_contour(ctx, x, y, "quadrature")
            assert abs(a - b) < 1e-10
            assert abs(a - c) < 1e-8

    def test_quadrature_peak_memory(self):
        # at n = 32 the resolvent kernel holds blocks of 8 nodes and peaks at
        # 0.96 MB here; unblocked stacks of all 585 nodes peak at 67 MB
        rng = sample_rng(0, "forms-memory", 32)
        g = random_unitary(32, rng)
        ctx = random_positive_context(spectral_decompose(g), rng)
        x, y = tangent_random(g, rng), tangent_random(g, rng)
        curvature_via_contour(ctx, x, y, "quadrature")  # builds the rule once
        tracemalloc.start()
        try:
            curvature_via_contour(ctx, x, y, "quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_null_is_zero(self):
        rng, g, spec, _, x, y = random_instance(100)
        z1, z2 = random_null_pair(spec, rng)
        ctx = classify(z1, z2, spec)
        assert curvature_via_projectors(ctx, x, y) == 0j
        assert curvature_via_contour(ctx, x, y) == 0j

    def test_swap_negates(self):
        for k in range(10):
            _, _, _, ctx, x, y = random_instance(200 + k)
            fwd = curvature_via_projectors(ctx, x, y)
            bwd = curvature_via_projectors(ctx.swapped(), x, y)
            assert abs(fwd + bwd) < 1e-12

    def test_antisymmetry_and_imaginary(self):
        for k in range(10):
            _, _, _, ctx, x, y = random_instance(300 + k)
            v = curvature_via_projectors(ctx, x, y)
            assert abs(v + curvature_via_projectors(ctx, y, x)) < 1e-12
            assert abs(v.real) < 1e-10  # iR-valued on skew directions


class TestStratumRule:
    """Every signed route reads one rule: value on neg = -value on pos, null = 0."""

    ROUTES = {
        "projectors-residue": lambda c, x, y: curvature_via_projectors(c, x, y),
        "projectors-fd": lambda c, x, y: curvature_via_projectors(c, x, y, "fd"),
        "contour-residue": lambda c, x, y: curvature_via_contour(c, x, y),
        "contour-quadrature": lambda c, x, y: curvature_via_contour(
            c, x, y, "quadrature"
        ),
        "inserted": projector_inserted_curvature,
    }

    def test_signed_routes_follow_the_stratum_rule(self):
        proper = 0
        for k in range(30):
            rng, _, spec, pos, x, y = random_instance(1300 + k, n=3)
            if pos.arc_dim == 3:
                continue  # P = 1 has curvature 0, so the sign would not show
            proper += 1
            neg = pos.swapped()
            null = classify(*random_null_pair(spec, rng), spec)
            assert neg.classification is Classification.NEGATIVE
            assert null.classification is Classification.NULL
            assert pos.positive is pos and neg.positive is pos
            assert null.positive is None
            for name, route in self.ROUTES.items():
                v = route(pos, x, y)
                assert v != 0j, name
                assert route(neg, x, y) == -v, name
                assert route(null, x, y) == 0j, name
        assert proper >= 10

    def test_frame_size_error_names_the_stratum(self):
        rng, _, spec, pos, _, _ = random_instance(1400, n=3)
        null = classify(*random_null_pair(spec, rng), spec)
        wide = np.zeros((3, pos.arc_dim + 1))  # one column too many
        for ctx, name in ((pos, "positive"), (pos.swapped(), "negative")):
            with pytest.raises(DimensionError, match=f"the {name} context"):
                DetLineElement(ctx, wide, 1.0)
        with pytest.raises(DimensionError, match="the null context"):
            DetLineElement(null, np.zeros((3, 1)), 1.0)


class TestWedgeResolventTrace:
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("inserted", [False, True])
    def test_matches_node_loop(self, n, inserted):
        rng = np.random.default_rng(n)
        g = random_unitary(n, rng)
        xs = np.exp(1j * rng.uniform(0, 2 * np.pi, 9)) * rng.uniform(0.5, 1.5, 9)
        r = np.linalg.inv(xs[:, None, None] * np.eye(n) - g.mat)
        xm, ym = tangent_random(g, rng).ambient, tangent_random(g, rng).ambient
        p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        insert = p if inserted else None
        pm = p if inserted else np.eye(n)
        fwd = np.array([np.trace(rk @ xm @ rk @ rk @ pm @ ym) for rk in r])
        bwd = np.array([np.trace(rk @ ym @ rk @ rk @ pm @ xm) for rk in r])
        got = _wedge_resolvent_trace(r, xm, ym, insert)
        scale = np.max(np.abs(fwd) + np.abs(bwd))
        assert np.max(np.abs(got - (fwd - bwd))) <= 1e-12 * scale


def mp_wedge(r: np.ndarray, xm, ym, pm) -> complex:
    """tr(R X R^2 P Y) - tr(R Y R^2 P X) at 30 digits, from the float64 entries."""
    with mpmath.workdps(30):
        rr, x, y, p = (mpmath.matrix(m.tolist()) for m in (r, xm, ym, pm))
        q = rr * rr
        fwd, bwd = rr * x * q * p * y, rr * y * q * p * x
        return complex(sum(fwd[i, i] - bwd[i, i] for i in range(fwd.rows)))


class TestWedgeNearAPole:
    # the worst error of these 12 cases is 0.67 u ||R||^3 ||X|| ||Y||, and
    # 0.51 of it with the association (R X R)(R Y); the bound allows 2n
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("inserted", [False, True])
    def test_accurate_near_a_pole(self, n, inserted):
        rng = sample_rng(0, "wedge-pole", n)
        g, spec = well_separated_unitary(n, rng)
        xm, ym = tangent_random(g, rng).ambient, tangent_random(g, rng).ambient
        p = arc_projector(random_positive_context(spec, rng))
        pm = p if inserted else np.eye(n)
        # nodes 1e-2, 1e-4 and 1e-6 from an eigenvalue, as the kernel builds R
        xs = spec.eigenvalues[0] * (1.0 + np.array([1e-2, 1e-4, 1e-6]))
        r = np.linalg.inv(xs[:, None, None] * np.eye(n) - g.mat)
        got = _wedge_resolvent_trace(r, xm, ym, p if inserted else None)
        scale = np.finfo(float).eps / 2 * np.linalg.norm(xm, 2) * np.linalg.norm(ym, 2)
        for rk, value in zip(r, got):
            bound = 2 * n * scale * np.linalg.norm(rk, 2) ** 3
            assert abs(value - mp_wedge(rk, xm, ym, pm)) <= bound


class TestProjectorInsertion:
    def test_matches_curvature(self):
        for k in range(15):
            _, _, _, ctx, x, y = random_instance(400 + k)
            lhs = projector_inserted_curvature(ctx, x, y)
            rhs = curvature_via_projectors(ctx, x, y)
            assert abs(lhs - rhs) < 1e-9


class TestCurving:
    def test_residue_vs_quadrature(self):
        for k in range(15):
            rng, g, spec, _, x, y = random_instance(500 + k)
            z = random_null_pair(spec, rng)[0]
            vr = curving_eval(z, spec, x, y, method="residue")
            vq = curving_eval(z, spec, x, y, method="quadrature")
            assert abs(vr - vq) < 1e-9

    def test_contour_deformation(self):
        for k in range(5):
            rng, g, spec, _, x, y = random_instance(600 + k)
            z = random_null_pair(spec, rng)[0]
            v1 = curving_eval(z, spec, x, y, method="quadrature", rho=0.5)
            v2 = curving_eval(z, spec, x, y, method="quadrature", rho=0.25)
            assert abs(v1 - v2) < 1e-10

    def test_cut_derivative_zero(self):
        for k in range(5):
            rng, g, spec, _, x, y = random_instance(700 + k)
            z = random_null_pair(spec, rng)[0]
            assert abs(curving_z_derivative_fd(z, spec, x, y)) < 1e-6

    def test_cut_derivative_refuses_a_step_past_an_eigenvalue(self):
        # a cut 5e-6 from an eigenvalue clears CUT_EXCLUSION, but z e^{+-ih}
        # lie on both sides of it; 2e-5 away the stencil stays in one gap
        rng = sample_rng(0, "probe", 0)
        g, spec = well_separated_unitary(3, rng)
        x, y = tangent_random(g, rng), tangent_random(g, rng)
        with pytest.raises(StepTooLargeError, match="^FD step h = 1e-05 "):
            curving_z_derivative_fd(cut_point(spec.angles[1] + 5e-6), spec, x, y)
        z = cut_point(spec.angles[1] + 2e-5)
        assert abs(curving_z_derivative_fd(z, spec, x, y)) < 1e-6

    def test_weights_match_residue_eval(self):
        rng = np.random.default_rng(12)
        z = cut_point(0.1)
        for n in range(1, 7):
            for _ in range(5):
                lam = np.exp(1j * np.sort(rng.uniform(0.3, 2 * np.pi - 0.2, n)))
                w = _curving_weights(z, lam)
                for i in range(n):
                    for j in range(n):
                        poles = [(lam[i], 3)] if i == j else [(lam[i], 1), (lam[j], 2)]
                        want = residue_eval(poles, with_log=z)
                        assert abs(w[i, j] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-5, 1e-7, 1e-9])
    def test_weights_of_a_near_pair_match_mpmath(self, gap):
        # in doubles the log-difference form cancels about -log10(gap) digits;
        # the last pair sits on either side of the cut
        z = cut_point(4.5)
        near = ([1.0, 1.0 + gap], [1.0, 1.0 + gap, 3.0], [0.2, 2.0, 2.0 + gap, 5.9])
        for ang in (*near, [1.0, 4.5 - gap, 4.5 + gap]):
            lam = np.exp(1j * np.array(ang))
            want = mp_curving_weights(z, lam)
            err = np.abs(_curving_weights(z, lam) - want)
            assert np.max(err / np.maximum(1.0, np.abs(want))) <= 2e-15

    @pytest.mark.parametrize("method", ["residue", "quadrature"])
    def test_cut_at_eigenvalue_rejected(self, method):
        g = UnitaryMatrix(np.diag(np.exp(1j * np.array([1.0, 2.5, 4.0]))))
        rng = np.random.default_rng(3)
        x, y = tangent_random(g, rng), tangent_random(g, rng)
        with pytest.raises(IllConditionedCutError):
            curving_eval(cut_point(2.5 + 1e-8), spectral_decompose(g), x, y, method)

    def test_dim_one_vanishes(self):
        g = UnitaryMatrix(np.diag([np.exp(0.9j)]))
        spec = spectral_decompose(g)
        x = TangentVector(g, np.array([[1j]]))
        y = TangentVector(g, np.array([[2j]]))
        assert abs(curving_eval(cut_point(3.0), spec, x, y)) < 1e-12


def repeated_instance(seed):
    """Spectrum of a g in U(4) with a doubly repeated eigenvalue, two tangents."""
    rng = np.random.default_rng(seed)
    q = random_unitary(4, rng).mat
    ang = np.array([0.9, 0.9, 2.6, 4.4])
    g = UnitaryMatrix((q * np.exp(1j * ang)) @ q.conj().T)
    spec = spectral_decompose(g)
    lam = spec.eigenvalues
    assert lam[0] == lam[1] and len(np.unique(lam)) == 3
    return spec, tangent_random(g, rng), tangent_random(g, rng)


class TestRepeatedEigenvalue:
    # arcs around the double eigenvalue (angle 0.9) and around a simple one
    ARCS = [(1.75, 0.45), (3.5, 1.75)]

    def test_projector_derivative(self):
        for seed in range(3):
            spec, x, _ = repeated_instance(seed)
            for a1, a2 in self.ARCS:
                ctx = classify(cut_point(a1), cut_point(a2), spec)
                dp = projector_derivative(ctx, x)
                dp_fd = projector_derivative(ctx, x, method="fd")
                assert np.max(np.abs(dp - dp_fd)) < 1e-6

    def test_curvature(self):
        for seed in range(3):
            spec, x, y = repeated_instance(seed)
            for a1, a2 in self.ARCS:
                ctx = classify(cut_point(a1), cut_point(a2), spec)
                res = curvature_via_contour(ctx, x, y, "residue")
                assert abs(res - curvature_via_contour(ctx, x, y, "quadrature")) < 1e-8
                assert abs(res - curvature_via_projectors(ctx, x, y, "fd")) < 1e-6

    def test_curving(self):
        for seed in range(3):
            spec, x, y = repeated_instance(seed)
            z = cut_point(5.4)
            res = curving_eval(z, spec, x, y, "residue")
            assert abs(res - curving_eval(z, spec, x, y, "quadrature")) < 1e-9


class TestDeltaCurving:
    def test_positive_pair_gives_curvature(self):
        for k in range(10):
            _, _, _, ctx, x, y = random_instance(800 + k)
            d = delta_pairs(ctx.z1, ctx.z2, ctx.spec, x, y)
            f = curvature_via_projectors(ctx, x, y)
            assert abs(d - f) < 1e-8

    def test_null_pair_gives_zero(self):
        for k in range(10):
            rng, g, spec, _, x, y = random_instance(900 + k)
            z1, z2 = random_null_pair(spec, rng)
            assert abs(delta_pairs(z1, z2, spec, x, y)) < 1e-8

    def test_swapped_pair_gives_negative_context_curvature(self):
        # fails if curvature_via_projectors drops the sign of the negative stratum
        proper = 0
        for k in range(20):
            _, _, spec, ctx, x, y = random_instance(1100 + k)
            neg = classify(ctx.z2, ctx.z1, spec)
            assert neg.classification is Classification.NEGATIVE
            f = curvature_via_projectors(neg, x, y)
            assert abs(f + curvature_via_projectors(ctx, x, y)) < 1e-12
            d = delta_pairs(ctx.z2, ctx.z1, spec, x, y)
            assert abs(d - f) < 1e-10
            proper += ctx.arc_dim < spec.dim
        assert proper >= 5  # arcs holding every eigenvalue give P = 1, curvature 0


class TestThreeForm:
    def test_pauli_value_at_identity(self):
        g = UnitaryMatrix(np.eye(2))
        xs = [TangentVector(g, 1j * s) for s in SIGMA]
        val = basic_three_form(g, *xs)
        assert abs(val - (-1.0 / (2 * math.pi**2))) < 1e-12
        assert abs(three_curvature(g, *xs) - 2j * math.pi * val) < 1e-15

    def test_matches_slot_permutation_sum(self):
        # the commutator trace is the six signed slot orders, by cyclicity
        for n in range(1, 7):
            rng = sample_rng(0, "three-form-test", n)
            g = random_unitary(n, rng)
            xs = [tangent_random(g, rng) for _ in range(3)]
            eye = np.eye(n)
            ref = -wedge_trace_eval([eye] * 3, [x.direction for x in xs]) / (
                24 * math.pi**2
            )
            # relative to |A| |B| |C|, which bounds every slot-order trace
            scale = math.prod(np.linalg.norm(x.direction) for x in xs)
            assert abs(basic_three_form(g, *xs) - ref) <= 1e-15 * scale

    def test_alternating(self):
        rng, g, spec, _, x, y = random_instance(1100)
        assert abs(basic_three_form(g, x, y, x)) < 1e-12
        z = tangent_random(g, rng)
        fwd = basic_three_form(g, x, y, z)
        assert abs(fwd + basic_three_form(g, y, x, z)) < 1e-12

    def test_conjugation_invariant(self):
        from basicgerbe import random_unitary

        rng, g, spec, _, x, y = random_instance(1200)
        z = tangent_random(g, rng)
        k = random_unitary(4, rng)
        g2 = g.conjugate_by(k)
        km = k.mat
        xs2 = [
            TangentVector(g2, km @ t.direction @ km.conj().T) for t in (x, y, z)
        ]
        assert abs(
            basic_three_form(g, x, y, z) - basic_three_form(g2, *xs2)
        ) < 1e-12

    def test_curving_differential(self):
        # d f = omega restricted to the cut chart
        for k in range(3):
            rng, g, spec, _, x, y = random_instance(1300 + k, n=3)
            z = tangent_random(g, rng)
            cut = random_null_pair(spec, rng)[0]
            df = exterior_derivative_fd(cut, spec, x, y, z)
            om = three_curvature(g, x, y, z)
            assert abs(df - om) < 1e-4

    def test_curving_differential_decomposes_each_stencil_point_once(
        self, monkeypatch
    ):
        rng, g, spec, _, x, y = random_instance(1310, n=3)
        z = tangent_random(g, rng)
        cut = random_null_pair(spec, rng)[0]
        seen = []

        def counting(h):
            seen.append(h.mat.tobytes())
            return spectral_decompose(h)

        monkeypatch.setattr(projectors, "spectral_decompose", counting)
        exterior_derivative_fd(cut, spec, x, y, z)
        # the six points g exp(+-h A) of the stencil, each once; g is never
        # decomposed again
        assert len(seen) == 6
        assert len(set(seen)) == 6
        assert g.mat.tobytes() not in seen

    def test_curving_differential_needs_decomposition_of_base(self):
        rng, g, spec, _, x, y = random_instance(1320, n=3)
        z = tangent_random(g, rng)
        cut = random_null_pair(spec, rng)[0]
        other = spectral_decompose(random_unitary(3, rng))
        with pytest.raises(IncomparableError):
            exterior_derivative_fd(cut, other, x, y, z)


def holonomy_instance(index, n, suite="forms-conn"):
    rng = sample_rng(0, suite, index)
    g, spec = well_separated_unitary(n, rng)
    ctx = random_positive_context(spec, rng)
    return rng, g, spec, ctx, tangent_random(g, rng), tangent_random(g, rng)


def holonomy_curvature(ctx, a, b, h=LOOP_STEP):
    return 1j * np.angle(connection_holonomy(ctx, a, b, h)) / h**2


class TestConnection:
    def test_holonomy_curvature_matches_two_form(self):
        for n in (2, 3, 4, 5, 6):
            for k in range(4):
                _, _, _, ctx, x, y = holonomy_instance(10 * n + k, n)
                got = holonomy_curvature(ctx, x.direction, y.direction)
                assert abs(got - curvature_via_projectors(ctx, x, y)) < 1e-4

    def test_holonomy_curvature_converges_at_second_order(self):
        # halving the side of a centred square quarters the curvature error
        for k in range(6):
            _, _, _, ctx, x, y = holonomy_instance(100 + k, 4)
            want = curvature_via_projectors(ctx, x, y)
            err = [
                abs(holonomy_curvature(ctx, x.direction, y.direction, h) - want)
                for h in (0.1, 0.05)
            ]
            assert abs(err[0] / err[1] - 4.0) < 0.3

    def test_holonomy_phase_additive_over_descending_cuts(self):
        # the outer arc frame is the two inner frames side by side
        for k in range(20):
            rng = sample_rng(0, "forms-conn-add", k)
            g, spec = well_separated_unitary(4, rng)
            z1, z2, z3 = descending_cuts(spec, rng, 3)
            a, b = tangent_random(g, rng).direction, tangent_random(g, rng).direction
            p12, p23, p13 = (
                np.angle(connection_holonomy(classify(u, v, spec), a, b))
                for u, v in ((z1, z2), (z2, z3), (z1, z3))
            )
            assert abs(p13 - p12 - p23) < 1e-12

    def test_holonomy_invariant_under_conjugation(self):
        for n in (2, 3, 4, 5, 6):
            for k in range(10):
                rng, g, _, ctx, x, y = holonomy_instance(10 * n + k, n, "forms-conn-k")
                km = random_unitary(n, rng).mat
                g2, a2, b2 = (
                    km @ m @ km.conj().T for m in (g.mat, x.direction, y.direction)
                )
                ctx2 = classify(ctx.z1, ctx.z2, spectral_decompose(UnitaryMatrix(g2)))
                hol = connection_holonomy(ctx, x.direction, y.direction)
                hol2 = connection_holonomy(ctx2, a2, b2)
                assert abs(np.angle(hol) - np.angle(hol2)) < 1e-14

    def test_holonomy_needs_a_positive_context(self):
        _, _, _, ctx, x, y = holonomy_instance(0, 3)
        with pytest.raises(EmptySpaceError):
            connection_holonomy(ctx.swapped(), x.direction, y.direction)

    def test_holonomy_rejects_a_square_that_changes_the_arc(self):
        _, _, _, ctx, x, y = holonomy_instance(0, 4)
        with pytest.raises(StepTooLargeError):
            connection_holonomy(ctx, x.direction, y.direction, h=20.0)
