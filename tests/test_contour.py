import contextlib
import decimal
import importlib.util
import math
import tracemalloc
from decimal import Decimal
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

import basicgerbe.cli
from basicgerbe import (
    BoundaryError,
    Contour,
    CutCirclePoint,
    EmptySpaceError,
    EvaluationError,
    IllConditionedCutError,
    IncomparableError,
    QuadratureError,
    UnitaryMatrix,
    arc_projector,
    circle_gt,
    classify,
    cut_point,
    quad_integrate,
    spectral_decompose,
    spectrum_contour,
)
from basicgerbe.contour import DEFAULT_NODES, MAX_NODES, _kronrod, _newton, log_cut_array
from residue_reference import UnsupportedOrderError, residue_eval


def winding(contour, pole):
    return quad_integrate(contour, lambda xi: 1.0 / (xi - pole))


class TestCutCirclePoint:
    def test_rejects_identity(self):
        with pytest.raises(BoundaryError):
            CutCirclePoint(1.0 + 0j)

    def test_rejects_off_circle(self):
        with pytest.raises(BoundaryError):
            CutCirclePoint(2j)

    def test_angle_range(self):
        assert abs(cut_point(-np.pi / 2).angle - 3 * np.pi / 2) < 1e-12

    def test_rejects_non_finite(self):
        for v in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, np.nan)):
            with pytest.raises(BoundaryError):
                CutCirclePoint(v)


class TestCircleOrder:
    # The order follows its definition: z1 > z2 iff z2 reaches z1 by a
    # counter-clockwise rotation that avoids the identity.
    def test_quarter_points(self):
        assert not circle_gt(cut_point(np.pi / 2), cut_point(3 * np.pi / 2))
        assert circle_gt(cut_point(3 * np.pi / 2), cut_point(np.pi / 2))

    def test_upper_arc(self):
        assert circle_gt(cut_point(3 * np.pi / 4), cut_point(np.pi / 4))

    def test_equal_incomparable(self):
        z = cut_point(1.0)
        with pytest.raises(IncomparableError):
            circle_gt(z, cut_point(1.0))

    def test_exactly_one_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.01, 2 * np.pi - 0.01, size=2)
            if abs(a - b) < 1e-6:
                continue
            z1, z2 = cut_point(a), cut_point(b)
            assert circle_gt(z1, z2) != circle_gt(z2, z1)


class TestLogCut:
    def test_principal_at_i(self):
        assert abs(log_cut_array(cut_point(np.pi), 1j) - 1j * np.pi / 2) < 1e-12

    def test_normalized_at_one(self):
        for a in (0.3, np.pi, 5.1):
            assert log_cut_array(cut_point(a), 1.0) == 0.0

    def test_jump_across_cuts(self):
        z1, z2 = cut_point(3 * np.pi / 4), cut_point(np.pi / 4)
        jump = log_cut_array(z1, 1j) - log_cut_array(z2, 1j)
        assert abs(jump - 2j * np.pi) < 1e-12

    def test_continuity_off_ray(self):
        z = cut_point(np.pi)
        rng = np.random.default_rng(2)
        for _ in range(100):
            xi = np.exp(1j * rng.uniform(-0.9 * np.pi, 0.9 * np.pi))
            eps = 1e-7
            diff = log_cut_array(z, xi * np.exp(1j * eps)) - log_cut_array(z, xi)
            assert abs(diff) <= 2 * eps

    def test_exp_inverts(self):
        z = cut_point(2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            xi = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(np.angle(xi) % (2 * np.pi) - 2.0) < 1e-3:
                continue
            assert abs(np.exp(log_cut_array(z, xi)) - xi) < 1e-12


class TestContours:
    def setup_method(self):
        self.spec = spectral_decompose(UnitaryMatrix(np.diag([1j, -1j])))

    def test_arc_contour_winding(self):
        ctx = classify(cut_point(3 * np.pi / 4), cut_point(np.pi / 4), self.spec)
        assert abs(winding(ctx.contour, 1j) - 1.0) < 1e-12
        assert abs(winding(ctx.contour, -1j)) < 1e-12

    def test_null_pair_rejected(self):
        ctx = classify(cut_point(np.pi / 8), cut_point(np.pi / 4), self.spec)
        with pytest.raises(EmptySpaceError):
            ctx.contour

    def test_cut_near_eigenvalue_rejected(self):
        z = cut_point(np.pi / 2 + 1e-8)
        with pytest.raises(IllConditionedCutError):
            classify(z, cut_point(np.pi / 4), self.spec)

    def test_windings_match_betweenness(self):
        # the contour of an arc context winds once round exactly the
        # eigenvalues between its cuts, in either cut order
        rng = np.random.default_rng(4)
        from basicgerbe import random_unitary

        checked = 0
        for _ in range(20):
            spec = spectral_decompose(random_unitary(4, rng))
            a, b = rng.uniform(0.0, 2 * np.pi, size=2)
            z1, z2 = cut_point(a), cut_point(b)
            dists = [abs(z.value - v) for z in (z1, z2) for v in spec.eigenvalues]
            if min(dists) < 1e-2 or abs(a - b) < 1e-2:
                continue
            lo, hi = sorted((a, b))
            inside = [lo < np.angle(v) % (2 * np.pi) < hi for v in spec.eigenvalues]
            if not any(inside):
                continue
            for ctx in (classify(z1, z2, spec), classify(z2, z1, spec)):
                for v, want in zip(spec.eigenvalues, inside):
                    assert abs(winding(ctx.contour, v) - float(want)) < 1e-10
            checked += 1
        assert checked >= 5

    def test_spectrum_contour(self):
        c = spectrum_contour(cut_point(np.pi), self.spec)
        assert abs(winding(c, 1j) - 1.0) < 1e-12
        assert abs(winding(c, -1j) - 1.0) < 1e-12
        # trace stays off the negative real axis
        for r0, th0, r1, th1 in c.segments:
            pts = np.linspace(r0, r1, 64) * np.exp(1j * np.linspace(th0, th1, 64))
            on_ray = (np.abs(pts.imag) < 1e-9) & (pts.real < 0)
            assert not on_ray.any()

    def test_spectrum_contour_identity(self):
        spec = spectral_decompose(UnitaryMatrix(np.eye(2)))
        c = spectrum_contour(cut_point(np.pi), spec)
        assert abs(winding(c, 1.0) - 1.0) < 1e-12


class TestQuadrature:
    def test_cauchy_inside(self):
        c = Contour(0.2, 1.2)
        val = quad_integrate(c, lambda xi: 1.0 / (xi - np.exp(0.7j)))
        assert abs(val - 1.0) < 1e-12

    def test_cauchy_outside(self):
        c = Contour(0.2, 1.2)
        val = quad_integrate(c, lambda xi: 1.0 / (xi - np.exp(3.0j)))
        assert abs(val) < 1e-12

    def test_log_derivative_pole(self):
        lam = np.exp(0.6j)
        z = cut_point(np.pi)
        c = Contour(0.1, 1.1)
        val = quad_integrate(c, lambda xi: log_cut_array(z, xi) / (xi - lam) ** 2)
        assert abs(val - 1.0 / lam) < 1e-11

    def test_matrix_valued(self):
        g = np.diag([1j, -1j])
        c = Contour(np.pi / 4, 3 * np.pi / 4)
        val = quad_integrate(c, lambda xi: np.linalg.inv(xi * np.eye(2) - g))
        assert np.linalg.norm(val - np.diag([1.0, 0.0])) < 1e-11

    def test_deformation_invariance(self):
        lam = np.exp(1.1j)
        f = lambda xi: np.exp(xi) / (xi - lam)
        v1 = quad_integrate(Contour(0.6, 1.6, rho=0.5), f)
        v2 = quad_integrate(Contour(0.8, 1.4, rho=0.3), f)
        assert abs(v1 - v2) < 1e-10

    @pytest.mark.parametrize(
        "pole, start, stop, passes",
        [(np.exp(0.7j), DEFAULT_NODES, 1024, 1), (0.51 * np.exp(0.7j), 8, 64, 4)],
    )
    def test_vectorized_one_call_per_segment_per_pass(self, pole, start, stop, passes):
        # pass p evaluates the 2 start 2**p + 1 Kronrod nodes of every panel,
        # in as few calls of at most max_nodes nodes as hold them; the pole
        # 0.01 from the inner arc does not converge by Gauss n = 64
        c = Contour(0.2, 1.2)
        seen = []

        def integrand(xs):
            seen.append(len(xs))
            return 1.0 / (xs - pole)

        gives_up = pytest.raises(QuadratureError) if passes == 4 else contextlib.nullcontext()
        with gives_up:
            quad_integrate(c, integrand, start_nodes=start, max_nodes=stop, vectorized=True)
        want = []
        for p in range(passes):
            total = len(c.segments) * (2 * start * 2**p + 1)
            want += [stop] * (total // stop) + [total % stop] * (total % stop > 0)
        assert seen == want

    def test_node_limit_raises(self):
        c = Contour(0.2, 1.2)
        with pytest.raises(QuadratureError, match="6 panels at 64 nodes each: last"):
            quad_integrate(c, lambda xi: 1.0 / (xi - 0.51 * np.exp(0.7j)), max_nodes=64)

    @pytest.mark.parametrize("edge", [0.2, 1.2])
    @pytest.mark.parametrize("offset", [1e-3, -1e-3])
    def test_pole_near_radial_edge(self, edge, offset):
        # the nearest eigenvalue faces a panel end at |xi| = 1
        pole = np.exp(1j * (edge + offset))
        inside = 0.2 < edge + offset < 1.2
        val = quad_integrate(Contour(0.2, 1.2), lambda xi: 1.0 / (xi - pole),
                             vectorized=True)
        assert abs(val - inside) < 1e-12


class TestPanels:
    CASES = [(0.2, 1.2, 0.5), (0.3, 2 * np.pi - 0.3, 0.5), (-1.0, 5.0, 0.3),
             (0.6, 1.6, 0.05)]

    @pytest.mark.parametrize("lo, hi, rho", CASES)
    def test_arc_panels_at_most_four_log_radius_wide(self, lo, hi, rho):
        rows = Contour(lo, hi, rho).segments
        for r in (1 - rho, 1 + rho):
            _, th0, _, th1 = rows[(rows[:, 0] == r) & (rows[:, 2] == r)].T
            widths = np.abs(th1 - th0)
            assert widths.max() <= 4 * abs(math.log(r)) + 1e-15
            assert abs(widths.sum() - (hi - lo)) < 1e-12

    @pytest.mark.parametrize("lo, hi, rho", CASES)
    def test_radial_edges_split_at_unit_circle(self, lo, hi, rho):
        rows = Contour(lo, hi, rho).segments
        radial = rows[rows[:, 1] == rows[:, 3]]
        r_in, r_out = 1 - rho, 1 + rho
        assert np.array_equal(radial, [[r_out, hi, 1, hi], [1, hi, r_in, hi],
                                       [r_in, lo, 1, lo], [1, lo, r_out, lo]])

    @pytest.mark.parametrize("lo, hi, rho", CASES)
    def test_closed(self, lo, hi, rho):
        # each row ends exactly where the next starts, the last where the first does
        rows = Contour(lo, hi, rho).segments
        assert rows[0, 0] == 1 + rho and rows[0, 1] == lo
        assert np.array_equal(rows[:, 2:], np.roll(rows[:, :2], -1, axis=0))

    @pytest.mark.parametrize("lo, hi, rho", CASES)
    def test_nodes_on_arcs_and_radial_lines(self, lo, hi, rho):
        # every pass evaluates r e^{i theta} on arcs and start + (end - start) t
        # on radial lines, at the Gauss-Kronrod nodes t of each row
        c = Contour(lo, hi, rho)
        seen = []

        def integrand(xs):
            seen.append(xs.copy())
            return np.ones_like(xs)

        quad_integrate(c, integrand, vectorized=True)
        got, want, n = np.concatenate(seen), [], DEFAULT_NODES
        while sum(map(len, want)) < len(got):
            t, _ = _kronrod(n)
            for r0, th0, r1, th1 in c.segments:
                if r0 == r1:
                    want.append(r0 * np.exp(1j * (th0 + (th1 - th0) * t)))
                else:
                    start, end = r0 * np.exp(1j * th0), r1 * np.exp(1j * th1)
                    want.append(start + (end - start) * t)
            n *= 2
        assert np.max(np.abs(got - np.concatenate(want))) < 1e-15


def benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_benchmark_tracer_counts_quadrature_nodes():
    # perfbench/tracing.py reads quad_integrate's arguments by name and takes
    # len(contour.segments) as the panel count; 7 panels, 65 nodes each
    g = UnitaryMatrix(np.diag(np.exp([0.5j, 2j, 4j])))
    ctx = classify(cut_point(3.0), cut_point(1.0), spectral_decompose(g))
    tracer = benchmark_tracer()
    with tracer.installed(basicgerbe, spans=False):
        arc_projector(ctx, "quadrature")
    assert tracer.quad == [("", 7 * 65, 1, False)]


def test_benchmark_tracer_classes_give_up_at_max():
    # 6 panels of 17, 33, 65 and 129 nodes: the tracer infers 4 passes from
    # the node count and that the last one reached max_nodes
    tracer = benchmark_tracer()
    pole = 0.51 * np.exp(0.7j)
    with tracer.installed(basicgerbe, spans=False), pytest.raises(QuadratureError):
        basicgerbe.contour.quad_integrate(Contour(0.2, 1.2), lambda xs: 1.0 / (xs - pole),
                                          start_nodes=8, max_nodes=64, vectorized=True)
    assert tracer.quad == [("", 1464, 4, True)]


def mp_gauss_legendre(n: int, t0: float) -> tuple:
    """The node of the n-point Gauss-Legendre rule on [0, 1] next to t0, and
    its weight, by Newton's method on the recurrence at 40 digits."""
    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (p0 - x * p1) / (1 - x * x)

    with mpmath.workdps(40):
        x = 2 * mpmath.mpf(t0) - 1
        for _ in range(2):  # from a double, 2 steps reach 40 digits
            p, dp = legendre(x)
            x -= p / dp
        p, dp = legendre(x)
        return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def gauss_rule(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [0, 1], the Gauss half of _kronrod(n)."""
    t, w = _kronrod(n)
    return t[1::2], w[1, 1::2]


def legendre_moment_error(t: np.ndarray, w: np.ndarray, degree: int) -> float:
    """Largest error of the rule (t, w) on [0, 1] over P_j(2t - 1), j <= degree."""
    x = 2 * t - 1
    p0, p1 = np.ones_like(x), x
    errs = [abs(w.sum() - 1), abs(w @ x)]
    for k in range(1, degree):  # P_{k+1}, up to P_degree
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        errs.append(abs(w @ p1))
    return max(errs)


def rule_errors(n: int, t: np.ndarray, w: np.ndarray, idx) -> tuple:
    """Largest absolute node error and relative weight error over ``idx``."""
    dt = dw = 0.0
    for i in idx:
        ref_t, ref_w = mp_gauss_legendre(n, t[i])
        dt = max(dt, abs(float(ref_t - mpmath.mpf(t[i]))))
        dw = max(dw, abs(float((mpmath.mpf(w[i]) - ref_w) / ref_w)))
    return dt, dw


class TestGaussLegendre:
    # every node at n=64; at n=1024 the first and last 8 and every 64th
    INDICES = {
        64: range(64),
        1024: sorted({*range(8), *range(0, 1024, 64), *range(1016, 1024)}),
    }

    @pytest.mark.parametrize("n", [64, 1024])
    def test_matches_high_precision(self, n):
        t, w = gauss_rule(n)
        assert len(t) == n and np.all(np.diff(t) > 0)
        dt, dw = rule_errors(n, t, w, self.INDICES[n])
        assert dt < 1e-15 and dw < 1e-13

    def test_bound_fails_numpy_eigenvalue_rule(self):
        # the weights of the companion-matrix rule miss the bound at 1024
        x, w = np.polynomial.legendre.leggauss(1024)
        dt, dw = rule_errors(1024, (x + 1) / 2, w / 2, range(8))
        assert dt < 1e-15 and dw > 1e-11

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_for_degree_below_2n(self, n):
        t, w = gauss_rule(n)
        for k in range(2 * n):
            assert abs(w @ t**k - 1 / (k + 1)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 1024])
    def test_symmetric_and_normalized(self, n):
        t, w = gauss_rule(n)
        assert np.max(np.abs(t + t[::-1] - 1)) < 1e-15
        assert np.array_equal(w, w[::-1]) and np.all(w > 0)
        assert abs(w.sum() - 1) < 1e-14


@lru_cache(maxsize=None)
def jacobi_kronrod(n: int) -> tuple:
    """b_0 = 2, b_1, ..., b_2n of the (2n+1) Jacobi-Kronrod matrix of the
    Legendre weight on [-1, 1], whose diagonal is zero, by Laurie's
    algorithm (Math. Comp. 66 (1997) 1133) at 40 digits.

    The decimal module keeps the huge exponent range of the intermediate
    values, which overflows doubles by n = 1024, and is ten times faster
    than mpmath at that n.
    """
    with decimal.localcontext(prec=40):
        b = [Decimal(0)] * (2 * n + 1)
        b[0] = Decimal(2)
        for k in range(1, min(2 * n, -(-3 * n // 2)) + 1):  # as Legendre's
            b[k] = Decimal(k * k) / (4 * k * k - 1)
        s, t = [Decimal(0)] * (n // 2 + 2), [Decimal(0)] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            u = Decimal(0)
            for k in range((m + 1) // 2, -1, -1):
                u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = u
            s, t = t, s
        s[1:n // 2 + 2] = s[:n // 2 + 1]
        for m in range(n - 1, 2 * n - 2):
            u = Decimal(0)
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - 1 - m + k
                u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
                s[j + 1] = u
            if m % 2:
                b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
            s, t = t, s
        return tuple(b)


def ref_gauss_kronrod(n: int, t0: float) -> tuple:
    """The node of the (2n+1)-point Gauss-Kronrod rule on [0, 1] next to t0,
    and its weight, at 40 digits: Newton's method on the characteristic
    polynomial of the Jacobi-Kronrod matrix, and the Christoffel weight
    1 / sum_k q_k(x)^2 over its orthonormal polynomials q_k."""
    b = jacobi_kronrod(n)
    with decimal.localcontext(prec=40):
        x = 1 - 2 * Decimal(t0)
        for _ in range(3):  # from a double, 3 steps reach 40 digits
            p0, p1, d0, d1 = Decimal(0), Decimal(1), Decimal(0), Decimal(0)
            for k in range(2 * n + 1):  # monic: p_{k+1} = x p_k - b_k p_{k-1}
                bk = b[k] if k else 0
                p0, p1, d0, d1 = p1, x * p1 - bk * p0, d1, p1 + x * d1 - bk * d0
            x -= p1 / d1
        p0, p1, norm, total = Decimal(0), Decimal(1), b[0], 1 / b[0]
        for k in range(1, 2 * n + 1):
            p0, p1 = p1, x * p1 - (b[k - 1] if k > 1 else 0) * p0
            norm *= b[k]
            total += p1 * p1 / norm
        return (1 - x) / 2, 1 / (2 * total)


class TestGaussKronrod:
    # every n that quad_integrate builds from DEFAULT_NODES up to MAX_NODES
    SIZES = [DEFAULT_NODES * 2**k for k in range(6)]

    # and every n <= 64, odd and even, for Newton's method from Tricomi's guesses
    NS = sorted({*range(1, 65), *SIZES})

    @pytest.mark.parametrize("n", NS)
    def test_exact_for_degree_to_3n_plus_1(self, n):
        t, w = _kronrod(n)
        assert legendre_moment_error(t, w[0], 3 * n + 1) < 1e-14

    @pytest.mark.parametrize("n", NS)
    def test_extends_the_gauss_rule(self, n):
        # the odd positions carry an n-node rule exact to degree 2n - 1, which
        # only the Gauss rule is, and the n + 1 new nodes no Gauss weight
        t, w = _kronrod(n)
        assert len(t) == 2 * n + 1 and np.all(np.diff(t) > 0)
        assert legendre_moment_error(t, w[1], 2 * n - 1) < 1e-14
        assert not w[1, 0::2].any()
        assert np.all(w[0] > 0) and np.all(w[1, 1::2] > 0)
        assert np.max(np.abs(t + t[::-1] - 1)) < 1e-15
        assert np.array_equal(w, w[:, ::-1])

    @pytest.mark.parametrize("n, idx", [
        (32, range(65)), (64, range(129)), (1024, [*range(8), *range(2041, 2049)]),
    ], ids=["32", "64", "1024"])
    def test_matches_high_precision(self, n, idx):
        # every node at n = 32 and 64; at n = 1024 the outermost 8 each side
        t, w = _kronrod(n)
        dt = dw = 0.0
        for i in idx:
            ref_t, ref_w = ref_gauss_kronrod(n, t[i])
            dt = max(dt, abs(float(ref_t - Decimal(t[i]))))
            dw = max(dw, abs(float((Decimal(w[0, i]) - ref_w) / ref_w)))
        assert dt < 1e-15 and dw < 1e-13

    def test_builds_in_linear_memory(self):
        # one dense (n/2+1)-square matrix of doubles would hold 2.1 MB
        assert MAX_NODES == 1024
        tracemalloc.start()
        try:
            _kronrod.__wrapped__(MAX_NODES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_newton_raises_without_a_zero(self):
        # cos(2 theta) + 2 has no real zero
        with pytest.raises(EvaluationError, match="did not converge"):
            _newton(2.0, np.array([1.0, 2.0]), np.array([0.3, 1.0]))


class TestResidues:
    def test_pair_sum_matches_quadrature(self):
        li, lj = np.exp(0.4j), np.exp(1.9j)
        total = residue_eval([(li, 1), (lj, 2)])
        c = Contour(0.1, 2.2)
        quad = quad_integrate(c, lambda xi: 1.0 / ((xi - li) * (xi - lj) ** 2))
        assert abs(total - quad) < 1e-10

    def test_log_triple_pole(self):
        val = residue_eval([(1j, 3)], with_log=cut_point(np.pi))
        assert abs(val - 0.5) < 1e-12  # -(1/2) lam^{-2} at lam = i

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            residue_eval([(1j, 4)])

    def test_random_configs_vs_quadrature(self):
        rng = np.random.default_rng(5)
        z = cut_point(0.05)
        c = Contour(0.3, 2 * np.pi - 0.3)
        for _ in range(50):
            angles = 0.4 + np.cumsum(rng.uniform(0.3, 1.2, size=3))
            angles = angles[angles < 2 * np.pi - 0.4][:2]
            if len(angles) < 2:
                continue
            la, lb = np.exp(1j * angles)
            want = quad_integrate(
                c, lambda xi: log_cut_array(z, xi) / ((xi - la) * (xi - lb) ** 2)
            )
            got = residue_eval([(la, 1), (lb, 2)], with_log=z)
            assert abs(want - got) < 1e-10
