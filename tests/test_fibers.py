import numpy as np

from basicgerbe import (
    Classification,
    DetLineElement,
    DimensionError,
    IncomparableError,
    UnitaryMatrix,
    associativity_check,
    canonical_scalar,
    classify,
    conjugate_fiber,
    cut_point,
    dual_pairing,
    fiber_element,
    gerbe_product,
    random_element,
    random_unitary,
    same_element,
    section_value,
    spectral_decompose,
    swap_transport,
    weyl_line_map,
)
from basicgerbe.sampling import (
    descending_cuts,
    random_positive_context,
    sample_rng,
    well_separated_unitary,
)
from refusals import refused, refusal_test


def descending_triple(spec, rng):
    return descending_cuts(spec, rng, 3)


def diag_element(angles=(1, 3, 5), u=4, v=2):
    """The canonical element 1 over diag(e^{i angles}) and the cuts at u and v;
    by default the arc from 4 down to 2 holds e^3i alone."""
    g = UnitaryMatrix(np.diag(np.exp(1j * np.array(angles))))
    ctx = classify(cut_point(u), cut_point(v), spectral_decompose(g))
    return fiber_element(ctx, 1.0)


class TestDetLineElement:
    def test_frame_must_be_orthonormal(self):
        rng = sample_rng(0, "fiber-test", 1)
        _, spec = well_separated_unitary(3, rng)
        ctx = random_positive_context(spec, rng)
        k = len(ctx.arc_indices)
        refused(DimensionError, "frame is not orthonormal",
                lambda: DetLineElement(ctx, 2.0 * np.eye(3)[:, :k], 1.0))

    def test_norm(self):
        rng = sample_rng(0, "fiber-test", 2)
        _, spec = well_separated_unitary(3, rng)
        ctx = random_positive_context(spec, rng)
        assert fiber_element(ctx, -2j).norm == 2.0


class TestCanonicalScalar:
    def test_canonical_element_scalar(self):
        rng = sample_rng(1, "fiber-test", 0)
        _, spec = well_separated_unitary(4, rng)
        ctx = random_positive_context(spec, rng)
        assert abs(canonical_scalar(fiber_element(ctx, 3.0 + 1j)) - (3.0 + 1j)) < 1e-12

    def test_frame_rotation_invariance(self):
        # a rotated frame with the compensating coefficient is the same element
        for k in range(20):
            rng = sample_rng(1, "fiber-test", 10 + k)
            _, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            a = random_element(ctx, rng)
            b = fiber_element(ctx, canonical_scalar(a))
            ok, disc = same_element(a, b)
            assert ok and disc < 1e-10

    def test_dual_scalar_inverts_determinant(self):
        rng = sample_rng(1, "fiber-test", 50)
        _, spec = well_separated_unitary(4, rng)
        ctx = random_positive_context(spec, rng)
        dual = random_element(ctx.swapped(), rng)
        det_elt = fiber_element(ctx, 1.0)
        pair = dual_pairing(dual, det_elt)
        assert abs(pair - canonical_scalar(dual)) < 1e-12


class TestGerbeProduct:
    def test_scalar_multiplication(self):
        for k in range(20):
            rng = sample_rng(2, "fiber-test", k)
            _, spec = well_separated_unitary(4, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            a = random_element(classify(z1, z2, spec), rng)
            b = random_element(classify(z2, z3, spec), rng)
            p = gerbe_product(a, b)
            want = canonical_scalar(a) * canonical_scalar(b)
            assert abs(canonical_scalar(p) - want) < 1e-10

    def test_middle_cut_mismatch(self):
        rng = sample_rng(2, "fiber-test", 100)
        _, spec = well_separated_unitary(4, rng)
        z1, z2, z3 = descending_triple(spec, rng)
        a = fiber_element(classify(z1, z2, spec), 1.0)
        c = fiber_element(classify(z1, z3, spec), 1.0)
        refused(IncomparableError, "middle cut points do not match",
                lambda: gerbe_product(a, c))

    def test_norm_multiplicative(self):
        for k in range(20):
            rng = sample_rng(2, "fiber-test", 200 + k)
            _, spec = well_separated_unitary(4, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            a = random_element(classify(z1, z2, spec), rng)
            b = random_element(classify(z2, z3, spec), rng)
            assert abs(gerbe_product(a, b).norm - a.norm * b.norm) < 1e-10

    def test_associativity(self):
        for k in range(10):
            rng = sample_rng(2, "fiber-test", 300 + k)
            _, spec = well_separated_unitary(5, rng)
            z1, z2, z3, z4 = descending_cuts(spec, rng, 4)
            assert associativity_check(z1, z2, z3, z4, spec, rng) < 1e-9


class TestSwapTransport:
    def test_pairing_is_one(self):
        for k in range(20):
            rng = sample_rng(3, "fiber-test", k)
            _, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            a = random_element(ctx, rng)
            assert abs(dual_pairing(swap_transport(a), a) - 1.0) < 1e-10

    def test_requires_det(self):
        rng = sample_rng(3, "fiber-test", 100)
        _, spec = well_separated_unitary(4, rng)
        ctx = random_positive_context(spec, rng)
        refused(IncomparableError, "swap transport is defined on det elements",
                lambda: swap_transport(fiber_element(ctx.swapped(), 1.0)))


class TestSectionValue:
    def test_descending_triple_is_one(self):
        for k in range(20):
            rng = sample_rng(4, "fiber-test", k)
            _, spec = well_separated_unitary(5, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            s = section_value(z1, z2, z3, spec)
            assert abs(s - 1.0) < 1e-10

    def test_unit_norm_any_order(self):
        for k in range(20):
            rng = sample_rng(4, "fiber-test", 100 + k)
            _, spec = well_separated_unitary(5, rng)
            cuts = descending_triple(spec, rng)
            perm = sample_rng(4, "fiber-test", 200 + k).permutation(3)
            z1, z2, z3 = (cuts[i] for i in perm)
            s = section_value(z1, z2, z3, spec)
            assert abs(abs(s) - 1.0) < 1e-9

    def test_antisymmetry(self):
        for k in range(20):
            rng = sample_rng(4, "fiber-test", 300 + k)
            _, spec = well_separated_unitary(5, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            fwd = section_value(z1, z2, z3, spec)
            swp = section_value(z2, z1, z3, spec)
            assert abs(fwd * swp - 1.0) < 1e-9


class TestEquivariance:
    def test_conjugate_fiber_structure(self):
        for n in range(20):
            rng = sample_rng(5, "fiber-test", n)
            _, spec = well_separated_unitary(4, rng)
            ctx = random_positive_context(spec, rng)
            k = random_unitary(4, rng)
            speck = spectral_decompose(UnitaryMatrix(spec.matrix).conjugate_by(k))
            a = random_element(ctx, rng)
            b = conjugate_fiber(k, a, speck)
            assert abs(a.norm - b.norm) < 1e-12
            assert b.ctx.classification is ctx.classification
            # dual pairings are conjugation invariant
            d = random_element(ctx.swapped(), rng)
            lhs = dual_pairing(d, a)
            rhs = dual_pairing(conjugate_fiber(k, d, speck), b)
            assert abs(lhs - rhs) < 1e-9

    def test_conjugate_section_invariant(self):
        for n in range(10):
            rng = sample_rng(5, "fiber-test", 300 + n)
            _, spec = well_separated_unitary(4, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            k = random_unitary(4, rng)
            spec2 = spectral_decompose(UnitaryMatrix(spec.matrix).conjugate_by(k))
            s1 = section_value(z1, z2, z3, spec)
            s2 = section_value(z1, z2, z3, spec2)
            assert abs(s1 - s2) < 1e-9

    def test_conjugation_commutes_with_product(self):
        for n in range(10):
            rng = sample_rng(5, "fiber-test", 100 + n)
            _, spec = well_separated_unitary(4, rng)
            z1, z2, z3 = descending_triple(spec, rng)
            k = random_unitary(4, rng)
            sk = spectral_decompose(UnitaryMatrix(spec.matrix).conjugate_by(k))
            a = random_element(classify(z1, z2, spec), rng)
            b = random_element(classify(z2, z3, spec), rng)
            left = conjugate_fiber(k, gerbe_product(a, b), sk)
            right = gerbe_product(conjugate_fiber(k, a, sk), conjugate_fiber(k, b, sk))
            ok, disc = same_element(left, right)
            assert ok and disc < 1e-9

    def test_weyl_line_map_needs_torus(self):
        rng = sample_rng(5, "fiber-test", 200)
        _, spec = well_separated_unitary(3, rng)
        ctx = random_positive_context(spec, rng)
        a = fiber_element(ctx, 1.0)
        if np.linalg.norm(spec.matrix - np.diag(np.diagonal(spec.matrix))) > 1e-9:
            k = random_unitary(3, rng)
            speck = spectral_decompose(UnitaryMatrix(spec.matrix).conjugate_by(k))
            refused(DimensionError, "base element is not a torus (diagonal) matrix",
                    lambda: weyl_line_map(k, a, speck))

    def test_weyl_line_map_on_torus(self):
        rng = sample_rng(5, "fiber-test", 201)
        t = UnitaryMatrix(np.diag(np.exp(1j * np.array([0.7, 2.1, 4.4]))))
        spec = spectral_decompose(t)
        ctx = random_positive_context(spec, rng)
        a = random_element(ctx, rng)
        d = random_element(ctx.swapped(), rng)
        k = random_unitary(3, rng)
        speck = spectral_decompose(t.conjugate_by(k))
        b = weyl_line_map(k, a, speck)
        assert abs(a.norm - b.norm) < 1e-12
        d_k = weyl_line_map(k, d, speck)
        assert abs(dual_pairing(d, a) - dual_pairing(d_k, b)) < 1e-9


# a conjugator of U(4), and a Haar one of U(3)
U4, K = UnitaryMatrix(np.eye(4)), random_unitary(3, np.random.default_rng(0))

REFUSALS = {
    "frame-width": (DimensionError,
     "frame has 0 columns, the positive context's arc has dimension 1",
     lambda: DetLineElement(diag_element().ctx, np.zeros((3, 0)), 1.0)),
    # the same cuts over another element of the same or of another U(n)
    "product-other-g": (IncomparableError, "group elements do not match",
     lambda: gerbe_product(diag_element(), diag_element([1, 3, 5.1], 2, 0.5))),
    "product-other-n": (IncomparableError, "group elements do not match",
     lambda: gerbe_product(diag_element(), diag_element([1, 3], 2, 0.5))),
    # against an element over another g, over other cuts, or of the wrong kind
    "same-element": (IncomparableError, "elements live over different points",
     lambda: same_element(diag_element(), diag_element([1, 3, 5.1]))),
    "pairing-kinds": (IncomparableError,
     "pairing needs a dual element and a det element",
     lambda: dual_pairing(diag_element(), diag_element())),
    "pairing-arcs": (IncomparableError, "elements live over different arcs",
     lambda: dual_pairing(swap_transport(diag_element(v=0.5)), diag_element())),
    "conjugate-fiber": (DimensionError, "conjugator dimension mismatch",
     lambda: conjugate_fiber(U4, diag_element(), diag_element().ctx.spec)),
    "conjugate-by": (DimensionError, "conjugator dimension mismatch",
     lambda: UnitaryMatrix(diag_element().ctx.spec.matrix).conjugate_by(U4)),
    # a decomposition of g, or of another element, in place of one of k g k^-1
    "conjugate-onto-g": (IncomparableError, "spec does not decompose k g k^-1",
     lambda: conjugate_fiber(K, diag_element(), diag_element().ctx.spec)),
    "conjugate-onto-other": (IncomparableError, "spec does not decompose k g k^-1",
     lambda: conjugate_fiber(K, diag_element(), spectral_decompose(K))),
    "weyl-line-map": (IncomparableError, "spec does not decompose k g k^-1",
     lambda: weyl_line_map(K, diag_element(), diag_element().ctx.spec)),
}
test_refused = refusal_test(REFUSALS)
