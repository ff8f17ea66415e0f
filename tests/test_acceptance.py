"""End-to-end acceptance sweep: one test per top-level numerical claim.

Each test drives the verification suites across dimensions 2-6 with 100
samples per dimension (500 per check overall; the nested-FD check runs a
fifth of that, it is two orders of magnitude more expensive).  Tolerances
are pinned here rather than inherited, so a loosened default would fail.
"""

import pytest

from basicgerbe.cli import SuiteConfig, run_suite

DIMS = (2, 3, 4, 5, 6)
SAMPLES_PER_DIM = 100
SEED = 0

_cache = {}


def suite_reports(suite):
    if suite not in _cache:
        _cache[suite] = [
            run_suite(
                SuiteConfig(suite=suite, dim=n, samples=SAMPLES_PER_DIM, seed=SEED)
            )
            for n in DIMS
        ]
    return _cache[suite]


def check_rows(suite, name):
    rows = []
    for report in suite_reports(suite):
        row = next(c for c in report["checks"] if c["name"] == name)
        rows.append(row)
    return rows


def assert_check(suite, name, tol, min_total=500):
    rows = check_rows(suite, name)
    total = sum(r["samples"] for r in rows)
    worst = max(r["max_abs_error"] for r in rows)
    assert total >= min_total, f"{suite}/{name}: only {total} samples"
    assert worst <= tol, f"{suite}/{name}: max error {worst:.3e} > {tol:.0e}"


def test_01_arc_projector_residue_quadrature_trace_algebra():
    assert_check("projectors", "residue-vs-quadrature", 1e-10)
    assert_check("projectors", "integer-trace", 1e-10)
    assert_check("projectors", "projector-algebra", 1e-10)


def test_02_projector_derivative_residue_vs_fd_and_off_diagonal():
    assert_check("projectors", "derivative-residue-vs-fd", 1e-6)
    assert_check("projectors", "derivative-off-diagonal", 1e-10)
    assert_check("projectors", "derivative-sum-zero", 1e-10)


def test_03_curvature_three_route_agreement():
    assert_check("curvature-equivalence", "three-route", 1e-8)
    assert_check("curvature-equivalence", "torus-directions", 1e-10)
    assert_check("curvature-equivalence", "bilinear-antisymmetric", 1e-10)


def test_04_projector_inserted_integral_equals_curvature():
    assert_check("curvature-equivalence", "projector-insertion", 1e-9)


def test_05_curving_well_defined():
    assert_check("delta-curving", "residue-vs-quadrature", 1e-9)
    assert_check("delta-curving", "contour-deformation", 1e-10)
    assert_check("delta-curving", "cut-derivative-zero", 1e-6)


def test_06_delta_of_curving_equals_curvature_on_all_strata():
    assert_check("delta-curving", "delta-positive", 1e-8)
    assert_check("delta-curving", "delta-null", 1e-8)
    assert_check("delta-curving", "delta-swap", 1e-8)


def test_07_three_curvature_exterior_derivative():
    assert_check("three-curvature", "fd-exterior-derivative", 1e-4, min_total=100)
    assert_check("three-curvature", "raw-vs-simplified", 1e-9)
    assert_check("three-curvature", "closed-vs-group", 1e-8)


def test_08_gerbe_axioms():
    assert_check("gerbe-axioms", "section-unit-norm", 1e-10)
    assert_check("gerbe-axioms", "antisymmetry", 1e-9)
    assert_check("gerbe-axioms", "associativity", 1e-9)
    assert_check("gerbe-axioms", "norm-multiplicative", 1e-10)
    assert_check("gerbe-axioms", "swap-pairing", 1e-9)


def test_09_equivariance_under_conjugation():
    assert_check("equivariance", "projector-conjugation", 1e-9)
    assert_check("equivariance", "product-conjugation", 1e-9)
    assert_check("equivariance", "section-conjugation", 1e-9)
    assert_check("equivariance", "fiber-map-products", 1e-9)


def test_10_flag_torus_parametrization():
    # the preimage count is integral: any deviation from n! is a failure
    assert_check("weyl", "preimage-count", 0.5)
    assert_check("weyl", "mc-pullback", 1e-10)
    assert_check("weyl", "df-closed-vs-raw", 1e-9)
    assert_check("weyl", "pullback-curving", 1e-8)


def test_11_block_embedding_invariance():
    assert_check("truncation", "curvature-invariance", 1e-10)
    assert_check("truncation", "curving-invariance", 1e-10)
    assert_check("truncation", "three-form-invariance", 1e-10)
    assert_check("truncation", "section-invariance", 1e-9)
