import gc
import json
from pathlib import Path

import numpy as np
import orjson
import pytest

from basicgerbe import (
    EvaluationError,
    FlagTorusPoint,
    SchemaError,
    UnitaryMatrix,
    matrix_to_json,
    random_flag_tangent,
    sample_regular,
    tangent_random,
)
from basicgerbe import cli, forms, weyl
from basicgerbe.cli import (
    SUITES,
    SuiteConfig,
    _decode,
    eval_point,
    flag_point_from_json,
    flag_point_to_json,
    flag_tangent_from_json,
    flag_tangent_to_json,
    main,
    run_suite,
)
from basicgerbe.linalg import UNITARITY_TOL, matrix_from_json
from basicgerbe.projectors import FD_STEP
from basicgerbe.sampling import (
    descending_cuts,
    random_positive_context,
    sample_rng,
    well_separated_unitary,
)
from refusals import refused, refusal_test

# (name, identity, tolerance, samples, failures) per check of every suite
# at dim 3, 5 samples, seed 0
CHECK_TABLES = json.loads((Path(__file__).parent / "check_tables.json").read_text())


def value(record):
    return complex(record["value_re"], record["value_im"])


def flag_point(n=3, tangents=3):
    """A regular flag-torus point with ``tangents`` tangents, as JSON."""
    rng = sample_rng(0, "cli-test", 0)
    pt = sample_regular(n, rng)
    obj = flag_point_to_json(pt)
    obj["z"] = [-1.0, 0.0]
    obj["tangents"] = []
    for _ in range(tangents):
        obj["tangents"].append(flag_tangent_to_json(random_flag_tangent(pt, rng)))
    return obj


def group_point(n=3):
    """A group point with every field a group quantity reads, as JSON."""
    rng = sample_rng(0, "cli-test", 2)
    g, spec = well_separated_unitary(n, rng)
    ctx = random_positive_context(spec, rng)
    cut = lambda z: [z.value.real, z.value.imag]
    obj = {"g": matrix_to_json(g.mat), "z1": cut(ctx.z1), "z2": cut(ctx.z2),
           "z3": cut(descending_cuts(spec, rng, 3)[2]), "z": cut(ctx.z1)}
    for key in "XYZ":
        obj[key] = matrix_to_json(tangent_random(g, rng).direction)
    return obj


def cut_distance(*cuts):
    """The distance from spec(g) to the nearest of ``cuts`` at ``group_point(3)``."""
    obj = group_point(3)
    lam = np.linalg.eigvals(matrix_from_json(obj["g"]))
    return min(np.min(np.abs(lam - complex(*obj[z]))) for z in cuts)


def check_fd_step(tmp_path, capsys, quantity, tangents, reach, moved):
    """``eval --method fd`` at ``group_point(3)``, its tangents scaled so that
    the largest h ||A||_2 among ``tangents`` is ``reach``, h = FD_STEP.

    With ``moved`` None the step gives a finite value; otherwise it is refused,
    with exit 2 and the one line naming the step, in which ``moved`` reads
    "<move>, which reaches the distance <distance>".
    """
    obj = group_point(3)
    top = max(
        np.max(np.abs(np.linalg.eigvalsh(1j * matrix_from_json(obj[key]))))
        for key in tangents
    )
    p = tmp_path / "p.json"
    p.write_text(json.dumps(scaled_tangents(obj, reach / (FD_STEP * top))))
    code = main(["eval", "--input", str(p), "--quantity", quantity, "--method", "fd"])
    out, err = capsys.readouterr()
    if moved:
        assert (code, out) == (2, "")
        assert err == ("error (StepTooLargeError): FD step h = 1e-05 moves an "
                       f"eigenvalue up to {moved} from spec(g) to the nearest cut\n")
    else:
        assert code == 0 and np.isfinite(value(json.loads(out)))


def scaled_tangents(obj, scale):
    """``obj`` with its tangent directions X, Y, Z multiplied by ``scale``."""
    for key in "XYZ":
        for part in ("re", "im"):
            obj[key][part] = (scale * np.asarray(obj[key][part])).tolist()
    return obj


# a 2 x 2 matrix among 3 x 3 ones
MIXED_SIZES = [matrix_to_json(np.eye(m)) for m in (3, 2, 3)]


def curvature_point():
    """A U(2) point whose arc curvature on (X, Y) is -i/2, as JSON."""
    g = np.diag([1j, -1j])
    return {
        "g": matrix_to_json(g),
        "z1": [-np.sqrt(0.5), np.sqrt(0.5)],
        "z2": [np.sqrt(0.5), np.sqrt(0.5)],
        "X": matrix_to_json(np.array([[0, 1], [-1, 0]], dtype=complex)),
        "Y": matrix_to_json(np.array([[0, 1j], [1j, 0]], dtype=complex)),
    }


def edit(build, *keys, to):
    """A builder: ``build()`` with ``to``, or ``to(item)``, as its item at ``keys``."""
    def edited():
        obj = item = build()
        for key in keys[:-1]:
            item = item[key]
        item[keys[-1]] = to(item[keys[-1]]) if callable(to) else to
        return obj
    return edited


def repeated_value():
    # zero dlambda stays tangent to the circle at the moved value
    obj = flag_point()
    obj["lambda"][1] = obj["lambda"][0]
    for tangent in obj["tangents"]:
        tangent["dlambda"] = [[0.0, 0.0]] * 3
    return obj


def skew_dP():
    # dP_i = [H, P_i] for Hermitian H: sums to zero, off-diagonal, but
    # skew-Hermitian, so no curve of projectors has it as its velocity
    obj, h = flag_point(), np.diag([1.0, 2.0, 3.0]) + np.ones((3, 3))
    dp = [h @ q - q @ h for q in flag_point_from_json(obj, "$").projections]
    obj["tangents"][1]["dP"] = [matrix_to_json(d) for d in dp]
    return obj


def oblique():
    # complete, P_a P_b = delta_ab P_a, but P0 and P1 are not Hermitian
    proj = np.array([[[1, 0.7, 0], [0, 0, 0], [0, 0, 0]],
                     [[0, -0.7, 0], [0, 1, 0], [0, 0, 0]], np.diag([0, 0, 1])])
    lam = np.exp(1j * np.array([0.3, 1.1, 2.0]))
    zero = {"dlambda": [[0.0, 0.0]] * 3, "dP": [matrix_to_json(0 * proj[0])] * 3}
    return {"lambda": [[v.real, v.imag] for v in lam],
            "projections": [matrix_to_json(q) for q in proj], "tangents": [zero] * 3}


def cut_at_eigenvalue():
    g = np.diag(np.exp(1j * np.array([1.0, 2.5, 4.0])))
    a = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    return {"g": matrix_to_json(g), "z": [np.cos(2.5 + 1e-8), np.sin(2.5 + 1e-8)],
            "X": matrix_to_json(a), "Y": matrix_to_json(1j * np.abs(a))}


def ambiguous_run():
    # e^i, e^{i(1 + 5e-10)} and e^{i(1 + 1.2e-9)}: each within CLUSTER_TOL of the
    # next, the run wider than it, so no split into clusters holds
    g = np.diag(np.exp(1j * np.array([1.0, 1.0 + 5e-10, 1.0 + 1.2e-9, 3.0])))
    return {"g": matrix_to_json(g), "z1": [np.cos(2.0), np.sin(2.0)],
            "z2": [np.cos(0.5), np.sin(0.5)]}


FLAG, GROUP = flag_point(), group_point()
ZEROS = matrix_to_json(np.zeros((3, 3)))
DROP_LAST = lambda row: row[:-1]
NOT_DOUBLES = "matrix entries are not doubles: must be real number, not "
# a builder: the JSON bytes of build() with old replaced by new
raw = lambda build, old, new: lambda: json.dumps(build()).encode().replace(old, new)
NU, DF, CURVING, CURVATURE, PROJECTOR = ("eval --input {input} --quantity " + q for q in
                                         "nu df curving curvature projector".split())
TOL = "verify --suite curvature-equivalence --dim 2 --samples 1 --tol "
NEEDS = (": needs a check of suite 'curvature-equivalence' (three-route, projector-"
         "insertion, torus-directions, bilinear-antisymmetric) and a finite value >= 0")

# each exit-2 case of main, id: (point-file builder or None, argv, stderr line)
EXIT_TWO = {
    # a tolerance needs a check of the suite and a finite value >= 0
    "tol-unknown-check": (None, TOL + "three-rout=1e-30",
     "error: tolerance 'three-rout'=1e-30" + NEEDS),
    "tol-nan": (None, TOL + "three-route=nan",
     "error: tolerance 'three-route'=nan" + NEEDS),
    "tol-infinity": (None, TOL + "three-route=inf",
     "error: tolerance 'three-route'=inf" + NEEDS),
    "tol-negative": (None, TOL + "three-route=-1e-9",
     "error: tolerance 'three-route'=-1e-09" + NEEDS),
    "tol-no-equals": (None, "verify --suite projectors --samples 1 --tol x",
     "error: expected key=value, got 'x'"),
    "dim-not-positive": (None, "verify --suite projectors --dim 0",
     "error: dim and samples must be positive"),
    "samples-not-positive": (None, "verify --suite projectors --samples 0",
     "error: dim and samples must be positive"),
    "missing-cut": (lambda: {"g": matrix_to_json(np.eye(2))}, CURVATURE,
     "error: $.z1: missing field"),
    "too-few-tangents": (lambda: flag_point(tangents=2), NU,
     "error: $.tangents: 'nu' needs 3 tangents, got 2"),
    "dP-swap": (edit(flag_point, "tangents", 1, "dP", to=lambda d: [d[1], d[0], d[2]]),
     DF, "error: $.tangents[1]: dP_i must be off-diagonal for P_i and sum to zero"),
    "flag-curvature": (flag_point, CURVATURE,
     "error: $: flag-torus input does not support 'curvature'"),
    "repeated-curving": (repeated_value, CURVING,
     "error (RegularityError): point is not regular (repeated or close eigenvalues)"),
    "repeated-nu": (repeated_value, NU,
     "error (RegularityError): point is not regular (repeated or close eigenvalues)"),
    "repeated-df": (repeated_value, DF,
     "error (RegularityError): point is not regular (repeated or close eigenvalues)"),
    "skew-curving": (skew_dP, CURVING, "error: $.tangents[1]: dP_i must be Hermitian"),
    "skew-nu": (skew_dP, NU, "error: $.tangents[1]: dP_i must be Hermitian"),
    "skew-df": (skew_dP, DF, "error: $.tangents[1]: dP_i must be Hermitian"),
    "oblique-nu": (oblique, NU, "error: $: projection 0 is not Hermitian of rank one"),
    "oblique-df": (oblique, DF, "error: $: projection 0 is not Hermitian of rank one"),
    "tangents-number": (edit(flag_point, "tangents", to=5), NU,
     "error: $.tangents: expected a non-empty list"),
    "tangent-number": (edit(flag_point, "tangents", to=[5, 5, 5]), NU,
     "error: $.tangents[0]: expected an object"),
    "dlambda-number": (edit(flag_point, "tangents", 0, "dlambda", to=3), NU,
     "error: $.tangents[0].dlambda: expected a non-empty list"),
    "dlambda-short": (edit(flag_point, "tangents", 0, "dlambda", to=[[0.0, 0.0]] * 2),
     NU, "error: $.tangents[0]: tangent data shape mismatch"),
    "dP-number": (edit(flag_point, "tangents", 0, "dP", to=3), NU,
     "error: $.tangents[0].dP: expected a non-empty list"),
    "dP-mixed-size": (edit(flag_point, "tangents", 0, "dP", to=MIXED_SIZES), NU,
     "error: $.tangents[0].dP[1]: size differs from [0]"),
    "dP-short": (edit(flag_point, "tangents", 0, "dP", to=[ZEROS] * 2), NU,
     "error: $.tangents[0]: a tangent of U(3) needs 3 finite 3 x 3 dP_i"),
    "lambda-number": (edit(flag_point, "lambda", to=5), NU,
     "error: $.lambda: expected a non-empty list"),
    "lambda-short": (edit(flag_point, "lambda", to=[[1.0, 0.0], [0.0, 1.0]]), NU,
     "error: $: flag frame and torus values shape mismatch"),
    "projections-number": (edit(flag_point, "projections", to=5), NU,
     "error: $.projections: expected a non-empty list"),
    "projections-empty": (edit(flag_point, "projections", to=[]), NU,
     "error: $.projections: expected a non-empty list"),
    "projections-mixed-size": (edit(flag_point, "projections", to=MIXED_SIZES), NU,
     "error: $.projections[1]: size differs from [0]"),
    "cut-strings": (edit(curvature_point, "z1", to=["a", "b"]), CURVATURE,
     "error: $.z1: expected [re, im]"),
    "cut-lists": (edit(curvature_point, "z1", to=[[1], [0]]), CURVATURE,
     "error: $.z1: expected [re, im]"),
    "X-size": (edit(curvature_point, "X", to=ZEROS), CURVATURE,
     "error: $.X: tangent direction shape mismatch"),
    "top-level-number": (lambda: 5, CURVATURE, "error: $: expected an object"),
    # one reader reads every matrix: a string entry is not read as the number
    # it spells, nor null as NaN, and a row must hold n entries
    "g-string": (edit(group_point, "g", "re", 1, 0, to=repr), PROJECTOR,
     "error: $.g: " + NOT_DOUBLES + "str"),
    "g-null": (edit(group_point, "g", "re", 1, 0, to=None), PROJECTOR,
     "error: $.g: " + NOT_DOUBLES + "NoneType"),
    "g-ragged": (edit(group_point, "g", "re", 1, to=DROP_LAST), PROJECTOR,
     "error: $.g: expected 3x3 're' and 'im' blocks"),
    "X-string": (edit(group_point, "X", "re", 1, 0, to=repr), CURVATURE,
     "error: $.X: " + NOT_DOUBLES + "str"),
    "X-null": (edit(group_point, "X", "re", 1, 0, to=None), CURVATURE,
     "error: $.X: " + NOT_DOUBLES + "NoneType"),
    "X-ragged": (edit(group_point, "X", "re", 1, to=DROP_LAST), CURVATURE,
     "error: $.X: expected 3x3 're' and 'im' blocks"),
    "projection-string": (edit(flag_point, "projections", 1, "re", 1, 0, to=repr), NU,
     "error: $.projections[1]: " + NOT_DOUBLES + "str"),
    "projection-null": (edit(flag_point, "projections", 1, "re", 1, 0, to=None), NU,
     "error: $.projections[1]: " + NOT_DOUBLES + "NoneType"),
    "projection-ragged": (edit(flag_point, "projections", 1, "re", 1, to=DROP_LAST), NU,
     "error: $.projections[1]: expected 3x3 're' and 'im' blocks"),
    "dP-string": (edit(flag_point, "tangents", 0, "dP", 2, "re", 1, 0, to=repr), NU,
     "error: $.tangents[0].dP[2]: " + NOT_DOUBLES + "str"),
    "dP-null": (edit(flag_point, "tangents", 0, "dP", 2, "re", 1, 0, to=None), NU,
     "error: $.tangents[0].dP[2]: " + NOT_DOUBLES + "NoneType"),
    "dP-ragged": (edit(flag_point, "tangents", 0, "dP", 2, "re", 1, to=DROP_LAST), NU,
     "error: $.tangents[0].dP[2]: expected 3x3 're' and 'im' blocks"),
    # re + 1j * im once made 0 * inf for the real part: a NaN there, and a
    # numpy RuntimeWarning on stderr before the error line
    "X-infinite-im": (edit(group_point, "X", "im", 0, 1, to=np.inf), CURVATURE,
     "error: $.X: tangent direction has non-finite entries"),
    "projection-inf-im": (edit(flag_point, "projections", 1, "im", 0, 1, to=np.inf),
     NU, "error: $: a full flag of U(3) needs 3 finite projections"),
    # g g^H of an infinite g once put a numpy RuntimeWarning on stderr
    "g-infinite-re": (edit(group_point, "g", "re", 0, 1, to=np.inf), CURVATURE,
     "error: $.g: matrix is not unitary: ||g g^H - I||_F = nan"),
    "g-infinite-im": (edit(group_point, "g", "im", 0, 1, to=np.inf), CURVATURE,
     "error: $.g: matrix is not unitary: ||g g^H - I||_F = nan"),
    # 2.0 once passed, since (2, 2) == (2.0, 2.0), and true read a 1 x 1 g
    "dim-float": (edit(curvature_point, "g", to={"dim": 2.0, "re": [[0, 0], [0, 0]],
                                                 "im": [[1, 0], [1, 0]]}),
     PROJECTOR, "error: $.g: 'dim' is not an integer >= 1"),
    "dim-true": (edit(curvature_point, "g", to={"dim": True, "re": [[0]], "im": [[1]]}),
     PROJECTOR, "error: $.g: 'dim' is not an integer >= 1"),
    "dim-zero": (edit(curvature_point, "g", to={"dim": 0, "re": [], "im": []}),
     PROJECTOR, "error: $.g: 'dim' is not an integer >= 1"),
    # |A| ~ 1e150 puts h ||A||_2 far past the cut bound at h = FD_STEP
    "fd-step-overflow": (lambda: scaled_tangents(group_point(), 1e150), DF,
     "error (StepTooLargeError): FD step h = 1e-05 moves an eigenvalue up to "
     "6.637e+144, which reaches the distance 0.8019 from spec(g) to the nearest cut"),
    "nan-cut": (edit(curvature_point, "z1", to=[float("nan"), 0.0]), CURVATURE,
     "error: $.z1: cut point (nan+0j) is not finite"),
    # literals orjson rejects and json accepts (or rejects as well) give the
    # line that decoding with json alone gives.  An integer beyond 64 bits
    # decodes as a float, and the shape check still fails on it; one beyond
    # the double range decodes through json as an int no float can hold
    "infinity": (edit(curvature_point, "z1", to=[np.inf, 0.0]), CURVATURE,
     "error: $.z1: cut point (inf+0j) is not finite"),
    "minus-infinity": (edit(curvature_point, "z1", to=[-np.inf, 0.0]), CURVATURE,
     "error: $.z1: cut point (-inf+0j) is not finite"),
    "1e400": (raw(edit(curvature_point, "z1", to=[12345.5, 0.0]), b"12345.5", b"1e400"),
     CURVATURE, "error: $.z1: cut point (inf+0j) is not finite"),
    "lone-surrogate": (edit(curvature_point, "z1", to="\ud800"), CURVATURE,
     "error: $.z1: expected [re, im]"),
    "dim-beyond-64-bits": (edit(curvature_point, "g", "dim", to=2**64), CURVATURE,
     "error: $.g: 'dim' is not an integer >= 1"),
    "invalid-utf8": (raw(edit(curvature_point, "z1", to="XX"), b'"XX"', b'"\xff\xfe"'),
     CURVATURE,
     "error: 'utf-8' codec can't decode byte 0xff in position 91: invalid start byte"),
    "cut-integer-beyond-double": (edit(curvature_point, "z1", to=[10**400, 0.0]),
     CURVATURE, "error: $.z1: [re, im] is beyond the double range"),
    "matrix-integer-beyond-double": (edit(curvature_point, "g", "re", 0, 0, to=10**400),
     CURVATURE,
     "error: $.g: matrix entries are not doubles: int too large to convert to float"),
    # json gives up on nesting this deep with a RecursionError; orjson
    # decodes it and the schema check rejects it
    "deep-nesting": (
     raw(edit(curvature_point, "z1", to="DEEP"), b'"DEEP"', b"[" * 3000 + b"]" * 3000),
     CURVATURE, "error: $.z1: expected [re, im]"),
    "curving-cut-at-eigenvalue": (cut_at_eigenvalue, CURVING + " --no-oracle",
     "error (IllConditionedCutError): cut within 1.00e-08 of an eigenvalue "
     "(limit 1e-06)"),
    # the point's own checks: a tangent, a torus value, a cut or a cut pair
    "dlambda-nan": (edit(flag_point, "tangents", 0, "dlambda", 0, to=[np.nan, 0.0]), NU,
     "error: $.tangents[0]: tangent data has non-finite entries"),
    # dlambda_0 = lambda_0 points straight out of the circle
    "dlambda-radial": (
     edit(flag_point, "tangents", 0, "dlambda", 0, to=FLAG["lambda"][0]), NU,
     "error: $.tangents[0]: dlambda is not tangent to the unit circle"),
    "lambda-off-circle": (edit(flag_point, "lambda", 0, to=[2.0, 0.0]), NU,
     "error: $: torus values must be finite, of unit modulus"),
    "cut-off-circle": (edit(group_point, "z1", to=[2.0, 0.0]), PROJECTOR,
     "error: $.z1: |z| = 2.0 is not on the unit circle"),
    "cut-at-identity": (edit(group_point, "z1", to=[1.0, 0.0]), PROJECTOR,
     "error: $.z1: the identity 1 is not a cut point"),
    "equal-cuts": (edit(group_point, "z2", to=GROUP["z1"]), PROJECTOR,
     "error (IncomparableError): equal cut points are incomparable"),
    "negative-projector": (
     lambda: {**group_point(), "z1": GROUP["z2"], "z2": GROUP["z1"]}, PROJECTOR,
     "error (EmptySpaceError): negative context: swap the cuts and work with the dual "
     "line"),
    "ambiguous-cluster": (ambiguous_run, PROJECTOR, "error (AmbiguousClusterError): "
     "eigenvalue run spans 1.200e-09 >= tolerance 1.000e-09"),
    "missing-file": (None, NU, "error: [Errno 2] No such file or directory: '{input}'"),
    "invalid-json": (lambda: b"{not json", NU, "error: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
}
# rows that keep the test names they had before the table, run by name below
NAMED = {"tol-no-equals", "missing-cut", "nan-cut", "deep-nesting", "missing-file",
         "invalid-json"}


class TestRunSuite:
    def test_all_suites_pass_small(self):
        for suite in SUITES:
            report = run_suite(SuiteConfig(suite=suite, dim=3, samples=3, seed=1))
            assert report["passed"], (suite, report["checks"])
            assert report["suite"] == suite
            for c in report["checks"]:
                assert c["samples"] >= 1
                assert c["max_abs_error"] <= c["tolerance"]

    def test_check_tables_pinned(self):
        assert list(SUITES) == list(CHECK_TABLES)
        for suite, want in CHECK_TABLES.items():
            report = run_suite(SuiteConfig(suite=suite, dim=3, samples=5, seed=0))
            got = [
                [c["name"], c["identity"], c["tolerance"], c["samples"], c["failures"]]
                for c in report["checks"]
            ]
            assert got == want, suite

    def test_report_deterministic(self):
        cfg = lambda: SuiteConfig(suite="projectors", dim=3, samples=4, seed=9)
        r1 = json.dumps(run_suite(cfg()), sort_keys=True)
        r2 = json.dumps(run_suite(cfg()), sort_keys=True)
        assert r1 == r2

    def test_tolerance_override_fails(self):
        cfg = SuiteConfig(
            suite="projectors",
            dim=3,
            samples=2,
            seed=0,
            tolerances={"residue-vs-quadrature": 0.0},
        )
        report = run_suite(cfg)
        assert not report["passed"]

    def test_unknown_suite(self):
        refused(ValueError, "unknown suite 'nonsense'; choose from "
                "['curvature-equivalence', 'delta-curving', 'equivariance', "
                "'gerbe-axioms', 'projectors', 'three-curvature', 'truncation', "
                "'weyl']",
                lambda: run_suite(SuiteConfig(suite="nonsense")))

    def test_report_schema(self):
        report = run_suite(SuiteConfig(suite="gerbe-axioms", dim=3, samples=2, seed=2))
        assert set(report) == {"suite", "config", "checks", "passed"}
        assert set(report["config"]) == {"dim", "samples", "seed", "tolerances"}
        for c in report["checks"]:
            assert set(c) == {
                "name",
                "identity",
                "samples",
                "max_abs_error",
                "mean_abs_error",
                "tolerance",
                "failures",
            }


class TestEvalPoint:
    def test_curvature_with_oracle(self):
        obj = curvature_point()
        rec = eval_point(obj, "curvature", "residue", True)
        assert abs(complex(rec["value_re"], rec["value_im"]) - (-0.5j)) < 1e-10
        assert rec["residual_vs_oracle"] < 1e-10

    def test_curvature_no_oracle(self):
        obj = curvature_point()
        rec = eval_point(obj, "curvature", "quadrature", False)
        assert rec["residual_vs_oracle"] is None

    def test_projector_matrix_output(self):
        obj = curvature_point()
        rec = eval_point(obj, "projector", "residue", True)
        assert rec["matrix"]["dim"] == 2
        assert abs(rec["matrix"]["re"][0][0] - 1.0) < 1e-10
        assert rec["residual_vs_oracle"] < 1e-10

    def test_non_finite_value_or_residual(self, monkeypatch):
        # tr(A [B, C]) overflows for directions of norm 1e110
        refused(EvaluationError, "nu: the value or its residual is not finite",
                lambda: eval_point(scaled_tangents(group_point(3), 1e110), "nu",
                                   "residue", True))
        # a finite value whose oracle is not
        monkeypatch.setattr(forms, "three_curvature", lambda *args: complex("nan"))
        assert np.isfinite(eval_point(group_point(3), "df", "fd", False)["value_re"])
        refused(EvaluationError, "df: the value or its residual is not finite",
                lambda: eval_point(group_point(3), "df", "fd", True))

    def test_missing_field(self):
        refused(SchemaError, "$.g: missing field",
                lambda: eval_point({}, "curvature", "residue", True))

    @pytest.mark.parametrize("keep", ["projections", "tangents", "both"])
    def test_flag_file_without_lambda(self, keep):
        # a flag-torus field and no "g": the file is read as a flag-torus
        # point, so the error names the field it lacks, not "$.g"
        obj = flag_point(3)
        del obj["lambda"]
        if keep != "both":
            del obj[{"projections": "tangents", "tangents": "projections"}[keep]]
        refused(SchemaError, "$.lambda: missing field",
                lambda: eval_point(obj, "nu", "residue", True))
        # beside a "g", the same fields leave a group point a group point
        group = {**group_point(3), **obj}
        assert eval_point(group, "nu", "residue", True)["method"] == "closed-form"

    @pytest.mark.parametrize(
        "quantity, flag, asked, ran",
        [
            ("nu", False, "quadrature", "closed-form"),
            ("section", False, "quadrature", "closed-form"),
            ("df", True, "quadrature", "closed-form"),
            ("curving", True, "quadrature", "closed-form"),
            ("nu", True, "residue", "closed-form"),
            ("df", False, "residue", "fd"),
            ("projector", False, "fd", "residue"),
            ("curving", False, "quadrature", "quadrature"),
            ("curvature", False, "fd", "fd"),
        ],
    )
    def test_method_names_the_route_that_ran(self, quantity, flag, asked, ran):
        obj = flag_point(3) if flag else group_point(3)
        assert eval_point(obj, quantity, asked, False)["method"] == ran

    def test_flag_input(self):
        rec = eval_point(flag_point(3), "df", "residue", True)
        assert rec["residual_vs_oracle"] < 1e-9

    @pytest.mark.parametrize("quantity", ["curving", "nu", "df"])
    def test_flag_point_built_once(self, quantity, monkeypatch):
        obj = flag_point(3)
        built = []
        check = weyl.FlagTorusPoint.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(weyl.FlagTorusPoint, "__post_init__", counting)
        eval_point(obj, quantity, "residue", True)
        assert len(built) == 1

    def test_curvature_fd_matches_residue(self):
        rng = sample_rng(0, "cli-test", 1)
        g, spec = well_separated_unitary(4, rng)
        ctx = random_positive_context(spec, rng)
        obj = {
            "g": matrix_to_json(g.mat),
            "z1": [ctx.z1.value.real, ctx.z1.value.imag],
            "z2": [ctx.z2.value.real, ctx.z2.value.imag],
            "X": matrix_to_json(tangent_random(g, rng).direction),
            "Y": matrix_to_json(tangent_random(g, rng).direction),
        }
        fd = eval_point(obj, "curvature", "fd", True)
        res = eval_point(obj, "curvature", "residue", False)
        assert abs(fd["value_im"]) > 1e-3
        assert abs(value(fd) - value(res)) < 1e-6
        assert fd["residual_vs_oracle"] < 1e-6


class TestMain:
    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--suite",
                "projectors",
                "--dim",
                "3",
                "--samples",
                "2",
                "--seed",
                "0",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS projectors/residue-vs-quadrature" in out
        assert json.loads(report.read_text())["passed"]

    def test_verify_fail_exit_one(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "projectors",
                "--dim",
                "3",
                "--samples",
                "2",
                "--tol",
                "integer-trace=0",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_nan_error_exit_one(self, monkeypatch, tmp_path, capsys):
        # a NaN error is within no tolerance, so its check fails; it comes
        # after a finite error, which max() alone would report
        sample, table = SUITES["truncation"]
        name = next(iter(table))

        def nan_sample(cfg, i, rng):
            errs = sample(cfg, i, rng)
            if i == 1:
                errs[name] = float("nan")
            return errs

        def reject(literal):
            raise ValueError(f"non-JSON literal {literal}")

        monkeypatch.setitem(SUITES, "truncation", (nan_sample, table))
        report = tmp_path / "r.json"
        argv = ["verify", "--suite", "truncation", "--dim", "2", "--samples", "2",
                "--report", str(report)]
        assert main(argv) == 1
        assert f"FAIL truncation/{name}: max non-finite" in capsys.readouterr().out
        check = json.loads(report.read_text(), parse_constant=reject)["checks"][0]
        assert check["name"] == name and check["failures"] == 1
        assert check["max_abs_error"] is None and check["mean_abs_error"] is None

    def test_verify_tolerances_not_shared_between_calls(self, tmp_path):
        # --tol appends to a list default; the parser is built once per process
        reports = [tmp_path / f"{i}.json" for i in range(3)]
        tols = [["--tol", "integer-trace=0.5"], [], ["--tol", "projector-algebra=0.5"]]
        for report, tol in zip(reports, tols):
            argv = ["verify", "--suite", "projectors", "--dim", "2", "--samples", "1",
                    "--report", str(report), *tol]
            assert main(argv) == 0
        seen = [json.loads(r.read_text())["config"]["tolerances"] for r in reports]
        assert seen == [{"integer-trace": 0.5}, {}, {"projector-algebra": 0.5}]

    def test_reports_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            args = [
                "verify", "--suite", "gerbe-axioms", "--dim", "3",
                "--samples", "2", "--seed", "5", "--report", str(p),
            ]
            assert main(args) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eval_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(curvature_point()))
        code = main(["eval", "--input", str(p), "--quantity", "curvature"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["value_im"] + 0.5) < 1e-10

    @pytest.mark.parametrize("row", [row for row in EXIT_TWO if row not in NAMED])
    def test_exit_two(self, row, tmp_path, capsys):
        build, argv, line = EXIT_TWO[row]
        p = tmp_path / "p.json"
        if build is not None:
            data = build()
            p.write_bytes(data if type(data) is bytes else json.dumps(data).encode())
        assert main([str(p) if arg == "{input}" else arg for arg in argv.split()]) == 2
        assert capsys.readouterr() == ("", line.replace("{input}", str(p)) + "\n")

    def test_bad_tol_exit_two(self, tmp_path, capsys):
        self.test_exit_two("tol-no-equals", tmp_path, capsys)

    def test_eval_bad_schema_exit_two(self, tmp_path, capsys):
        self.test_exit_two("missing-cut", tmp_path, capsys)

    def test_eval_nan_cut_exit_two(self, tmp_path, capsys):
        self.test_exit_two("nan-cut", tmp_path, capsys)

    def test_eval_deep_nesting_exit_two(self, tmp_path, capsys):
        self.test_exit_two("deep-nesting", tmp_path, capsys)

    def test_eval_missing_file_exit_two(self, tmp_path, capsys):
        self.test_exit_two("missing-file", tmp_path, capsys)

    def test_eval_invalid_json_exit_two(self, tmp_path, capsys):
        self.test_exit_two("invalid-json", tmp_path, capsys)

    def test_eval_curvature_residue_oracle_is_quadrature(self, tmp_path, capsys,
                                                         monkeypatch):
        # a quadrature route off by 1e-3 shows in the residue route's residual;
        # an oracle that ran the residue route again read exactly 0
        route = forms.curvature_via_contour

        def off(ctx, x, y, method="residue"):
            return route(ctx, x, y, method) + (1e-3 if method == "quadrature" else 0.0)

        monkeypatch.setattr(forms, "curvature_via_contour", off)
        p = tmp_path / "p.json"
        p.write_text(json.dumps(group_point(4)))
        assert main(["eval", "--input", str(p), "--quantity", "curvature"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["method"] == "residue"
        assert abs(rec["residual_vs_oracle"] - 1e-3) < 1e-12

    def test_eval_quadrature_node_limit_exit_two(self, tmp_path, capsys):
        # the cut is 2e-6 from the excluded eigenvalue (CUT_EXCLUSION is
        # 1e-6), so a radial edge passes 1e-6 from two poles
        g = np.diag(np.exp(1j * np.array([1.0, 1.0 + 4e-6, 4.0])))
        cut = lambda a: [np.cos(a), np.sin(a)]
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"g": matrix_to_json(g), "z1": cut(1.0 + 2e-6),
                                 "z2": cut(0.5)}))
        args = ["eval", "--input", str(p), "--quantity", "projector", "--no-oracle"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--method", "quadrature"]) == 2
        assert capsys.readouterr() == ("", "error (QuadratureError): no convergence on "
                                       "6 panels at 1024 nodes each: last difference "
                                       "2.43e-02 between the 1024-node Gauss and "
                                       "2049-node Kronrod estimates\n")

    @pytest.mark.parametrize("margin", [0.999, 1.001])
    def test_eval_fd_step_bound(self, tmp_path, capsys, margin):
        # a step g exp(hA) holds while h ||A||_2 = h max |mu|, mu the
        # eigenvalues of iA, stays below the distance from spec(g) to z, and
        # exits 2 naming the step from there on
        reach = margin * cut_distance("z")
        moved = {0.999: None, 1.001: "0.8027, which reaches the distance 0.8019"}
        check_fd_step(tmp_path, capsys, "df", "XYZ", reach, moved[margin])

    def test_eval_fd_step_past_the_cut_exit_two(self, tmp_path, capsys):
        # at h max |mu| = 0.999 UNITARITY_TOL / eps, about 4.5e3, the phases
        # of exp(hA) wind round the circle hundreds of times, so the central
        # difference means nothing: exit 2 naming the step
        reach = 0.999 * UNITARITY_TOL / np.finfo(float).eps
        moved = "3191, which reaches the distance 0.8019"
        check_fd_step(tmp_path, capsys, "df", "XYZ", reach, moved)

    @pytest.mark.parametrize("margin", [0.999, 1.001, 5.0])
    def test_eval_curvature_fd_step_bound(self, tmp_path, capsys, margin):
        # dP by central differences holds while h ||A||_2 stays below the
        # distance from spec(g) to the nearer of z1 and z2; past it the arc
        # may gain or lose an eigenvalue, and the step is refused
        reach = margin * cut_distance("z1", "z2")
        moved = {0.999: None, 1.001: "0.1674, which reaches the distance 0.1673",
                 5.0: "0.6855, which reaches the distance 0.1673"}
        check_fd_step(tmp_path, capsys, "curvature", "XY", reach, moved[margin])

    def test_decode_bit_identical_to_json(self):
        obj = flag_point(8)
        obj["edges"] = [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                        -0.0, 0.1, 1e23, 2**63 - 1, -(2**63)]
        data = json.dumps(obj).encode()
        got, want = _decode(data), json.loads(data)
        orjson.loads(data)  # the fast path is the one compared
        # repr round-trips every float exactly, signed zeros included
        assert repr(got) == repr(want)
        a, b = flag_point_from_json(got, "$"), flag_point_from_json(want, "$")
        assert a.projections.tobytes() == b.projections.tobytes()
        assert a.torus_values.tobytes() == b.torus_values.tobytes()

    def test_eval_curving_on_a_near_pair(self, tmp_path, capsys):
        # eigenvalues 1e-8 apart: residue weights that lose digits to the
        # pair's cancellation leave the quadrature oracle by ~1e-2
        g = UnitaryMatrix(np.diag(np.exp(1j * np.array([1.0, 1.0 + 1e-8, 3.0]))))
        rng = np.random.default_rng(5)
        x, y = (tangent_random(g, rng).direction for _ in range(2))
        obj = {
            "g": matrix_to_json(g.mat),
            "z": [np.cos(4.5), np.sin(4.5)],
            "X": matrix_to_json(x),
            "Y": matrix_to_json(y),
        }
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", "curving"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["method"] == "residue"
        assert rec["residual_vs_oracle"] < 1e-10


class TestCollectorPause:
    """``eval`` pauses the cycle collector from the file read until the decoded
    point file is dropped, and gives the caller back its setting."""

    def eval_flag(self, tmp_path, n=3):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(flag_point(n)))
        return main(["eval", "--input", str(p), "--quantity", "nu"])

    def test_no_collection_inside_eval(self, tmp_path, capsys):
        # unpaused, n = 32 ran 11 generation-0 and 1 generation-1 collections
        # over the ~8.6k decoded lists; a pause that dropped the tree only
        # after resuming ran one
        p = tmp_path / "p.json"
        p.write_text(json.dumps(flag_point(32)))
        generations = []
        count = lambda phase, info: phase == "start" and generations.append(
            info["generation"])
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert main(["eval", "--input", str(p), "--quantity", "nu"]) == 0
        finally:
            gc.callbacks.remove(count)
        assert generations == []
        assert json.loads(capsys.readouterr().out)["quantity"] == "nu"

    def test_paused_while_evaluating(self, tmp_path, capsys, monkeypatch):
        # fails unpaused
        seen = []

        def spy(*args):
            seen.append(gc.isenabled())
            return eval_point(*args)

        monkeypatch.setattr(cli, "eval_point", spy)
        assert self.eval_flag(tmp_path) == 0
        assert seen == [False]

    @pytest.mark.parametrize("case", ["ok", "schema", "gerbe", "missing"])
    def test_resumed_on_every_exit(self, case, tmp_path, capsys):
        # holds unpaused too; a pause that skipped its restore on an error fails
        p = tmp_path / "p.json"
        obj = {"ok": flag_point(3), "schema": flag_point(3, tangents=2),
               "gerbe": scaled_tangents(group_point(3), 1e150)}.get(case)
        if obj is not None:
            p.write_text(json.dumps(obj))
        quantity = "df" if case == "gerbe" else "nu"
        code = main(["eval", "--input", str(p), "--quantity", quantity])
        assert code == (0 if case == "ok" else 2)
        # the line of the EXIT_TWO row with the same point file and quantity
        row = {"schema": "too-few-tangents", "gerbe": "fd-step-overflow",
               "missing": "missing-file"}.get(case)
        line = EXIT_TWO[row][2].replace("{input}", str(p)) + "\n" if row else ""
        assert capsys.readouterr().err == line
        assert gc.isenabled()

    def test_caller_setting_kept(self, tmp_path, capsys):
        # holds unpaused too; a pause that always re-enabled the collector fails
        gc.disable()
        try:
            assert self.eval_flag(tmp_path) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


def flag_instance(index, n=4):
    """A regular flag-torus point and one tangent at it."""
    rng = sample_rng(0, "weyl-test", index)
    pt = sample_regular(n, rng)
    return pt, random_flag_tangent(pt, rng)


class TestFlagJson:
    def test_round_trip(self):
        pt, tan = flag_instance(130)
        pt2 = flag_point_from_json(flag_point_to_json(pt), "$")
        tan2 = flag_tangent_from_json(pt2, flag_tangent_to_json(tan), "$")
        assert np.allclose(pt2.torus_values, pt.torus_values)
        assert np.allclose(pt2.projections, pt.projections)
        assert np.allclose(tan2.dlam, tan.dlam)
        assert np.allclose(tan2.dP, tan.dP)

    def test_point_only(self):
        pt, tan = flag_instance(131)
        obj = flag_point_to_json(pt)
        assert set(obj) == {"lambda", "projections"}
        # tangent fields beside the point are not the point's to parse
        obj.update(flag_tangent_to_json(tan))
        pt2 = flag_point_from_json(obj, "$")
        assert isinstance(pt2, FlagTorusPoint)
        assert np.allclose(pt2.projections, pt.projections)

    def test_missing_field(self):
        refused(SchemaError, "$.projections: missing field",
                lambda: flag_point_from_json({"lambda": [[0.0, 1.0]]}, "$"))

    def test_bad_complex(self):
        refused(SchemaError, "$.lambda[0]: expected [re, im]",
                lambda: flag_point_from_json({"lambda": [[0.0]], "projections": []},
                                             "$"))


REFUSALS = {
    # argparse's choices keep it from main, but tools call eval_point
    "unknown-quantity": (SchemaError, "$: unknown quantity 'volume'",
     lambda: eval_point(group_point(), "volume", "residue", True)),
    "dP-swap": (SchemaError,
     "$.tangents[1]: dP_i must be off-diagonal for P_i and sum to zero",
     lambda: eval_point(EXIT_TWO["dP-swap"][0](), "df", "residue", True)),
    "dlambda-missing": (SchemaError, "$.tangents[0].dlambda: missing field",
     lambda: eval_point(edit(flag_point, "tangents", 0, to=lambda t: {"dP": t["dP"]})(),
                        "df", "residue", True)),
    # a bad "lambda" is named before a missing "projections"
    "lambda-first": (SchemaError, "$.lambda[0]: expected [re, im]",
     lambda: flag_point_from_json({"lambda": [[0.0]]}, "$")),
}
test_refused = refusal_test(REFUSALS)
