import json
from pathlib import Path

import numpy as np
import orjson
import pytest

from basicgerbe import (
    EvaluationError,
    FlagTorusPoint,
    SchemaError,
    matrix_to_json,
    random_flag_tangent,
    sample_regular,
    tangent_random,
)
from basicgerbe import forms, weyl
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

# (name, identity, tolerance, samples, failures) per check of every suite
# at dim 3, 5 samples, seed 0
CHECK_TABLES = json.loads((Path(__file__).parent / "check_tables.json").read_text())


def value(record):
    return complex(record["value_re"], record["value_im"])


def flag_point(n, tangents=3):
    """A regular flag-torus point with ``tangents`` tangents, as JSON."""
    rng = sample_rng(0, "cli-test", 0)
    pt = sample_regular(n, rng)
    obj = flag_point_to_json(pt)
    obj["z"] = [-1.0, 0.0]
    obj["tangents"] = []
    for _ in range(tangents):
        obj["tangents"].append(flag_tangent_to_json(random_flag_tangent(pt, rng)))
    return obj


def group_point(n):
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


def scaled_tangents(obj, scale):
    """``obj`` with its tangent directions X, Y, Z multiplied by ``scale``."""
    for key in "XYZ":
        for part in ("re", "im"):
            obj[key][part] = (scale * np.asarray(obj[key][part])).tolist()
    return obj


# a 2 x 2 matrix among 3 x 3 ones
MIXED_SIZES = [matrix_to_json(np.eye(m)) for m in (3, 2, 3)]


def write_curvature_point(path):
    g = np.diag([1j, -1j])
    obj = {
        "g": matrix_to_json(g),
        "z1": [-np.sqrt(0.5), np.sqrt(0.5)],
        "z2": [np.sqrt(0.5), np.sqrt(0.5)],
        "X": matrix_to_json(np.array([[0, 1], [-1, 0]], dtype=complex)),
        "Y": matrix_to_json(np.array([[0, 1j], [1j, 0]], dtype=complex)),
    }
    path.write_text(json.dumps(obj))
    return obj


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
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="nonsense"))

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
    def test_curvature_with_oracle(self, tmp_path):
        obj = write_curvature_point(tmp_path / "p.json")
        rec = eval_point(obj, "curvature", "residue", True)
        assert abs(complex(rec["value_re"], rec["value_im"]) - (-0.5j)) < 1e-10
        assert rec["residual_vs_oracle"] < 1e-10

    def test_curvature_no_oracle(self, tmp_path):
        obj = write_curvature_point(tmp_path / "p.json")
        rec = eval_point(obj, "curvature", "quadrature", False)
        assert rec["residual_vs_oracle"] is None

    def test_projector_matrix_output(self, tmp_path):
        obj = write_curvature_point(tmp_path / "p.json")
        rec = eval_point(obj, "projector", "residue", True)
        assert rec["matrix"]["dim"] == 2
        assert abs(rec["matrix"]["re"][0][0] - 1.0) < 1e-10
        assert rec["residual_vs_oracle"] < 1e-10

    def test_non_finite_value_or_residual(self, monkeypatch):
        # tr(A [B, C]) overflows for directions of norm 1e110
        with pytest.raises(EvaluationError, match="not finite"):
            eval_point(scaled_tangents(group_point(3), 1e110), "nu", "residue", True)
        # a finite value whose oracle is not
        monkeypatch.setattr(forms, "three_curvature", lambda *args: complex("nan"))
        assert np.isfinite(eval_point(group_point(3), "df", "fd", False)["value_re"])
        with pytest.raises(EvaluationError, match="not finite"):
            eval_point(group_point(3), "df", "fd", True)

    def test_missing_field(self):
        with pytest.raises(SchemaError) as err:
            eval_point({}, "curvature", "residue", True)
        assert "$.g" in str(err.value)

    @pytest.mark.parametrize("keep", ["projections", "tangents", "both"])
    def test_flag_file_without_lambda(self, keep):
        # a flag-torus field and no "g": the file is read as a flag-torus
        # point, so the error names the field it lacks, not "$.g"
        obj = flag_point(3)
        del obj["lambda"]
        if keep != "both":
            del obj[{"projections": "tangents", "tangents": "projections"}[keep]]
        with pytest.raises(SchemaError, match=r"^\$\.lambda: missing field"):
            eval_point(obj, "nu", "residue", True)
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

    def test_flag_tangent_error_paths(self):
        obj = flag_point(3)
        dp = obj["tangents"][1]["dP"]
        dp[0], dp[1] = dp[1], dp[0]
        with pytest.raises(SchemaError, match=r"^\$\.tangents\[1\]: .*off-diagonal"):
            eval_point(obj, "df", "residue", True)
        obj = flag_point(3)
        del obj["tangents"][0]["dlambda"]
        with pytest.raises(SchemaError, match=r"^\$\.tangents\[0\]\.dlambda: "):
            eval_point(obj, "df", "residue", True)

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

    @pytest.mark.parametrize(
        "tol",
        ["three-rout=1e-30", "three-route=nan", "three-route=inf", "three-route=-1e-9"],
        ids=["unknown-check", "nan", "infinity", "negative"],
    )
    def test_verify_bad_tolerance_exit_two(self, tol, capsys):
        argv = ["verify", "--suite", "curvature-equivalence", "--dim", "2",
                "--samples", "1", "--tol", tol]
        assert main(argv) == 2
        assert repr(tol.split("=")[0]) in capsys.readouterr().err

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
        write_curvature_point(p)
        code = main(["eval", "--input", str(p), "--quantity", "curvature"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["value_im"] + 0.5) < 1e-10

    def test_eval_bad_schema_exit_two(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"g": matrix_to_json(np.eye(2))}))
        code = main(["eval", "--input", str(p), "--quantity", "curvature"])
        assert code == 2
        assert "$.z1" in capsys.readouterr().err

    def test_eval_too_few_flag_tangents_exit_two(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(flag_point(3, tangents=2)))
        assert main(["eval", "--input", str(p), "--quantity", "nu"]) == 2
        assert "needs 3 tangents" in capsys.readouterr().err

    def test_eval_bad_flag_tangent_exit_two(self, tmp_path, capsys):
        obj = flag_point(3)
        dp = obj["tangents"][1]["dP"]
        dp[0], dp[1] = dp[1], dp[0]
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", "df"]) == 2
        assert "$.tangents[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["curving", "nu", "df"])
    def test_eval_non_hermitian_dP_exit_two(self, quantity, tmp_path, capsys):
        # dP_i = [H, P_i] for Hermitian H: sums to zero, off-diagonal, but
        # skew-Hermitian, so no curve of projectors has it as its velocity
        obj = flag_point(3)
        pt = flag_point_from_json(obj, "$")
        h = np.diag([1.0, 2.0, 3.0]) + np.ones((3, 3))
        dp = [h @ q - q @ h for q in pt.projections]
        obj["tangents"][1]["dP"] = [matrix_to_json(d) for d in dp]
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", quantity]) == 2
        assert "$.tangents[1]: dP_i must be Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["nu", "df"])
    def test_eval_oblique_projectors_exit_two(self, quantity, tmp_path, capsys):
        # complete, P_a P_b = delta_ab P_a, but P0 and P1 are not Hermitian
        proj = np.zeros((3, 3, 3), dtype=complex)
        proj[0, 0, 0], proj[0, 0, 1] = 1.0, 0.7
        proj[1, 1, 1], proj[1, 0, 1] = 1.0, -0.7
        proj[2, 2, 2] = 1.0
        lam = np.exp(1j * np.array([0.3, 1.1, 2.0]))
        zero = {"dlambda": [[0.0, 0.0]] * 3, "dP": [matrix_to_json(0 * proj[0])] * 3}
        obj = {
            "lambda": [[v.real, v.imag] for v in lam],
            "projections": [matrix_to_json(q) for q in proj],
            "tangents": [zero] * 3,
        }
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", quantity]) == 2
        assert "not Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad, path",
        [
            ("tangents", 5, "$.tangents"),
            ("tangents", [5, 5, 5], "$.tangents[0]"),
            ("dlambda", 3, "$.tangents[0].dlambda"),
            ("dP", 3, "$.tangents[0].dP"),
            ("dP", MIXED_SIZES, "$.tangents[0].dP[1]"),
            ("lambda", 5, "$.lambda"),
            ("projections", 5, "$.projections"),
            ("projections", [], "$.projections"),
            ("projections", MIXED_SIZES, "$.projections[1]"),
            ("z1", ["a", "b"], "$.z1"),
            ("z1", [[1], [0]], "$.z1"),
            (None, 5, "$"),
        ],
        ids=[
            "tangents-number", "tangent-number", "dlambda-number", "dP-number",
            "dP-mixed-size", "lambda-number", "projections-number",
            "projections-empty", "projections-mixed-size",
            "cut-strings", "cut-lists", "top-level-number",
        ],
    )
    def test_eval_malformed_json_exit_two(self, field, bad, path, tmp_path, capsys):
        if field is None:
            obj, quantity = bad, "curvature"
        elif field == "z1":
            obj, quantity = write_curvature_point(tmp_path / "p.json"), "curvature"
            obj[field] = bad
        else:
            obj, quantity = flag_point(3), "nu"
            if field in ("dlambda", "dP"):
                obj["tangents"][0][field] = bad
            else:
                obj[field] = bad
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", quantity]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

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
        assert "QuadratureError" in capsys.readouterr().err

    def test_eval_overflowing_fd_step_exit_two(self, tmp_path, capsys):
        # |A| ~ 1e150 puts h |mu| far past the step bound at h = FD_STEP
        p = tmp_path / "p.json"
        p.write_text(json.dumps(scaled_tangents(group_point(3), 1e150)))
        assert main(["eval", "--input", str(p), "--quantity", "df"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (StepTooLargeError): g exp(tA) overflows")

    @pytest.mark.parametrize("margin", [0.999, 1.001])
    def test_eval_fd_step_bound(self, tmp_path, capsys, margin):
        # a step g exp(hA) holds while h |mu| stays below UNITARITY_TOL / eps,
        # mu the eigenvalues of iA, and exits 2 from there on
        obj = group_point(3)
        top = max(
            np.max(np.abs(np.linalg.eigvalsh(1j * matrix_from_json(obj[key]))))
            for key in "XYZ"
        )
        reach = UNITARITY_TOL / np.finfo(float).eps
        p = tmp_path / "p.json"
        p.write_text(json.dumps(scaled_tangents(obj, margin * reach / (FD_STEP * top))))
        code = main(["eval", "--input", str(p), "--quantity", "df", "--method", "fd"])
        out, err = capsys.readouterr()
        if margin < 1:
            assert code == 0 and np.isfinite(value(json.loads(out)))
        else:
            assert code == 2
            assert err.startswith("error (StepTooLargeError): g exp(tA) overflows")

    def test_eval_nan_cut_exit_two(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        obj = write_curvature_point(p)
        obj["z1"] = [float("nan"), 0.0]
        p.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(p), "--quantity", "curvature"]) == 2
        assert "$.z1" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, bad, raw, path",
        [
            ("z1", [float("inf"), 0.0], None, "$.z1"),
            ("z1", [float("-inf"), 0.0], None, "$.z1"),
            ("z1", [12345.5, 0.0], (b"12345.5", b"1e400"), "$.z1"),
            ("z1", "\ud800", None, "$.z1"),
            ("dim", 2**64, None, "$.g"),
            ("z1", "XX", (b'"XX"', b'"\xff\xfe"'), None),
            ("z1", [10**400, 0.0], None, "$.z1"),
            ("re", 10**400, None, "$.g"),
        ],
        ids=["infinity", "minus-infinity", "1e400", "lone-surrogate",
             "dim-beyond-64-bits", "invalid-utf8", "cut-integer-beyond-double",
             "matrix-integer-beyond-double"],
    )
    def test_eval_nonstandard_json_exit_two(self, key, bad, raw, path, tmp_path,
                                            capsys):
        # literals orjson rejects and json accepts (or rejects as well) give
        # the exit code and $ path that decoding with json alone gives; NaN
        # is test_eval_nan_cut_exit_two.  An integer beyond 64 bits decodes
        # as a float, and the shape check still fails on it; one beyond the
        # double range decodes through json as an int no float can hold
        p = tmp_path / "p.json"
        obj = write_curvature_point(p)
        if key == "dim":
            obj["g"]["dim"] = bad
        elif key == "re":
            obj["g"]["re"][0][0] = bad
        else:
            obj[key] = bad
        data = json.dumps(obj).encode()
        if raw:
            data = data.replace(*raw)
        p.write_bytes(data)
        assert main(["eval", "--input", str(p), "--quantity", "curvature"]) == 2
        err = capsys.readouterr().err
        if path is None:
            assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        else:
            assert err.startswith(f"error: {path}: ")

    def test_eval_deep_nesting_exit_two(self, tmp_path, capsys):
        # json gives up on nesting this deep with a RecursionError; orjson
        # decodes it and the schema check rejects it
        p = tmp_path / "p.json"
        obj = write_curvature_point(p)
        obj["z1"] = "DEEP"
        p.write_text(json.dumps(obj).replace('"DEEP"', "[" * 3000 + "]" * 3000))
        assert main(["eval", "--input", str(p), "--quantity", "curvature"]) == 2
        assert capsys.readouterr().err.startswith("error: $.z1: ")

    def test_eval_curving_cut_at_eigenvalue_exit_two(self, tmp_path, capsys):
        g = np.diag(np.exp(1j * np.array([1.0, 2.5, 4.0])))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1], a[1, 0] = 1.0, -1.0
        obj = {
            "g": matrix_to_json(g),
            "z": [np.cos(2.5 + 1e-8), np.sin(2.5 + 1e-8)],
            "X": matrix_to_json(a),
            "Y": matrix_to_json(1j * np.abs(a)),
        }
        p = tmp_path / "p.json"
        p.write_text(json.dumps(obj))
        args = ["eval", "--input", str(p), "--quantity", "curving", "--no-oracle"]
        assert main(args) == 2
        assert "IllConditionedCutError" in capsys.readouterr().err

    def test_eval_missing_file_exit_two(self, tmp_path):
        assert (
            main(["eval", "--input", str(tmp_path / "no.json"), "--quantity", "nu"])
            == 2
        )

    def test_eval_invalid_json_exit_two(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text("{not json")
        assert main(["eval", "--input", str(p), "--quantity", "nu"]) == 2

    def test_bad_tol_exit_two(self):
        assert (
            main(["verify", "--suite", "projectors", "--samples", "1", "--tol", "x"])
            == 2
        )


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
        with pytest.raises(SchemaError) as err:
            flag_point_from_json({"lambda": [[0.0, 1.0]]}, "$")
        assert "projections" in str(err.value)

    def test_bad_complex(self):
        with pytest.raises(SchemaError) as err:
            flag_point_from_json({"lambda": [[0.0]], "projections": []}, "$")
        assert "lambda[0]" in str(err.value)

    def test_first_bad_field_in_reading_order(self):
        # a bad "lambda" is named before a missing "projections"
        with pytest.raises(SchemaError, match=r"^\$\.lambda\[0\]: "):
            flag_point_from_json({"lambda": [[0.0]]}, "$")
