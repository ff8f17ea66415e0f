"""Hash the acceptance reports of every verify suite and the eval outputs.

Runs the 8 suites at dims 2-6, 100 samples, seed 0 through
``cli.run_suite`` and prints ``suite dim sha256`` for each report, hashing
the exact text ``basicgerbe verify --report`` writes, then one combined
digest over all 40 reports.  Two trees that print the same combined
digest write byte-identical acceptance reports.

Then it writes seeded group and flag-torus point files at n = 2, 3, 5 and
malformed variants of them, runs ``basicgerbe eval`` on each in-process
for every quantity (and, on the well-formed files, every ``--method``,
with and without the oracle), and prints one ``eval-combined`` digest
over the exit code, stdout and stderr of every case.  Two trees that
print the same eval digest answer every one of these files alike, errors
included.

    PYTHONPATH=src python3 tools/report_digest.py
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from basicgerbe import cli, weyl
from basicgerbe.cli import SUITES, SuiteConfig, run_suite
from basicgerbe.linalg import spectral_decompose, tangent_random
from basicgerbe.sampling import (
    descending_cuts,
    random_cuts,
    random_positive_context,
    sample_rng,
    well_separated_unitary,
)

DIMS = range(2, 7)
SAMPLES = 100
SEED = 0

EVAL_DIMS = (2, 3, 5)
QUANTITIES = ("curvature", "curving", "nu", "df", "section", "projector")
METHODS = ("residue", "quadrature", "fd")
FLAG_QUANTITIES = ("curving", "nu", "df")


def _complex(v) -> list:
    return [float(v.real), float(v.imag)]


def _matrix(m) -> dict:
    return {"dim": len(m), "re": m.real.tolist(), "im": m.imag.tolist()}


def group_file(n: int) -> dict:
    """A group point with every field a group quantity reads."""
    rng = sample_rng(SEED, "eval-digest-group", n)
    g, spec = well_separated_unitary(n, rng)
    ctx = random_positive_context(spec, rng)
    obj = {
        "g": _matrix(g.mat),
        "z1": _complex(ctx.z1.value),
        "z2": _complex(ctx.z2.value),
        "z3": _complex(descending_cuts(spec, rng, 3)[2].value),
        "z": _complex(ctx.z1.value),
    }
    for key in "XYZ":
        obj[key] = _matrix(tangent_random(g, rng).direction)
    return obj


def flag_file(n: int) -> dict:
    """A regular flag-torus point with a cut and three tangents."""
    rng = sample_rng(SEED, "eval-digest-flag", n)
    pt = weyl.sample_regular(n, rng)
    z = random_cuts(spectral_decompose(weyl.weyl_apply(pt)), rng, 1)[0]
    tans = [weyl.random_flag_tangent(pt, rng) for _ in range(3)]
    return {
        "lambda": [_complex(v) for v in pt.torus_values],
        "projections": [_matrix(p) for p in pt.projections],
        "z": _complex(z.value),
        "tangents": [
            {"dlambda": [_complex(v) for v in t.dlam], "dP": [_matrix(p) for p in t.dP]}
            for t in tans
        ],
    }


def _mixed(stack: list) -> list:
    """``stack`` with its item 1 cut to a 1 x 1 matrix."""
    return [stack[0], {"dim": 1, "re": [[1.0]], "im": [[0.0]]}, *stack[2:]]


def malformed(flag: dict, group: dict):
    """(label, point file, quantities) for each malformed variant."""
    for key in ("lambda", "projections", "tangents"):
        bad = copy.deepcopy(flag)
        del bad[key]
        yield f"flag-no-{key}", bad, FLAG_QUANTITIES
        for label, value in (("number", 5), ("empty", []), ("strings", ["a"])):
            bad = copy.deepcopy(flag)
            bad[key] = value
            yield f"flag-{key}-{label}", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["lambda"][0] = [0.0]
    yield "flag-lambda-short-complex", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["lambda"][0] = [10**400, 0]
    yield "flag-lambda-huge-int", bad, FLAG_QUANTITIES
    for key in ("lambda", "projections"):
        bad = copy.deepcopy(flag)
        bad[key] = bad[key][:-1]
        yield f"flag-{key}-short", bad, FLAG_QUANTITIES
    for key in ("dlambda", "dP"):
        bad = copy.deepcopy(flag)
        bad["tangents"][0][key] = bad["tangents"][0][key][:-1]
        yield f"flag-{key}-short", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    del bad["z"]
    yield "flag-no-z", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["z"] = ["a", "b"]
    yield "flag-z-strings", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["projections"] = _mixed(bad["projections"])
    yield "flag-projections-mixed-size", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["tangents"] = bad["tangents"][:2]
    yield "flag-too-few-tangents", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["tangents"][1] = 5
    yield "flag-tangent-number", bad, FLAG_QUANTITIES
    for key in ("dlambda", "dP"):
        bad = copy.deepcopy(flag)
        del bad["tangents"][0][key]
        yield f"flag-no-{key}", bad, FLAG_QUANTITIES
        for label, value in (("number", 3), ("empty", []), ("strings", ["a"])):
            bad = copy.deepcopy(flag)
            bad["tangents"][1][key] = value
            yield f"flag-{key}-{label}", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["tangents"][2]["dP"] = _mixed(bad["tangents"][2]["dP"])
    yield "flag-dP-mixed-size", bad, FLAG_QUANTITIES
    bad = copy.deepcopy(flag)
    bad["tangents"][0]["dP"][0], bad["tangents"][0]["dP"][1] = (
        bad["tangents"][0]["dP"][1], bad["tangents"][0]["dP"][0]
    )
    yield "flag-dP-swapped", bad, FLAG_QUANTITIES
    for key in ("g", "z1", "X"):
        bad = copy.deepcopy(group)
        del bad[key]
        yield f"group-no-{key}", bad, QUANTITIES
        for label, value in (("number", 5), ("strings", ["a", "b"])):
            bad = copy.deepcopy(group)
            bad[key] = value
            yield f"group-{key}-{label}", bad, QUANTITIES
    bad = copy.deepcopy(group)
    bad["g"]["re"] = [[1.0]]
    yield "group-g-short", bad, QUANTITIES
    bad = copy.deepcopy(group)
    bad["X"] = _matrix(np.eye(3))
    yield "group-X-not-skew", bad, QUANTITIES
    bad = copy.deepcopy(group)
    bad["z1"] = [float("nan"), 0.0]
    yield "group-z1-nan", bad, QUANTITIES
    for label, value in (("number", 5), ("list", []), ("string", "x")):
        yield f"top-level-{label}", value, QUANTITIES


def eval_cases():
    """(label, point file, argv tail) for every eval case."""
    for n in EVAL_DIMS:
        for kind, obj in (("group", group_file(n)), ("flag", flag_file(n))):
            for q in QUANTITIES:
                for m in METHODS:
                    for oracle in ((), ("--no-oracle",)):
                        args = ["--quantity", q, "--method", m, *oracle]
                        yield f"{kind}-{n}", obj, args
    for label, obj, quantities in malformed(flag_file(3), group_file(3)):
        for q in quantities:
            yield label, obj, ["--quantity", q]


def run_eval(path: str, obj, args: list) -> bytes:
    """Exit code, stdout and stderr of ``basicgerbe eval`` on ``obj``."""
    with open(path, "w") as fh:
        json.dump(obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--input", path, *args])
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()


def main() -> None:
    combined = hashlib.sha256()
    for suite in SUITES:
        for dim in DIMS:
            report = run_suite(SuiteConfig(suite, dim, SAMPLES, SEED))
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            digest = hashlib.sha256(text.encode()).hexdigest()
            combined.update(text.encode())
            print(f"{suite} {dim} {digest}", flush=True)
    print(f"combined {combined.hexdigest()}", flush=True)

    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "point.json")
        for label, obj, args in eval_cases():
            digest.update(f"{label} {' '.join(args)}\n".encode())
            digest.update(run_eval(path, obj, args))
            count += 1
    print(f"eval-combined {digest.hexdigest()} ({count} cases)")


if __name__ == "__main__":
    main()
