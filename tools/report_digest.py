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

    PYTHONPATH=src python3 tools/report_digest.py [--dump DIR] [--compare DIR]

``--dump DIR`` also writes the report texts and every eval case's exit
code, stdout and stderr to DIR.  ``--compare DIR`` holds this tree against
such a dump, made by another tree, for a change that may move numbers at
rounding level only:

- every report keeps its config, ``passed`` and each check's name,
  identity, tolerance, sample count and failure count, and each
  ``max_abs_error`` and ``mean_abs_error`` is within ``REPORT_RTOL`` times
  the check's tolerance of the dump's;
- every eval case keeps its exit code and stderr, and its record keeps its
  keys, ``method`` and strings, with each number within
  ``EVAL_RTOL * max(1, |x|)`` of the dump's.

A case whose label is passed to ``--changed`` may differ; it is listed.
The comparison prints the largest move of each check and of the eval
records, and exits 1 when a rule fails.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from basicgerbe import cli, weyl
from basicgerbe.cli import SUITES, SuiteConfig, run_suite
from basicgerbe.linalg import matrix_to_json, spectral_decompose, tangent_random
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

REPORT_RTOL = 1e-3
EVAL_RTOL = 1e-10


def _complex(v) -> list:
    return [float(v.real), float(v.imag)]


def group_file(n: int) -> dict:
    """A group point with every field a group quantity reads."""
    rng = sample_rng(SEED, "eval-digest-group", n)
    g, spec = well_separated_unitary(n, rng)
    ctx = random_positive_context(spec, rng)
    obj = {
        "g": matrix_to_json(g.mat),
        "z1": _complex(ctx.z1.value),
        "z2": _complex(ctx.z2.value),
        "z3": _complex(descending_cuts(spec, rng, 3)[2].value),
        "z": _complex(ctx.z1.value),
    }
    for key in "XYZ":
        obj[key] = matrix_to_json(tangent_random(g, rng).direction)
    return obj


def flag_file(n: int) -> dict:
    """A regular flag-torus point with a cut and three tangents."""
    rng = sample_rng(SEED, "eval-digest-flag", n)
    pt = weyl.sample_regular(n, rng)
    z = random_cuts(spectral_decompose(weyl.weyl_apply(pt)), rng, 1)[0]
    tans = [weyl.random_flag_tangent(pt, rng) for _ in range(3)]
    return {
        **cli.flag_point_to_json(pt),
        "z": _complex(z.value),
        "tangents": [cli.flag_tangent_to_json(t) for t in tans],
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
    bad["X"] = matrix_to_json(np.eye(3))
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


def run_eval(path: str, obj, args: list) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``basicgerbe eval`` on ``obj``."""
    with open(path, "w") as fh:
        json.dump(obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--input", path, *args])
    return code, out.getvalue(), err.getvalue()


def reports() -> dict:
    """``{"suite dim": report text}`` for the 40 acceptance reports, in order."""
    return {
        f"{suite} {dim}": json.dumps(
            run_suite(SuiteConfig(suite, dim, SAMPLES, SEED)), indent=2, sort_keys=True
        )
        + "\n"
        for suite in SUITES
        for dim in DIMS
    }


def evals() -> list:
    """``[label, args, exit code, stdout, stderr]`` for every eval case."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "point.json")
        return [
            [label, " ".join(args), *run_eval(path, obj, args)]
            for label, obj, args in eval_cases()
        ]


def print_digests(texts: dict, cases: list) -> None:
    combined = hashlib.sha256()
    for key, text in texts.items():
        combined.update(text.encode())
        print(f"{key} {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"combined {combined.hexdigest()}")
    digest = hashlib.sha256()
    for label, args, code, out, err in cases:
        digest.update(f"{label} {args}\n".encode())
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    print(f"eval-combined {digest.hexdigest()} ({len(cases)} cases)")


def dump(directory: str, texts: dict, cases: list) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "reports.json"), "w") as fh:
        json.dump(texts, fh, indent=1)
    with open(os.path.join(directory, "eval.json"), "w") as fh:
        json.dump(cases, fh, indent=1)


def _fixed(report: dict) -> dict:
    """``report`` without its error figures: the part that may not move."""
    checks = [
        {k: v for k, v in c.items() if not k.endswith("_abs_error")}
        for c in report["checks"]
    ]
    return {**report, "checks": checks}


def _report_faults(key: str, new: dict, old: dict, moves: dict) -> list:
    """Rule breaks of report ``new`` against ``old``; records each check's move."""
    if _fixed(new) != _fixed(old):
        return [f"{key}: a check name, identity, tolerance, count or verdict differs"]
    faults = []
    for a, b in zip(new["checks"], old["checks"]):
        tol = a["tolerance"]
        for field in ("max_abs_error", "mean_abs_error"):
            x, y = a[field], b[field]
            move = 0.0 if x == y else abs(x - y) if None not in (x, y) else math.inf
            name = f"{new['suite']} {a['name']}"
            moves[name] = max(moves.get(name, 0.0), move / tol)
            if not move <= REPORT_RTOL * tol:
                faults.append(f"{key} {a['name']} {field}: {y!r} -> {x!r}")
    return faults


def _record_move(new, old) -> float:
    """Largest relative move between two eval records of the same shape:
    inf when a key, a string or the shape differs."""
    if isinstance(new, bool) or isinstance(old, bool) or None in (new, old):
        return 0.0 if new == old else math.inf
    if isinstance(new, (int, float)) and isinstance(old, (int, float)):
        if new == old or math.isnan(new) and math.isnan(old):
            return 0.0
        move = abs(new - old) / max(1.0, abs(old))
        return math.inf if math.isnan(move) else move
    if isinstance(new, dict) and isinstance(old, dict) and new.keys() == old.keys():
        return max((_record_move(new[k], old[k]) for k in new), default=0.0)
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return max((_record_move(a, b) for a, b in zip(new, old)), default=0.0)
    return 0.0 if new == old else math.inf


def compare(directory: str, texts: dict, cases: list, changed: set) -> bool:
    """Print every rule break against the dump in ``directory``, then the
    largest move per check; True when no rule breaks."""
    with open(os.path.join(directory, "reports.json")) as fh:
        old_texts = json.load(fh)
    with open(os.path.join(directory, "eval.json")) as fh:
        old_cases = json.load(fh)
    faults, moves, rows = [], {}, []
    if texts.keys() != old_texts.keys():
        faults.append("the set of reports differs")
    for key in texts.keys() & old_texts.keys():
        new, old = json.loads(texts[key]), json.loads(old_texts[key])
        faults += _report_faults(key, new, old, moves)
        rows += [a == b for a, b in zip(new["checks"], old["checks"])]
    if [c[:2] for c in cases] != [c[:2] for c in old_cases]:
        faults.append("the list of eval cases differs")
    worst, listed, same = 0.0, [], 0
    for (label, args, code, out, err), old in zip(cases, old_cases):
        if label in changed:
            if [code, out, err] != old[2:]:
                listed.append(f"  {label} {args}: {old[4].strip()} -> {err.strip()}")
            continue
        move = 0.0
        if code != old[2] or err != old[4]:
            move = math.inf
        elif out != old[3]:
            move = _record_move(json.loads(out), json.loads(old[3]))
        worst = max(worst, move)
        same += [code, out, err] == old[2:]
        if not move <= EVAL_RTOL:
            faults.append(f"eval {label} {args}: differs (relative move {move:.3g})")
    print(f"report rows identical: {sum(rows)} of {len(rows)}")
    print("largest move per check, in units of its tolerance:")
    for name, move in sorted(moves.items()):
        print(f"  {name} {move:.3g}")
    print(f"eval cases identical: {same} of {len(cases)}")
    print(f"eval records: largest relative move {worst:.3g}")
    if listed:
        print(f"changed cases ({len(listed)}):", *listed, sep="\n")
    for fault in faults:
        print(f"FAIL {fault}")
    print("compare: " + ("fail" if faults else "pass"))
    return not faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="DIR", help="write the outputs to DIR")
    parser.add_argument("--compare", metavar="DIR", help="hold them against DIR")
    parser.add_argument(
        "--changed",
        metavar="LABEL",
        action="append",
        default=[],
        help="an eval case label allowed to differ under --compare",
    )
    args = parser.parse_args(argv)
    texts, cases = reports(), evals()
    print_digests(texts, cases)
    if args.dump:
        dump(args.dump, texts, cases)
    if args.compare:
        return 0 if compare(args.compare, texts, cases, set(args.changed)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
