"""Time each stage of a group and a flag-torus ``eval --quantity nu``.

For each n it writes a seeded point file of each kind to a temporary
directory and times, in this process, the stages ``eval`` goes through:

- ``read``: the file's bytes;
- ``decode``: ``cli._decode`` of them;
- ``matrices``: every matrix of the file through the tree's own readers,
  ``matrix_from_json`` for g, X, Y and Z, ``cli._matrices`` for the
  projection stack and each tangent's dP stack;
- ``validate``: the group point's ``UnitaryMatrix`` and ``TangentVector``
  checks, or the flag point's [re, im] lists, ``weyl._flag_frame``,
  ``weyl._flag_generator``, ``FlagTorusPoint`` and ``FlagTangent``;
- ``closed``: the closed form, ``forms.basic_three_form`` or
  ``weyl.pullback_nu_closed``;
- ``print``: the record as ``eval`` prints it;
- ``total``: ``cli.main(["eval", ..., "--no-oracle"])`` with its output
  discarded, which should be close to the sum of the stages;
- ``gc``: the cycle collections of any generation during ``total``,
  counted with ``gc.callbacks`` after a ``gc.collect()``.

Each cell is the median over ``--repeats`` runs, in ms (``gc`` in counts).
The stages run with the collector on, so ``decode`` and ``matrices`` include
the collections that the decoded lists set off, whatever ``total`` does.  The script uses
only names that the point-file reader has had since the flag stacks were
first read in ``cli``, so the same command times an older tree too:

    PYTHONPATH=src python3 tools/eval_stage_timing.py [--dims 16,32,64,128]
        [--repeats 5]

A flag file at n = 128 holds 4 x 128 matrices of 128 x 128 (about 370 MB
of JSON), and timing it peaks at about 1.7 GB of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import tempfile
import time

from basicgerbe import cli, forms, weyl
from basicgerbe.linalg import (
    TangentVector,
    UnitaryMatrix,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    tangent_random,
)
from basicgerbe.sampling import sample_rng

STAGES = ("read", "decode", "matrices", "validate", "closed", "print", "total")
COLUMNS = (*STAGES, "gc")


def _pairs(values) -> str:
    return json.dumps([[v.real, v.imag] for v in values.tolist()])


def _write_stack(fh, stack) -> None:
    """Write the matrices of ``stack`` one at a time, so no whole-file text is built."""
    fh.write("[")
    for i, m in enumerate(stack):
        fh.write((", " if i else "") + json.dumps(matrix_to_json(m)))
    fh.write("]")


def write_group(path: str, n: int) -> None:
    rng = sample_rng(0, "eval-stage-group", n)
    g = random_unitary(n, rng)
    obj = {"g": matrix_to_json(g.mat)}
    for key in "XYZ":
        obj[key] = matrix_to_json(tangent_random(g, rng).direction)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_flag(path: str, n: int) -> None:
    rng = sample_rng(0, "eval-stage-flag", n)
    pt = weyl.sample_regular(n, rng)
    tans = [weyl.random_flag_tangent(pt, rng) for _ in range(3)]
    with open(path, "w") as fh:
        fh.write(f'{{"lambda": {_pairs(pt.torus_values)}, "projections": ')
        _write_stack(fh, pt.projections)
        fh.write(', "tangents": [')
        for i, t in enumerate(tans):
            fh.write(f'{", " if i else ""}{{"dlambda": {_pairs(t.dlam)}, "dP": ')
            _write_stack(fh, t.dP)
            fh.write("}")
        fh.write("]}")


def _record(value: complex) -> str:
    record = {"quantity": "nu", "residual_vs_oracle": None, "method": "closed-form",
              "value_re": value.real, "value_im": value.imag}
    return json.dumps(record, indent=2, sort_keys=True)


def group_stages(obj) -> list:
    """(stage, thunk) pairs, each fed by the result of the one before."""
    keys = ("g", "X", "Y", "Z")
    state = {}

    def matrices():
        state["m"] = [matrix_from_json(obj[k], f"$.{k}") for k in keys]

    def validate():
        g, *xs = state["m"]
        state["g"] = g = UnitaryMatrix(g)
        state["xs"] = [TangentVector(g, x) for x in xs]

    def closed():
        state["v"] = forms.basic_three_form(state["g"], *state["xs"])

    return [("matrices", matrices), ("validate", validate), ("closed", closed),
            ("print", lambda: _record(state["v"]))]


def flag_stages(obj) -> list:
    state = {}
    tans = obj["tangents"]

    def matrices():
        state["p"] = cli._matrices(obj, "projections", "$")
        state["dp"] = [cli._matrices(t, "dP", f"$.tangents[{i}]")
                       for i, t in enumerate(tans)]

    def validate():
        lam = cli._items(obj, "lambda", "$", cli._complex)
        pt = weyl.FlagTorusPoint(weyl._flag_frame(state["p"]), lam)
        state["pt"], state["tans"] = pt, [
            weyl.FlagTangent(pt, cli._items(t, "dlambda", "$", cli._complex),
                             weyl._flag_generator(pt.frame, dp))
            for t, dp in zip(tans, state["dp"])
        ]

    def closed():
        state["v"] = weyl.pullback_nu_closed(state["pt"], *state["tans"])

    return [("matrices", matrices), ("validate", validate), ("closed", closed),
            ("print", lambda: _record(state["v"]))]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _ms(thunk) -> tuple[float, object]:
    start = time.perf_counter()
    out = thunk()
    return 1e3 * (time.perf_counter() - start), out


def _one_run(path: str, stages) -> dict:
    """ms per stage of one pass; the file's bytes, its decoded object and the
    stages' arrays are released on return, before ``eval`` reads it again."""
    out = {}
    out["read"], data = _ms(lambda: _read(path))
    out["decode"], obj = _ms(lambda: cli._decode(data))
    del data
    for name, thunk in stages(obj):
        out[name] = _ms(thunk)[0]
    return out


def time_kind(path: str, stages, repeats: int) -> dict:
    """Median ms per stage, and collections in ``total``, of ``repeats`` runs
    on the point file at ``path``."""
    runs = {s: [] for s in COLUMNS}
    argv = ["eval", "--input", path, "--quantity", "nu", "--no-oracle"]
    starts = []
    count = lambda phase, info: phase == "start" and starts.append(info)
    for _ in range(repeats):
        for name, ms in _one_run(path, stages).items():
            runs[name].append(ms)
        gc.collect()
        starts.clear()
        gc.callbacks.append(count)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                ms, code = _ms(lambda: cli.main(argv))
        finally:
            gc.callbacks.remove(count)
        if code != 0:
            raise SystemExit(f"eval exited {code} on {path}")
        runs["total"].append(ms)
        runs["gc"].append(len(starts))
    return {s: statistics.median(v) for s, v in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dims", default="16,32,64,128",
                        help="comma-separated sizes n (default 16,32,64,128)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"ms per stage, median of {args.repeats} runs; "
          f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')}")
    print(f"{'kind':<6}{'n':>5}" + "".join(f"{s:>10}" for s in COLUMNS))
    kinds = (("group", write_group, group_stages), ("flag", write_flag, flag_stages))
    with tempfile.TemporaryDirectory() as tmp:
        for n in (int(d) for d in args.dims.split(",")):
            for kind, write, stages in kinds:
                path = os.path.join(tmp, f"{kind}-{n}.json")
                write(path, n)
                row = time_kind(path, stages, args.repeats)
                os.remove(path)
                cells = [f"{row[s]:>10.2f}" for s in STAGES] + [f"{row['gc']:>10g}"]
                print(f"{kind:<6}{n:>5}" + "".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
