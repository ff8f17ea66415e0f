"""Run alternating parent/change pairs of the benchmark and write a BENCH_*.json.

Each side runs ``perfbench/run.py`` from its own ``git archive`` of a
revision, extracted to a fresh directory, so each measures its committed
files only.  Pair i runs seed ``seeds[i]`` on both sides with ``--trace 0``,
the parent first on even i and the change first on odd i.  For every
end-to-end metric of ``BENCHMARK.json`` the summary gives each side's
quartiles over the pairs, the ratio of the medians (change over parent),
the pairs the change wins and ties, the metric's bound, whether the change's
median stays within that bound of the parent's, and whether it is better
than the parent's median by more than the parent's interquartile range.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --workload acceptance-sweep --workload large-n-eval \\
        --seeds 601-610 --seconds 45 --label NAME --what TEXT \\
        [--claim TEXT] [--host TEXT] --out BENCH_NAME.json

The file is rewritten after every run, so an interrupted series keeps the
pairs it finished.  The script only reads what ``perfbench/run.py`` prints
and ``BENCHMARK.json``; it changes nothing in either tree.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def archive(rev: str, dest: Path) -> None:
    """Extract the tracked files of ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def parse_seeds(text: str) -> list[int]:
    """``601-610`` or ``601,603,605``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``tree``: (its env line, its final JSON line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Per-metric comparison over the complete pairs of ``workload``."""
    sides: dict = {}
    for r in runs:
        if r["workload"] == workload:
            sides.setdefault(r["seed"], {})[r["side"]] = r["result"]
    pairs = [(p["parent"], p["change"]) for p in sides.values() if len(p) == 2]
    out: dict = {
        "seeds": [s for s, p in sides.items() if len(p) == 2],
        "all_correct": all(res["correct"] for pair in pairs for res in pair),
        "failed": sum(res["failed"] for pair in pairs for res in pair),
        "metrics": {},
    }
    if not pairs:
        return out
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        # gain > 0: the change is better; a bound is a fraction of the parent's median
        gains = [sign * (p - c) for p, c in zip(parent, change)]
        median_gain = sign * (pq[1] - cq[1])
        out["metrics"][name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "ratio_of_medians": cq[1] / pq[1] if pq[1] else None,
            "change_wins": sum(g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "pairs": len(pairs),
            "bound": bound,
            "within_bound": median_gain >= -bound * abs(pq[1]),
            "gain_beyond_parent_iqr": median_gain > pq[2] - pq[0],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="601-610 or 601,603")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--claim")
    parser.add_argument("--host", default=f"{os.cpu_count()}-core host")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    doc = {
        "label": args.label,
        "what": args.what,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "change_src_tree": git("rev-parse", f"{commits['change']}:src").decode().strip(),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": "each side run from its own git archive of its commit; pair i runs "
                    "seed i of the list on both sides, the parent first on even i; "
                    "quartiles are statistics.quantiles(n=4, method='inclusive') over "
                    "the pairs; within_bound: the change's median is at most the bound "
                    "times the parent's median worse; gain_beyond_parent_iqr: it is "
                    "better by more than the parent's q3 - q1",
        **({"claim": args.claim} if args.claim else {}),
        "env": None,
        "host": args.host,
        "summary": {},
        "runs": [],
    }
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: work / side for side in commits}
        for side, tree in trees.items():
            archive(commits[side], tree)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workload:
                for side in order:
                    env, result = run_side(trees[side], workload, seed, args.seconds)
                    doc["env"] = doc["env"] or env
                    doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                        "pair": i, "result": result})
                    print(f"pair {i} seed {seed} {workload} {side}: "
                          + ", ".join(f"{k} {v['value']:.4g}"
                                      for k, v in result["metrics"].items()), flush=True)
                doc["summary"] = {w: summarise(doc["runs"], w, bench["end_to_end"])
                                  for w in args.workload}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
