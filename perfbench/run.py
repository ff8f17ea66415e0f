"""Benchmark of basicgerbe: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is acceptance-sweep, large-n-eval, tight-gap-quadrature, or all (every
workload, one after the other, in this process).  The run imports the
package from ``src/``, pins BLAS/OpenMP to one thread, cycles over the
workload's fixed passes for S seconds, checks every output, prints one line
per metric and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.

Every time it reports is scaled to a reference speed: each call into the
package is timed against a fixed reference kernel run beside it
(``make_reference``), which cancels the shared host's changes of speed.

--trace 0 reports the end-to-end metrics (README.md lists them).  --trace 1
runs S/2 seconds untraced and S/2 seconds with every public function of the
package wrapped (tracing.py), reports the per-layer metrics and writes the
spans to .bench_work/spans-<workload>-seed<N>.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# main() sets these before anything imports numpy, hence the late imports
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# the reference kernel's time at the reference speed: every reported time
# is scaled to a host on which the kernel takes this long
REF_S = 0.005
REF_LOOP = 12000
MODULES = ("cli", "linalg", "sampling", "contour", "projectors", "fibers", "forms", "weyl")
QUANTITIES = ("projector", "curvature", "curving", "section", "nu", "df")
SIZES = ("n16", "n32")

# per-layer metrics summed from spans: name -> (span labels, field).  A
# label ending in "." is a module prefix.  Values are per pass.
SPAN_METRICS = {f"{m}.self_s": ((f"{m}.",), "self") for m in MODULES}
SPAN_METRICS.update({
    "contour.quad_integrate.s": (("contour.quad_integrate",), "incl"),
    "contour.quad_integrate.calls": (("contour.quad_integrate",), "calls"),
    "contour.residue_eval.calls": (("contour.residue_eval",), "calls"),
    "contour.residue_eval.self_s": (("contour.residue_eval",), "self"),
    "linalg.spectral_decompose.calls": (("linalg.spectral_decompose",), "calls"),
    "linalg.spectral_decompose.self_s": (("linalg.spectral_decompose",), "self"),
    "linalg.json.self_s": (("linalg.matrix_from_json", "linalg.matrix_to_json"), "self"),
    "cli.run_suite.self_s": (("cli.run_suite",), "self"),
})
for _label in (
    "forms.curvature_via_contour.residue", "forms.curvature_via_contour.quadrature",
    "forms.curving_eval.residue", "forms.curving_eval.quadrature",
    "forms.projector_inserted_curvature", "forms.exterior_derivative_fd",
    "weyl.preimage_count", "weyl.pullback_curving_closed", "weyl.pullback_df_closed",
    "weyl.pullback_nu_closed",
    "projectors.arc_projector.residue", "projectors.arc_projector.quadrature",
    "projectors.projector_derivative.residue", "projectors.projector_derivative.fd",
    "projectors.classify",
):
    SPAN_METRICS[f"{_label}.self_s"] = ((_label,), "self")
# span metrics also reported per input size (cli.eval.* p50s always are)
PER_SIZE = [f"{m}.self_s" for m in MODULES if m != "sampling"] + [
    "contour.residue_eval.calls", "contour.residue_eval.self_s",
    "linalg.spectral_decompose.calls", "linalg.spectral_decompose.self_s",
    "linalg.json.self_s",
    "forms.curvature_via_contour.residue.self_s", "forms.curving_eval.residue.self_s",
    "weyl.pullback_curving_closed.self_s", "weyl.pullback_df_closed.self_s",
    "weyl.pullback_nu_closed.self_s",
    "projectors.arc_projector.residue.self_s", "projectors.classify.self_s",
]


@dataclass
class Pass:
    ops: list
    latencies: list  # seconds, one per op
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (0 for no values).

    A beta-weighted mean of all order statistics: the pass mixes op kinds
    whose latencies differ by orders of magnitude, and a single order
    statistic jumps whenever the percentile sits at the edge of a kind.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        return 0.0
    x = np.sort(values)
    n, p = len(x), q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def environment(cpus) -> dict:
    import numpy
    import scipy

    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(cpus),
        "cpus": cpus,
        **threads,
        "blas_threads_exceed_cores": any(int(t) > len(cpus) for t in threads.values()),
    }


def make_reference():
    """A fixed kernel that times the host, not the package.

    The shared host slows by up to twice, in phases from a fraction of a
    second to minutes, with no steal time counted.  Each package call is
    timed against runs of this kernel right before and after it, so the
    slowdown common to both cancels.  The kernel mixes what the package
    spends its time on: a Python loop of complex arithmetic and small
    numpy eigen-decompositions, products and vectorised sums.  It
    imports nothing of the package, so a change to the package cannot
    move it.  Returns a function that runs the kernel once and returns
    its seconds.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = []
    for n in (3, 5, 8, 16):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(b + b.conj().T)
    nodes = np.linspace(0.0, 1.0, 512)

    def run() -> float:
        start = perf_counter()
        acc = 0j
        for i in range(REF_LOOP):
            acc = acc * 0.999 + complex(i, -i) / (i + 1.5)
        for _ in range(4):
            for h in mats:
                w, v = np.linalg.eigh(h)
                acc += np.trace(v @ np.diag(np.exp(1j * w)) @ v.conj().T)
                acc += np.sum(np.exp(1j * nodes) / (1.1 - np.cos(nodes)))
        return perf_counter() - start

    return run


def measure_setup(seed: int, reference) -> tuple[list, list]:
    """SETUP_REPEATS set-up probes, one at a time: (scaled, raw) seconds.

    A probe's time is launch to exit; its scaled time divides that by the
    median of three reference runs before and three after it.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [reference() for _ in range(3)]
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(seed)],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        t = perf_counter() - start
        ref = statistics.median(before + [reference() for _ in range(3)])
        raw.append(t)
        scaled.append(t / ref * REF_S)
    return scaled, raw


def measure(bg, workload, seed: int, seconds: float, cpus, reference, tracer=None):
    """Closed loop, one client: cycles over the workload's passes until
    ``seconds`` have gone.

    The workload's ``passes`` passes are made up front; a cycle runs every
    op of every pass once, pinned to the next of ``cpus``.  A reference
    run sits between every two ops.  An op's latency is the median, over
    its runs, of its time over the mean of the reference runs on either
    side, times REF_S.  Only the op calls are timed.  The outputs of the
    first cycle are checked after the timed loop.  Returns (passes,
    cycles, reference times, the unscaled mean pass time: each op's median
    time, summed over a pass).
    """
    made = [workload.make_pass(seed, k) for k in range(workload.passes)]
    ratios = [[[] for _ in ops] for ops, _ in made]
    times = [[[] for _ in ops] for ops, _ in made]
    outputs: list = [None] * len(made)
    refs: list = []
    cycles = 0
    deadline = perf_counter() + seconds
    with tracer.installed(bg) if tracer else contextlib.nullcontext():
        while not cycles or perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[cycles % len(cpus)]})
            before = reference()
            for k, (ops, _) in enumerate(made):
                results = []
                for i, op in enumerate(ops):
                    if tracer:
                        tracer.tag = op.tag
                    start = perf_counter()
                    results.append(op.run())
                    t = perf_counter() - start
                    after = reference()
                    times[k][i].append(t)
                    ratios[k][i].append(2.0 * t / (before + after))
                    refs.append(after)
                    before = after
                if outputs[k] is None:
                    outputs[k] = results
            cycles += 1
    passes = [
        Pass(ops, [REF_S * statistics.median(r) for r in rs], check(ops, out))
        for (ops, check), rs, out in zip(made, ratios, outputs)
    ]
    raw_wall = statistics.fmean(sum(map(statistics.median, ts)) for ts in times)
    return passes, cycles, refs, raw_wall


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` samples
    beyond it (50 if there are too few samples for that)."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def latency_summary(passes) -> dict:
    """Op latencies in ms by kind, by kind and size, and overall."""
    out: dict = {"": []}
    for p in passes:
        for op, t in zip(p.ops, p.latencies):
            ms = 1000.0 * t
            out[""].append(ms)
            out.setdefault(op.kind, []).append(ms)
            out.setdefault(f"{op.kind}.{op.tag}", []).append(ms)
    return out


def end_to_end(passes, cycles, refs, raw_wall, setup, rss_mb) -> tuple[dict, list]:
    setup_times, setup_raw = setup
    lat = latency_summary(passes)[""]
    outcomes = [o for p in passes for o in p.outcomes]
    ok = sum(not o.failed for o in outcomes)
    tail_pct = tail_percentile(len(lat))
    tail = percentile(lat, tail_pct)
    beyond = sum(v > tail for v in lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "ok_frac": (ok / len(outcomes), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_tail_ms": (tail, "ms"),
    }
    notes = [
        f"passes {len(passes)}, cycles {cycles}, ops {len(lat)}, op_tail_ms is p{tail_pct} "
        f"with {beyond} samples beyond it",
        f"setup runs (s, scaled): {', '.join(f'{t:.3f}' for t in setup_times)}",
        f"setup runs (s, unscaled): {', '.join(f'{t:.3f}' for t in setup_raw)}",
        f"unscaled: wall_s {raw_wall:.4f} s; reference run median "
        f"{1000 * statistics.median(refs):.3f} ms (REF_S {1000 * REF_S:g} ms), "
        f"{len(refs)} runs",
    ]
    return metrics, notes


def per_layer(tracer, untraced, traced, cycles, refs) -> tuple[dict, list]:
    runs = len(traced) * cycles
    # span times are scaled like op latencies, by the traced half's median
    # reference run
    scale = {"calls": 1.0, "incl": REF_S / statistics.median(refs)}
    scale["self"] = scale["incl"]
    totals = tracer.totals()
    field = {"calls": 0, "incl": 1, "self": 2}

    def span_sum(labels, fld, tag=None) -> float:
        """Per pass: summed over one run of each op of the pass."""
        total = 0.0
        for (label, t), row in totals.items():
            if tag is not None and t != tag:
                continue
            if any(label.startswith(x) if x.endswith(".") else label == x for x in labels):
                total += row[field[fld]]
        return total * scale[fld] / runs

    lat = latency_summary(untraced)
    quad = tracer.quad
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    traced_wall = statistics.fmean(p.wall for p in traced)
    metrics = {
        "wall_s.untraced": (untraced_wall, "s"),
        "wall_s.traced": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
        "contour.quad.passes_per_call": (
            statistics.mean(q[2] for q in quad) if quad else 0.0, "count"),
        "contour.quad.nodes_per_call": (
            statistics.mean(q[1] for q in quad) if quad else 0.0, "count"),
        "contour.quad.at_max_nodes_frac": (
            sum(q[3] for q in quad) / len(quad) if quad else 0.0, "frac"),
    }
    for name, (labels, fld) in SPAN_METRICS.items():
        unit = "1/pass" if fld == "calls" else "s/pass"
        metrics[name] = (span_sum(labels, fld), unit)
        if name in PER_SIZE:
            for size in SIZES:
                metrics[f"{name}.{size}"] = (span_sum(labels, fld, size), unit)
    for q in QUANTITIES:
        name = f"cli.eval.{q}.p50_ms"
        metrics[name] = (percentile(lat.get(q, []), 50), "ms")
        for size in SIZES:
            metrics[f"{name}.{size}"] = (percentile(lat.get(f"{q}.{size}", []), 50), "ms")
    from workloads import SWEEP_CHECKS

    for suite in SWEEP_CHECKS:
        per_pass = [sum(t for op, t in zip(p.ops, p.latencies) if op.kind == suite)
                    for p in untraced]
        metrics[f"verify.{suite}_s"] = (statistics.median(per_pass), "s")
    notes = [f"passes {len(traced)}, traced cycles {cycles}, spans {len(tracer.spans)}"]
    return metrics, notes


def run_workload(bg, workload_cls, args, setup, cpus, reference) -> dict:
    from tracing import Tracer

    workdir = WORK / f"{workload_cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(bg, workdir)
        if args.trace:
            half = args.seconds / 2
            untraced, *_ = measure(bg, workload, args.seed, half, cpus, reference)
            tracer = Tracer()
            traced, cycles, refs, _ = measure(bg, workload, args.seed, half, cpus,
                                              reference, tracer)
            tracer.write_spans(WORK / f"spans-{workload.name}-seed{args.seed}.csv")
            metrics, notes = per_layer(tracer, untraced, traced, cycles, refs)
            passes = untraced + traced
        else:
            passes, cycles, refs, raw_wall = measure(bg, workload, args.seed, args.seconds,
                                                     cpus, reference)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, notes = end_to_end(passes, cycles, refs, raw_wall, setup, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.failed]
    return {
        "correct": all(o.known for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
        "notes": notes + [
            f"failures: {len(failures)} ({sum(o.known for o in failures)} quadrature "
            "stopped at the node limit)"
        ] + [f"  {o.reason}" for o in failures if not o.known][:20],
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # set-up and warm-up on the first CPU; measure() moves between them
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    from workloads import WORKLOADS, warm_up

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "basicgerbe" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/basicgerbe", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import basicgerbe as bg
    import basicgerbe.cli  # noqa: F401

    env = environment(cpus)
    print("env " + json.dumps(env), flush=True)
    reference = make_reference()
    for _ in range(20):
        reference()
    warm_up(bg, args.seed)
    setup = None if args.trace else measure_setup(args.seed, reference)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = results[name] = run_workload(bg, WORKLOADS[name], args, setup, cpus, reference)
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for metric, (val, unit) in res["metrics"].items():
            print(f"  {metric} = {val:.6g} {unit}")
        for note in res["notes"]:
            print(f"  {note}")

    prefix = len(names) > 1
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": val, "unit": unit}
            for name, r in results.items()
            for metric, (val, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
