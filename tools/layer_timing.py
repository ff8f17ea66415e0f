"""Time every layer of the package at one seeded instance of U(n) per n.

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_timing.py layers
    OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_timing.py quadrature
    PYTHONPATH=src python3 tools/layer_timing.py eval [--dims 16,32] [--repeats 5]

``best_time`` is the one timer: the best of ``--repeats`` rounds, each
repeating a call for at least 0.1 s.  ``instance(n)`` draws every input from
``sampling.sample_rng(0, "kernel-timing", n)``, the quadrature tables'
stream from the start, so their node counts compare across versions.

- ``layers`` (n = 2 ... 32, best of 5): ms per call of every route in
  ``layer_routes``, and log-log slopes over the last two n and over all of
  them, also written to ``LAYERS.json`` at the repo root with the host, the
  numpy version and ``OMP_NUM_THREADS``.
- ``quadrature`` (n = 2 ... 32, best of 7): us per node, mirrors included,
  of each resolvent route's integrand on the first chunk it gets, a chunk
  being ``np.stack((outer, mirror))[:, i:i+half].ravel()``, then of its
  whole first ``quad_integrate`` call (adding the node and weight building,
  chunk slicing and weighted sums), each with its node count; then the
  wedge's integrand under ``BLOCK_ENTRIES`` = 2^11 ... 2^15 complex entries.
- ``eval`` (n = 16 ... 128, median of 5 runs, ms): a group and a flag-torus
  ``eval --quantity nu`` by stage (``read``, ``decode``, ``matrices`` through
  the tree's own readers, ``validate``, ``closed``, ``print``), then
  ``total``, the in-process ``cli.main``, and ``gc``, the collections during
  ``total`` after a ``gc.collect()``.  A stage is one call with the
  collector on, so ``decode`` and ``matrices`` include the collections
  their lists set off.  Only names that the point-file reader has had since
  ``cli`` first read the flag stacks are used, so older trees can be timed
  too.  The flag file at n = 128 is about 370 MB; timing it takes 1.7 GB.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from basicgerbe import cli, contour, fibers, forms, linalg, projectors, sampling, weyl

LAYERS_JSON = Path(__file__).resolve().parents[1] / "LAYERS.json"
MIN_ROUND_S = 0.1
BUDGETS = tuple(2**k for k in range(11, 16))
QUADRATURE = {"projector": "arc_projector quadrature",
              "wedge": "curvature_via_contour quadrature",
              "inserted": "projector_inserted_curvature",
              "curving": "curving_eval quadrature"}
STAGES = ("read", "decode", "matrices", "validate", "closed", "print", "total")


def best_time(run, rounds: int, least: float = MIN_ROUND_S) -> float:
    """Seconds per call of ``run``: best of ``rounds`` rounds, each repeating
    it for at least ``least`` seconds, and at least once."""
    best = math.inf
    for _ in range(rounds):
        reps, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < least or not reps:
            run()
            reps += 1
        best = min(best, elapsed / reps)
    return best


def instance(n: int) -> SimpleNamespace:
    """The seeded instance of U(n) that every section times."""
    rng = sampling.sample_rng(0, "kernel-timing", n)
    s = SimpleNamespace(g=linalg.random_unitary(n, rng))
    s.spec = linalg.spectral_decompose(s.g)
    s.ctx = sampling.random_positive_context(s.spec, rng)
    s.x, s.y = linalg.tangent_random(s.g, rng), linalg.tangent_random(s.g, rng)
    (s.z,) = sampling.random_cuts(s.spec, rng, 1)
    s.w = linalg.tangent_random(s.g, rng)
    s.cuts = sampling.descending_cuts(s.spec, rng, 3)
    s.a, s.b = (fibers.random_element(projectors.classify(u, v, s.spec), rng)
                for u, v in zip(s.cuts, s.cuts[1:]))
    s.pt = weyl.sample_regular(n, rng)
    s.flag_tans = [weyl.random_flag_tangent(s.pt, rng) for _ in range(3)]
    flag_spec = linalg.spectral_decompose(weyl.weyl_apply(s.pt))
    (s.flag_z,) = sampling.random_cuts(flag_spec, rng, 1)
    return s


def layer_routes(s: SimpleNamespace) -> dict:
    """One zero-argument call of each public route at the instance ``s``."""
    ctx, spec, g, x, y, w, z, pt = s.ctx, s.spec, s.g, s.x, s.y, s.w, s.z, s.pt
    P, F, W = projectors, forms, weyl
    copy = lambda: linalg.SpectralDecomposition(spec.matrix, spec.eigenvalues, spec.frame)
    calls = {
        "spectral_decompose": (linalg.spectral_decompose, g),
        "classify": (lambda: P.classify(ctx.z1, ctx.z2, copy()),),
        "arc_projector residue": (P.arc_projector, ctx),
        "projector_derivative residue": (P.projector_derivative, ctx, x),
        "curvature_via_projectors residue": (F.curvature_via_projectors, ctx, x, y),
        "curvature_via_contour residue": (F.curvature_via_contour, ctx, x, y),
        "curving_eval residue": (F.curving_eval, z, spec, x, y),
        "basic_three_form": (F.basic_three_form, g, x, y, w),
        "arc_projector quadrature": (P.arc_projector, ctx, "quadrature"),
        "curvature_via_contour quadrature": (F.curvature_via_contour, ctx, x, y, "quadrature"),
        "projector_inserted_curvature": (F.projector_inserted_curvature, ctx, x, y),
        "curving_eval quadrature": (F.curving_eval, z, spec, x, y, "quadrature"),
        "projector_derivative fd": (P.projector_derivative, ctx, x, "fd"),
        "curvature_via_projectors fd": (F.curvature_via_projectors, ctx, x, y, "fd"),
        "exterior_derivative_fd": (F.exterior_derivative_fd, z, spec, x, y, w),
        "section_value": (fibers.section_value, *s.cuts, spec),
        "gerbe_product": (fibers.gerbe_product, s.a, s.b),
        "pullback_curving_closed": (W.pullback_curving_closed, pt, s.flag_z, *s.flag_tans[:2]),
        "pullback_df_closed": (W.pullback_df_closed, pt, *s.flag_tans),
        "pullback_nu_closed": (W.pullback_nu_closed, pt, *s.flag_tans),
    }
    return {name: functools.partial(*call) for name, call in calls.items()}


def table(title: str, head, rows, first: int = 6) -> None:
    """Print ``title``, then ``head`` and each row as it comes: the first cell
    left-aligned in ``first`` characters, the rest right-aligned in 10, with
    floats to four significant figures."""
    print(title)
    for cells in itertools.chain([head], rows):
        label, *rest = (f"{c:.4g}" if isinstance(c, float) else str(c) for c in cells)
        print(f"{label:<{first}}" + "".join(f"{c:>10}" for c in rest), flush=True)


def layers(dims, repeats: int) -> None:
    """ms per call of every route at each n: print it and write LAYERS.json."""
    routes = [layer_routes(instance(n)) for n in dims]
    spans = {f"{dims[i]}-{dims[j]}": (i, j) for i, j in ((-2, -1), (0, -1))}
    rows = {}

    def row(name):
        ms = [float(f"{1e3 * best_time(r[name], repeats):.4g}") for r in routes]
        rows[name] = {"ms": ms, "slope": {  # log-log, between dims[i] and dims[j]
            k: round(math.log(ms[j] / ms[i]) / math.log(dims[j] / dims[i]), 3)
            for k, (i, j) in spans.items()}}
        return [name, *ms, *rows[name]["slope"].values()]

    table(f"ms per call, best of {repeats} rounds of >= {MIN_ROUND_S} s, "
          f"and log-log slopes", ["layer", *(f"n={n}" for n in dims), *spans],
          map(row, routes[0]), first=34)
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":")[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    host = {"cpu": cpu, "logical_cpus": os.cpu_count(), "python": platform.python_version()}
    out = {"dims": list(dims), "rounds": repeats, "min_round_s": MIN_ROUND_S, "host": host,
           "numpy": np.__version__,
           "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"), "layers": rows}
    LAYERS_JSON.write_text(json.dumps(out, indent=1) + "\n")


def first_call(call):
    """(contour, integrand, kwargs, chunks): the first quad_integrate call
    that ``call`` makes, and every chunk of nodes that call's integrand gets."""
    real, seen = contour.quad_integrate, []

    def spy(c, integrand, **kwargs):
        seen.append((c, integrand, kwargs, chunks := []))
        return real(c, lambda xs: chunks.append(xs) or integrand(xs), **kwargs)

    contour.quad_integrate = spy
    try:
        call()
    finally:
        contour.quad_integrate = real
    return seen[0]


def quadrature(dims, repeats: int) -> None:
    """us per node of each route's integrand and whole call, then the budgets."""
    def routes(n):
        every = layer_routes(instance(n))
        return {k: every[name] for k, name in QUADRATURE.items()}

    def integrand_us(call):
        _, integrand, _, chunks = first_call(call)
        xs = chunks[0]
        return best_time(lambda: integrand(xs), repeats) / len(xs) * 1e6, len(xs)

    def call_us(call):
        c, integrand, kwargs, chunks = first_call(call)
        nodes = sum(map(len, chunks))
        run = lambda: contour.quad_integrate(c, integrand, **kwargs)
        return best_time(run, repeats) / nodes * 1e6, nodes

    def budget_row(n):
        wedge = routes(n)["wedge"]
        for b in BUDGETS:
            contour.BLOCK_ENTRIES = b
            yield integrand_us(wedge)[0]

    budget = f"BLOCK_ENTRIES = 2^{contour.BLOCK_ENTRIES.bit_length() - 1}"
    head = ["n", *(h for k in QUADRATURE for h in (k, "nodes"))]
    for title, timer in ((f"integrand alone, us per node at {budget}", integrand_us),
                         (f"\nwhole quad_integrate call, us per node at {budget}",
                          call_us)):
        table(title, head, ([n, *(v for call in routes(n).values() for v in timer(call))]
                            for n in dims))
    default = contour.BLOCK_ENTRIES
    try:
        table("\ncurvature wedge, us per node, by block budget (complex entries)",
              ["n", *(f"2^{b.bit_length() - 1}" for b in BUDGETS)],
              ([n, *budget_row(n)] for n in dims))
    finally:
        contour.BLOCK_ENTRIES = default


def _pairs(values) -> str:
    return json.dumps([[v.real, v.imag] for v in values.tolist()])


def _write_stack(fh, stack) -> None:
    """Write the matrices of ``stack`` one at a time, so no whole-file text is built."""
    fh.write("[")
    for i, m in enumerate(stack):
        fh.write((", " if i else "") + json.dumps(linalg.matrix_to_json(m)))
    fh.write("]")


def write_group(path: str, s: SimpleNamespace) -> None:
    obj = {k: linalg.matrix_to_json(m) for k, m in
           zip("gXYZ", (s.g.mat, s.x.direction, s.y.direction, s.w.direction))}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_flag(path: str, s: SimpleNamespace) -> None:
    with open(path, "w") as fh:
        fh.write(f'{{"lambda": {_pairs(s.pt.torus_values)}, "projections": ')
        _write_stack(fh, s.pt.projections)
        fh.write(', "tangents": [')
        for i, t in enumerate(s.flag_tans):
            fh.write(f'{", " if i else ""}{{"dlambda": {_pairs(t.dlam)}, "dP": ')
            _write_stack(fh, t.dP)
            fh.write("}")
        fh.write("]}")


def group_stages(st: dict) -> list:
    """(stage, thunk) pairs after ``decode``, each fed by the one before."""
    def matrices():
        st["m"] = [linalg.matrix_from_json(st["obj"][k], f"$.{k}") for k in "gXYZ"]

    def validate():
        g, *xs = st["m"]
        st["g"] = g = linalg.UnitaryMatrix(g)
        st["xs"] = [linalg.TangentVector(g, x) for x in xs]

    return [("matrices", matrices), ("validate", validate),
            ("closed", lambda: st.update(v=forms.basic_three_form(st["g"], *st["xs"])))]


def flag_stages(st: dict) -> list:
    def matrices():
        tans = st["obj"]["tangents"]
        st["p"] = cli._matrices(st["obj"], "projections", "$")
        st["dp"] = [cli._matrices(t, "dP", f"$.tangents[{i}]") for i, t in enumerate(tans)]

    def validate():
        obj = st["obj"]
        lam = cli._items(obj, "lambda", "$", cli._complex)
        st["pt"] = pt = weyl.FlagTorusPoint(weyl._flag_frame(st["p"]), lam)
        st["tans"] = [weyl.FlagTangent(pt, cli._items(t, "dlambda", "$", cli._complex),
                                       weyl._flag_generator(pt.frame, dp))
                      for t, dp in zip(obj["tangents"], st["dp"])]

    return [("matrices", matrices), ("validate", validate),
            ("closed", lambda: st.update(v=weyl.pullback_nu_closed(st["pt"], *st["tans"])))]


def time_kind(path: str, stages, repeats: int) -> dict:
    """Median ms per stage, and collections in ``total``, of ``repeats`` runs
    on the point file at ``path``.  Each run's bytes, decoded object and
    arrays are released before ``eval`` reads the file again."""
    runs = {s: [] for s in (*STAGES, "gc")}
    argv = ["eval", "--input", path, "--quantity", "nu", "--no-oracle"]
    record = {"quantity": "nu", "residual_vs_oracle": None, "method": "closed-form"}
    starts = []
    count = lambda phase, info: phase == "start" and starts.append(info)

    def total():
        with contextlib.redirect_stdout(io.StringIO()):
            if (code := cli.main(argv)) != 0:
                raise SystemExit(f"eval exited {code} on {path}")

    for _ in range(repeats):
        st = {}
        steps = [("read", lambda: st.update(data=Path(path).read_bytes())),
                 ("decode", lambda: st.update(obj=cli._decode(st.pop("data")))),
                 *stages(st),
                 ("print", lambda: json.dumps({**record, "value_re": st["v"].real,
                                               "value_im": st["v"].imag},
                                              indent=2, sort_keys=True))]
        for name, thunk in steps:
            runs[name].append(1e3 * best_time(thunk, 1, 0.0))
        del st, steps
        gc.collect()
        starts.clear()
        gc.callbacks.append(count)
        try:
            runs["total"].append(1e3 * best_time(total, 1, 0.0))
        finally:
            gc.callbacks.remove(count)
        runs["gc"].append(len(starts))
    return {s: statistics.median(v) for s, v in runs.items()}


def eval_stages(dims, repeats: int) -> None:
    """Median ms per stage of a group and a flag-torus eval at each n."""
    def rows(tmp):
        for n in dims:
            s = instance(n)
            for kind, write, stages in (("group", write_group, group_stages),
                                        ("flag", write_flag, flag_stages)):
                path = os.path.join(tmp, f"{kind}-{n}.json")
                write(path, s)
                row = time_kind(path, stages, repeats)
                os.remove(path)
                yield [kind, n, *(float(row[k]) for k in STAGES), row["gc"]]

    with tempfile.TemporaryDirectory() as tmp:
        table(f"ms per stage, median of {repeats} runs; "
              f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')}",
              ["kind", "n", *STAGES, "gc"], rows(tmp))


SECTIONS = {"layers": (layers, (2, 4, 8, 16, 32), 5),
            "quadrature": (quadrature, (2, 4, 8, 16, 32), 7),
            "eval": (eval_stages, (16, 32, 64, 128), 5)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("section", choices=SECTIONS)
    parser.add_argument("--dims", help="comma-separated sizes n "
                        "(default 2,4,8,16,32; 16,32,64,128 for eval)")
    parser.add_argument("--repeats", type=int, help="rounds per time, the best "
                        "kept (default 5; 7 for quadrature), or runs per eval median (5)")
    args = parser.parse_args(argv)
    run, dims, repeats = SECTIONS[args.section]
    run(tuple(map(int, args.dims.split(","))) if args.dims else dims,
        args.repeats or repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
