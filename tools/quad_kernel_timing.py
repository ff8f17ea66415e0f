"""Time contour quadrature per node: each resolvent integrand, and each
route's whole ``quad_integrate`` call.

Every quadrature route hands ``contour.quad_integrate`` one vectorized
integrand built by the kernel ``contour._resolvent_integral``.  With
half = max_nodes // 2, a chunk of nodes is
``np.stack((outer, mirror))[:, i:i+half].ravel()``: outer nodes xi, then
their mirrors 1 / conj(xi); the kernel inverts xi - g at the outer nodes,
in blocks of at most max(1, BLOCK_ENTRIES // 2n^2), takes each block's
mirror resolvents as (-xi R g)^H, and applies the route's phi to the block
and its mirrors.  For each route (the arc projector, the curvature wedge,
the projector-inserted wedge and the curving) at n = 2, 4, 8, 16, 32, this
catches the route's first ``quad_integrate`` call, its integrand and the
first chunk of nodes it is given.  It times the integrand alone on that
chunk, then the whole call, whose node and weight building, chunk slicing
and weighted sums lie outside the integrand: best of seven rounds, each
repeating it for at least 0.1 s.  It prints microseconds per node, mirrors
included, each followed by its node count: the first chunk's for the
integrand, and the call's over all its passes for the whole call.  Then it
repeats the curvature wedge's integrand for block budgets BLOCK_ENTRIES =
2^11 ... 2^15 complex entries, so the constant can be re-derived on another
host.

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/quad_kernel_timing.py

Instances come from ``sampling.sample_rng(0, "kernel-timing", n)``.
"""

from __future__ import annotations

import time

from basicgerbe import contour
from basicgerbe.forms import (
    curvature_via_contour,
    curving_eval,
    projector_inserted_curvature,
)
from basicgerbe.linalg import random_unitary, spectral_decompose, tangent_random
from basicgerbe.projectors import arc_projector
from basicgerbe.sampling import random_cuts, random_positive_context, sample_rng

SIZES = (2, 4, 8, 16, 32)
BUDGETS = tuple(2**k for k in range(11, 16))


def routes(n: int) -> dict:
    """One call of each resolvent route at a seeded instance of U(n)."""
    rng = sample_rng(0, "kernel-timing", n)
    g = random_unitary(n, rng)
    spec = spectral_decompose(g)
    ctx = random_positive_context(spec, rng)
    x, y = tangent_random(g, rng), tangent_random(g, rng)
    (z,) = random_cuts(spec, rng, 1)
    return {
        "projector": lambda: arc_projector(ctx, "quadrature"),
        "wedge": lambda: curvature_via_contour(ctx, x, y, "quadrature"),
        "inserted": lambda: projector_inserted_curvature(ctx, x, y),
        "curving": lambda: curving_eval(z, spec, x, y, "quadrature"),
    }


def first_call(call):
    """(contour, integrand, kwargs, chunks): the first quad_integrate call
    that ``call`` makes, and every chunk of nodes that call's integrand gets."""
    real, seen = contour.quad_integrate, []

    def spy(c, integrand, **kwargs):
        chunks = []

        def recording(xs):
            chunks.append(xs)
            return integrand(xs)

        seen.append((c, integrand, kwargs, chunks))
        return real(c, recording, **kwargs)

    contour.quad_integrate = spy
    try:
        call()
    finally:
        contour.quad_integrate = real
    return seen[0]


def best_time(run) -> float:
    """Seconds per run: best of seven rounds, each repeating it for >= 0.1 s."""
    best = float("inf")
    for _ in range(7):
        reps, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < 0.1 or not reps:
            run()
            reps += 1
        best = min(best, elapsed / reps)
    return best


def us_per_node(call) -> tuple[float, int]:
    """The integrand's us per node on its first chunk, and that chunk's size."""
    _, integrand, _, chunks = first_call(call)
    xs = chunks[0]
    return best_time(lambda: integrand(xs)) / len(xs) * 1e6, len(xs)


def call_us_per_node(call) -> tuple[float, int]:
    """The whole quad_integrate call's us per node, and its node count."""
    c, integrand, kwargs, chunks = first_call(call)
    nodes = sum(map(len, chunks))
    seconds = best_time(lambda: contour.quad_integrate(c, integrand, **kwargs))
    return seconds / nodes * 1e6, nodes


def table(title: str, names, timer) -> None:
    """One row per n: each route's us per node and, after it, its node count."""
    print(title)
    print(f"{'n':>3} " + " ".join(f"{s:>16}" for s in names))
    for n in SIZES:
        calls = routes(n)
        cells = (f"{t:>10.2f} {k:>5}" for t, k in map(timer, (calls[s] for s in names)))
        print(f"{n:>3} " + " ".join(cells))


def main() -> None:
    names = ("projector", "wedge", "inserted", "curving")
    budget = f"BLOCK_ENTRIES = 2^{contour.BLOCK_ENTRIES.bit_length() - 1}"
    table(f"integrand alone, us per node at {budget}", names, us_per_node)
    table(f"\nwhole quad_integrate call, us per node at {budget}", names, call_us_per_node)
    print("\ncurvature wedge, us per node, by block budget (complex entries)")
    heads = [f"2^{b.bit_length() - 1}" for b in BUDGETS]
    print(f"{'n':>3} " + " ".join(f"{h:>8}" for h in heads))
    default = contour.BLOCK_ENTRIES
    try:
        for n in SIZES:
            wedge = routes(n)["wedge"]
            row = []
            for b in BUDGETS:
                contour.BLOCK_ENTRIES = b
                row.append(us_per_node(wedge)[0])
            print(f"{n:>3} " + " ".join(f"{t:>8.2f}" for t in row))
    finally:
        contour.BLOCK_ENTRIES = default


if __name__ == "__main__":
    main()
