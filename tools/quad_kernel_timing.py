"""Time the resolvent integrands of contour quadrature, per node.

Every quadrature route hands ``contour.quad_integrate`` one vectorized
integrand built by the kernel ``contour._resolvent_integral``: it inverts
xi - g in blocks of at most max(1, BLOCK_ENTRIES // n^2) nodes and applies
the route's phi to each block.  For each route (the arc projector, the
curvature wedge, the projector-inserted wedge and the curving) at
n = 2, 4, 8, 16, 32, this catches that integrand and the first chunk of
nodes it is given, then times the integrand alone on that chunk: best of
seven rounds, each repeating it for at least 0.1 s.  It prints microseconds
per node.  Then it repeats the curvature wedge for block budgets
BLOCK_ENTRIES = 2^11 ... 2^15 complex entries, so the constant can be
re-derived on another host.

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


def first_chunk(call):
    """(integrand, nodes): what ``call`` hands quad_integrate first."""
    real, seen = contour.quad_integrate, []

    def spy(c, integrand, **kwargs):
        def recording(xs):
            seen.append((integrand, xs))
            return integrand(xs)

        return real(c, recording, **kwargs)

    contour.quad_integrate = spy
    try:
        call()
    finally:
        contour.quad_integrate = real
    return seen[0]


def us_per_node(call) -> tuple[float, int]:
    integrand, xs = first_chunk(call)
    best = float("inf")
    for _ in range(7):
        reps, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < 0.1 or not reps:
            integrand(xs)
            reps += 1
        best = min(best, elapsed / reps)
    return best / len(xs) * 1e6, len(xs)


def main() -> None:
    names = ("projector", "wedge", "inserted", "curving")
    print(f"us per node at BLOCK_ENTRIES = 2^{contour.BLOCK_ENTRIES.bit_length() - 1}")
    print(f"{'n':>3} {'nodes':>6} " + " ".join(f"{s:>10}" for s in names))
    for n in SIZES:
        calls = routes(n)
        timed = [us_per_node(calls[s]) for s in names]
        print(f"{n:>3} {timed[0][1]:>6} " + " ".join(f"{t:>10.2f}" for t, _ in timed))
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
