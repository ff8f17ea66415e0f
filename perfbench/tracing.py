"""Run-time tracing of basicgerbe from outside the package.

``Tracer.installed`` replaces every public function of the traced modules
with a wrapper, in its home module and wherever another module imported
it by name, and puts the originals back on exit.  Nothing in the package
changes on disk.

A span records (label, tag, parent, start, end, self time).  The label is
``<module>.<function>``, extended by the value of a ``method`` argument
where the function takes one (``forms.curving_eval.residue``).  The tag is
whatever the caller set on ``Tracer.tag`` (the benchmark uses ``n16`` and
``n32``).  Self time is the span's duration minus the durations of the
wrapped calls made directly inside it.  Spans stay in memory until
``write_spans``.

``contour.quad_integrate`` is also given a counting integrand, so each
call records how many nodes were evaluated, how many doubling passes that
took and whether the last pass reached ``max_nodes``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

MODULES = (
    "cli", "linalg", "sampling", "contour", "projectors", "fibers", "forms", "weyl",
)
QUAD = "contour.quad_integrate"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (label, tag, parent index, start, end, self)
        self.quad: list = []  # (tag, nodes evaluated, passes, reached max_nodes)
        self.tag = ""
        self._stack: list = []  # [span index, time covered by children]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        sig = inspect.signature(fn)
        by_method = "method" in sig.parameters
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if by_method:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments['method']}"
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the slot so children can name it
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (label, self.tag, parent, start, end,
                                end - start - frame[1])

        return wrapper

    def _count_quad(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            integrand, seen = a["integrand"], [0]

            def counting(x):
                seen[0] += len(x) if a["vectorized"] else 1
                return integrand(x)

            a["integrand"] = counting
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                # pass p evaluates start_nodes * 2**p nodes on every segment
                first = len(a["contour"].segments) * a["start_nodes"]
                passes = math.floor(math.log2(seen[0] / first + 1)) if seen[0] else 0
                last = a["start_nodes"] * 2 ** max(passes - 1, 0)
                self.quad.append((self.tag, seen[0], passes, last >= a["max_nodes"]))

        return wrapper

    @contextlib.contextmanager
    def installed(self, package, spans: bool = True):
        """Wrap the package's public functions for the duration of the block.

        With ``spans=False`` only the quadrature counter is installed.
        """
        modules = {m: getattr(package, m) for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{mname}.{attr}"
                    w = self._count_quad(obj) if name == QUAD else obj
                    if spans:
                        w = self._span(name, w)
                    if w is not obj:
                        wrappers[obj] = w
        patched = []
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """{(label, tag): [calls, inclusive seconds, self seconds]}."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for label, tag, _, start, end, self_s in self.spans:
            row = out[(label, tag)]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,label,tag,parent,start_s,end_s,self_s\n")
            for i, (label, tag, parent, start, end, self_s) in enumerate(self.spans):
                fh.write(f"{i},{label},{tag},{parent},{start:.9f},{end:.9f},{self_s:.9f}\n")
