"""List every line of ``src/basicgerbe`` that the tier-1 tests never run.

Installs a ``sys.settrace`` tracer (and ``threading.settrace`` for threads
started later) that records the lines run in frames of the package's
source files, then runs the tier-1 suite in this process with
``pytest.main``.  The tracer is in place before pytest imports anything,
so module-level lines count as run when the package is first imported.
It is removed as soon as pytest returns, before the listing is printed.

A line is one that some code object of a package module, compiled from
its source, attributes an instruction to (``code.co_lines()``).  Every
such line that no traced frame reached is printed as ``path:line: text``,
in file and line order, and the count goes to stderr.

    python3 tools/line_coverage.py [pytest args...]

With no arguments it runs ``-q -p no:cacheprovider
--continue-on-collection-errors`` from the repository root, as tier-1
does.  The traced run takes about twice as long as an untraced one
(31-38 s against 18 s on a 2-core host).  Only stdlib modules and
pytest are used, and the script is not collected by tier-1.  It exits
with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "basicgerbe"


def executable_lines(path: Path) -> set[int]:
    """The lines some code object compiled from ``path`` has an instruction on."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        if not inside[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors"])
    finally:
        # a tracer left on meets late callbacks at shutdown, after the
        # module globals it reads are gone
        sys.settrace(None)
        threading.settrace(None)

    hit: dict[Path, set[int]] = {}
    for name, lines in ran.items():
        hit.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hit.get(path, set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"lines of src/basicgerbe never run: {missed}", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
