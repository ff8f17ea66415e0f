"""Set-up probe: start the interpreter, import basicgerbe, make one warm-up call.

Usage: python3 perfbench/setup_probe.py SRC_DIR SEED

``run.py`` times this process from launch to exit to measure ``setup_s``.
"""

import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import basicgerbe
    import basicgerbe.cli  # noqa: F401  (the submodules the warm-up needs)

    from workloads import warm_up

    warm_up(basicgerbe, int(sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
