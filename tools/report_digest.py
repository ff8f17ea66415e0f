"""Hash the acceptance reports of every verify suite.

Runs the 8 suites at dims 2-6, 100 samples, seed 0 through
``cli.run_suite`` and prints ``suite dim sha256`` for each report, hashing
the exact text ``basicgerbe verify --report`` writes, then one combined
digest over all 40 reports.  Two trees that print the same combined
digest write byte-identical acceptance reports.

    PYTHONPATH=src python3 tools/report_digest.py
"""

from __future__ import annotations

import hashlib
import json

from basicgerbe.cli import SUITES, SuiteConfig, run_suite

DIMS = range(2, 7)
SAMPLES = 100
SEED = 0


def main() -> None:
    combined = hashlib.sha256()
    for suite in SUITES:
        for dim in DIMS:
            report = run_suite(SuiteConfig(suite, dim, SAMPLES, SEED))
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            digest = hashlib.sha256(text.encode()).hexdigest()
            combined.update(text.encode())
            print(f"{suite} {dim} {digest}", flush=True)
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
