"""Regenerate perfbench/expected_sha256.json from the current source.

Runs every operation of every workload once and stores the sha256 of
each file it writes.  Only rerun this when a change sets out to alter
outputs and says so; the stored hashes are what the benchmark checks.

    python3 perfbench/record_expected.py
"""

import json
import shutil
import sys

from run import EXPECTED, WORK, execute, import_package
from workloads import WORKLOADS


def main() -> int:
    cli = import_package()["cli"]
    expected = {}
    for workload in WORKLOADS.values():
        for op in workload.ops:
            outcome = execute(op, cli.main)
            if not outcome.exit_ok:
                print(f"{op.key}: nonzero exit", file=sys.stderr)
                return 1
            expected[op.key] = outcome.digests
    shutil.rmtree(WORK / "out", ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(expected)} operations to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
