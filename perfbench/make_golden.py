"""Rewrite golden.json: the answer digest of every op the workloads can issue.

From the repository root::

    PYTHONPATH=src python3 perfbench/make_golden.py

Every digest comes from a direct library call on a fresh cache, so a
timed run whose answers differ -- served, cached or batched -- is caught.
Rerun it only for a change that is meant to alter results.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    golden = {name: cls.golden_digests() for name, cls in workloads.WORKLOADS.items()}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
