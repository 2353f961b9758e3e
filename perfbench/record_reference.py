"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record_reference.py

Runs each workload's op once for every pool index, at every size, and writes
the outputs to ``perfbench/reference.json``.  Run it only when the benchmark
itself changes (new sizes or workloads); a change to crcal must match the
existing record instead.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, WORK, import_crcal
from workloads import POOL, SIZES, WORKLOADS


def record(name: str, size: str) -> dict:
    wl = WORKLOADS[name](size, WORK)
    entries = {}
    for idx in range(POOL):
        wl.setup(idx)  # a score run's inputs come from its seed
        wl.prepare(idx)
        wl.run(idx)
        entries[wl.key(idx)] = wl.result(idx)
        print(f"{size} {name} {idx}", file=sys.stderr)
    return entries


def main() -> int:
    import_crcal()
    reference = {size: {name: record(name, size) for name in sorted(WORKLOADS)} for size in sorted(SIZES)}
    (BENCH / "reference.json").write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
