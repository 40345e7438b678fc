"""Rewrite reference.json: per-request output digests of the reference seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right; the
benchmark then holds every later commit to them on that seed.  A workload
whose own checks fail is not recorded, and the script exits 1.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference, status = {}, 0
    for name, workload in sorted(WORKLOADS.items()):
        for size in ("full", "tiny"):
            package = run.Package()
            inputs = workload.make_inputs(package, run.REFERENCE_SEED, size)
            one = run.Run(workload, package, inputs, None)
            one.one_pass()
            if one.failed:
                sys.stderr.write(f"{name}/{size}: {one.failed} outputs failed their checks\n")
                status = 1
                continue
            reference[f"{name}/{size}"] = one.expected
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
