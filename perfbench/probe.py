"""Set-up probe: a fresh interpreter up to the end of its first operation.

``run.py`` starts this script and stops its clock when the probe prints
``ready``: imports, the first objects (for ``campaign``, ``Gateway(home)``
and its ledger replay) and the workload's first operation all count.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR [BASE_HOME]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    kwargs = {"base_home": argv[3]} if len(argv) > 3 else {}
    os.makedirs(workdir, exist_ok=True)
    op = workloads.make(name, seed, workdir, **kwargs).op(0)
    if op.error is not None:
        print(f"probe: first operation failed: {op.error}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
