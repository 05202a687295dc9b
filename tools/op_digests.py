"""Digest every op output of the benchmark workloads, to compare two trees bit for bit.

    python3 tools/op_digests.py ROOT SEED...

Imports grauertlab from ``ROOT/src`` (through ``bench/run.import_program``
of this checkout), builds each workload of ``bench/workloads.py`` at each
seed in a temporary directory, runs every op once and prints one line per op:

    seed workload op sha256[:16]

The digest covers the exit code, any escaping error, the output bytes and,
for a library sweep, each point's value packed as a double or its exception
name.  The work directory's path is replaced by a fixed token first, so the
lines of two trees are equal exactly where their outputs are.  Run it once
per tree and diff the two listings.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def digest(outcome, work: str) -> str:
    """sha256[:16] of one op's outcome, with ``work`` replaced by a token."""
    h = hashlib.sha256()
    h.update(repr(outcome.rc).encode() + b"\0")
    h.update(str(outcome.error).replace(work, "<work>").encode() + b"\0")
    h.update(outcome.data.replace(work.encode(), b"<work>") + b"\0")
    for v in outcome.values or ():
        h.update(b"E" + v.encode() + b"\0" if isinstance(v, str) else b"F" + struct.pack("<d", v))
    return h.hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python3 tools/op_digests.py ROOT SEED...", file=sys.stderr)
        return 2
    root, seeds = Path(argv[0]).resolve(), [int(s) for s in argv[1:]]
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    for v in run.THREAD_VARS:  # as the benchmark runs, before numpy loads
        os.environ[v] = "1"
    g = run.import_program(root)
    for seed in seeds:
        for name in run.WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="op-digests-") as tmp:
                work = Path(tmp) / "work"
                wl = run.build(name, seed, work, g)
                for op in wl.ops:
                    outcome, _, _ = workloads.run_op(op, g)
                    print(seed, name, op.name, digest(outcome, str(work)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
