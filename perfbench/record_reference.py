"""Record the outputs that the benchmark's reference checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: each sim workload's summary at the reference
seeds, and the chain workload's support, absorbing censuses and stationary
distributions.  Re-record only with a change that is meant to alter the
program's outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads

import workloads  # noqa: E402


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=workloads.REFERENCE_PATH.parent) as tmp:
        for name, w in workloads.WORKLOADS.items():
            state = w.setup()
            out[name] = w.reference(state, lambda s: Path(tempfile.mkdtemp(dir=tmp)))
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in out.items())
    workloads.REFERENCE_PATH.write_text("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
