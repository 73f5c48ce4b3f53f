"""Recompute ``reference.json``: the canonical operations' stored results.

    python3 perfbench/make_reference.py

Run this only when a change to the package is meant to change results,
and say so in the change; the benchmark compares every run against the
file. Uses the same BLAS pinning and source path as ``run.py``.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import csdenoise  # noqa: E402
import workloads as W  # noqa: E402


def main():
    run.WORK_DIR.mkdir(exist_ok=True)
    work = run.WORK_DIR / "reference"
    work.mkdir(exist_ok=True)
    reference = {
        "properties": {
            "csdn_params": csdenoise.build_csdn(csdenoise.CsdnConfig()).parameter_count(),
            "pcn_params": csdenoise.build_pcn(csdenoise.PcnConfig()).parameter_count(),
        },
    }
    for name, cls in W.WORKLOADS.items():
        reference[name] = cls(W.PROFILES["smoke"], work).reference_op()
        print(name, {k: v for k, v in reference[name].items() if k != "pixels"})
    W.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
