"""Regenerate capacity_reference.json: the capacity matrix C_sharp of every
material the capacity workload can pick, from the current source tree.

Run from the repository root:  python3 perfbench/pin_capacity.py

The benchmark accepts a capacity run when its C lies within the run's own
error bars of these pinned values, so re-pin only when a change is meant to
move C.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import nproc
from workloads import LAME_GRID, REFERENCE_FILE, capacity_argv, material_spec

ROOT = Path(__file__).resolve().parent.parent


def pin(spec: str, workdir: str) -> list:
    out = os.path.join(workdir, spec.replace(":", "_") + ".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "platecap.cli",
                    *capacity_argv(spec), "-o", out], env=env, check=True)
    return json.loads(Path(out).read_text())["C_sharp"]


def main() -> int:
    specs = [material_spec(lam, mu)
             for lam, mu in itertools.product(LAME_GRID, LAME_GRID)]
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp, \
            ThreadPoolExecutor(max_workers=nproc()) as pool:
        refs = dict(zip(specs, pool.map(lambda s: pin(s, tmp), specs)))
    REFERENCE_FILE.write_text(json.dumps(
        {"command": " ".join(("platecap",) + capacity_argv("<spec>")),
         "references": refs},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
