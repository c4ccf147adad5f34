"""Run one workload in this process and write its raw measurements as JSON.

    python3 perfbench/worker.py --root DIR --workload W --seed N
        --seconds S --trace 0|1 --workdir DIR --result FILE [--setup-only]

Closed loop: one client runs the workload's tasks one at a time, in a fixed
order, as in-process ``platecap`` CLI calls, and repeats the pass until
``--seconds`` have gone by and at least ``MIN_PASSES`` passes have run.
With ``--trace 1`` one more pass runs with the layer wrappers of tracing.py
installed.  Outputs are digested per task and checked after all passes.
``run.py`` starts this script and turns its record into metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import tracing
import workloads

# A pass that takes longer than a whole run (capacity) still gets a median
# of three, so that one pass slowed by a busy neighbour does not set the
# run's figure.
MIN_PASSES = 3


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, tasks, workdir: Path, tracer=None) -> dict:
    """One pass over the tasks; returns timings, exit codes and outputs."""
    wall = cpu = 0.0
    results = []
    for task in tasks:
        out = workdir / task.output
        argv = list(task.argv) + ["--output", str(out)]
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, (argv,), {})
        except Exception as exc:    # a raising task is a failed task
            rc = f"raised {exc!r}"
        t1 = time.perf_counter()
        cpu += _cpu() - c0
        wall += t1 - t0
        text = out.read_text() if out.exists() else ""
        if out.exists():
            out.unlink()
        results.append({"task": task, "rc": rc, "seconds": t1 - t0,
                        "text": text,
                        "digest": hashlib.sha256(text.encode()).hexdigest()})
    return {"wall_s": wall, "cpu_s": cpu, "tasks": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy
    import scipy
    from platecap import cli

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tasks = wl.tasks()
    ready = time.monotonic()
    record = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return 0

    workdir = Path(args.workdir)
    start = time.perf_counter()
    passes = [run_pass(cli, tasks, workdir)]
    # the peak of one pass, whatever the number of passes that fit
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        passes.append(run_pass(cli, tasks, workdir))
    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, tasks, workdir, tracer)
        finally:
            tracer.uninstall()

    wl.prepare_checks()
    checked = passes + ([traced] if traced else [])
    for p in checked:
        p["failures"] = []
        for r, first in zip(p["tasks"], passes[0]["tasks"]):
            found = wl.check(r["task"], r["rc"], r["text"])
            if r["digest"] != first["digest"]:
                found.append(workloads.Failure(
                    r["task"].name, "output digest differs from the first "
                    "pass" + (" (traced pass)" if p is traced else "")))
            p["failures"].append([asdict(f) for f in found])
    record.update({
        "inputs": wl.inputs(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "digests": {r["task"].name: r["digest"]
                    for r in passes[0]["tasks"]},
        "passes": [_summary(p) for p in passes],
        "traced": _summary(traced) if traced else None,
    })
    if traced:
        record["layers"] = tracing.layer_metrics(tracer.spans)
    Path(args.result).write_text(json.dumps(record))
    return 0


def _summary(p: dict) -> dict:
    return {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
            "tasks": [{"task": r["task"].name, "rc": r["rc"],
                       "seconds": r["seconds"], "failures": f}
                      for r, f in zip(p["tasks"], p["failures"])]}


if __name__ == "__main__":
    sys.exit(main())
