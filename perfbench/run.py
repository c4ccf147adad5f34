"""platecap benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload {capacity,korn,exact,plate}
        --seed N --seconds S --trace 0|1

Run from the repository root.  The seed makes the workload's inputs (see
workloads.py).  The workload runs in a fresh worker process for at least
``--seconds``; every output is checked and digested.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  The line before
it is the run's record: machine, inputs, per-pass times and every failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("capacity", "korn", "exact", "plate")
# set-up is measured in this many fresh processes, the measuring one included
SETUP_SAMPLES = 5
# a run must end well inside three minutes
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(cores: int) -> dict:
    """Environment sizing every BLAS pool to the available cores, whatever
    the caller's environment says."""
    return dict(os.environ, **{var: str(cores) for var in BLAS_THREAD_VARS})


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "platecap").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(args, env, workdir: Path, name: str, deadline: float,
               setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its record with the set-up
    time measured from before the process was started."""
    result = workdir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {name} passed the {DEADLINE_S:.0f} s "
                       "deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not result.exists():
        raise RunError(f"worker {name} exited with code {rc}")
    rec = json.loads(result.read_text())
    rec["setup_s"] = rec["ready"] - spawned
    return rec


def check_digests(workload: str, seed: int, state_key: dict,
                  digests: dict) -> list:
    """Names of the tasks whose output digests differ from an earlier run
    in this checkout with the same source tree and inputs; the first such
    run records its digests."""
    state = HERE / ".work" / "digests" / f"{workload}-{seed}.json"
    if state.exists():
        old = json.loads(state.read_text())
        if old.get("key") == state_key:
            return sorted(name for name, d in digests.items()
                          if old["digests"].get(name) != d)
    state.parent.mkdir(parents=True, exist_ok=True)
    tmp = state.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"key": state_key, "digests": digests}))
    os.replace(tmp, state)
    return []


# at most this share of a traced pass may fall outside every wrapped call
# (cli.self_s: parsing, validation, output, and any call the tables miss)
MAX_UNCOVERED = 0.05
# per workload: counts that must be positive (the layers it reaches) and
# counts that must be zero (the layers it bypasses)
REACH = {
    "capacity": (("fem.factor_calls", "fem.solve_calls", "fem.assemble_calls",
                  "fundamental.eval_calls", "layer.fit_calls",
                  "layer.boundary_solves", "elastic.operator_parts_calls"),
                 ("fem.eigen_iters", "kirchhoff.solve_calls")),
    "korn": (("fem.factor_calls", "fem.eigen_iters", "fem.assemble_calls"),
             ("fundamental.eval_calls", "layer.fit_calls",
              "reduction.residual_calls", "elastic.operator_parts_calls")),
    "exact": (("reduction.residual_calls", "elastic.operator_parts_calls"),
              ("fem.factor_calls", "fem.solve_calls", "fem.assemble_calls",
               "fundamental.eval_calls")),
    "plate": (("fem.factor_calls", "fem.solve_calls", "fem.assemble_calls",
               "kirchhoff.solve_calls"),
              ("fundamental.eval_calls", "fem.eigen_iters")),
}


def trace_checks(workload: str, layers: dict) -> list:
    """Failures of the traced pass's own checks.

    The layer self times add up to the traced wall time by construction, so
    coverage is checked as the share of the pass that no wrapper below
    ``cli.main`` saw.  Each workload must reach the layers it is meant to
    exercise and no others.  The capacity extraction must factor once and
    solve the right-hand sides of its design: 21 closure-basis fields, 12
    correction carriers and one per fixed-point sweep of each column."""
    out = []
    uncovered = layers["cli.self_s"] / layers["trace.wall_s"]
    if not uncovered <= MAX_UNCOVERED:
        out.append(f"{uncovered:.1%} of the traced pass is outside every "
                   f"wrapped call (at most {MAX_UNCOVERED:.0%})")
    positive, zero = REACH[workload]
    out.extend(f"{k} is 0, expected a positive count" for k in positive
               if not layers[k] > 0)
    out.extend(f"{k} is {layers[k]}, expected 0" for k in zero if layers[k])
    if workload == "capacity":
        if layers["fem.factor_calls"] != 1:
            out.append(f"{layers['fem.factor_calls']} factorizations, "
                       "expected 1")
        want = 33 + layers["layer.fixed_point_iters"]
        if layers["fem.solve_rhs"] != want:
            out.append(f"{layers['fem.solve_rhs']} solved right-hand sides, "
                       f"expected {want}")
    return [{"task": "trace", "message": m, "known": False} for m in out]


def summarize(args, rec: dict, setup: list, env: dict):
    """Turn the worker record into (result line, record line)."""
    source = source_digest()
    mismatched = check_digests(
        args.workload, args.seed,
        {"source": source, "inputs": rec["inputs"],
         "blas_threads": env[BLAS_THREAD_VARS[0]]}, rec["digests"])
    failures = []
    attempted = failed = 0
    for k, p in enumerate(rec["passes"] + ([rec["traced"]] if rec["traced"]
                                           else [])):
        for t in p["tasks"]:
            if k == 0 and t["task"] in mismatched:
                t["failures"].append({
                    "task": t["task"], "known": False,
                    "message": "output digest differs from an earlier run "
                               "of the same source and inputs"})
            attempted += 1
            failed += bool(t["failures"])
            failures.extend(t["failures"])
    walls = [p["wall_s"] for p in rec["passes"]]
    wall = statistics.median(walls)
    if args.trace:
        layers = dict(rec["layers"])
        layers["trace.wall_s"] = rec["traced"]["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        trace_failures = trace_checks(args.workload, layers)
        failures.extend(trace_failures)
        attempted += 1
        failed += bool(trace_failures)
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s")
                       else "count"} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"]
                                                 for p in rec["passes"]),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": rec["inputs"],
        "machine": {"nproc": nproc(), "python": rec["python"],
                    "numpy": rec["numpy"], "scipy": rec["scipy"],
                    "blas_threads": int(env[BLAS_THREAD_VARS[0]])},
        "commit": git_commit(), "source_sha256": source,
        "wall_s": {"n": len(walls), "median": wall, "max": max(walls),
                   "samples": walls},
        "setup_s": {"n": len(setup), "median": statistics.median(setup),
                    "samples": setup},
        "digests": rec["digests"], "failures": failures,
    }
    result = {"correct": not any(not f["known"] for f in failures),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description="platecap benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "platecap" / "cli.py").is_file():
        print(f"run.py: no platecap source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = worker_env(nproc())
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [run_worker(args, env, workdir, f"setup{k}", deadline,
                            True)["setup_s"]
                 for k in range(SETUP_SAMPLES - 1)]
        rec = run_worker(args, env, workdir, "run", deadline, False)
        setup.append(rec["setup_s"])
        result, record = summarize(args, rec, setup, env)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
