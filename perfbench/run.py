"""coopsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It writes the workload's configs
from the seed, times fresh-interpreter set-up (``--trace 0`` only), and runs
the measuring process ``worker.py`` with ``src`` on its path. It prints the
metrics by name with their units, a run record, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The run record, with the spans of a traced run, is also
written to ``.perfbench_runs/``.

``--record-reference`` instead re-records ``perfbench/reference.json``, the
outputs of iteration 0 for the default and the held-out seed.

Stdlib only; exits 2 without a result when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9
# Files the benchmark reads from the checkout besides its own.
REQUIRED = (
    "src/coopsim/cli.py",
    "configs/reference.conf",
    "configs/rate_switch.conf",
    "out/reference/frames.csv",
    "out/reference/summary.csv",
    "out/reference/sweep.csv",
    "out/reference/oracle.csv",
    "out/rate_switch/frames.csv",
    "out/rate_switch/summary.csv",
)
END_TO_END = {
    "wall_s": "s",
    "slots_per_s": "slot/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# A run must end within 180 s; leave room for set-up and checks.
WORKER_TIMEOUT_PAD = 120


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_checked(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{cmd[1]} timed out after {timeout:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def pool_size(workload: str) -> int:
    """COOPSIM_THREADS for the workload: the sweep gets the cores, at most MAX_POOL."""
    if workload != "sweep_grid":
        return 1
    return max(1, min(workloads.MAX_POOL, os.cpu_count() or 1))


def child_env(root: Path, workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    env["COOPSIM_THREADS"] = str(pool_size(workload))
    return env


def setup_seconds(root: Path, workload: str, seed: int, tmp: Path, env: dict) -> list[tuple]:
    """(raw, normalized) wall time of fresh interpreters that import the CLI
    and validate the configs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(tmp)]
    run_checked(cmd, env, 60)  # compiles bytecode on a fresh checkout
    samples = []
    cal = speed.startup_calibration_seconds()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        run_checked(cmd, env, 60)
        seconds = perf_counter() - start
        cal_after = speed.startup_calibration_seconds()
        samples.append((seconds, speed.normalize(seconds, cal, cal_after,
                                                 speed.STARTUP_NOMINAL_S)))
        cal = cal_after
    return samples


def run_worker(args, root: Path, tmp: Path, env: dict, record: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if record:
        cmd.append("--record")
    elif REFERENCE.exists():
        cmd += ["--reference", str(REFERENCE)]
    proc = run_checked(cmd, env, args.seconds + WORKER_TIMEOUT_PAD)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    cuts = statistics.quantiles(values, n=100)
    for pct in range(99, 49, -1):
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return pct, cuts[pct - 1]
    return None


def git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def measure(args, root: Path, tmp: Path) -> tuple[dict, dict]:
    """(result, run record) of one run."""
    env = child_env(root, args.workload)
    workloads.write_configs(args.workload, args.seed, tmp / "configs")
    setup = [] if args.trace else setup_seconds(root, args.workload, args.seed, tmp, env)
    out = run_worker(args, root, tmp, env)

    walls, slots = out["norm_walls"], out["slots"]
    threads = pool_size(args.workload)
    tail = tail_percentile(walls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "coopsim_threads": threads,
        "python": out["python"],
        "numpy": out["numpy"],
        "git_rev": git_rev(root),
        "src_lines": src_lines(root),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "error_rate": out["failed"] / out["attempted"],
        "violations": out["violations"],
        "wall_s": {"median": statistics.median(walls), "samples": len(walls),
                   "tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
                   "raw_median": statistics.median(out["walls"])},
    }
    if args.trace:
        metrics = out["layer"]
        record["trace.overhead"] = metrics["trace.overhead"]
        record["absent"] = out["absent"]
        record["spans"] = out["spans"]
    else:
        # Pool workers run side by side and alike, so each adds the peak of
        # the largest one; shared pages count once per process.
        rss_kib = out["rss_self_kib"] + threads * out["rss_children_kib"]
        metrics = {
            "wall_s": statistics.median(walls),
            "slots_per_s": statistics.median(n / w for n, w in zip(slots, walls)),
            "setup_s": statistics.median(norm for _, norm in setup),
            "peak_rss_mb": rss_kib / 1024,
        }
        record["setup_s"] = {"median": metrics["setup_s"], "samples": len(setup),
                             "raw_median": statistics.median(raw for raw, _ in setup)}
    return metrics, record


def report(args, metrics: dict, record: dict) -> None:
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in LAYER_METRICS.items()}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={record['wall_s']['samples']}")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    tail = record["wall_s"]["tail"]
    if tail:
        print(f"  {'wall_s p' + str(tail['percentile']):<42} {tail['value']:>14.6g} s")
    print(f"  {'error_rate':<42} {record['error_rate']:>14.6g} "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for violation in record["violations"]:
        print(f"  violation: {violation}")
    runs = Path.cwd() / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1))
    print("record " + json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


def record_reference(args, root: Path, tmp: Path) -> None:
    recorded: dict = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            args.workload, args.seed = workload, seed
            run_tmp = Path(tempfile.mkdtemp(dir=tmp))
            workloads.write_configs(workload, seed, run_tmp / "configs")
            out = run_worker(args, root, run_tmp, child_env(root, workload), record=True)
            if out["failed"]:
                raise BenchError(f"{workload} seed {seed} fails its checks: {out['violations']}")
            recorded.setdefault(str(seed), {})[workload] = out["fingerprint"]
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main() -> int:
    parser = argparse.ArgumentParser(description="coopsim benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a coopsim checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.record_reference:
            record_reference(args, root, tmp)
        else:
            report(args, *measure(args, root, tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
