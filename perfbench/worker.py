"""Measuring process of one benchmark run; started by ``run.py``.

Runs in a fresh interpreter with ``src`` on the path, from the root of the
checkout. In order it

1. self-tests the output checker on the committed and on doctored files;
2. regenerates the committed ``out/`` CSVs and compares them byte for byte;
3. runs iteration 0 once untimed, checks it, and compares it with the
   recorded reference values when the seed has them;
4. repeats iterations 0, 1, 2, ... for ``--seconds``, timing each operation,
   checking every output, and requiring iteration 0 to reproduce step 3.

With ``--trace 1`` every iteration runs three times: untraced, with span
wrappers, and with span and per-call wrappers; the per-layer metrics come
from the traced passes and the untraced pass gives the tracing overhead.
Every output of the traced passes must equal the untraced one.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads
from tracing import Tracer, layer_metrics

MIN_ITERATIONS = 3
VALIDATE_REPLICAS = 16


class Ledger:
    """Operations attempted and failed, with the first few violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def record(self, name: str, violations: list[str]) -> None:
        self.attempted += 1
        if violations:
            self.failed += 1
            self.violations.extend(f"{name}: {v}" for v in violations[:3])


@dataclass
class Result:
    seconds: float
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    value: object = None


class Bench:
    def __init__(self, args):
        import numpy as np

        import coopsim.cli
        import coopsim.config
        import coopsim.engine
        import coopsim.montecarlo
        import coopsim.oracle

        src = (Path.cwd() / "src").resolve()
        if src not in Path(coopsim.cli.__file__).resolve().parents:
            raise SystemExit(f"coopsim was imported from {coopsim.cli.__file__}, not {src}")
        self.np = np
        self.cli = coopsim.cli
        self.engine = coopsim.engine
        self.montecarlo = coopsim.montecarlo
        self.oracle = coopsim.oracle
        self.config = coopsim.config
        self.workload = args.workload
        self.seed = args.seed
        self.tmp = Path(args.tmp)
        self.ledger = Ledger()
        self.sweep_slots = 0
        self.tracer = None
        # The sweep's pool runs COOPSIM_THREADS processes side by side.
        self.calibrator = speed.Calibrator(int(os.environ.get("COOPSIM_THREADS", "1")))
        self.upsilon = None
        self.validate_stderr = None

    # operations -------------------------------------------------------------

    def run_op(self, op: workloads.Op) -> Result:
        if op.call:
            name, lambda_pu, phi, n, seed = op.call
            rng = self.np.random.default_rng(seed)
            start = perf_counter()
            value = getattr(self.montecarlo, name)(lambda_pu, phi, n, rng)
            return Result(perf_counter() - start, value=value)
        self.sweep_slots = 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = self.cli.main(list(op.argv))
            seconds = perf_counter() - start
        return Result(seconds, rc, out.getvalue(), err.getvalue())

    def inspect(self, op: workloads.Op, res: Result) -> tuple[list[str], dict, int]:
        """(violations, fingerprint, slots simulated) of one operation's output."""
        if res.rc != 0:
            return [f"exit code {res.rc}: {res.stderr.strip()[:200]}"], {}, 0
        out = Path(op.out) if op.out else None
        f = op.facts
        kv = checks.key_values(res.stdout)
        if op.name in ("run", "adaptive"):
            bad = checks.check_frames(out / "frames.csv", f["v"], f["a_max"], f["p_avg"],
                                      f["frames"])
            bad += checks.check_summary(out / "summary.csv", f["v"], f["a_max"])
            slots = sum(int(x) for x in checks.columns(out / "frames.csv")["frame_len"])
            fp = {"frames.csv": checks.fingerprint_csv(out / "frames.csv"),
                  "summary.csv": checks.fingerprint_csv(out / "summary.csv"), "stdout": kv}
            return bad, fp, slots
        if op.name.startswith("baselines"):
            rows = checks.parse_table(res.stdout)
            bad = checks.check_baselines(res.stdout, f["p_avg"], f["p_max"], f["frames"])
            slots = sum(int(r["slots"]) for r in rows.values() if "slots" in r)
            return bad, {"stdout": rows}, slots
        if op.name == "sweep":
            bad = checks.check_sweep(out / "sweep.csv", f["v_list"], f["a_max"], f["p_max"])
            slots = self.sweep_slots
            if slots == 0:
                bad.append("no episode slots seen through coopsim.engine.sweep_v")
            return bad, {"sweep.csv": checks.fingerprint_csv(out / "sweep.csv"), "stdout": kv}, slots
        if op.name == "oracle_validate":
            bad = checks.check_validate(kv, self.validate_stderr)
            if int(kv["slots"]) != f["slots"]:
                bad.append(f"validated {kv['slots']} slots, {f['slots']} requested")
            fp = {"oracle.csv": checks.fingerprint_csv(out / "oracle.csv"), "stdout": kv}
            return bad, fp, int(kv["slots"])
        if op.name == "oracle_grid":
            bad = checks.check_grid(kv, self.upsilon, workloads.GRID_STEP)
            return bad, {"oracle.csv": checks.fingerprint_csv(out / "oracle.csv"), "stdout": kv}, 0
        if op.name == "analyze":
            return checks.check_analyze(kv, self.upsilon), {"stdout": kv}, 0
        if op.name == "sample_frames":
            frames = res.value
            _, lambda_pu, phi, n, _ = op.call
            mean, stderr = self.montecarlo.batch_mean_stderr(frames)
            bad = checks.check_frame_mean(mean, stderr, lambda_pu, phi)
            if len(frames) != n:
                bad.append(f"{len(frames)} frames sampled, {n} requested")
            return bad, {"mean": repr(mean), "n": str(len(frames))}, 0
        raise ValueError(f"no checks for operation {op.name!r}")

    def iteration(self, i: int, traced: bool = False) -> tuple[float, float, int, dict]:
        """Run, time and check iteration ``i``.

        Returns (seconds, seconds at nominal machine speed, slots,
        fingerprint); each operation is bracketed by calibration runs.
        """
        wall, norm, slots, fp = 0.0, 0.0, 0, {}
        root = self.tracer.open("bench.iteration") if traced else None
        try:
            cal = self.calibrator.seconds()
            for op in workloads.iteration_ops(self.workload, self.seed, i, self.tmp):
                res = self.run_op(op)
                cal_after = self.calibrator.seconds()
                wall += res.seconds
                norm += speed.normalize(res.seconds, cal, cal_after)
                cal = cal_after
                try:
                    bad, fp[op.name], n = self.inspect(op, res)
                except (OSError, LookupError, ValueError, TypeError, ArithmeticError) as exc:
                    bad, fp[op.name], n = [f"unreadable output: {exc!r}"], {}, 0
                self.ledger.record(op.name, bad)
                slots += n
        finally:
            if root is not None:
                self.tracer.close(root)
                root["attrs"]["speed"] = norm / wall if wall > 0 else 1.0
        return wall, norm, slots, fp

    # set-up -------------------------------------------------------------------

    def tap_sweep(self) -> None:
        """Count the slots of the episodes a sweep returns (sweep.csv has no slot column)."""
        engine = self.engine

        def sweep_v(*args, **kwargs):
            results = engine.sweep_v(*args, **kwargs)
            self.sweep_slots += sum(m.slots for _, m in results)
            return results

        self.cli.sweep_v = sweep_v

    def prepare(self) -> None:
        """Closed-form optimum, and the standard error of one --validate run."""
        if self.workload != "oracle_validate":
            return
        cfg = self.config.RunConfig.from_path(self.tmp / "configs" / "reference.conf")
        params = cfg.build_params()
        policy = self.oracle.optimal_two_point(params)
        self.upsilon = policy.upsilon
        # Independent replicas of 1/R of the horizon: their spread over
        # sqrt(R) is the standard error of one full-length run.
        reps = [
            self.oracle.simulate_stationary(
                policy, params, workloads.VALIDATE_SLOTS // VALIDATE_REPLICAS,
                workloads.derived_seed(self.workload, self.seed, "replica", r),
            ).throughput
            for r in range(VALIDATE_REPLICAS)
        ]
        self.validate_stderr = statistics.stdev(reps) / math.sqrt(VALIDATE_REPLICAS)

    def golden(self, root: Path) -> None:
        for op, files in workloads.golden_ops(self.tmp):
            res = self.run_op(op)
            bad = [] if res.rc == 0 else [f"exit code {res.rc}: {res.stderr.strip()[:200]}"]
            for written, committed in files.items():
                if res.rc == 0 and Path(written).read_bytes() != (root / committed).read_bytes():
                    bad.append(f"{written} differs from the committed {committed}")
            self.ledger.record(op.name, bad)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--record", action="store_true",
                        help="print the fingerprint of iteration 0 and stop")
    parser.add_argument("--reference", default=None, help="recorded reference values")
    args = parser.parse_args()
    root = Path.cwd()

    bench = Bench(args)
    try:
        result = measure(bench, args, root)
    finally:
        bench.calibrator.close()
    print(json.dumps(result))
    return 0


def measure(bench: Bench, args, root: Path) -> dict:
    bench.tap_sweep()
    bench.prepare()
    if args.record:
        fp = bench.iteration(0)[-1]
        return {"fingerprint": fp, "failed": bench.ledger.failed,
                "violations": bench.ledger.violations}

    ledger = bench.ledger
    ledger.record("checker_self_test", checks.self_test(
        root / "out/reference/frames.csv", root / "out/rate_switch/frames.csv",
        bench.tmp / "self_test"))
    bench.golden(root)
    fp0 = bench.iteration(0)[-1]
    if args.reference:
        recorded = json.loads(Path(args.reference).read_text())
        expected = recorded.get(str(args.seed), {}).get(args.workload)
        if expected is not None:
            ledger.record("reference_values", checks.compare(expected, fp0))

    tracer = None
    if args.trace:
        tracer = bench.tracer = Tracer(args.workload, args.seed)
    walls, norm_walls, slots, traced_walls = [], [], [], []
    deadline = perf_counter() + args.seconds
    i = 0
    while i < MIN_ITERATIONS or perf_counter() < deadline:
        wall, norm, n, fp = bench.iteration(i)
        walls.append(wall)
        norm_walls.append(norm)
        slots.append(n)
        if i == 0:
            ledger.record("deterministic_rerun", checks.compare(fp0, fp))
        if tracer is not None:
            for name, per_call in (("spans", False), ("calls", True)):
                tracer.context = {"pass": name, "iteration": i}
                tracer.install(per_call)
                try:
                    _, norm_t, _, fp_t = bench.iteration(i, traced=True)
                finally:
                    tracer.uninstall()
                    tracer.context = {}
                if name == "calls":
                    traced_walls.append(norm_t)
                ledger.record(f"traced_{name}_output", checks.compare(fp, fp_t))
        i += 1

    # Calibration helpers are still running, so only pool workers count here.
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "violations": ledger.violations[:20],
        "walls": walls,
        "norm_walls": norm_walls,
        "slots": slots,
        "rss_self_kib": usage_self,
        "rss_children_kib": usage_children,
        "python": sys.version.split()[0],
        "numpy": bench.np.__version__,
    }
    if tracer is not None:
        result["layer"] = layer_metrics(tracer, norm_walls, traced_walls)
        result["absent"] = sorted(tracer.absent)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
