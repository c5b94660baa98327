"""Command-line front end.

Subcommands: ``run`` (one episode), ``sweep`` (episodes over a v list),
``adaptive`` (episode with an arrival-rate schedule), ``oracle`` (offline
optimum), ``analyze`` (closed-form constants and bounds), ``baselines``
(comparison table of the three reference policies plus the controller).

Exit codes: 0 success, 1 configuration error, 2 runtime error. CSV output
uses full round-trip precision; the first line of each file is a comment
recording the generator and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import busy_period_moments, drift_constants, throughput_lower_bound
from .config import ConfigError, RunConfig
from .engine import RNG_NAME, PolicySpec, RunMetrics, Scenario, run_episode, sweep_v
from .oracle import grid_search, optimal_at_q, optimal_two_point, simulate_stationary

FRAMES_CSV_COLUMNS = (
    "frame",
    "frame_len",
    "admitted",
    "served",
    "power_idle",
    "power_coop",
    "q_su_end",
    "x_su_end",
)
SUMMARY_CSV_COLUMNS = (
    "policy",
    "v",
    "throughput_admitted",
    "throughput_served",
    "avg_power",
    "max_q_su",
    "seed",
)
SWEEP_CSV_COLUMNS = ("v", "throughput_admitted", "avg_q_su", "avg_power")
ORACLE_CSV_COLUMNS = ("upsilon", "q", "p", "pi_0", "power_used")


def _fmt(value) -> str:
    """Exact text form: repr for floats round-trips bit for bit."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_line(metrics: RunMetrics) -> str:
    return f"# rng={RNG_NAME} seed={metrics.seed} policy={metrics.policy_label}"


def _write_csv(path: Path, meta_line: str | None, header, rows) -> None:
    """One CSV file: optional comment line, header, then the rows."""
    with open(path, "w", newline="") as fh:
        if meta_line is not None:
            fh.write(meta_line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_frames_csv(path: Path, metrics: RunMetrics) -> None:
    rows = zip(
        range(1, metrics.frames + 1),
        metrics.frame_len.tolist(),
        metrics.admitted.tolist(),
        metrics.served.tolist(),
        map(_fmt, metrics.power_idle.tolist()),
        map(_fmt, metrics.power_coop.tolist()),
        metrics.q_su_end.tolist(),
        map(_fmt, metrics.x_su_end.tolist()),
    )
    _write_csv(path, _meta_line(metrics), FRAMES_CSV_COLUMNS, rows)


def read_frames_csv(path: Path) -> dict[str, list]:
    """Parse a frames.csv back into columns; inverse of write_frames_csv."""
    out: dict[str, list] = {name: [] for name in FRAMES_CSV_COLUMNS}
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(rows)
    int_cols = {"frame", "frame_len", "admitted", "served", "q_su_end"}
    for row in reader:
        for name in FRAMES_CSV_COLUMNS:
            value = int(row[name]) if name in int_cols else float(row[name])
            out[name].append(value)
    return out


def write_summary_csv(path: Path, metrics: RunMetrics) -> None:
    row = [
        metrics.policy_label,
        _fmt(float(metrics.v)) if metrics.v is not None else "",
        _fmt(metrics.throughput_admitted),
        _fmt(metrics.throughput_served),
        _fmt(metrics.avg_power),
        metrics.max_q_su,
        metrics.seed,
    ]
    _write_csv(path, _meta_line(metrics), SUMMARY_CSV_COLUMNS, [row])


def write_sweep_csv(path: Path, results: list[tuple[float, RunMetrics]], seed: int) -> None:
    rows = (
        [
            _fmt(float(v)),
            _fmt(metrics.throughput_admitted),
            _fmt(metrics.avg_q_su),
            _fmt(metrics.avg_power),
        ]
        for v, metrics in results
    )
    _write_csv(path, f"# rng={RNG_NAME} base_seed={seed}", SWEEP_CSV_COLUMNS, rows)


def _summary_line(metrics: RunMetrics) -> str:
    return (
        f"policy={metrics.policy_label} frames={metrics.frames} "
        f"slots={metrics.slots} throughput_admitted={metrics.throughput_admitted:.6f} "
        f"throughput_served={metrics.throughput_served:.6f} "
        f"avg_power={metrics.avg_power:.6f} max_q_su={metrics.max_q_su} "
        f"seed={metrics.seed}"
    )


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_path(args.config)
    cfg.override(
        seed=getattr(args, "seed", None),
        frames=getattr(args, "frames", None),
        v=getattr(args, "v", None),
        v_list=getattr(args, "v_list", None),
        policy=getattr(args, "policy", None),
        out_dir=getattr(args, "out_dir", None),
        window=getattr(args, "window", None),
    )
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _complete(scenario: Scenario, metrics: RunMetrics) -> RunMetrics:
    """Pass ``metrics`` through; an episode cut short by its slot cap is an error."""
    if metrics.frames < scenario.horizon_frames:
        raise RuntimeError(
            f"stopped at max_slots={scenario.slot_cap} after "
            f"{metrics.frames} of {scenario.horizon_frames} frames"
        )
    return metrics


def _episode(args: argparse.Namespace) -> RunMetrics:
    """Run one configured episode, write its CSVs and print its summary."""
    cfg = _load_config(args)
    scenario = cfg.build_scenario()
    metrics = _complete(scenario, run_episode(scenario))
    out = _out_dir(cfg)
    write_frames_csv(out / "frames.csv", metrics)
    write_summary_csv(out / "summary.csv", metrics)
    print(_summary_line(metrics))
    return metrics


def cmd_run(args: argparse.Namespace) -> int:
    _episode(args)
    return 0


def cmd_adaptive(args: argparse.Namespace) -> int:
    metrics = _episode(args)
    coop_ma = metrics.moving_average("coop_power")
    if metrics.frames >= 1:
        checkpoints = [k for k in (100, 300, 500, 700, 900, metrics.frames) if k <= metrics.frames]
        for k in checkpoints:
            print(f"frame={k} coop_power_ma={coop_ma[k - 1]:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    scenario = cfg.build_scenario()
    if scenario.policy.kind != "fbdpp":
        raise ConfigError("sweep requires policy = fbdpp")
    v_values = cfg.v_list()
    results = sweep_v(scenario, v_values)
    for _, metrics in results:
        _complete(scenario, metrics)
    out = _out_dir(cfg)
    write_sweep_csv(out / "sweep.csv", results, scenario.seed)
    for v, metrics in results:
        print(
            f"v={v:g} throughput_admitted={metrics.throughput_admitted:.6f} "
            f"throughput_served={metrics.throughput_served:.6f} "
            f"avg_q_su={metrics.avg_q_su:.3f} avg_power={metrics.avg_power:.6f}"
        )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    params = cfg.build_params()
    if args.validate_slots < 1:
        raise ConfigError("--validate-slots must be at least 1")
    try:
        if args.grid_step is not None:
            policy = grid_search(params, args.grid_step, q_fixed=args.force_q)
            note = f"grid(step={args.grid_step:g})"
        elif not params.power_set.two_point:
            print(
                "error: closed-form oracle needs a two-point power set; "
                "rerun with --grid-step to scan the (q, p) grid instead",
                file=sys.stderr,
            )
            return 1
        elif args.force_q is not None:
            policy = optimal_at_q(params, args.force_q)
            note = f"closed-form(q={args.force_q:g} forced)"
        else:
            policy = optimal_two_point(params)
            note = "closed-form"
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"method={note}")
    print(f"upsilon={policy.upsilon!r}")
    print(f"q={policy.coop_prob!r}")
    print(f"p={policy.idle_tx_prob!r}")
    print(f"pi_0={policy.pi_0!r}")
    print(f"power_used={policy.power_used!r}")
    row = [policy.upsilon, policy.coop_prob, policy.idle_tx_prob, policy.pi_0, policy.power_used]
    _write_csv(_out_dir(cfg) / "oracle.csv", None, ORACLE_CSV_COLUMNS, [[_fmt(x) for x in row]])
    if args.validate:
        seed = int(cfg.raw.get("seed", "1"))
        sim = simulate_stationary(policy, params, args.validate_slots, seed)
        print(
            f"validated_throughput={sim.throughput:.6f} "
            f"validated_power={sim.avg_power:.6f} "
            f"validated_idle_fraction={sim.idle_fraction:.6f} slots={sim.slots}"
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    params = cfg.build_params()
    constants = drift_constants(params)
    e_b, e_b2 = busy_period_moments(params.lambda_pu, params.phi_nc)
    print(f"t_min={constants.t_min!r}")
    print(f"t_max={constants.t_max!r}")
    print(f"e_b={e_b!r}")
    print(f"e_b2={e_b2!r}")
    print(f"d={constants.d_const!r}")
    print(f"b={constants.b_const!r}")
    print(f"c={constants.c_const!r}")
    v_values: list[float] = []
    if "v_list" in cfg.raw:
        v_values = cfg.v_list()
    elif "v" in cfg.raw:
        v_values = [float(cfg.raw["v"])]
    if v_values:
        if params.power_set.two_point:
            upsilon = optimal_two_point(params).upsilon
            for v in v_values:
                bound = throughput_lower_bound(v, upsilon, constants)
                tag = " (vacuous)" if bound <= 0 else ""
                print(f"v={v:g} throughput_lower_bound={bound!r}{tag}")
        else:
            print("throughput_lower_bound skipped: oracle needs a two-point set")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    scenario = cfg.build_scenario()
    params = scenario.params
    constants = drift_constants(params)
    # Enough frames that every row sees >= ~1e5 slots, unless the caller
    # pinned the horizon explicitly.
    if args.frames is not None:
        baseline_frames = scenario.horizon_frames
    else:
        baseline_frames = max(scenario.horizon_frames, int(120_000 / constants.t_min) + 1)
    v = scenario.policy.v if scenario.policy.kind == "fbdpp" else float(
        cfg.raw.get("v", 500)
    )
    specs = [PolicySpec(kind=kind) for kind in ("no_coop", "always_coop", "counter")]
    specs.append(PolicySpec(kind="fbdpp", v=v))
    rows = []
    for spec in specs:
        sc = replace(
            scenario, policy=spec, horizon_frames=baseline_frames, lambda_schedule=()
        )
        rows.append(_complete(sc, run_episode(sc)))
    print(f"{'policy':<14} {'served':>9} {'admitted':>9} {'avg_power':>10} {'slots':>9}")
    for metrics in rows:
        print(
            f"{metrics.policy_label:<14} {metrics.throughput_served:>9.4f} "
            f"{metrics.throughput_admitted:>9.4f} {metrics.avg_power:>10.4f} "
            f"{metrics.slots:>9d}"
        )
    if params.power_set.two_point:
        print(f"{'offline_opt':<14} {optimal_two_point(params).upsilon:>9.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Slotted-time cooperation simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--frames", type=int, default=None)
        p.add_argument("--v", type=float, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--window", type=int, default=None)

    p_run = sub.add_parser("run", help="one episode; writes frames.csv and summary.csv")
    common(p_run)
    p_run.add_argument("--policy", default=None, help="override the config policy kind")
    p_run.set_defaults(func=cmd_run)

    p_adaptive = sub.add_parser("adaptive", help="episode with the lambda_pu schedule")
    common(p_adaptive)
    p_adaptive.add_argument("--policy", default=None)
    p_adaptive.set_defaults(func=cmd_adaptive)

    p_sweep = sub.add_parser("sweep", help="episodes over a list of v values")
    common(p_sweep)
    p_sweep.add_argument("--v-list", default=None, help="comma-separated v values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="offline optimal stationary policy")
    common(p_oracle)
    p_oracle.add_argument("--validate", action="store_true",
                          help="also simulate the returned policy")
    p_oracle.add_argument("--validate-slots", type=int, default=400_000)
    p_oracle.add_argument("--grid-step", type=float, default=None,
                          help="use the brute-force grid at this step")
    p_oracle.add_argument("--force-q", type=float, default=None,
                          help="restrict the cooperation probability")
    p_oracle.set_defaults(func=cmd_oracle)

    p_analyze = sub.add_parser("analyze", help="closed-form constants and bounds")
    common(p_analyze)
    p_analyze.add_argument("--v-list", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_base = sub.add_parser("baselines", help="comparison table of all policies")
    common(p_base)
    p_base.set_defaults(func=cmd_baselines)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
