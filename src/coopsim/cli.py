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
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import DriftConstants, busy_period_moments, drift_constants, throughput_lower_bound
from .config import ConfigError, RunConfig
from .engine import (
    POLICY_KINDS, RNG_NAME, BlockSource, PolicySpec, RunMetrics, run_episode, sweep_v,
)
from .model import ModelParams
from .oracle import (
    StationaryPolicy,
    grid_search,
    optimal_at_q,
    optimal_two_point,
    simulate_stationary,
)

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
# frames.csv rows formatted and written per write call, and the most texts
# that one column's memo keeps
_ROWS_PER_WRITE = 1024
_MEMO_TEXTS = 1024


def _meta_line(metrics: RunMetrics) -> str:
    return f"# rng={RNG_NAME} seed={metrics.seed} policy={metrics.policy_label}"


def _write_csv(path: Path, meta_line: str | None, header, row_format: str, rows) -> None:
    """One CSV file: optional comment line, header, then one line per row.

    Each row is a tuple written with one ``row_format % row``: ``%d`` for
    ints, ``%r`` for floats (repr round-trips bit for bit) and ``%s`` for
    text, floats already formatted by repr included. Lines end in CRLF like
    ``csv.writer``'s default dialect; no field written here holds a comma,
    quote or newline, so none needs quoting and the bytes are what
    ``csv.writer`` writes.
    """
    _write_lines(path, meta_line, header, [map(row_format.__mod__, rows)])


def _write_lines(path: Path, meta_line: str | None, header, chunks) -> None:
    """``_write_csv`` for rows already formatted, one string per row.

    ``chunks`` yields iterables of row strings; each is joined and written
    before the next is asked for, so a writer that yields a bounded number of
    rows at a time holds only that many row strings, however long the file.
    """
    with open(path, "w", newline="") as fh:
        if meta_line is not None:
            fh.write(meta_line + "\n")
        fh.write(",".join(header) + "\r\n")
        for lines in chunks:
            # the "" ends the chunk's last row, and makes no line for no rows
            fh.write("\r\n".join([*lines, ""]))


class _ReprMemo(dict):
    """``memo[x]`` is ``repr(x)``, each distinct int or float of a column formatted once.

    An int's repr is its ``%d`` text. ``0.0 == -0.0`` with one hash, so zeros
    are kept only if ``keep_zero`` says the column holds no ``-0.0``. At most
    ``_MEMO_TEXTS`` texts are kept; later new values are formatted on each
    use, so a column of ever new values (a growing backlog) does not grow it.
    """

    def __init__(self, keep_zero: bool) -> None:
        self.keep_zero = keep_zero

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if (x or self.keep_zero) and len(self) < _MEMO_TEXTS:
            self[x] = text
        return text


def write_frames_csv(path: Path, metrics: RunMetrics) -> None:
    """The per-frame trace, one row per frame, written ``_ROWS_PER_WRITE`` rows at a time.

    Only one chunk's values and row strings are held at once, and each
    column's memo keeps at most ``_MEMO_TEXTS`` texts, so the writer's memory
    does not grow with the horizon.
    """
    columns = (metrics.frame_len, metrics.admitted, metrics.served, metrics.power_idle,
               metrics.power_coop, metrics.q_su_end, metrics.x_su_end)
    # Frames repeat few values in each column but the frame index, so each
    # such column formats its values through one memo of its own for the file.
    memos = [_ReprMemo(not np.signbit(column).any()).__getitem__ for column in columns]

    def chunks():
        for lo in range(0, metrics.frames, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, metrics.frames)
            texts = [map(memo, column[lo:hi].tolist()) for memo, column in zip(memos, columns)]
            yield map(",".join, zip(map(repr, range(lo + 1, hi + 1)), *texts))

    _write_lines(path, _meta_line(metrics), FRAMES_CSV_COLUMNS, chunks())


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
    row = (
        metrics.policy_label,
        repr(float(metrics.v)) if metrics.v is not None else "",
        metrics.throughput_admitted,
        metrics.throughput_served,
        metrics.avg_power,
        metrics.max_q_su,
        metrics.seed,
    )
    _write_csv(path, _meta_line(metrics), SUMMARY_CSV_COLUMNS, "%s,%s,%r,%r,%r,%d,%d", [row])


def write_sweep_csv(path: Path, results: list[tuple[float, RunMetrics]], seed: int) -> None:
    rows = (
        (float(v), metrics.throughput_admitted, metrics.avg_q_su, metrics.avg_power)
        for v, metrics in results
    )
    _write_csv(path, f"# rng={RNG_NAME} base_seed={seed}", SWEEP_CSV_COLUMNS, "%r,%r,%r,%r",
               rows)


def write_oracle_csv(path: Path, policy: StationaryPolicy) -> None:
    row = (policy.upsilon, policy.coop_prob, policy.idle_tx_prob, policy.pi_0, policy.power_used)
    _write_csv(path, None, ORACLE_CSV_COLUMNS, "%r,%r,%r,%r,%r", [row])


def _summary_line(metrics: RunMetrics) -> str:
    return (
        f"policy={metrics.policy_label} frames={metrics.frames} "
        f"slots={metrics.slots} throughput_admitted={metrics.throughput_admitted:.6f} "
        f"throughput_served={metrics.throughput_served:.6f} "
        f"avg_power={metrics.avg_power:.6f} max_q_su={metrics.max_q_su} "
        f"seed={metrics.seed}"
    )


# Flags that override the config key of the same name (``--out-dir`` sets
# ``out_dir``); each subcommand takes only the ones it reads.
_OVERRIDES = {
    "seed": "episode seed",
    "frames": "horizon in complete frames",
    "v": "controller trade-off knob",
    "v_list": "comma-separated v values",
    "policy": "policy kind",
    "out_dir": "output directory",
    "window": "moving-average window, frames",
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_path(args.config)
    cfg.override(**{key: getattr(args, key, None) for key in _OVERRIDES})
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _episode(cfg: RunConfig) -> RunMetrics:
    """Run one configured episode, write its CSVs and print its summary."""
    metrics = run_episode(cfg.build_scenario())
    out = _out_dir(cfg)
    write_frames_csv(out / "frames.csv", metrics)
    write_summary_csv(out / "summary.csv", metrics)
    print(_summary_line(metrics))
    return metrics


def cmd_run(args: argparse.Namespace) -> int:
    _episode(_load_config(args))
    return 0


def cmd_adaptive(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    metrics = _episode(cfg)
    coop_ma = metrics.moving_average("coop_power", cfg.get("window", 100))
    for k in sorted({k for k in (100, 300, 500, 700, 900, metrics.frames) if k <= metrics.frames}):
        print(f"frame={k} coop_power_ma={coop_ma[k - 1]:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    v_values = cfg.v_list()
    cfg.override(v=v_values[0])    # template only: sweep_v sets v on every row
    scenario = cfg.build_scenario()
    if scenario.policy.kind != "fbdpp":
        raise ConfigError("sweep requires policy = fbdpp")
    results = sweep_v(scenario, v_values)
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
    write_oracle_csv(_out_dir(cfg) / "oracle.csv", policy)
    if args.validate:
        sim = simulate_stationary(policy, params, args.validate_slots, cfg.get("seed", 1))
        print(
            f"validated_throughput={sim.throughput:.6f} "
            f"validated_power={sim.avg_power:.6f} "
            f"validated_idle_fraction={sim.idle_fraction:.6f} slots={sim.slots}"
        )
    return 0


def _drift_constants(params: ModelParams) -> DriftConstants:
    """``drift_constants(params)``; a model it cannot bound (lambda_pu = 0) is a config error."""
    try:
        return drift_constants(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    params = cfg.build_params()
    constants = _drift_constants(params)
    e_b, e_b2 = busy_period_moments(params.lambda_pu, params.phi_nc)
    print(f"t_min={constants.t_min!r}")
    print(f"t_max={constants.t_max!r}")
    print(f"e_b={e_b!r}")
    print(f"e_b2={e_b2!r}")
    print(f"d={constants.d_const!r}")
    print(f"b={constants.b_const!r}")
    print(f"c={constants.c_const!r}")
    v = cfg.get("v", None)
    v_values = cfg.get("v_list", [] if v is None else [v])
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


def _baseline_line(metrics: RunMetrics) -> str:
    return (
        f"{metrics.policy_label:<14} {metrics.throughput_served:>9.4f} "
        f"{metrics.throughput_admitted:>9.4f} {metrics.avg_power:>10.4f} "
        f"{metrics.slots:>9d}"
    )


def cmd_baselines(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    scenario = cfg.build_scenario()
    params = scenario.params
    constants = _drift_constants(params)
    # Enough frames that every row sees >= ~1e5 slots, unless the caller
    # pinned the horizon explicitly.
    if args.frames is not None:
        baseline_frames = scenario.horizon_frames
    else:
        baseline_frames = max(scenario.horizon_frames, int(120_000 / constants.t_min) + 1)
    v = scenario.policy.v if scenario.policy.kind == "fbdpp" else cfg.get("v", 500.0)
    specs = [PolicySpec(kind=kind) for kind in POLICY_KINDS if kind != "fbdpp"]
    specs.append(PolicySpec(kind="fbdpp", v=v))
    # every row runs on the same seed, so each block is drawn and prepared once
    source = BlockSource(params, scenario.seed)
    # each row becomes its table line as its episode returns, so no finished
    # row's per-frame records stay alive while the next row runs
    lines = [
        _baseline_line(run_episode(
            replace(scenario, policy=spec, horizon_frames=baseline_frames, lambda_schedule=()),
            source,
        ))
        for spec in specs
    ]
    print(f"{'policy':<14} {'served':>9} {'admitted':>9} {'avg_power':>10} {'slots':>9}")
    print(*lines, sep="\n")
    if params.power_set.two_point:
        print(f"{'offline_opt':<14} {optimal_two_point(params).upsilon:>9.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Slotted-time cooperation simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, about: str, *keys: str) -> argparse.ArgumentParser:
        # No prefix matching: ``sweep --v`` must not quietly mean ``--v-list``.
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.add_argument("--config", required=True, help="path to key = value config")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), default=None, help=_OVERRIDES[key])
        p.set_defaults(func=func)
        return p

    command("run", cmd_run, "one episode; writes frames.csv and summary.csv",
            "seed", "frames", "v", "policy", "out_dir")
    command("adaptive", cmd_adaptive, "episode with the lambda_pu schedule",
            "seed", "frames", "v", "policy", "out_dir", "window")
    command("sweep", cmd_sweep, "episodes over a list of v values",
            "seed", "frames", "v_list", "out_dir")
    p_oracle = command("oracle", cmd_oracle, "offline optimal stationary policy",
                       "seed", "out_dir")
    p_oracle.add_argument("--validate", action="store_true",
                          help="also simulate the returned policy")
    p_oracle.add_argument("--validate-slots", type=int, default=400_000)
    p_oracle.add_argument("--grid-step", type=float, default=None,
                          help="search the (q, p) grid at this step")
    p_oracle.add_argument("--force-q", type=float, default=None,
                          help="restrict the cooperation probability")
    command("analyze", cmd_analyze, "closed-form constants and bounds", "v", "v_list")
    command("baselines", cmd_baselines, "comparison table of all policies",
            "seed", "frames", "v")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and reused after."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
