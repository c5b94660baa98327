import argparse
import ast
import csv
import filecmp
import io
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coopsim import ModelParams, Scenario, config
from coopsim.cli import (
    FRAMES_CSV_COLUMNS,
    ORACLE_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    _write_csv,
    build_parser,
    main,
    read_frames_csv,
    write_frames_csv,
    write_oracle_csv,
    write_summary_csv,
    write_sweep_csv,
)
from coopsim.config import ConfigError, RunConfig
from coopsim.engine import POLICY_KINDS, PolicySpec, RunMetrics, run_episode, sweep_v
from coopsim.oracle import StationaryPolicy, optimal_two_point, simulate_stationary

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = """
# reference operating point
lambda_pu = 0.5
lambda_su = 0.5
phi_nc = 0.6
phi_c = 0.8
p_avg = 0.5
p_max = 1
policy = fbdpp
v = 500
frames = 200
seed = 42
"""


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_and_defaults(tmp_path):
    cfg = RunConfig.from_path(write_config(tmp_path, BASE))
    scenario = cfg.build_scenario()
    assert scenario.params.phi_c == 0.8
    assert scenario.policy.kind == "fbdpp" and scenario.policy.v == 500
    assert scenario.horizon_frames == 200
    assert scenario.window == 100          # default
    assert scenario.params.a_max == 1      # default


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_text(BASE + "\nwhatever = 3\n")


def test_missing_required_rejected():
    with pytest.raises(ConfigError, match="missing required"):
        RunConfig.from_text("lambda_pu = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.from_text(BASE + "\nseed = 7\n")


def test_unstable_rate_rejected(tmp_path):
    bad = BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.65")
    cfg = RunConfig.from_text(bad)
    with pytest.raises(ConfigError, match="unstable primary queue"):
        cfg.build_scenario()


def test_map_form_and_grid(tmp_path):
    text = """
lambda_pu = 0.4
lambda_su = 0.5
phi = 0:0.6, 0.5:0.7, 1:0.8
mu_su = 0:0, 0.5:0.5, 1:1
p_avg = 0.5
p_max = 1
power_levels = 0, 0.5, 1
policy = counter
"""
    scenario = RunConfig.from_text(text).build_scenario()
    assert scenario.params.power_set.levels == (0.0, 0.5, 1.0)
    assert scenario.params.phi_of(0.5) == 0.7


def test_schedule_parsing():
    text = BASE + "\nlambda_schedule = 350:0.2, 700:0.55\n"
    scenario = RunConfig.from_text(text).build_scenario()
    assert scenario.lambda_schedule == ((350, 0.2), (700, 0.55))


def test_cli_run_writes_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "throughput_admitted=" in captured.out
    frames = read_frames_csv(tmp_path / "out" / "frames.csv")
    assert len(frames["frame"]) == 200
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("# rng=pcg64 seed=42")
    assert summary[1].split(",")[0] == "policy"


def test_cli_run_round_trip_exact(tmp_path):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg)]) == 0
    from coopsim import run_episode
    scenario = RunConfig.from_path(cfg).build_scenario()
    metrics = run_episode(scenario)
    cols = read_frames_csv(tmp_path / "out" / "frames.csv")
    assert cols["frame_len"] == list(metrics.frame_len)
    assert cols["power_idle"] == [float(x) for x in metrics.power_idle]
    assert cols["x_su_end"] == [float(x) for x in metrics.x_su_end]


def test_cli_rerun_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/a\n", "a.conf")
    cfg_b = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/b\n", "b.conf")
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    assert filecmp.cmp(tmp_path / "a" / "frames.csv", tmp_path / "b" / "frames.csv",
                       shallow=False)


def test_cli_seed_override_reflected(tmp_path):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--seed", "777"]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[-1].rstrip().endswith("777")


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.9"))
    assert main(["run", "--config", str(bad)]) == 1
    assert "unstable primary queue" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) == 1


def test_cli_sweep(tmp_path, capsys):
    text = BASE.replace("frames = 200", "frames = 100")
    cfg = write_config(tmp_path, text + f"\nout_dir = {tmp_path}/out\n")
    assert main(["sweep", "--config", str(cfg), "--v-list", "10,100"]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "v,throughput_admitted,avg_q_su,avg_power"
    assert len(lines) == 4
    assert lines[2].startswith("10.0,")
    # rerun produces the identical file
    before = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg), "--v-list", "10,100"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == before


def test_cli_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "upsilon=0.25" in out
    assert "q=0.333333333" in out
    assert main(["oracle", "--config", str(cfg), "--force-q", "0"]) == 0
    out = capsys.readouterr().out
    assert "upsilon=0.1666" in out


def test_cli_oracle_validate(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), "--validate",
                 "--validate-slots", "60000"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("validated_throughput=")][0]
    value = float(line.split()[0].split("=")[1])
    assert value == pytest.approx(0.25, abs=0.02)


def test_cli_oracle_force_q_is_exact(tmp_path, capsys):
    # closed form at a forced q: p = 7/9 exactly, not a 1e-3 grid point
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), "--force-q", "0.4"]) == 0
    kv = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
    assert kv["method"] == "closed-form(q=0.4 forced)"
    assert float(kv["p"]) == pytest.approx(7 / 9, abs=1e-12)
    assert float(kv["upsilon"]) == pytest.approx(0.20588235294117646, abs=1e-15)
    assert float(kv["power_used"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("args", [
    ["--force-q", "1.5"],
    ["--force-q", "-0.1"],
    ["--force-q", "1"],                         # cooperation alone costs 0.625
    ["--force-q", "1", "--grid-step", "0.01"],
    ["--grid-step", "0.5"],
    ["--validate", "--validate-slots", "0"],
])
def test_cli_oracle_bad_inputs_are_config_errors(tmp_path, capsys, args):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), *args]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()      # nothing written, no oracle.csv


@pytest.mark.parametrize("max_slots", ["0", "-5"])
def test_non_positive_max_slots_rejected(tmp_path, capsys, max_slots):
    cfg = write_config(tmp_path, BASE + f"\nmax_slots = {max_slots}\nout_dir = {tmp_path}/out\n")
    with pytest.raises(ConfigError, match="max_slots"):
        RunConfig.from_path(cfg).build_scenario()
    assert main(["run", "--config", str(cfg)]) == 1
    assert "max_slots must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_oracle_grid_needed_for_grids(tmp_path, capsys):
    text = """
lambda_pu = 0.5
lambda_su = 0.5
phi = 0:0.6, 0.5:0.7, 1:0.8
mu_su = 0:0, 0.5:0.5, 1:1
p_avg = 0.5
policy = counter
power_levels = 0, 0.5, 1
"""
    cfg = write_config(tmp_path, text + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg)]) == 1
    assert "--grid-step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()     # the refused run creates nothing
    assert main(["oracle", "--config", str(cfg), "--grid-step", "0.01"]) == 0
    assert (tmp_path / "out" / "oracle.csv").exists()


def test_cli_analyze(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["analyze", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "t_min=5.333333333333333" in out
    assert "t_max=12.0" in out
    assert "d=902.666666666667" in out.replace("d=902.6666666666669", "d=902.666666666667")
    assert "v=500" in out and "vacuous" in out


def test_cli_analyze_equal_probs(tmp_path, capsys):
    text = BASE.replace("phi_c = 0.8", "phi_c = 0.6")
    cfg = write_config(tmp_path, text)
    assert main(["analyze", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    t_min = [l for l in out.splitlines() if l.startswith("t_min=")][0]
    t_max = [l for l in out.splitlines() if l.startswith("t_max=")][0]
    assert t_min.split("=")[1] == t_max.split("=")[1]


def test_cli_baselines_table(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    # small pinned horizon keeps this a smoke test; values are loose
    assert main(["baselines", "--config", str(cfg), "--frames", "3000"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["policy", "served", "admitted", "avg_power", "slots"]
    table = {l.split()[0]: l.split()[1:] for l in lines[1:] if l.strip()}
    assert float(table["no_coop"][0]) == pytest.approx(1 / 6, abs=0.02)
    assert float(table["always_coop"][0]) <= 0.01
    assert float(table["counter"][0]) == pytest.approx(0.137, abs=0.03)
    assert "fbdpp(v=500)" in table and "offline_opt" in table
    assert float(table["offline_opt"][0]) == pytest.approx(0.25)


def test_cli_baselines_equal_horizons(tmp_path, capsys):
    # without --frames every row, the controller's too, runs >= 1e5 slots
    cfg = write_config(tmp_path, BASE)
    assert main(["baselines", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = {l.split()[0]: l.split()[1:] for l in lines if not l.startswith("offline_opt")}
    assert set(rows) == {"no_coop", "always_coop", "counter", "fbdpp(v=500)"}
    for name, cols in rows.items():
        assert int(cols[3]) >= 100_000, name


@pytest.mark.parametrize("command", ["run", "adaptive", "sweep", "baselines"])
def test_cli_truncated_episode_exits_2(tmp_path, capsys, command):
    text = BASE + f"\nmax_slots = 1000\nv_list = 10\nout_dir = {tmp_path}/out\n"
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip()
    match = re.fullmatch(r"error: stopped at max_slots=1000 after (\d+) of (\d+) frames", err)
    assert match, err
    assert int(match.group(1)) < int(match.group(2))
    assert not (tmp_path / "out").exists()     # no CSV from a cut-short run


def test_cli_adaptive(tmp_path, capsys):
    text = (
        BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.4")
        .replace("lambda_su = 0.5", "lambda_su = 0.8")
        .replace("frames = 200", "frames = 120")
    )
    text += f"\nlambda_schedule = 60:0.2\nout_dir = {tmp_path}/out\n"
    cfg = write_config(tmp_path, text)
    for argv, checkpoints in (([], ["frame=100", "frame=120"]),
                              (["--frames", "100"], ["frame=100"])):
        assert main(["adaptive", "--config", str(cfg), *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        # each checkpoint once, also when the horizon is itself a checkpoint
        assert [line.split()[0] for line in lines if line.startswith("frame=")] == checkpoints
        assert all("coop_power_ma=" in line for line in lines if line.startswith("frame="))


@pytest.mark.parametrize("argv, edit", [
    (["baselines", "--frames", "10"],
     {"policy = fbdpp": "policy = counter", "v = 500": "v = abc"}),
    (["analyze"], {"v = 500": "v = abc"}),
    (["oracle", "--validate"], {"seed = 42": "seed = x1"}),
    (["run"], {"seed = 42": "seed = 42\nv_list = 10, abc"}),   # a key run never reads
    (["sweep"], {"seed = 42": "seed = 42\nv_list = 10, -5"}),  # not only the first v
    (["analyze"], {"seed = 42": "seed = 42\nv_list = 5, 0"}),
    (["oracle"], {"policy = fbdpp": "policy = bogus"}),
    (["analyze"], {"policy = fbdpp": "policy = bogus"}),
    (["run", "--seed", "-1"], {}),
    (["oracle", "--validate"], {"seed = 42": "seed = -1"}),
    (["analyze"], {"v = 500": "v = 0"}),
    (["baselines", "--frames", "10"], {"policy = fbdpp": "policy = counter", "v = 500": "v = -1"}),
    (["run"], {"policy = fbdpp": "policy = stationary"}),
    (["run"], {"seed = 42": "seed = 42\nstationary_q = 0.3"}),
])
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, argv, edit):
    text = BASE
    for old, new in edit.items():
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text + f"\nout_dir = {tmp_path}/out\n")
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error:")
    assert out == ""                            # nothing printed before the refusal
    assert not (tmp_path / "out").exists()      # refused before anything is written


def test_cli_sweep_takes_v_from_v_list(tmp_path):
    # no template v needed, and the template v changes no byte of sweep.csv
    for name, text in (("with_v", BASE), ("no_v", BASE.replace("v = 500", ""))):
        text = text.replace("frames = 200", "frames = 50") + "\nv_list = 10, 100\n"
        cfg = write_config(tmp_path, text + f"out_dir = {tmp_path}/{name}\n", f"{name}.conf")
        assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "with_v" / "sweep.csv").read_bytes() == (
        tmp_path / "no_v" / "sweep.csv").read_bytes()


def _parser_flags() -> dict[str, set[str]]:
    """{subcommand: its flags} as build_parser() defines them."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, p in sub.choices.items()}


IGNORED_FLAGS = [
    ("run", "--window"), ("sweep", "--window"), ("sweep", "--v"),
    ("oracle", "--frames"), ("oracle", "--v"), ("oracle", "--window"),
    ("analyze", "--seed"), ("analyze", "--frames"), ("analyze", "--out-dir"),
    ("analyze", "--window"), ("baselines", "--out-dir"), ("baselines", "--window"),
]


def test_cli_rejects_ignored_flags(tmp_path, capsys):
    # a flag its subcommand would not read is a usage error, not a silent no-op
    parser = build_parser()
    for command, flag in IGNORED_FLAGS:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--config", "x.conf", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    # ... and every flag that stays changes what its subcommand does
    counter = write_config(tmp_path, BASE.replace("policy = fbdpp", "policy = counter"))
    fbdpp = RunConfig.from_path(counter)
    fbdpp.override(seed=777, frames=20, v=50, policy="fbdpp")
    scenario = fbdpp.build_scenario()
    episode = ["--config", str(counter), "--seed", "777", "--frames", "20", "--v", "50",
               "--policy", "fbdpp"]

    # run and adaptive: seed, frames, v and policy land in the CSVs under --out-dir
    assert main(["run", *episode, "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["adaptive", *episode, "--window", "1",
                 "--out-dir", str(tmp_path / "adaptive")]) == 0
    for name in ("run", "adaptive"):
        row = (tmp_path / name / "summary.csv").read_text().splitlines()[-1].split(",")
        assert (row[0], row[1], row[-1]) == ("fbdpp(v=50)", "50.0", "777")
        assert len(read_frames_csv(tmp_path / name / "frames.csv")["frame"]) == 20
    ma = run_episode(scenario).moving_average("coop_power", window=1)[19]
    assert f"frame=20 coop_power_ma={ma:.6f}" in capsys.readouterr().out

    # sweep: seed, frames and v_list shape sweep.csv under --out-dir
    sweep_cfg = write_config(tmp_path, BASE, "sweep.conf")
    assert main(["sweep", "--config", str(sweep_cfg), "--seed", "777", "--frames", "20",
                 "--v-list", "10,50", "--out-dir", str(tmp_path / "sweep")]) == 0
    write_sweep_csv(tmp_path / "expected.csv", sweep_v(scenario, [10.0, 50.0]), 777)
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == (
        tmp_path / "expected.csv").read_bytes()

    # oracle: seed drives the validation run, oracle.csv lands under --out-dir
    capsys.readouterr()
    assert main(["oracle", "--config", str(counter), "--seed", "777", "--validate",
                 "--validate-slots", "2000", "--out-dir", str(tmp_path / "oracle")]) == 0
    sim = simulate_stationary(optimal_two_point(scenario.params), scenario.params, 2000, 777)
    assert f"validated_throughput={sim.throughput:.6f}" in capsys.readouterr().out
    assert (tmp_path / "oracle" / "oracle.csv").exists()

    # analyze: --v, then --v-list, replace the config's v = 500
    assert main(["analyze", "--config", str(counter), "--v", "50"]) == 0
    bounds = [l.split()[0] for l in capsys.readouterr().out.splitlines() if " throughput" in l]
    assert bounds == ["v=50"]
    assert main(["analyze", "--config", str(counter), "--v", "50", "--v-list", "10,20"]) == 0
    bounds = [l.split()[0] for l in capsys.readouterr().out.splitlines() if " throughput" in l]
    assert bounds == ["v=10", "v=20"]

    # baselines: seed and frames fix every row's episode, v the controller row
    assert main(["baselines", "--config", str(counter), "--seed", "777", "--frames", "20",
                 "--v", "50"]) == 0
    rows = {l.split()[0]: l.split()[1:] for l in capsys.readouterr().out.splitlines()[1:]}
    no_coop = run_episode(replace(scenario, policy=PolicySpec(kind="no_coop")))
    assert int(rows["no_coop"][3]) == no_coop.slots
    assert "fbdpp(v=50)" in rows


def _readme_table(heading: str) -> list[list[str]]:
    """Body rows of the first table after ``heading`` in README, as cell lists."""
    lines = README.read_text().splitlines()
    rows = []
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]


def test_readme_tables_match_the_code():
    documented_keys = {key for row in _readme_table("### Config keys")
                       for key in re.findall(r"`(\w+)`", row[0])}
    assert documented_keys == set(config._KEYS)
    [policy_row] = [row for row in _readme_table("### Config keys") if row[0] == "`policy`"]
    assert tuple(re.findall(r"`(\w+)`", policy_row[1])) == POLICY_KINDS
    documented_flags = {row[0].strip("`"): set(re.findall(r"`(--[\w-]+)`", row[1]))
                        for row in _readme_table("### Flags")}
    assert documented_flags == _parser_flags()


def test_runtime_imports_are_numpy_and_stdlib_only():
    # scipy and pytest-benchmark may be installed, but the package needs only numpy.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for path in sorted(Path(config.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported and {(f, m) for f, m in imported if m not in allowed} == set()


def _csv_writer_bytes(meta_line, header, rows):
    """The CSV format as ``csv.writer`` writes it, floats through repr."""
    out = io.StringIO(newline="")
    if meta_line is not None:
        out.write(meta_line + "\n")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([repr(x) if isinstance(x, float) else str(x) for x in row] for row in rows)
    return out.getvalue().encode()


# values whose repr is long, exponent-form or subnormal
AWKWARD = np.array([1e16, 1e-7, 5e-324, 0.1 + 0.2])


def _crafted_metrics(n, v=500.0):
    k = np.arange(n)
    ints = np.int64
    return RunMetrics(
        policy_label=PolicySpec(kind="fbdpp", v=v).label() if v is not None else "counter",
        v=v, seed=20260810, window=100,
        frame_len=(k % 7 + 2).astype(ints), admitted=(k % 3).astype(ints),
        served=(k % 2).astype(ints), power_idle=0.7 * k, power_coop=AWKWARD[k % 4],
        q_su_end=(k * 37 % 501).astype(ints), x_su_end=np.cumsum(np.full(n, 0.7)),
        idle_len=(k % 2).astype(ints), q_sum=(3 * k).astype(ints), max_q_su=501,
    )


def _frames_rows(m):
    return zip(range(1, m.frames + 1), m.frame_len.tolist(), m.admitted.tolist(),
               m.served.tolist(), m.power_idle.tolist(), m.power_coop.tolist(),
               m.q_su_end.tolist(), m.x_su_end.tolist())


def _summary_row(m):
    return [m.policy_label, float(m.v) if m.v is not None else "", m.throughput_admitted,
            m.throughput_served, m.avg_power, m.max_q_su, m.seed]


def _meta(m):
    return f"# rng=pcg64 seed={m.seed} policy={m.policy_label}"


@pytest.mark.parametrize("v", [500.0, 0.7 * 3, None])
def test_episode_writers_match_csv_writer(tmp_path, v):
    m = _crafted_metrics(1000, v)
    write_frames_csv(tmp_path / "frames.csv", m)
    write_summary_csv(tmp_path / "summary.csv", m)
    assert (tmp_path / "frames.csv").read_bytes() == _csv_writer_bytes(
        _meta(m), FRAMES_CSV_COLUMNS, _frames_rows(m))
    assert (tmp_path / "summary.csv").read_bytes() == _csv_writer_bytes(
        _meta(m), SUMMARY_CSV_COLUMNS, [_summary_row(m)])
    cols = read_frames_csv(tmp_path / "frames.csv")
    assert cols["frame"] == list(range(1, 1001))
    assert cols["power_idle"] == m.power_idle.tolist()
    assert cols["power_coop"] == m.power_coop.tolist()
    assert cols["x_su_end"] == m.x_su_end.tolist()
    assert cols["q_su_end"] == m.q_su_end.tolist()


def test_frames_writer_memo_keeps_each_float_text(tmp_path):
    # Signed zeros compare equal and share a hash, so a memo keyed on the float
    # could give one the other's text; nan equals nothing, not even itself.
    values = np.array([0.0, -0.0, np.nan, 0.1, 0.1 + 0.2, 0.7 * 3, -0.0, 0.0, 1e16, 5e-324,
                       np.nan, -0.1, 0.3, 0.1 + 0.2, -np.inf])
    k = np.arange(3 * len(values))
    m = replace(_crafted_metrics(len(k)), power_idle=np.resize(values, len(k)),
                power_coop=np.resize(values[::-1], len(k)), x_su_end=np.resize(values[1:], len(k)))
    write_frames_csv(tmp_path / "frames.csv", m)
    _write_csv(tmp_path / "plain.csv", _meta(m), FRAMES_CSV_COLUMNS, "%d,%d,%d,%d,%r,%r,%d,%r",
               _frames_rows(m))
    written = (tmp_path / "frames.csv").read_bytes()
    assert written == (tmp_path / "plain.csv").read_bytes()
    assert b",-0.0," in written and b",0.0," in written and b",nan," in written


def test_zero_frame_episode_writes_header_only(tmp_path):
    quiet = ModelParams.two_point(0.0, 0.5, 0.6, 0.8, 0.5)
    m = run_episode(Scenario(params=quiet, policy=PolicySpec(kind="fbdpp", v=5.0),
                             horizon_frames=3, seed=1, max_slots=50))
    assert m.frames == 0
    write_frames_csv(tmp_path / "frames.csv", m)
    write_summary_csv(tmp_path / "summary.csv", m)
    assert (tmp_path / "frames.csv").read_bytes() == _csv_writer_bytes(
        _meta(m), FRAMES_CSV_COLUMNS, [])
    assert (tmp_path / "summary.csv").read_bytes() == _csv_writer_bytes(
        _meta(m), SUMMARY_CSV_COLUMNS, [_summary_row(m)])
    assert read_frames_csv(tmp_path / "frames.csv") == {name: [] for name in FRAMES_CSV_COLUMNS}


def test_sweep_and_oracle_writers_match_csv_writer(tmp_path):
    results = [(0.7 * k, _crafted_metrics(10 * k + 1)) for k in range(1, 5)]
    results.append((1e16, _crafted_metrics(3)))
    write_sweep_csv(tmp_path / "sweep.csv", results, 7)
    assert (tmp_path / "sweep.csv").read_bytes() == _csv_writer_bytes(
        "# rng=pcg64 base_seed=7", SWEEP_CSV_COLUMNS,
        [[float(v), m.throughput_admitted, m.avg_q_su, m.avg_power] for v, m in results])
    policy = StationaryPolicy(coop_prob=0.7 * 3, idle_tx_prob=1e-7, upsilon=1e16, pi_0=5e-324,
                              power_used=0.1 + 0.2)
    write_oracle_csv(tmp_path / "oracle.csv", policy)
    assert (tmp_path / "oracle.csv").read_bytes() == _csv_writer_bytes(
        None, ORACLE_CSV_COLUMNS, [[1e16, 0.7 * 3, 1e-7, 5e-324, 0.1 + 0.2]])


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # every subcommand runs in one process, whatever COOPSIM_THREADS says
    root = README.parent
    src = str(Path(config.__file__).resolve().parents[1])
    env = {**os.environ, "COOPSIM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; from coopsim.cli import main; "
            "code = main(['sweep', '--config', sys.argv[1], '--out-dir', sys.argv[2]]); "
            "print(code, sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "configs" / "reference.conf"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
    committed = root / "out" / "reference" / "sweep.csv"
    assert (tmp_path / "sweep.csv").read_bytes() == committed.read_bytes()


def test_main_reuses_its_parser_without_changing_any_call(tmp_path, capsys):
    # one process, three calls: each prints and writes the bytes the same
    # call prints and writes in a fresh interpreter
    cfg = write_config(tmp_path, BASE)
    calls = [
        ["run", "--config", str(cfg), "--out-dir", "{}/a"],
        ["baselines", "--config", str(cfg), "--frames", "50"],
        ["run", "--config", str(cfg), "--seed", "777", "--out-dir", "{}/b"],
    ]
    src = str(Path(config.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys; from coopsim.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        assert main([a.format(tmp_path / "here") for a in argv]) == 0
        here = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-c", code,
                                *(a.format(tmp_path / "fresh") for a in argv)],
                               env=env, capture_output=True, text=True, check=True).stdout
        assert here == fresh
    for sub in ("a", "b"):
        for name in ("frames.csv", "summary.csv"):
            here = (tmp_path / "here" / sub / name).read_bytes()
            assert here == (tmp_path / "fresh" / sub / name).read_bytes()
    assert (tmp_path / "here" / "a" / "frames.csv").read_bytes() != (
        tmp_path / "here" / "b" / "frames.csv").read_bytes()
