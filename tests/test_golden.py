"""The committed ``out/`` CSVs regenerate byte for byte through the CLI."""

from pathlib import Path

import pytest

from coopsim.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "command, name, files",
    [
        ("run", "reference", ("frames.csv", "summary.csv")),
        ("sweep", "reference", ("sweep.csv",)),
        ("oracle", "reference", ("oracle.csv",)),
        ("adaptive", "rate_switch", ("frames.csv", "summary.csv")),
    ],
)
def test_committed_outputs_regenerate(tmp_path, command, name, files):
    out = tmp_path / name
    config = ROOT / "configs" / f"{name}.conf"
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == 0
    for file in files:
        assert (out / file).read_bytes() == (ROOT / "out" / name / file).read_bytes(), file
