"""Output checks run from outside the program on every operation.

Each ``check_*`` returns a list of violations (empty when the output is
correct). The invariants are the paper's sample-path guarantees for the
frame controller and the statistical agreement of the validators with their
closed forms; ``fingerprint_csv`` reduces an output to per-column values so
a run can be compared with recorded reference values column by column.

Stdlib only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

# A statistical check fails when an estimate lies more than this many
# standard errors from its closed form (two-sided normal tail ~2e-9).
K_SIGMA = 6.0
# Relative slack for float sums re-added from the CSV text.
FLOAT_SLACK = 1e-9
# Values longer than this are stored as a digest in a fingerprint.
INLINE_LIMIT = 200


def read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header, rows) of a CSV written by the CLI."""
    text = Path(path).read_text()
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError(f"{path}: no header")
    return comments, rows[0], rows[1:]


def columns(path: str | Path) -> dict[str, list[str]]:
    _, header, rows = read_csv(path)
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def check_frames(path: str | Path, v: float, a_max: int, p_avg: float, frames: int) -> list[str]:
    """Backlog bound, virtual-queue power identity and frame count of a frames.csv."""
    col = columns(path)
    out = []
    q_end = [int(x) for x in col["q_su_end"]]
    if len(q_end) != frames:
        out.append(f"{path}: {len(q_end)} frames written, {frames} requested")
    if q_end and max(q_end) > v + a_max:
        out.append(f"{path}: max q_su_end {max(q_end)} > v + a_max = {v + a_max:g}")
    power = math.fsum(float(x) for x in col["power_idle"] + col["power_coop"])
    slots = sum(int(x) for x in col["frame_len"])
    x_end = float(col["x_su_end"][-1]) if col["x_su_end"] else 0.0
    overshoot = power - p_avg * slots
    if overshoot > x_end + FLOAT_SLACK * max(1.0, power):
        out.append(
            f"{path}: power sum - p_avg * slots = {overshoot!r} > x_su_end = {x_end!r}"
        )
    return out


def check_summary(path: str | Path, v: float, a_max: int) -> list[str]:
    col = columns(path)
    out = []
    max_q = int(col["max_q_su"][0])
    if max_q > v + a_max:
        out.append(f"{path}: max_q_su {max_q} > v + a_max = {v + a_max:g}")
    if float(col["throughput_served"][0]) > float(col["throughput_admitted"][0]):
        out.append(f"{path}: more packets served than admitted")
    return out


def check_sweep(path: str | Path, v_list, a_max: int, p_max: float) -> list[str]:
    col = columns(path)
    out = []
    if [float(v) for v in col["v"]] != [float(v) for v in v_list]:
        out.append(f"{path}: v column {col['v']} != requested {list(v_list)}")
        return out
    for v, q, p in zip(col["v"], col["avg_q_su"], col["avg_power"]):
        if float(q) > float(v) + a_max:
            out.append(f"{path}: v={v} avg_q_su {q} > v + a_max")
        if not 0.0 <= float(p) <= p_max:
            out.append(f"{path}: v={v} avg_power {p} outside [0, p_max]")
    return out


def parse_table(text: str) -> dict[str, dict[str, str]]:
    """Rows of the ``baselines`` table, keyed by policy label."""
    rows: dict[str, dict[str, str]] = {}
    header: list[str] = []
    for line in text.splitlines():
        cells = line.split()
        if not cells:
            continue
        if cells[0] == "policy":
            header = cells
        elif header:
            rows[cells[0]] = dict(zip(header[1:], cells[1:]))
    return rows


def check_baselines(text: str, p_avg: float, p_max: float, frames: int) -> list[str]:
    """Every policy ran; budget gates hold; each frame took at least two slots.

    The table prints four decimals, hence the rounding slack. A budget-gated
    baseline spends p_max only while its running average is below p_avg, so
    it can overshoot by at most one slot's spend.
    """
    rows = parse_table(text)
    out = []
    for kind in ("no_coop", "always_coop", "counter"):
        row = rows.get(kind)
        if row is None:
            out.append(f"baselines: no {kind} row")
            continue
        slots = int(row["slots"])
        if float(row["avg_power"]) > p_avg + p_max / slots + 5e-5:
            out.append(f"baselines: {kind} avg_power {row['avg_power']} over budget")
    fbdpp = [k for k in rows if k.startswith("fbdpp")]
    if len(fbdpp) != 1:
        out.append("baselines: no fbdpp row")
    for kind in ("no_coop", "always_coop", "counter", *fbdpp):
        row = rows.get(kind)
        if row is None:
            continue
        if int(row["slots"]) < 2 * frames:
            out.append(f"baselines: {kind} ran {row['slots']} slots for {frames} frames")
        if float(row["served"]) > float(row["admitted"]) + 1e-4:
            out.append(f"baselines: {kind} served more than it admitted")
    return out


def key_values(text: str) -> dict[str, str]:
    """``key=value`` tokens of CLI output.

    A line that starts with an index pair (``frame=`` or ``v=``) names its
    other keys after it, as in ``coop_power_ma[frame=300]``.
    """
    out: dict[str, str] = {}
    for line in text.splitlines():
        pairs = [tok.split("=", 1) for tok in line.split() if "=" in tok]
        if pairs and pairs[0][0] in ("frame", "v") and len(pairs) > 1:
            row = "=".join(pairs[0])
            for key, value in pairs[1:]:
                out[f"{key}[{row}]"] = value
        else:
            out.update(pairs)
    return out


def check_validate(kv: dict[str, str], stderr: float) -> list[str]:
    """Simulated throughput of the oracle policy agrees with its upsilon."""
    upsilon = float(kv["upsilon"])
    measured = float(kv["validated_throughput"])
    # The CLI prints six decimals.
    if abs(measured - upsilon) > K_SIGMA * stderr + 5e-7:
        return [
            f"oracle --validate: throughput {measured} is more than {K_SIGMA:g} "
            f"standard errors ({stderr:.3g}) from upsilon {upsilon}"
        ]
    return []


def check_grid(kv: dict[str, str], upsilon_closed: float, step: float) -> list[str]:
    """The grid optimum never beats the closed form and lands within one step."""
    upsilon = float(kv["upsilon"])
    if upsilon > upsilon_closed + 1e-12 or upsilon < upsilon_closed - step:
        return [f"oracle --grid-step: upsilon {upsilon} vs closed form {upsilon_closed}"]
    return []


def check_analyze(kv: dict[str, str], upsilon: float) -> list[str]:
    out = []
    if not float(kv["t_min"]) <= float(kv["t_max"]):
        out.append("analyze: t_min > t_max")
    bounds = [float(v) for k, v in kv.items() if k.startswith("throughput_lower_bound[")]
    if not bounds:
        out.append("analyze: no throughput_lower_bound lines")
    if any(b > upsilon for b in bounds):
        out.append("analyze: a throughput lower bound exceeds the optimum")
    return out


def check_frame_mean(mean: float, stderr: float, lambda_pu: float, phi_nc: float) -> list[str]:
    """Monte-Carlo mean frame length against phi_nc / ((phi_nc - lambda) lambda)."""
    exact = phi_nc / ((phi_nc - lambda_pu) * lambda_pu)
    if abs(mean - exact) > K_SIGMA * stderr:
        return [
            f"sample_frames: mean {mean!r} is more than {K_SIGMA:g} standard errors "
            f"({stderr:.3g}) from the closed form {exact!r}"
        ]
    return []


def _column_value(values: list[str]) -> str:
    text = "\n".join(values)
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def fingerprint_csv(path: str | Path) -> dict[str, str]:
    comments, header, rows = read_csv(path)
    fp = {"#": "\n".join(comments)}
    for k, name in enumerate(header):
        fp[name] = _column_value([row[k] for row in rows])
    return fp


def compare(reference: dict, actual: dict, where: str = "") -> list[str]:
    """Every value in ``reference`` must be present and equal in ``actual``.

    Keys only ``actual`` has (a column a later version adds) are ignored.
    """
    out = []
    for key, want in reference.items():
        got = actual.get(key) if isinstance(actual, dict) else None
        if isinstance(want, dict):
            out.extend(compare(want, got or {}, f"{where}{key}/"))
        elif got != want:
            out.append(f"{where}{key}: {got!r} != reference {want!r}")
    return out


def self_test(reference_frames: Path, rate_switch_frames: Path, work_dir: Path) -> list[str]:
    """The frames checker passes the committed files and flags doctored ones."""
    out = []
    for path in (reference_frames, rate_switch_frames):
        found = check_frames(path, v=500.0, a_max=1, p_avg=0.5, frames=1000)
        if found:
            out.append(f"self-test: clean {path} flagged: {found}")
    work_dir.mkdir(parents=True, exist_ok=True)
    comments, header, rows = read_csv(reference_frames)

    def doctored(name: str, column: str, row: int, value: str) -> Path:
        body = [list(r) for r in rows]
        body[row][header.index(column)] = value
        buf = io.StringIO()
        buf.write("".join(c + "\n" for c in comments))
        csv.writer(buf).writerows([header, *body])
        path = work_dir / name
        path.write_text(buf.getvalue())
        return path

    cases = (
        ("q_su_end", doctored("q_over.csv", "q_su_end", len(rows) // 2, "502")),
        ("power sum", doctored("power_over.csv", "power_coop", 10, "1000.0")),
    )
    for what, path in cases:
        found = check_frames(path, v=500.0, a_max=1, p_avg=0.5, frames=1000)
        if not any(what in f for f in found):
            out.append(f"self-test: doctored {what} not flagged (got {found})")
    return out
