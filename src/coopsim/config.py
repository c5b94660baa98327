"""Flat ``key = value`` run configuration.

One line per setting, ``#`` starts a comment, no nesting. Unknown keys are
rejected and every value is range-checked before anything runs, so a bad
config never produces a partial run. Maps (``phi``, ``mu_su``) are written as
``power:prob`` pairs separated by commas; the two-point shorthand
``phi_nc``/``phi_c`` covers the common case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .engine import PolicySpec, Scenario
from .model import ModelParams, PowerSet


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


_KNOWN_KEYS = {
    "lambda_pu",
    "lambda_su",
    "a_max",
    "phi",
    "phi_nc",
    "phi_c",
    "mu_su",
    "mu_su_max",
    "p_avg",
    "p_max",
    "power_levels",
    "policy",
    "v",
    "v_list",
    "stationary_q",
    "stationary_p",
    "frames",
    "seed",
    "window",
    "lambda_schedule",
    "max_slots",
    "out_dir",
}

_REQUIRED_KEYS = {"lambda_pu", "lambda_su", "p_avg", "policy"}


@dataclass
class RunConfig:
    """Validated settings ready to be turned into model objects."""

    raw: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value
        missing = _REQUIRED_KEYS - raw.keys()
        if missing:
            raise ConfigError("missing required keys: " + ", ".join(sorted(missing)))
        return cls(raw=raw)

    def override(self, **kwargs) -> None:
        """Apply CLI overrides (string values, same validation path)."""
        for key, value in kwargs.items():
            if value is None:
                continue
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown override {key!r}")
            self.raw[key] = str(value)

    # typed getters -------------------------------------------------------

    def _float(self, key: str, default: float | None = None) -> float:
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing key {key!r}")
            return default
        try:
            return float(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {self.raw[key]!r}") from exc

    def _int(self, key: str, default: int | None = None) -> int:
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing key {key!r}")
            return default
        try:
            return int(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {self.raw[key]!r}") from exc

    def _prob_map(self, key: str) -> dict[float, float]:
        out: dict[float, float] = {}
        for item in self.raw[key].split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ConfigError(f"{key}: expected power:prob pairs, got {item!r}")
            power_s, prob_s = item.split(":", 1)
            try:
                out[float(power_s)] = float(prob_s)
            except ValueError as exc:
                raise ConfigError(f"{key}: bad pair {item!r}") from exc
        if not out:
            raise ConfigError(f"{key}: empty map")
        return out

    def _float_list(self, key: str) -> list[float]:
        try:
            values = [float(x) for x in self.raw[key].split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key}: bad list {self.raw[key]!r}") from exc
        if not values:
            raise ConfigError(f"{key}: empty list")
        return values

    # builders ------------------------------------------------------------

    def build_params(self) -> ModelParams:
        p_max = self._float("p_max", 1.0)
        if "power_levels" in self.raw:
            power_set = PowerSet.make_grid(self._float_list("power_levels"))
        else:
            power_set = PowerSet.make_two_point(p_max)
        if power_set.p_max != p_max:
            raise ConfigError("power_levels must peak at p_max")

        if "phi" in self.raw:
            if "phi_nc" in self.raw or "phi_c" in self.raw:
                raise ConfigError("give either phi or phi_nc/phi_c, not both")
            phi = self._prob_map("phi")
        else:
            if "phi_nc" not in self.raw or "phi_c" not in self.raw:
                raise ConfigError("need phi, or both phi_nc and phi_c")
            if not power_set.two_point:
                raise ConfigError("phi_nc/phi_c shorthand needs a two-point set")
            phi = {0.0: self._float("phi_nc"), p_max: self._float("phi_c")}

        if "mu_su" in self.raw:
            mu_su = self._prob_map("mu_su")
        else:
            mu_su = {level: 0.0 for level in power_set.levels}
            mu_su[p_max] = self._float("mu_su_max", 1.0)

        try:
            return ModelParams(
                lambda_pu=self._float("lambda_pu"),
                lambda_su=self._float("lambda_su"),
                a_max=self._int("a_max", 1),
                phi=phi,
                mu_su=mu_su,
                p_avg=self._float("p_avg"),
                p_max=p_max,
                power_set=power_set,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_policy_spec(self) -> PolicySpec:
        kind = self.raw["policy"].strip().lower()
        try:
            if kind == "fbdpp":
                return PolicySpec(kind="fbdpp", v=self._float("v"))
            if kind == "stationary":
                return PolicySpec(
                    kind="stationary",
                    coop_prob=self._float("stationary_q"),
                    idle_tx_prob=self._float("stationary_p"),
                )
            return PolicySpec(kind=kind)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_scenario(self) -> Scenario:
        schedule: list[tuple[int, float]] = []
        if "lambda_schedule" in self.raw:
            for item in self.raw["lambda_schedule"].split(","):
                item = item.strip()
                if not item:
                    continue
                if ":" not in item:
                    raise ConfigError(
                        f"lambda_schedule: expected frame:rate pairs, got {item!r}"
                    )
                frame_s, lam_s = item.split(":", 1)
                try:
                    schedule.append((int(frame_s), float(lam_s)))
                except ValueError as exc:
                    raise ConfigError(f"lambda_schedule: bad pair {item!r}") from exc
        max_slots = self._int("max_slots") if "max_slots" in self.raw else None
        try:
            return Scenario(
                params=self.build_params(),
                policy=self.build_policy_spec(),
                horizon_frames=self._int("frames", 1000),
                seed=self._int("seed", 1),
                lambda_schedule=tuple(schedule),
                window=self._int("window", 100),
                max_slots=max_slots,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def v_list(self) -> list[float]:
        if "v_list" not in self.raw:
            raise ConfigError("sweep needs v_list (config key or --v-list)")
        return self._float_list("v_list")

    def out_dir(self) -> Path:
        return Path(self.raw.get("out_dir", "."))
