"""Flat ``key = value`` run configuration.

One line per setting, ``#`` starts a comment, no nesting. Every value is
parsed when it is read, from the file or from a CLI override, by its key's
entry in ``_KEYS``: an unknown key or a malformed value is a ``ConfigError``
at that moment, whether or not the command goes on to use the key. Ranges
are checked when the model objects are built, so a bad config is refused
before any episode starts or any file is written. Maps (``phi``, ``mu_su``)
are written as ``power:prob`` pairs separated by commas, each power named
once and each in the power set. The shorthands ``phi_nc``/``phi_c`` (two-point
sets) and ``mu_su_max`` (``mu_su`` at ``p_max``, 0 below it) cover the common
case; a map and its shorthand are never both given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .engine import POLICY_KINDS, PolicySpec, Scenario
from .model import ModelParams, PowerSet


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _pairs(text: str, first, second, form: str) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"expected {form} pairs, got {item!r}")
        a, b = item.split(":", 1)
        try:
            out.append((first(a), second(b)))
        except ValueError as exc:
            raise ValueError(f"bad pair {item!r}") from exc
    return out


def _prob_map(text: str) -> dict[float, float]:
    out: dict[float, float] = {}
    for power, prob in _pairs(text, float, float, "power:prob"):
        if power in out:
            raise ValueError(f"power {power:g} is named twice")
        out[power] = prob
    if not out:
        raise ValueError("empty map")
    return out


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad list {text!r}") from exc
    if not values:
        raise ValueError("empty list")
    return values


def _positive(value: str | float) -> float:
    """``float(value)``, refused unless above zero: ``v`` and each ``v_list`` entry."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"v must be positive, got {value:g}")
    return value


def _v_list(text: str) -> list[float]:
    return [_positive(v) for v in _float_list(text)]


def _policy(text: str) -> str:
    kind = text.strip().lower()
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r}")
    return kind


def _int_from(low: int):
    """Parser of an int refused below ``low``: ``seed`` from 0, ``window`` from 1."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _schedule(text: str) -> tuple[tuple[int, float], ...]:
    return tuple(_pairs(text, int, float, "frame:rate"))


# Every config key and the parser its value goes through.
_KEYS = {
    "lambda_pu": float,
    "lambda_su": float,
    "a_max": int,
    "phi": _prob_map,
    "phi_nc": float,
    "phi_c": float,
    "mu_su": _prob_map,
    "mu_su_max": float,
    "p_avg": float,
    "p_max": float,
    "power_levels": _float_list,
    "policy": _policy,
    "v": _positive,
    "v_list": _v_list,
    "frames": int,
    "seed": _int_from(0),
    "window": _int_from(1),
    "lambda_schedule": _schedule,
    "out_dir": str,
}

_REQUIRED_KEYS = {"lambda_pu", "lambda_su", "p_avg", "policy"}

_NO_DEFAULT = object()


def _parse(key: str, text: str, where: str):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return _KEYS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed settings ready to be turned into model objects."""

    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: dict[str, object] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _parse(key, value, f"line {lineno}")
        missing = _REQUIRED_KEYS - values.keys()
        if missing:
            raise ConfigError("missing required keys: " + ", ".join(sorted(missing)))
        return cls(values=values)

    def override(self, **kwargs) -> None:
        """Apply CLI overrides; ``None`` skips a key, anything else is parsed as text."""
        for key, value in kwargs.items():
            if value is not None:
                self.values[key] = _parse(key, str(value), "override")

    def get(self, key: str, default=_NO_DEFAULT):
        """Parsed value of ``key``, else ``default``; a missing key without one is an error."""
        if key in self.values:
            return self.values[key]
        if default is _NO_DEFAULT:
            raise ConfigError(f"missing key {key!r}")
        return default

    # builders ------------------------------------------------------------

    def build_params(self) -> ModelParams:
        p_max = self.get("p_max", 1.0)
        levels = self.get("power_levels", None)
        try:
            if levels is not None:
                power_set = PowerSet.make_grid(levels)
            else:
                power_set = PowerSet.make_two_point(p_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if power_set.p_max != p_max:
            raise ConfigError("power_levels must peak at p_max")

        if "phi" in self.values:
            if "phi_nc" in self.values or "phi_c" in self.values:
                raise ConfigError("give either phi or phi_nc/phi_c, not both")
            phi = self.get("phi")
        else:
            if "phi_nc" not in self.values or "phi_c" not in self.values:
                raise ConfigError("need phi, or both phi_nc and phi_c")
            if not power_set.two_point:
                raise ConfigError("phi_nc/phi_c shorthand needs a two-point set")
            phi = {0.0: self.get("phi_nc"), p_max: self.get("phi_c")}

        mu_su = self.get("mu_su", None)
        if mu_su is None:
            mu_su = {level: 0.0 for level in power_set.levels}
            mu_su[p_max] = self.get("mu_su_max", 1.0)
        elif "mu_su_max" in self.values:
            raise ConfigError("give either mu_su or mu_su_max, not both")
        for name, table in (("phi", phi), ("mu_su", mu_su)):
            outside = [p for p in table if p not in power_set.levels]
            if outside:
                raise ConfigError(f"{name} names power {outside[0]:g}, outside the power set "
                                  f"{', '.join(f'{p:g}' for p in power_set.levels)} "
                                  "(power_levels sets it)")

        try:
            return ModelParams(
                lambda_pu=self.get("lambda_pu"),
                lambda_su=self.get("lambda_su"),
                a_max=self.get("a_max", 1),
                phi=phi,
                mu_su=mu_su,
                p_avg=self.get("p_avg"),
                power_set=power_set,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_policy_spec(self) -> PolicySpec:
        kind = self.get("policy")
        try:
            if kind == "fbdpp":
                return PolicySpec(kind="fbdpp", v=self.get("v"))
            return PolicySpec(kind=kind)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_scenario(self) -> Scenario:
        try:
            return Scenario(
                params=self.build_params(),
                policy=self.build_policy_spec(),
                horizon_frames=self.get("frames", 1000),
                seed=self.get("seed", 1),
                lambda_schedule=self.get("lambda_schedule", ()),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def v_list(self) -> list[float]:
        if "v_list" not in self.values:
            raise ConfigError("sweep needs v_list (config key or --v-list)")
        return self.get("v_list")

    def out_dir(self) -> Path:
        return Path(self.get("out_dir", "."))
