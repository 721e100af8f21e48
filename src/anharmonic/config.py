"""Flat key=value run configuration with strict validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

METHODS = ("TW", "PositiveP", "Oracle")

#: Hard ceiling on the scaled-time window.
TAU_STOP_MAX = 25.0

_KEYS = (
    "method",
    "N",
    "n_paths",
    "batches",
    "tau_start",
    "tau_stop",
    "tau_points",
    "dtau",
    "theta_mode",
    "theta_value",
    "divergence_threshold",
)

#: Keys that only some runs read: each names the setting that decides and
#: the values of it under which the key is read.  A key given to a run that
#: does not read it draws a warning.
_READ_WHEN = {
    "n_paths": ("method", ("TW", "PositiveP")),
    "batches": ("method", ("TW", "PositiveP")),
    "dtau": ("method", ("PositiveP",)),
    "divergence_threshold": ("method", ("PositiveP",)),
    "theta_value": ("theta_mode", ("fixed",)),
}


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class MissingKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(key, f"missing required config key {key!r}")


class InvalidValue(ConfigError):
    def __init__(self, key: str, message: str):
        super().__init__(key, f"invalid value for {key!r}: {message}")


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(key, f"unknown config key {key!r}")


@dataclass(frozen=True)
class SimulationConfig:
    method: str
    n_particles: float
    n_paths: int = 100_000
    batches: int = 100
    tau_start: float = 0.0
    tau_stop: float = 10.0
    tau_points: int = 21
    dtau: float = 1e-3
    theta_mode: str = "rotating"
    theta_value: float = 0.0
    divergence_threshold: float = 1e-3
    seed: int = 0
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def taus(self) -> tuple[float, ...]:
        if self.tau_points == 1:
            return (self.tau_start,)
        return tuple(np.linspace(self.tau_start, self.tau_stop, self.tau_points))

    def theta_for(self, tau: float) -> float:
        """Rotating-frame phase theta = 2 tau, or the fixed override."""
        return 2.0 * tau if self.theta_mode == "rotating" else self.theta_value

    @property
    def method_label(self) -> str:
        return {"TW": "tw", "PositiveP": "positive_p", "Oracle": "oracle"}[self.method]


def _parse_pairs(text: str) -> dict[str, str]:
    seen: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidValue(stripped, f"line {lineno} is not key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UnknownKey(key)
        if key in seen:
            raise InvalidValue(key, f"repeated on line {lineno} (first set on line {seen[key][0]})")
        seen[key] = (lineno, value.strip())
    return {key: value for key, (_, value) in seen.items()}


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _whole(text: str) -> int:
    """A finite whole number, also in float notation such as 1e5."""
    value = _finite(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _convert(pairs: dict[str, str], key: str, caster, default):
    if key not in pairs:
        return default
    try:
        return caster(pairs[key])
    except ValueError as exc:
        raise InvalidValue(key, str(exc)) from None


def parse_config(text: str, seed: int = 0) -> SimulationConfig:
    """Parse and validate a flat key=value configuration.

    Unknown and repeated keys are rejected; every error names the key.  Float
    keys must be finite and integer keys finite whole numbers.  The master
    seed comes from the CLI flag, not the file.
    """
    pairs = _parse_pairs(text)
    for required in ("method", "N"):
        if required not in pairs:
            raise MissingKey(required)

    method = pairs["method"]
    if method not in METHODS:
        raise InvalidValue("method", f"{method!r} is not one of {METHODS}")

    settings = {"method": method, "theta_mode": pairs.get("theta_mode", "rotating")}
    cfg = SimulationConfig(
        method=method,
        n_particles=_convert(pairs, "N", _finite, None),
        n_paths=_convert(pairs, "n_paths", _whole, 100_000),
        batches=_convert(pairs, "batches", _whole, 100),
        tau_start=_convert(pairs, "tau_start", _finite, 0.0),
        tau_stop=_convert(pairs, "tau_stop", _finite, 10.0),
        tau_points=_convert(pairs, "tau_points", _whole, 21),
        dtau=_convert(pairs, "dtau", _finite, 1e-3),
        theta_mode=settings["theta_mode"],
        theta_value=_convert(pairs, "theta_value", _finite, 0.0),
        divergence_threshold=_convert(pairs, "divergence_threshold", _finite, 1e-3),
        seed=seed,
        warnings=_collect_warnings(pairs, settings),
    )
    _validate(cfg)
    return cfg


def _collect_warnings(pairs: dict[str, str], settings: dict[str, str]) -> tuple[str, ...]:
    """One ``setting=value ignores key`` note per given key the run does not read."""
    return tuple(
        f"{setting}={settings[setting]} ignores {key}"
        for key, (setting, values) in _READ_WHEN.items()
        if key in pairs and settings[setting] not in values
    )


def _validate(cfg: SimulationConfig):
    if cfg.n_particles is None or not cfg.n_particles > 0:
        raise InvalidValue("N", "particle number must be positive")
    if cfg.tau_start < 0:
        raise InvalidValue("tau_start", "must be nonnegative")
    if cfg.tau_stop < cfg.tau_start:
        raise InvalidValue("tau_stop", "must be >= tau_start")
    if cfg.tau_stop > TAU_STOP_MAX:
        raise InvalidValue("tau_stop", f"must be <= {TAU_STOP_MAX}")
    if cfg.tau_points < 1:
        raise InvalidValue("tau_points", "need at least one output time")
    if cfg.tau_points > 1 and cfg.tau_stop == cfg.tau_start:
        raise InvalidValue("tau_points", "multiple outputs need tau_stop > tau_start")
    if cfg.dtau <= 0:
        raise InvalidValue("dtau", "must be positive")
    if cfg.theta_mode not in ("rotating", "fixed"):
        raise InvalidValue("theta_mode", "must be 'rotating' or 'fixed'")
    if not 0.0 <= cfg.divergence_threshold <= 1.0:
        raise InvalidValue("divergence_threshold", "must lie in [0, 1]")
    if cfg.method in ("TW", "PositiveP"):
        if cfg.batches < 10:
            raise InvalidValue("batches", "need at least 10 batches")
        if cfg.n_paths < cfg.batches:
            raise InvalidValue("n_paths", "fewer paths than batches")
    if cfg.method == "PositiveP":
        # the integrator steps from tau = 0 to tau_start, then between outputs
        steps = round(cfg.tau_start / cfg.dtau)
        if abs(steps * cfg.dtau - cfg.tau_start) > 1e-9 * max(1.0, steps):
            raise InvalidValue("dtau", f"does not divide tau_start = {cfg.tau_start}")
        if cfg.tau_points > 1:
            gap = (cfg.tau_stop - cfg.tau_start) / (cfg.tau_points - 1)
            steps = round(gap / cfg.dtau)
            if steps == 0 or abs(steps * cfg.dtau - gap) > 1e-9 * max(1.0, steps):
                raise InvalidValue("dtau", f"does not divide the output spacing {gap}")
