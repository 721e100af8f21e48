"""Flat key=value run configuration with strict validation.

One table holds every key's field, parser and the runs that read it.  A
key the run does not read draws a warning and keeps its field's default,
which lives on :class:`SimulationConfig` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import TimeGrid
from .moments import MIN_BATCHES

METHODS = ("TW", "PositiveP", "Oracle")

#: Hard ceiling on the scaled-time window.
TAU_STOP_MAX = 25.0

#: Largest N the ensembles (TW, PositiveP) accept: beyond it their float64
#: paths lose the O(1) spread on an amplitude of sqrt(N).  The oracle takes any N.
ENSEMBLE_N_MAX = 1e18


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
    seed: int = 0
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def grid(self) -> TimeGrid:
        """The output grid: tau_points times from tau_start to tau_stop."""
        return self._grid_at(np.linspace(self.tau_start, self.tau_stop, self.tau_points))

    def _grid_at(self, taus) -> TimeGrid:
        """A grid of output times ``taus``, each at the config's phase: the
        rotating frame's theta = 2 tau, or the fixed theta_value."""
        taus = tuple(taus)
        if self.theta_mode == "rotating":
            thetas = tuple(2.0 * tau for tau in taus)
        else:
            thetas = (self.theta_value,) * len(taus)
        return TimeGrid(self.n_particles, taus, thetas, self.dtau if self.method == "PositiveP" else None)

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


#: Every config key: the SimulationConfig field it sets, its parser, and the
#: setting and values under which a run reads it (None: every run does).  A
#: setting precedes the keys that depend on it.
_KEYS = {
    "method": ("method", str, None),
    "N": ("n_particles", _finite, None),
    "n_paths": ("n_paths", _whole, ("method", ("TW", "PositiveP"))),
    "batches": ("batches", _whole, ("method", ("TW", "PositiveP"))),
    "tau_start": ("tau_start", _finite, None),
    "tau_stop": ("tau_stop", _finite, None),
    "tau_points": ("tau_points", _whole, None),
    "dtau": ("dtau", _finite, ("method", ("PositiveP",))),
    "theta_mode": ("theta_mode", str, None),
    "theta_value": ("theta_value", _finite, ("theta_mode", ("fixed",))),
}


def parse_config(text: str, seed: int = 0, method: str | None = None) -> SimulationConfig:
    """Parse and validate a flat key=value configuration.

    Unknown and repeated keys are rejected; every error names the key.  Float
    keys must be finite and integer keys finite whole numbers.  ``method``,
    when given, is the method that runs in place of the file's, which must
    still be valid; the run's method decides which keys are read and
    checked.  The master seed comes from the CLI flag, not the file.
    """
    pairs = _parse_pairs(text)
    for required in ("method", "N"):
        if required not in pairs:
            raise MissingKey(required)
    if pairs["method"] not in METHODS:
        raise InvalidValue("method", f"{pairs['method']!r} is not one of {METHODS}")
    if method is not None:
        pairs["method"] = method

    fields = {"seed": seed}
    warnings = []
    for key, (name, parse, read_when) in _KEYS.items():
        if key not in pairs:
            continue
        if read_when is not None:
            setting, values = read_when
            current = fields[setting] if setting in fields else getattr(SimulationConfig, setting)
            if current not in values:
                warnings.append(f"{setting}={current} ignores {key}")
                continue
        try:
            fields[name] = parse(pairs[key])
        except ValueError as exc:
            raise InvalidValue(key, str(exc)) from None
    cfg = SimulationConfig(**fields, warnings=tuple(warnings))
    _validate(cfg)
    return cfg


def _validate(cfg: SimulationConfig):
    if not cfg.n_particles > 0:
        raise InvalidValue("N", "particle number must be positive")
    if cfg.method != "Oracle" and cfg.n_particles > ENSEMBLE_N_MAX:
        raise InvalidValue("N", f"must be <= {ENSEMBLE_N_MAX:g} for method {cfg.method}")
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
    if cfg.theta_mode not in ("rotating", "fixed"):
        raise InvalidValue("theta_mode", "must be 'rotating' or 'fixed'")
    if cfg.batches < MIN_BATCHES:
        raise InvalidValue("batches", f"need at least {MIN_BATCHES} batches")
    if cfg.n_paths < cfg.batches:
        raise InvalidValue("n_paths", "fewer paths than batches")
    # the last time tau_stop / N, and positive-P's step dtau / N, overflow at
    # a subnormal N; checked before the step rule, which would blame dtau (a
    # negative dtau gives -inf here and is left to the step rule)
    for key in ("tau_stop", "dtau") if cfg.method == "PositiveP" else ("tau_stop",):
        if getattr(cfg, key) / cfg.n_particles == math.inf:
            raise InvalidValue("N", f"too small: {key} / N overflows at N = {cfg.n_particles:g}")
    if cfg.method == "PositiveP":
        # tau_start and the first spacing (as np.linspace forms it) stand for the
        # uniform grid, which is not built here; TimeGrid rejects a dtau <= 0
        taus = [cfg.tau_start]
        if cfg.tau_points > 1:
            taus.append(cfg.tau_start + (cfg.tau_stop - cfg.tau_start) / (cfg.tau_points - 1))
        try:
            steps = cfg._grid_at(taus).steps_between()
        except ValueError as exc:
            raise InvalidValue("dtau", str(exc)) from None
        if 0 in steps[1:]:
            raise InvalidValue("dtau", "is longer than the output spacing")
