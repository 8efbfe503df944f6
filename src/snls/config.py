"""Run configuration: flat key=value config files, initial-data presets,
and the RunConfig consumed by simulate and the experiment commands.

Unknown keys are errors (no silent typos) and a seed is mandatory: every
command's output is a pure function of its config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import sobolev_norm
from .integrator import TABLEAUX, FixedPointConfig
from .maps import ModelParams
from .noise import MAX_SEED, default_phi
from .torus import SpectralField, TorusGrid, read_snapshot


class ConfigError(ValueError):
    pass


# the largest Brownian path simulate may allocate: (2K+1) n_steps doubles
# (1 GiB)
MAX_PATH_VALUES = 2**27


@dataclass(frozen=True)
class RunConfig:
    seed: int
    K: int = 8
    t: float = 1e-2
    n_steps: int = 100
    lam: float = 1.0
    kappa: float = 1.0
    alpha: float = 2.0
    tableau: str = "midpoint"
    kernel_d: int = 1
    fp_tol: float = 1e-12
    fp_max_iter: int = 100
    initial_data: str = "smooth"
    out: str | None = None

    def __post_init__(self):
        # written as `not lo < x < hi` so that NaN and inf fail too
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be in 0..2^64-1, got {self.seed}")
        max_K = (MAX_PATH_VALUES - 1) // 2
        if not 1 <= self.K <= max_K:
            raise ConfigError(f"K must be in 1..{max_K}, got {self.K}")
        max_steps = MAX_PATH_VALUES // (2 * self.K + 1)
        if not 0 <= self.n_steps <= max_steps:
            raise ConfigError(
                f"n_steps must be in 0..{max_steps} at K={self.K} (a path of at most "
                f"{MAX_PATH_VALUES} values), got {self.n_steps}"
            )
        if not 0 < self.t < np.inf or not self.t * self.n_steps < np.inf:
            raise ConfigError(f"t must be finite and > 0, and so must t*n_steps, got "
                              f"t={self.t}, n_steps={self.n_steps}")
        if not 1 < self.alpha < np.inf:
            raise ConfigError(f"alpha must be finite and > 1, got {self.alpha}")
        if not 0 < self.fp_tol < np.inf:
            raise ConfigError(f"fp_tol must be finite and > 0, got {self.fp_tol}")
        if not 1 <= self.fp_max_iter:
            raise ConfigError(f"fp_max_iter must be >= 1, got {self.fp_max_iter}")
        for key, value in (("lambda", self.lam), ("kappa", self.kappa)):
            if not -np.inf < value < np.inf:
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.tableau not in TABLEAUX:
            raise ConfigError(
                f"unknown tableau {self.tableau!r}; valid names: {', '.join(TABLEAUX)}"
            )
        if self.kernel_d not in (1, 2):
            raise ConfigError(f"kernel_d must be 1 or 2, got {self.kernel_d}")
        # also checked here so that kernel-error, which builds no initial
        # field, refuses a bad name too
        _roughness(self.initial_data)

    def echo_lines(self) -> list[str]:
        """Config echo for record headers: every key but out, in file order."""
        return [f"# {key}={getattr(self, _KEY_TO_ATTR.get(key, key))}"
                for key in _FIELD_PARSERS if key != "out"]

    def stepping(self):
        """(params, phi, tab, fp): the model, the covariance, the tableau
        and the solver settings that every command steps with."""
        return (ModelParams(lam=self.lam, kappa=self.kappa, alpha=self.alpha),
                default_phi(self.K), TABLEAUX[self.tableau](),
                FixedPointConfig(tol=self.fp_tol, max_iter=self.fp_max_iter))


_FIELD_PARSERS = {
    "seed": int,
    "K": int,
    "t": float,
    "n_steps": int,
    "lambda": float,
    "kappa": float,
    "alpha": float,
    "tableau": str,
    "kernel_d": int,
    "fp_tol": float,
    "fp_max_iter": int,
    "initial_data": str,
    "out": str,
}
_KEY_TO_ATTR = {"lambda": "lam"}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key=value file; `overrides` wins over file values."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[_KEY_TO_ATTR.get(key, key)] = _FIELD_PARSERS[key](val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if overrides:
        values.update(overrides)
    if "seed" not in values:
        raise ConfigError(f"{path}: missing mandatory key 'seed' (no implicit entropy)")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def initial_field(data_id: str, K: int, seed: int = 0) -> SpectralField:
    """Named initial-data presets, or a snapshot file path.

    smooth:    a few low modes with fixed phases, unit H^2 norm.
    rough-<s>: coefficients ~ (1+k^2)^(-(s+1/2)/2) with seeded random
               phases, unit mass.
    """
    s = _roughness(data_id)
    grid = TorusGrid(K)
    ks = grid.modes().astype(float)
    if data_id == "smooth":
        coeffs = np.exp(-((ks / 1.5) ** 2)) * np.exp(0.4j * ks)
        coeffs[np.abs(ks) > 3] = 0.0
        f = SpectralField(coeffs, grid)
        return (1.0 / sobolev_norm(f, 2.0)) * f
    if s is not None:
        rng = np.random.default_rng([seed, 0xD15C0])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.n_modes)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = (1.0 + ks**2) ** (-(s + 0.5) / 2.0) * np.exp(1j * phases)
            norm = np.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
        if not np.isfinite(norm):
            raise ConfigError(f"initial data {data_id!r} overflows at K={K}")
        return (1.0 / norm) * SpectralField(coeffs, grid)
    return read_snapshot(data_id, grid)


def _roughness(data_id: str) -> float | None:
    """The exponent s of a rough-<s> preset, None for smooth or an
    existing snapshot path; a ConfigError for any other name."""
    if data_id.startswith("rough-"):
        try:
            s = float(data_id[len("rough-"):])
        except ValueError as exc:
            raise ConfigError(f"bad roughness exponent in {data_id!r}") from exc
        if not np.isfinite(s):
            raise ConfigError(f"roughness exponent in {data_id!r} must be finite")
        return s
    if data_id != "smooth" and not os.path.exists(data_id):
        raise ConfigError(f"unknown initial data {data_id!r}")
    return None
