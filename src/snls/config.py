"""Run configuration: flat key=value config files, initial-data presets,
and the RunConfig consumed by simulate and the experiment commands.

Unknown keys are errors (no silent typos) and a seed is mandatory: every
command's output is a pure function of its config.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _check
from .diagnostics import _sobolev_weights, sobolev_norm
from .integrator import TABLEAUX, FixedPointConfig
from .maps import ModelParams
from .noise import MAX_K, MAX_PATH_VALUES, default_phi
from .torus import SpectralField, TorusGrid, read_snapshot


class ConfigError(ValueError):
    pass


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
        # the file parser casts every key and the Python API passes any value:
        # each number is stored as a Python int or float, so that 2*K+1 cannot
        # overflow a numpy integer.  A ValueError of a check is a ConfigError
        store = partial(object.__setattr__, self)
        try:
            store("seed", _check.seed(self.seed))
            store("K", _check.integer("K", self.K, 1, MAX_K))
            store("n_steps", _check.integer("n_steps", self.n_steps))
            store("kernel_d", _check.integer("kernel_d", self.kernel_d, 1, 2))
            store("fp_max_iter", _check.integer("fp_max_iter", self.fp_max_iter, 1))
            store("t", _check.real("t", self.t, gt=0))
            store("lam", _check.real("lambda", self.lam))
            store("kappa", _check.real("kappa", self.kappa))
            store("alpha", _check.real("alpha", self.alpha, gt=1))
            store("fp_tol", _check.real("fp_tol", self.fp_tol, gt=0))
            max_steps = MAX_PATH_VALUES // (2 * self.K + 1)
            _check.integer("n_steps", self.n_steps, 0, max_steps, must=(
                f"in 0..{max_steps} at K={self.K} (a path of at most {MAX_PATH_VALUES} values)"))
            if not self.t * self.n_steps < np.inf:
                raise ValueError(f"t must be finite and > 0, and so must t*n_steps, got "
                                 f"t={self.t}, n_steps={self.n_steps}")
            _sobolev_weights(self.K, self.alpha)  # refuses an alpha whose weight overflows
            if self.tableau not in TABLEAUX:
                raise ValueError(
                    f"unknown tableau {self.tableau!r}; valid names: {', '.join(TABLEAUX)}")
            # built here too, so that kernel-error, which builds no initial
            # field, refuses a bad name or a malformed or overflowing preset or
            # snapshot too; the presets have unit mass or H^2 norm, so only a
            # snapshot overflows the H^alpha norm, which bounds every norm a run
            # records
            u0 = _build_initial(self.initial_data, TorusGrid(self.K), self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        norm = sobolev_norm(u0.coefficients, self.alpha)
        if not norm < np.inf:
            raise ConfigError(f"snapshot {self.initial_data}: H^alpha norm at "
                              f"alpha={self.alpha} is not finite ({norm})")
        # the stage residual is the H^alpha norm of a difference of fields
        # of about this size: it cannot fall below their rounding error
        floor = np.finfo(float).eps * norm
        if self.fp_tol < floor:
            raise ConfigError(f"fp_tol={self.fp_tol} is below the rounding floor {floor:.3g} "
                              f"of the stage residual (eps times the H^alpha norm of the "
                              f"initial data at alpha={self.alpha})")

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


_ATTR_TO_KEY = {"lam": "lambda"}  # the one field whose key is not its name
# each key, in field order, parses as its field's type: an int or a float
# as itself, any other as a str
_FIELD_PARSERS = {_ATTR_TO_KEY.get(name, name): hint if hint in (int, float) else str
                  for name, hint in typing.get_type_hints(RunConfig).items()}
_KEY_TO_ATTR = {key: attr for attr, key in _ATTR_TO_KEY.items()}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key=value file; `overrides` wins over file values.  A
    key given twice in the file is a ConfigError naming both lines."""
    values: dict = {}
    lines: dict = {}  # key -> its line
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
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            try:
                values[_KEY_TO_ATTR.get(key, key)] = _FIELD_PARSERS[key](val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if overrides:
        values.update(overrides)
    if "seed" not in values:
        raise ConfigError(f"{path}: missing mandatory key 'seed' (no implicit entropy)")
    return RunConfig(**values)


def initial_field(data_id: str, K: int, seed: int = 0) -> SpectralField:
    """Named initial-data presets, or a snapshot file path.

    smooth:    a few low modes with fixed phases, unit H^2 norm.
    rough-<s>: coefficients ~ (1+k^2)^(-(s+1/2)/2) with seeded random
               phases, unit mass.
    """
    return _build_initial(data_id, TorusGrid(K), _check.seed(seed))


def _build_initial(data_id: str, grid: TorusGrid, seed: int) -> SpectralField:
    """initial_field on a grid; RunConfig builds its initial data with it
    too, so that only the commands that step call initial_field."""
    s = _roughness(data_id)
    ks = grid.modes().astype(float)
    if data_id == "smooth":
        coeffs = np.exp(-((ks / 1.5) ** 2)) * np.exp(0.4j * ks)
        coeffs[np.abs(ks) > 3] = 0.0
        return SpectralField((1.0 / sobolev_norm(coeffs, 2.0)) * coeffs, grid)
    if s is None:
        return read_snapshot(data_id, grid)
    rng = np.random.default_rng([seed, 0xD15C0])
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = (1.0 + ks**2) ** (-(s + 0.5) / 2.0) * np.exp(1j * phases)
        norm = np.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    if not np.isfinite(norm):
        raise ConfigError(f"initial data {data_id!r} overflows at K={grid.K}")
    return SpectralField((1.0 / norm) * coeffs, grid)


def _roughness(data_id: str) -> float | None:
    """The exponent s of a rough-<s> preset, None for smooth or an
    existing snapshot file; a ConfigError for any other name."""
    if not isinstance(data_id, str):
        raise ConfigError(f"initial_data must be a name or a path, got {data_id!r}")
    if data_id.startswith("rough-"):
        try:
            s = float(data_id[len("rough-"):])
        except ValueError as exc:
            raise ConfigError(f"bad roughness exponent in {data_id!r}") from exc
        if not np.isfinite(s):
            raise ConfigError(f"roughness exponent in {data_id!r} must be finite")
        return s
    if data_id != "smooth" and not os.path.isfile(data_id):
        raise ConfigError(f"unknown initial data {data_id!r}: initial_data must be smooth, "
                          f"rough-<s> or a snapshot file")
    return None
