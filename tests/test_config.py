"""Config parsing and initial-data presets."""

import numpy as np
import pytest

from snls.config import ConfigError, RunConfig, initial_field, parse_config
from snls.diagnostics import mass, sobolev_norm
from snls.torus import SpectralField, TorusGrid, write_snapshot


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_full_config(tmp_path):
    p = write(
        tmp_path,
        "# a comment\n"
        "seed=7\nK=5\nt=0.001\nn_steps=3\nlambda=-1.0\nkappa=0.25\n"
        "alpha=2.5\ntableau=explicit\nkernel_d=2\nfp_tol=1e-10\n"
        "fp_max_iter=50\ninitial_data=rough-1.0\n\n",
    )
    cfg = parse_config(p)
    assert cfg == RunConfig(
        seed=7, K=5, t=0.001, n_steps=3, lam=-1.0, kappa=0.25, alpha=2.5,
        tableau="explicit", kernel_d=2, fp_tol=1e-10, fp_max_iter=50,
        initial_data="rough-1.0",
    )


def test_parse_defaults_and_overrides(tmp_path):
    p = write(tmp_path, "seed=1\n")
    cfg = parse_config(p)
    assert cfg.K == 8 and cfg.tableau == "midpoint"
    cfg = parse_config(p, overrides={"seed": 9})
    assert cfg.seed == 9


def test_unknown_key_rejected(tmp_path):
    p = write(tmp_path, "seed=1\nbogus=3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(p)


def test_missing_seed_rejected(tmp_path):
    p = write(tmp_path, "K=4\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(p)


def test_malformed_line_rejected(tmp_path):
    p = write(tmp_path, "seed=1\nnot a pair\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(p)


def test_bad_value_rejected(tmp_path):
    p = write(tmp_path, "seed=1\nK=three\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(p)


def test_invalid_domain_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig(seed=1, K=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=1, t=0.0)
    with pytest.raises(ConfigError):
        RunConfig(seed=1, alpha=1.0)
    with pytest.raises(ConfigError):
        RunConfig(seed=1, kernel_d=3)


def test_echo_lines_roundtrip(tmp_path):
    cfg = RunConfig(seed=3, K=4, lam=-2.0)
    text = "\n".join(line[2:] for line in cfg.echo_lines())
    p = write(tmp_path, text)
    assert parse_config(p) == cfg


def test_smooth_initial_data_normalized():
    f = initial_field("smooth", 8)
    assert sobolev_norm(f, 2.0) == pytest.approx(1.0)
    k = f.grid.modes()
    assert np.all(f.coefficients[np.abs(k) > 3] == 0.0)


def test_rough_initial_data():
    f = initial_field("rough-1.5", 8, seed=3)
    assert mass(f) == pytest.approx(1.0)
    g = initial_field("rough-1.5", 8, seed=4)
    assert not np.array_equal(f.coefficients, g.coefficients)
    # same seed reproduces exactly
    h = initial_field("rough-1.5", 8, seed=3)
    np.testing.assert_array_equal(f.coefficients, h.coefficients)


def test_snapshot_initial_data(tmp_path):
    grid = TorusGrid(3)
    rng = np.random.default_rng(0)
    f = SpectralField(rng.standard_normal(7) + 1j * rng.standard_normal(7), grid)
    p = tmp_path / "init.csv"
    write_snapshot(f, p)
    g = initial_field(str(p), 3)
    np.testing.assert_array_equal(g.coefficients, f.coefficients)


def test_unknown_initial_data_rejected():
    with pytest.raises(ConfigError):
        initial_field("no-such-preset", 4)
    with pytest.raises(ConfigError):
        initial_field("rough-abc", 4)
