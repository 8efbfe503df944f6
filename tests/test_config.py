"""Config parsing and initial-data presets."""

import re

import numpy as np
import pytest

from snls.cli import main
from snls.config import ConfigError, RunConfig, initial_field, parse_config
from snls.diagnostics import mass, sobolev_norm
from snls.integrator import FixedPointConfig, explicit_tableau
from snls.maps import ModelParams
from snls.noise import default_phi
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


def test_repeated_key_rejected_with_both_lines(tmp_path):
    # neither K may win silently
    p = write(tmp_path, "seed=1\nK=8\nn_steps=2\nK=4\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:4: key 'K' repeats line 2")):
        parse_config(p)
    # an override is not a repeat: --seed still wins over the file's seed
    p = write(tmp_path, "seed=1\nK=4\n")
    assert parse_config(p, overrides={"seed": 9}).seed == 9


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
    # wrong types from the Python API: a TypeError or AttributeError, or for
    # t=True a run, before the checker
    for key, value, message in (("t", "0.1", "t must be finite and > 0, got '0.1'"),
                                ("t", True, "t must be finite and > 0, got True"),
                                ("lam", "x", "lambda must be finite, got 'x'"),
                                ("alpha", None, "alpha must be finite and > 1, got None"),
                                ("fp_tol", None, "fp_tol must be finite and > 0, got None"),
                                ("initial_data", 3, "initial_data must be a name or a path, "
                                                    "got 3")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(seed=1, **{key: value})


@pytest.mark.parametrize("key", ["seed", "K", "n_steps", "kernel_d", "fp_max_iter"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_integer_fields_must_be_integers(key, value):
    # the file parser casts with int; the Python API must not let a float
    # or a bool through the range checks (n_steps=2.5 died in simulate,
    # K=2.5 in default_phi, kernel_d=2.0 in cmd_kernel_error)
    fields = {"seed": 1, "K": 2, "n_steps": 2, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value!r}"):
        RunConfig(**fields)


def test_numpy_integer_fields_pass():
    cfg = RunConfig(seed=np.uint64(1), K=np.int64(2), n_steps=np.int32(2),
                    kernel_d=np.int8(2), fp_max_iter=np.int64(5))
    assert cfg == RunConfig(seed=1, K=2, n_steps=2, kernel_d=2, fp_max_iter=5)
    # stored unconverted, an int8 K overflowed 2*K+1 and the path-size bound
    want = RunConfig(seed=1, K=100)
    for cfg in (RunConfig(seed=1, K=np.int8(100)),
                RunConfig(seed=1, K=np.int8(2), n_steps=np.int8(100))):
        for key in ("seed", "K", "n_steps", "kernel_d", "fp_max_iter"):
            assert type(getattr(cfg, key)) is int, key
        assert cfg.n_steps == want.n_steps and cfg.fp_max_iter == want.fp_max_iter
    assert RunConfig(seed=1, K=np.int8(100)) == want


@pytest.mark.parametrize("name", ["no-such-preset", "rough-abc", "rough-nan"])
def test_bad_initial_data_name_rejected(name):
    # by the config itself, before any command builds the field
    with pytest.raises(ConfigError, match="initial data|roughness exponent"):
        RunConfig(seed=1, initial_data=name)


def test_a_directory_is_not_snapshot_initial_data(tmp_path, capsys):
    # refused by name, not opened: the CLI exits 1 with a message naming the key
    with pytest.raises(ConfigError, match="initial_data must be smooth, rough-<s> or a "
                                          "snapshot file"):
        RunConfig(seed=1, initial_data=str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\ninitial_data={tmp_path}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "initial_data must be" in capsys.readouterr().err


def test_infinite_horizon_rejected():
    # t*n_steps overflows to inf although t itself is finite
    with pytest.raises(ConfigError, match=r"t\*n_steps, got t=1e\+308, n_steps=2"):
        RunConfig(seed=1, K=2, t=1e308, n_steps=2)
    RunConfig(seed=1, K=2, t=1e308, n_steps=1)


def test_echo_lines_name_every_key_but_out():
    cfg = RunConfig(seed=3, K=4, lam=-2.0, out="x.csv")
    assert cfg.echo_lines() == [
        "# seed=3", "# K=4", "# t=0.01", "# n_steps=100", "# lambda=-2.0", "# kappa=1.0",
        "# alpha=2.0", "# tableau=midpoint", "# kernel_d=1", "# fp_tol=1e-12",
        "# fp_max_iter=100", "# initial_data=smooth",
    ]


def test_stepping_objects():
    cfg = RunConfig(seed=3, K=4, lam=-2.0, kappa=0.5, alpha=2.5, tableau="explicit",
                    fp_tol=1e-9, fp_max_iter=7)
    params, phi, tab, fp = cfg.stepping()
    assert params == ModelParams(lam=-2.0, kappa=0.5, alpha=2.5)
    np.testing.assert_array_equal(phi.phi, default_phi(4).phi)
    assert tab == explicit_tableau()
    assert fp == FixedPointConfig(tol=1e-9, max_iter=7)


def test_echo_lines_roundtrip(tmp_path):
    cfg = RunConfig(seed=3, K=4, lam=-2.0)
    text = "\n".join(line[2:] for line in cfg.echo_lines())
    p = write(tmp_path, text)
    assert parse_config(p) == cfg


def test_smooth_initial_data_normalized():
    f = initial_field("smooth", 8)
    assert sobolev_norm(f.coefficients, 2.0) == pytest.approx(1.0)
    k = f.grid.modes()
    assert np.all(f.coefficients[np.abs(k) > 3] == 0.0)


def test_rough_initial_data():
    f = initial_field("rough-1.5", 8, seed=3)
    assert mass(f.coefficients) == pytest.approx(1.0)
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
