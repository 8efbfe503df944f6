"""CLI contract: subcommands, flags, output files, exit codes."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.cli import main


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = "seed=5\nK=4\nt=0.01\nn_steps=3\n"


def test_simulate_success_and_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "final_mass=" in capsys.readouterr().out
    text = out.read_text()
    assert "step,time,mass" in text
    assert (tmp_path / "run.csv.final").exists()


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "6"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_missing_config_file_exit_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=5\nnope=1\n")
    assert main(["simulate", "--config", cfg]) == 1


def test_missing_seed_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "K=4\n")
    assert main(["simulate", "--config", cfg]) == 1


def test_unknown_tableau_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "tableau=foo\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "error: unknown tableau 'foo'; valid names: midpoint, explicit" in capsys.readouterr().err


def test_usage_error_exit_1():
    assert main(["no-such-command"]) == 1
    assert main(["simulate"]) == 1  # --config is required


def test_rejected_step_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=5\nK=6\nt=5.0\nn_steps=2\nlambda=5.0\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "experiment invalid" in capsys.readouterr().err


def test_rejected_symplectic_step_exit_2(tmp_path, capsys):
    # the closure must not read the input state back from a rejected
    # step: the identity map would give a defect near 0 and exit 0
    cfg = write_cfg(tmp_path, "seed=6\nK=4\nt=5.0\nlambda=5.0\n")
    assert main(["symplectic", "--config", cfg]) == 2
    assert "experiment invalid" in capsys.readouterr().err


def test_overflowing_step_exit_2(tmp_path, capsys):
    # an overflow in the stage solve is a rejected step that names its
    # step, time and residual, not a bad config, and prints no warning
    cfg = write_cfg(tmp_path, "seed=1\nK=4\nt=0.01\nn_steps=3\nkappa=1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "experiment invalid: step 0 from t=0: " in err
    assert "diverging after 1 iterations (residual nan)" in err


def test_explicit_blow_up_exit_2(tmp_path, capsys):
    # the explicit control on perfbench's simulate-k8 config accepts steps
    # until the state overflows; the record diagnostics name the column
    # and the step, and print no warning
    cfg = write_cfg(tmp_path, "seed=1\nK=8\nt=0.01\nn_steps=200\ntableau=explicit\n"
                              "initial_data=smooth\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "experiment invalid: step 129 from t=1.29: mass is not finite (inf)" in err


def test_conservation_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "cons.csv"
    assert main(["conservation", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "mass_drift_rel=" in msg
    drift = float(msg.split("mass_drift_rel=")[1].split()[0])
    assert drift < 1e-12
    assert out.exists()


def test_kernel_error_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "kernel_d=1\n")
    out = tmp_path / "kern.csv"
    assert main(["kernel-error", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    slope = float(msg.split("slope=")[1].split()[0])
    assert abs(slope - 2.0) < 0.2
    assert "slope=" in out.read_text()


def test_symplectic_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=5\nK=3\nt=0.001\n")
    out = tmp_path / "symp.txt"
    assert main(["symplectic", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    defect = float(msg.split("defect=")[1].split()[0])
    assert defect < 1e-5
    assert "defect=" in out.read_text()


def test_symplectic_command_K_too_large_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "seed=5\nK=8\n")
    assert main(["symplectic", "--config", cfg]) == 1


@pytest.mark.parametrize("command", ["simulate", "kernel-error", "conservation", "symplectic"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exit_1(tmp_path, capsys, command, where):
    cfg = write_cfg(tmp_path, "seed=5\nK=3\nt=0.001\nn_steps=3\n")
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


def test_out_path_from_config(tmp_path):
    out = tmp_path / "fromcfg.csv"
    cfg = write_cfg(tmp_path, BASE + f"out={out}\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert out.exists()


@pytest.mark.parametrize("seed", [-3, 2**64])
def test_out_of_range_config_seed_exit_1(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path, f"seed={seed}\nK=4\nt=0.01\nn_steps=3\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "error: seed must be in 0..2^64-1" in capsys.readouterr().err


def test_local_error_seed_too_large_for_samples_exit_1(tmp_path, capsys):
    # path seeds seed + 1000*i + 1 would pass 2^64-1; the message names
    # the config seed, not a derived one
    cfg = write_cfg(tmp_path, "seed=18446744073709551615\nK=4\n")
    assert main(["local-error", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: seed 18446744073709551615" in err
    assert "64 local-error samples" in err
    assert f"largest usable seed is {2**64 - 1 - 1000 * 63 - 1}" in err
    assert "18446744073709551616" not in err


@pytest.mark.parametrize("key, value", [
    *(pytest.param(key, "nan", id=key) for key in ("fp_tol", "alpha", "t", "lambda", "kappa")),
    *(pytest.param(key, "inf", id=f"{key}-inf")
      for key in ("fp_tol", "alpha", "t", "lambda", "kappa")),
])
def test_nan_config_value_exit_1(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, BASE + f"{key}={value}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert f"error: {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "local-error", "kernel-error"])
@pytest.mark.parametrize("line, message", [
    pytest.param("fp_max_iter=0", "fp_max_iter must be >= 1, got 0", id="fp_max_iter"),
    pytest.param("lambda=nan", "lambda must be finite, got nan", id="lambda"),
    pytest.param("kappa=-inf", "kappa must be finite, got -inf", id="kappa"),
    pytest.param("initial_data=no-such-preset", "unknown initial data 'no-such-preset'",
                 id="initial_data"),
])
def test_solver_and_model_keys_exit_1(tmp_path, capsys, command, line, message):
    # refused by the config, also by kernel-error, which reads none of these keys
    cfg = write_cfg(tmp_path, BASE + line + "\n")
    assert main([command, "--config", cfg]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_local_error_infinite_fp_tol_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=5\nK=4\nfp_tol=inf\n")
    assert main(["local-error", "--config", cfg]) == 1
    assert "error: fp_tol must be finite and > 0, got inf" in capsys.readouterr().err


def test_short_snapshot_initial_data_exit_1(tmp_path, capsys):
    snap = tmp_path / "short.csv"
    snap.write_text("-2,2\n-2,1,0\n-1,0,0\n0,1,0\n1,0,0\n")
    cfg = write_cfg(tmp_path, f"seed=5\nK=2\nn_steps=1\ninitial_data={snap}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "header promises 5 mode lines, found 4" in capsys.readouterr().err


def test_overflowing_snapshot_initial_data_exit_1(tmp_path, capsys):
    # finite coefficients whose mass overflows are bad input, not a run
    snap = tmp_path / "huge.csv"
    snap.write_text("-1,1\n-1,0,0\n0,1e200,0\n1,0,0\n")
    cfg = write_cfg(tmp_path, f"seed=5\nK=1\nn_steps=1\ninitial_data={snap}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 1
    assert "error: initial data: mass is not finite (inf)" in capsys.readouterr().err


@pytest.mark.parametrize("preset, message", [
    ("rough-nan", "roughness exponent in 'rough-nan' must be finite"),
    ("rough--inf", "roughness exponent in 'rough--inf' must be finite"),
    ("rough-inf", "roughness exponent in 'rough-inf' must be finite"),
    ("rough-1e400", "roughness exponent in 'rough-1e400' must be finite"),
    ("rough--400", "initial data 'rough--400' overflows at K=8"),
])
def test_bad_roughness_exponent_exit_1(tmp_path, capsys, preset, message):
    cfg = write_cfg(tmp_path, f"seed=5\nK=8\nn_steps=1\ninitial_data={preset}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    pytest.param("n_steps", 10**20, "n_steps must be in 0..7895160 at K=8", id="n_steps"),
    pytest.param("K", 10**9, "K must be in 1..67108863", id="K"),
])
def test_path_too_large_exit_1(tmp_path, capsys, key, value, message):
    # refused by the config, before the path is allocated
    cfg = write_cfg(tmp_path, f"seed=5\n{key}={value}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_infinite_horizon_exit_1(tmp_path, capsys):
    # t*n_steps overflows to inf: refused by the config, with no numpy
    # warning from the path it would have drawn
    cfg = write_cfg(tmp_path, "seed=1\nK=2\nt=1e308\nn_steps=2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: t must be finite and > 0, and so must t*n_steps, got t=1e+308, n_steps=2\n")


# small valid values, and for each key its invalid classes
FUZZ_VALID = {
    "seed": st.sampled_from([0, 5, 2**64 - 1]),
    "K": st.integers(1, 4),
    "t": st.sampled_from([1e-3, 1e-2, 0.5, 1e308]),
    "n_steps": st.integers(0, 3),
    "lambda": st.sampled_from([-1.0, 0.0, 1.0, 5.0]),
    "kappa": st.sampled_from([0.0, 1.0, 3.0]),
    "alpha": st.sampled_from([1.5, 2.0]),
    "tableau": st.sampled_from(["midpoint", "explicit"]),
    "kernel_d": st.sampled_from([1, 2]),
    "fp_tol": st.sampled_from([1e-300, 1e-12, 1e-6, 1.0]),
    "fp_max_iter": st.sampled_from([1, 3, 100]),
    "initial_data": st.sampled_from(["smooth", "rough-1", "rough-0.5"]),
}
NOT_FINITE = ["nan", "inf", "-inf", "1e400", "-1e400", "abc", ""]
FUZZ_INVALID = {
    "seed": [None, "-1", str(2**64), "1.5", "nan", "abc"],  # None: no seed line
    "K": ["0", "-3", str(10**9), "2.0", "nan"],
    "t": ["0", "-1e-3", *NOT_FINITE],
    "n_steps": ["-1", str(10**20), "1e2", "nan"],
    "lambda": NOT_FINITE,
    "kappa": NOT_FINITE,
    "alpha": ["1", "0.5", *NOT_FINITE],
    "tableau": ["foo", ""],
    "kernel_d": ["0", "3", "1.0", "x"],
    "fp_tol": ["0", "-1e-12", *NOT_FINITE],
    "fp_max_iter": ["0", "-5", "x"],
    "initial_data": ["no-such-preset", "rough-nan", "rough-1e400", "rough-x"],
    "nope": ["1"],  # an unknown key
}


@st.composite
def fuzzed_configs(draw):
    """(config text, its values, whether it is invalid); at most two
    keys get an invalid value."""
    bad = draw(st.sets(st.sampled_from(list(FUZZ_INVALID)), max_size=2))
    values = {key: draw(st.sampled_from(FUZZ_INVALID[key]) if key in bad else valid)
              for key, valid in FUZZ_VALID.items()}
    if "nope" in bad:
        values["nope"] = "1"
    text = "".join(f"{key}={value}\n" for key, value in values.items() if value is not None)
    # valid t and n_steps whose product overflows make an infinite horizon
    overflow = not {"t", "n_steps"} & bad and values["t"] * values["n_steps"] == np.inf
    return text, values, bool(bad) or overflow


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["simulate", "conservation", "symplectic", "kernel-error"]),
       config=fuzzed_configs())
def test_fuzzed_config_exit_codes(tmp_path_factory, command, config):
    # local-error is left out: one valid run of it takes seconds.  A
    # valid kernel-error run takes 0.3-1.4 s, which bounds max_examples
    text, values, invalid = config
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_text(text)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main([command, "--config", str(path)])
    err = err.getvalue()
    if invalid:
        assert rc == 1 and err.startswith("error: "), (rc, err)
    elif rc == 1:
        # a path whose |W| passes 2^12 no longer sums exactly; the noise
        # layer refuses it as bad input
        assert values["t"] == 1e308 and "use a shorter horizon" in err, err
    else:
        assert rc in (0, 2), (rc, err)
