"""Experiment drivers: error tables, references, and validity gates."""

import re

import numpy as np
import pytest

from snls.config import RunConfig, initial_field
import snls.experiments
from snls.experiments import (
    KERNEL_MODE_BOUND,
    KERNEL_QUADS,
    KERNEL_S_POINTS,
    KERNEL_T_VALUES,
    ErrorTable,
    _S_FRACTIONS,
    _draw_quads,
    cmd_conservation,
    cmd_kernel_error,
    cmd_local_error,
    cmd_symplectic,
    reference_solution,
)
from snls.diagnostics import sobolev_norm, symplectic_defect
import snls.kernels
from snls.kernels import ModeQuad, default_kernel_spec, kernel_K2d, kernel_exact
from snls.integrator import ExperimentInvalidError, FixedPointConfig, midpoint_tableau, step
from snls.maps import ModelParams
from snls.noise import default_phi, sample_path
from snls.torus import SpectralField, free_propagator


def test_error_table_slope_of_exact_power_law():
    table = ErrorTable()
    for t in (0.1, 0.05, 0.025, 0.0125):
        table.add_row(t, 3.0 * t**1.5, 4.0 * t**1.5, 10, 0, False)
    table.fit_slope()
    assert table.slope == pytest.approx(1.5, abs=1e-12)
    assert table.fit_residual == pytest.approx(0.0, abs=1e-20)


def test_error_table_skips_degenerate_rows():
    table = ErrorTable()
    table.add_row(0.1, 1e-16, 1e-16, 10, 0, True)
    for t in (0.05, 0.025):
        table.add_row(t, t**2, t**2, 10, 0, False)
    table.fit_slope()
    assert table.slope == pytest.approx(2.0, abs=1e-12)


def test_error_table_csv_format(tmp_path):
    table = ErrorTable()
    table.add_row(0.1, 0.01, 0.02, 8, 1, False)
    table.fit_slope()
    p = tmp_path / "tab.csv"
    table.write_csv(p, header_lines=["# hello"])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "# hello"
    assert lines[2] == "t,error_rms,error_max,samples,rejections,degenerate"
    assert lines[3].startswith("0.1")


def test_reference_solution_requires_fine_path():
    cfg = RunConfig(seed=1, K=3)
    u0 = initial_field("smooth", 3)
    params = ModelParams(lam=1.0, kappa=1.0)
    phi = default_phi(3)
    shallow = sample_path(1, 0.01, 4, 3)  # only 16 substeps
    with pytest.raises(ValueError, match="too coarse"):
        reference_solution(u0, params, phi, shallow, 0.01, FixedPointConfig())


@pytest.mark.parametrize("T", [1.0, 1e-13, 1e-20])
def test_reference_solution_counts_substeps_at_any_horizon(T):
    # the guard counts substeps, so a tiny horizon, where an absolute
    # slack on the substep size would swamp both sides, still refuses a
    # 128-cell path and steps a 256-cell one
    u0 = initial_field("smooth", 2)
    params = ModelParams(lam=1.0, kappa=1.0)
    phi = default_phi(2)
    with pytest.raises(ValueError, match=r"too coarse for a reference \(128 substeps < 256\)"):
        reference_solution(u0, params, phi, sample_path(1, T, 7, 2), T, FixedPointConfig())
    if T == 1e-20:
        _, converged = reference_solution(u0, params, phi, sample_path(1, T, 8, 2), T,
                                          FixedPointConfig())
        assert converged


def test_reference_solution_convergence_on_same_path():
    # [DERIVED] Richardson self-consistency: against the same coarse step,
    # a level-9 reference and a level-8 reference nearly agree
    K = 3
    u0 = initial_field("smooth", K)
    params = ModelParams(lam=1.0, kappa=1.0)
    phi = default_phi(K)
    t = 2.0**-5
    from snls.noise import refine

    p8 = sample_path(5, t, 8, K)
    p9 = refine(p8)
    r8, converged8 = reference_solution(u0, params, phi, p8, t, FixedPointConfig())
    r9, converged9 = reference_solution(u0, params, phi, p9, t, FixedPointConfig())
    assert converged8 and converged9

    # refinement-to-refinement gap is O(substep); a path misalignment
    # would instead show up at the O(sqrt(t)) noise scale (~0.2 here)
    assert sobolev_norm(r8.coefficients - r9.coefficients, 2.0) < 1e-3


def test_cmd_local_error_minimum_samples():
    with pytest.raises(ValueError):
        cmd_local_error(RunConfig(seed=1, K=2), samples=4)


def test_cmd_local_error_names_a_sample_count_too_large_at_every_K():
    # 2^20 level-8 samples pass 2^27 path values even at K=1: the
    # error names the sample count, not a K below 1
    with pytest.raises(ValueError) as info:
        cmd_local_error(RunConfig(seed=1, K=1), samples=2**20)
    message = str(info.value)
    assert message.startswith("1048576 local-error samples are too many at refinement level 8")
    assert message.endswith(f"the largest usable sample count is {2**27 // (3 * 2**8)}")
    assert "largest usable K" not in message


def test_cmd_local_error_rejection_names_the_rejected_path_seeds():
    # lambda=4 with 30 sweeps rejects 10 of 16 samples at t=0.25 (the
    # noise part of these coarse steps is solved exactly, so the
    # nonlinearity rejects them); the message lists the first five path
    # seeds (seed + 1000*i + 1)
    cfg = RunConfig(seed=3, K=2, lam=4.0, kappa=3.0, fp_max_iter=30)
    t = 0.25
    with pytest.raises(ExperimentInvalidError) as info:
        cmd_local_error(cfg, samples=16, t_values=(t,))
    assert str(info.value) == ("10/16 rejected steps at t=0.25; path seeds of the rejected "
                               "samples: 2004, 3004, 4004, 5004, 6004 and 5 more")
    # each named seed can be re-run alone, and is rejected alone; an
    # unnamed one between them is accepted
    params, phi, tab, fp = cfg.stepping()
    u0 = initial_field(cfg.initial_data, cfg.K, seed=cfg.seed)
    for seed, rejected in ((2004, True), (4004, True), (9004, False), (12004, True)):
        path = sample_path(seed, t, 8, cfg.K)
        coarse = step(u0, tab, params, phi, path, 0.0, t, fp)
        _, ref_converged = reference_solution(u0, params, phi, path, t, fp)
        assert bool(coarse.solve.converged and ref_converged) is not rejected


def test_cmd_local_error_degenerate_when_linear():
    # lam = kappa = 0: every step is the exact free flow, errors are
    # rounding-level and flagged degenerate; no slope is fitted
    cfg = RunConfig(seed=2, K=2, lam=0.0, kappa=0.0)
    table = cmd_local_error(cfg, samples=16, t_values=(0.25, 0.125))
    assert all(row[5] for row in table.rows)
    assert np.isnan(table.slope)


def test_cmd_kernel_error_rejects_bad_d():
    # 2.0 == 2 and True == 1, but neither is the integer degree
    for d in (3, 0, 2.0, 1.0, True, "2", None):
        with pytest.raises(ValueError, match=f"d must be the integer 1 or 2, got {d!r}"):
            cmd_kernel_error(d, seed=0)


def test_cmd_kernel_error_takes_a_numpy_integer_d():
    assert cmd_kernel_error(np.int64(2), seed=0).rows == cmd_kernel_error(2, seed=0).rows


def test_cmd_kernel_error_refuses_a_seed_that_is_not_a_u64():
    for seed in (1.5, True, "3", None, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            cmd_kernel_error(1, seed=seed)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in 0..2^64-1, got {seed}")):
            cmd_kernel_error(1, seed=seed)
    top = 2**64 - 1
    assert cmd_kernel_error(1, seed=np.uint64(top)).rows == cmd_kernel_error(1, seed=top).rows


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2801])
def test_cmd_kernel_error_is_the_per_step_size_loop(d, seed):
    # the table as one kernel call per step size gives it.  Fails on a copy
    # whose kernel_K2d interpolates every slice at the first step size (at
    # d=2) and on one that takes every slice's exponentials at the first
    # step's points
    spec = default_kernel_spec(d)
    q = ModeQuad(*_draw_quads(seed, d).T[:, :, None])
    want = ErrorTable()
    for t in KERNEL_T_VALUES[d]:
        s = t * _S_FRACTIONS
        worst = float(np.max(np.abs(kernel_K2d(spec, q, s, t) - kernel_exact(q, s))))
        want.add_row(t, worst, worst, KERNEL_QUADS, 0, worst < 1e-15)
    want.fit_slope()
    got = cmd_kernel_error(d, seed)
    assert got.rows == want.rows
    assert (got.slope, got.fit_residual) == (want.slope, want.fit_residual)


def test_cmd_kernel_error_calls_each_kernel_once(monkeypatch):
    # one kernel_K2d, kernel_exact and interp_exp call per command over all
    # its step sizes (7 and 10 of each at d=1 and 2 when called per step size)
    calls = []
    for module, name in ((snls.experiments, "kernel_K2d"), (snls.experiments, "kernel_exact"),
                         (snls.kernels, "interp_exp")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    for d in (1, 2):
        calls.clear()
        cmd_kernel_error(d, seed=1)
        assert sorted(calls) == ["interp_exp", "kernel_K2d", "kernel_exact"]


def test_cmd_local_error_refuses_bad_arguments(monkeypatch):
    # every argument is refused before any path is sampled
    def no_sampling(*args):
        raise AssertionError("sample_path called")

    monkeypatch.setattr(snls.experiments, "sample_path", no_sampling)
    cfg = RunConfig(seed=1, K=2)
    cases = [({"samples": bad}, f"samples must be an integer, got {bad!r}")
             for bad in (16.5, 16.0, True, "16")]
    cases += [({"ref_level": bad}, f"ref_level must be an integer, got {bad!r}")
              for bad in (8.0, None)]
    cases += [({"ref_level": bad}, f"ref_level must be >= 8 (the reference needs 2^ref_level "
                                   f">= 256 substeps), got {bad}")
              for bad in (7, 0, -1)]
    # no sample count of at least 16 fits 2^27 path values above level 21
    cases += [({"samples": 16, "ref_level": bad},
               f"16 local-error samples are too many at refinement level {bad}: their paths "
               "would pass 134217728 values even at K=1; the largest usable ref_level is 21 "
               "(for 16 samples)")
              for bad in (22, 30)]
    cases += [({"t_values": bad}, "t_values must be one or more finite step sizes > 0, got ")
              for bad in ((), [], 0.25, (0.25, float("nan")), (0.25, 0.0), (-0.25,),
                          (float("inf"),), ("0.25",), (True,))]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as info:
            cmd_local_error(cfg, **kwargs)
        assert str(info.value).startswith(message), kwargs


def test_cmd_local_error_takes_the_largest_usable_ref_level():
    # 16 samples at level 21 are 3 * 16 * 2^21 = 2^27 path values at K=1:
    # the size checks pass, and K=2 is then named as too large
    with pytest.raises(ValueError, match="K=2 is too large for 16 local-error samples at "
                                         "refinement level 21"):
        cmd_local_error(RunConfig(seed=1, K=2), samples=16, ref_level=21)


def test_kernel_error_points_are_linspace_bit_for_bit():
    for t in (*KERNEL_T_VALUES[1], *KERNEL_T_VALUES[2], 0.03, 1 / 3, 7.9e-300, 2.5e300,
              *np.random.default_rng(0).uniform(1e-6, 1.0, 200)):
        want = np.linspace(0.0, t, KERNEL_S_POINTS + 1)[1:]
        assert (t * _S_FRACTIONS).tobytes() == want.tobytes(), t


def test_cmd_local_error_takes_numpy_integers_and_a_step_size_array():
    cfg = RunConfig(seed=2, K=2, lam=0.0, kappa=0.0)
    table = cmd_local_error(cfg, samples=np.int64(16), ref_level=np.int64(8),
                            t_values=np.array([0.25]))
    assert table.rows == cmd_local_error(cfg, samples=16, ref_level=8, t_values=(0.25,)).rows


def one_triple_at_a_time(seed, d):
    """cmd_kernel_error's quads drawn one triple per call, and the number
    of triples drawn."""
    rng = np.random.default_rng([seed, d])
    quads, draws = [], 0
    while len(quads) < KERNEL_QUADS:
        k1, k2, k3 = rng.integers(-KERNEL_MODE_BOUND, KERNEL_MODE_BOUND + 1, size=3)
        draws += 1
        k = -k1 + k2 + k3
        if abs(k) <= KERNEL_MODE_BOUND and k * k1 * k2 * k3 != 0:
            quads.append((k, k1, k2, k3))
    return np.array(quads), draws


def test_block_draw_gives_the_quads_of_one_triple_at_a_time():
    draws = []
    for seed in (*range(200), 2**63, 2**64 - 1):
        for d in (1, 2):
            expected, n = one_triple_at_a_time(seed, d)
            quads = _draw_quads(seed, d)
            assert quads.shape == expected.shape and quads.dtype == expected.dtype
            assert quads.tobytes() == expected.tobytes(), (seed, d)
            draws.append(n)
    # every case needs a second block, and some a third
    assert min(draws) > KERNEL_QUADS and max(draws) > 2 * KERNEL_QUADS


def test_cmd_kernel_error_d1_small():
    table = cmd_kernel_error(1, seed=0)
    assert abs(table.slope - 2.0) < 0.2
    ts = [r[0] for r in table.rows]
    assert ts == sorted(ts, reverse=True)


def test_cmd_conservation_summary():
    cfg = RunConfig(seed=3, K=4, n_steps=5)
    record, summary = cmd_conservation(cfg)
    assert summary["steps"] == 5
    assert summary["mass_drift_rel"] < 1e-12
    assert len(record.rows) == 6


def test_cmd_symplectic_limits_K():
    with pytest.raises(ValueError, match="K <= 6"):
        cmd_symplectic(RunConfig(seed=1, K=7))


def test_cmd_symplectic_midpoint_vs_linear():
    cfg = RunConfig(seed=4, K=3, t=1e-3)
    out = cmd_symplectic(cfg)
    assert out["defect"] < 1e-5
    u0 = initial_field(cfg.initial_data, cfg.K, seed=cfg.seed)
    assert symplectic_defect(lambda u: free_propagator(u, cfg.t), u0.coefficients,
                             h=1e-5) < 1e-10


def test_batched_local_error_step_matches_serial_steps():
    # cmd_local_error's 16 paths at t=2^-4 for config seed 8 with
    # lambda=12.5 and kappa=1.5, run as one batch and one path at a time;
    # the serial solver rejects sample 6 (path seed 6009), which the
    # nonlinearity keeps from converging in 100 sweeps
    cfg = RunConfig(seed=8, K=8, lam=12.5, kappa=1.5, alpha=2.0)
    t, samples = 2.0**-4, 16
    u0 = initial_field(cfg.initial_data, cfg.K, seed=cfg.seed)
    params = ModelParams(lam=cfg.lam, kappa=cfg.kappa, alpha=cfg.alpha)
    phi = default_phi(cfg.K)
    tab = midpoint_tableau()
    fp = FixedPointConfig(tol=cfg.fp_tol, max_iter=cfg.fp_max_iter)
    seeds = tuple(cfg.seed + 1000 * i + 1 for i in range(samples))
    paths = [sample_path(s, t, 8, cfg.K) for s in seeds]

    u = SpectralField(np.tile(u0.coefficients, (samples, 1)), u0.grid)
    path = sample_path(seeds, t, 8, cfg.K)
    coarse = step(u, tab, params, phi, path, 0.0, t, fp)
    ref, ref_converged = reference_solution(u, params, phi, path, t, fp)

    rejected = set()
    for i, p in enumerate(paths):
        one = step(u0, tab, params, phi, p, 0.0, t, fp)
        assert coarse.solve.sample_iterations[i] == one.solve.sample_iterations
        if not one.solve.converged:
            rejected.add(i)
            np.testing.assert_array_equal(one.state.coefficients, u0.coefficients)
            continue
        one_ref, one_ref_converged = reference_solution(u0, params, phi, p, t, fp)
        if not one_ref_converged:
            rejected.add(i)
            continue
        for batched, serial in ((coarse.state, one.state), (ref, one_ref)):
            diff = batched.coefficients[i] - serial.coefficients
            assert sobolev_norm(diff, 2.0) <= 1e-12 * sobolev_norm(serial.coefficients, 2.0)
    assert rejected == {6}
    assert set(np.flatnonzero(~(coarse.solve.converged & ref_converged))) == rejected
