"""The four benchmark workloads.

Each workload turns the seed into configs, runs one closed-loop pass at
a time (one caller; the next call starts when the previous returns) and
checks the outputs of every pass.  A pass is a short list of calls into
snls, timed one by one.  `finish` runs the checks over the
whole run, including the comparison with the reference outputs stored
with the benchmark, which applies on the default seed.

`snls` must be importable before this module is imported.
"""

from __future__ import annotations

import hashlib
import math
from functools import partial
from pathlib import Path

import snls.cli
import snls.experiments
import snls.noise
from snls.config import RunConfig, initial_field
from snls.integrator import FixedPointConfig, StepRejectedError, midpoint_tableau
from snls.maps import ModelParams
from snls.noise import default_phi

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# criterion 1's bound on the relative mass drift of a trajectory
MASS_DRIFT_MAX = 1e-9
# Agreement with the reference outputs, relative.  A solver that
# converges to within fp_tol moves a final snapshot by ~1e-12 (measured:
# fp_tol 3x to 100x tighter or 10x looser changes it by 2e-13..4e-12 in
# H^2 on both simulate workloads), while dropping the nonlinearity or the
# noise moves it by 1.0..1.7.  1e-8 is 2500x from either.
# The local-error RMS errors (5e-3 and up) have the same margins.
REFERENCE_RTOL = 1e-8
# Kernel errors are closed-form values down to ~1e-11; a reimplementation
# that rounds differently moves them by ~1e-16 absolute.
KERNEL_RTOL, KERNEL_ATOL = 1e-8, 1e-14
# Observed order of the local error between t = 2^-4 and 2^-9 with 16
# samples: 1.5 (criterion 3).  Without the noise it is 2 or more.
LOCAL_ORDER_RANGE = (1.2, 1.8)
# kernel-error: observed order per interpolation degree d.  Criterion 4
# asks for 2 +- 0.2 and 3 +- 0.3 on seed 0; over seeds 0..149 the d=1
# order stays in 1.98..2.00 but the d=2 order spans 2.85..3.43, so its
# window is wider.  Then the table size cmd_kernel_error runs at: step
# sizes per d, quads, and s points (n_s - 1) per quad and step size.
KERNEL_ORDER_RANGE = {1: (1.8, 2.2), 2: (2.5, 4.0)}
KERNEL_ROWS = {1: 7, 2: 10}
KERNEL_QUADS, KERNEL_S_POINTS = 40, 64


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _write_config(path, values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


def _read_csv(path):
    """Comment lines and data rows (lists of strings) of a snls CSV."""
    comments, rows = [], []
    for line in Path(path).read_text().splitlines():
        (comments if line.startswith("#") else rows).append(line)
    return comments, [r.split(",") for r in rows[1:]]


def _read_snapshot(path):
    lines = Path(path).read_text().splitlines()[1:]
    return [complex(float(re), float(im)) for _, re, im in (l.split(",") for l in lines)]


def _relative_h2(a, b):
    """H^2 norm of a - b over that of b; both hold modes -K..K."""
    K = (len(b) - 1) // 2
    w = [(1.0 + (i - K) ** 2) ** 2 for i in range(len(b))]
    diff = sum(wi * abs(x - y) ** 2 for wi, x, y in zip(w, a, b))
    return math.sqrt(diff / sum(wi * abs(y) ** 2 for wi, y in zip(w, b)))


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def _cli(*argv):
    # snls.cli.main is looked up per call, so that a tracer installed
    # after the pass's calls were listed still sees it
    return snls.cli.main(list(argv))


def _mass(u):
    return sum(abs(c) ** 2 for c in u.coefficients)


class Workload:
    """A workload at one seed.  `units` is the work one pass completes,
    the base of the throughput."""

    name = why = work_unit = ""
    rationale = None
    # functions called many times inside one timed call, after which the
    # machine speed may be measured (see worker.Calibrator)
    calibration_points = ()

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.digests = set()

    def warmup(self):
        """One untimed call into the code the timed calls run."""
        raise NotImplementedError

    def calls(self):
        """The timed calls of one pass; check_pass gets their returns."""
        raise NotImplementedError

    def run_pass(self):
        return [call() for call in self.calls()]

    def check_pass(self, returns):
        """(units completed, problems found) for the outputs of one pass.
        Units not completed without a problem are rejected samples."""
        raise NotImplementedError

    def output_files(self):
        """{reference file name: output file of the latest pass}."""
        raise NotImplementedError

    def _record_digest(self):
        self.digests.add(_digest(self.output_files().values()))

    def finish(self):
        """Problems found over the whole run."""
        problems = []
        if len(self.digests) > 1:
            problems.append(f"outputs differ between passes of seed {self.seed}")
        if self.seed == DEFAULT_SEED and not self.tiny:
            problems += self.compare_reference()
        return problems

    def compare_reference(self):
        raise NotImplementedError


class Simulate(Workload):
    """`snls simulate` through cli.main on a generated config."""

    work_unit = "accepted steps"
    calibration_points = ("snls.integrator:step",)
    K = initial_data = fp_tol = steps = tiny_steps = None

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.units = self.tiny_steps if tiny else self.steps
        base = {"seed": seed, "K": self.K, "t": 0.01, "n_steps": self.units, "lambda": 1.0,
                "kappa": 1.0, "alpha": 2.0, "tableau": "midpoint", "fp_tol": self.fp_tol,
                "initial_data": self.initial_data}
        self.config = _write_config(self.workdir / f"{self.name}.cfg", base)
        self.warm_config = _write_config(self.workdir / f"{self.name}-warm.cfg",
                                         {**base, "n_steps": 2})
        self.out = str(self.workdir / f"{self.name}.csv")

    def warmup(self):
        out = str(self.workdir / f"{self.name}-warm.csv")
        if _cli("simulate", "--config", self.warm_config, "--out", out) != 0:
            raise RuntimeError("warm-up simulate failed")

    def calls(self):
        return [partial(_cli, "simulate", "--config", self.config, "--out", self.out)]

    def check_pass(self, returns):
        (rc,) = returns
        if rc != 0:
            return 0, [f"snls simulate exited {rc}"]
        _, rows = _read_csv(self.out)
        problems = []
        if len(rows) != self.units + 1:
            problems.append(f"{len(rows) - 1} step rows, expected {self.units}")
        rejected = sum(1 for r in rows if r[7] != "0")
        if rejected:
            problems.append(f"{rejected} rejected steps")
        masses = [float(r[2]) for r in rows]
        drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
        self._record_digest()
        return self.units, problems

    def output_files(self):
        return {f"{self.name}.csv": self.out, f"{self.name}.final": self.out + ".final"}

    def compare_reference(self):
        ref = _read_snapshot(REFERENCE_DIR / f"{self.name}.final")
        got = _read_snapshot(self.out + ".final")
        if len(got) != len(ref):
            return [f"final snapshot has {len(got)} modes, reference {len(ref)}"]
        err = _relative_h2(got, ref)
        if not err <= REFERENCE_RTOL:
            return [f"final snapshot differs from the reference by {err:.3e} (H^2, relative)"]
        _, ref_rows = _read_csv(REFERENCE_DIR / f"{self.name}.csv")
        _, rows = _read_csv(self.out)
        for g, r in zip(rows, ref_rows):
            for col in (2, 3, 4):  # mass, energy_h0, sobolev_alpha
                if not _close(float(g[col]), float(r[col]), REFERENCE_RTOL):
                    return [f"step {g[0]}: column {col} is {g[col]}, reference {r[col]}"]
        return []


class SimulateK8(Simulate):
    name = "simulate-k8"
    why = ("K=8 smooth data: 36-point padded FFTs, so interpreter overhead "
           "(~127 SpectralField constructions, ~168 FFT calls per step) dominates")
    K, initial_data, fp_tol = 8, "smooth", 1e-12
    steps, tiny_steps = 200, 10


class SimulateK256(Simulate):
    name = "simulate-k256"
    why = ("K=256 rough-1 data: all 513 modes active, so transform arithmetic and "
           "the O(K^2) convolution in map_P_frozen carry the cost")
    rationale = (
        why + ". fp_tol is 1e-10, not 1e-12: at 1e-12 this data is rejected within "
        "300 steps (seed 7), because the residual stalls at 1.04e-12, the rounding "
        "floor of the H^2 norm at this K (a tolerance below the rounding floor)."
    )
    K, initial_data, fp_tol = 256, "rough-1", 1e-10
    steps, tiny_steps = 256, 4


class LocalError(Workload):
    """cmd_local_error called directly, at criterion 3's settings."""

    name = "local-error"
    why = ("criterion 3 at t=2^-4 and 2^-9 with 16 samples: thousands of tiny "
           "reference steps at ~7 map evaluations each, a fresh sample_path per sample")
    work_unit = "Monte-Carlo samples (one coarse step plus its 256-step reference)"
    samples, ref_level = 16, 8
    calibration_points = ("snls.experiments:reference_solution",)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.t_values = (2.0**-9,) if tiny else (2.0**-4, 2.0**-9)
        self.units = self.samples * len(self.t_values)
        self.config = RunConfig(seed=seed, K=8, lam=1.0, kappa=1.0, alpha=2.0)
        self.outs = {t: str(self.workdir / f"{self.name}-t{t!r}.csv") for t in self.t_values}

    def _stepping(self):
        """cmd_local_error's initial field, model, tableau and solver."""
        c = self.config
        return (initial_field(c.initial_data, c.K, seed=c.seed),
                ModelParams(lam=c.lam, kappa=c.kappa, alpha=c.alpha),
                default_phi(c.K), midpoint_tableau(),
                FixedPointConfig(tol=c.fp_tol, max_iter=c.fp_max_iter))

    def _path(self, i, t):
        """cmd_local_error's sample path i."""
        return snls.noise.sample_path(self.seed + 1000 * i + 1, t, self.ref_level, self.config.K)

    def warmup(self):
        u0, params, phi, tab, fp = self._stepping()
        t = self.t_values[-1]
        path = self._path(0, t)
        snls.experiments.step(u0, tab, params, phi, path, 0.0, t, fp)
        snls.experiments.reference_solution(u0, params, phi, path, t, fp)

    def _error_table(self, t):
        table = snls.experiments.cmd_local_error(
            self.config, samples=self.samples, t_values=(t,), ref_level=self.ref_level
        )
        table.write_csv(self.outs[t], header_lines=self.config.echo_lines())

    def calls(self):
        # one call per step size, so that no timed call runs for long
        return [partial(self._error_table, t) for t in self.t_values]

    def check_pass(self, _):
        rows = [row for t in self.t_values for row in _read_csv(self.outs[t])[1]]
        problems = []
        if [float(r[0]) for r in rows] != list(self.t_values):
            return 0, [f"error table has step sizes {[r[0] for r in rows]}"]
        done = sum(int(r[3]) for r in rows)
        if any(int(r[3]) + int(r[4]) != self.samples for r in rows):
            problems.append("error table rows do not account for every sample")
        rms = [float(r[1]) for r in rows]
        if not all(math.isfinite(e) and e > 0.0 for e in rms):
            problems.append(f"non-positive or non-finite RMS error in {rms}")
        elif len(rms) == 2:
            order = math.log(rms[0] / rms[1]) / math.log(self.t_values[0] / self.t_values[1])
            lo, hi = LOCAL_ORDER_RANGE
            if not lo <= order <= hi:
                problems.append(f"observed local order {order:.3f} outside [{lo}, {hi}]")
        self._record_digest()
        return done, problems

    def finish(self):
        problems = super().finish()
        # the mass of every coarse step at the largest step size
        u0, params, phi, tab, fp = self._stepping()
        t = self.t_values[0]
        for i in range(self.samples):
            try:
                u = snls.experiments.step(u0, tab, params, phi, self._path(i, t), 0.0, t, fp).state
            except StepRejectedError:
                continue  # a rejected sample, counted as failed by its pass
            drift = abs(_mass(u) - _mass(u0)) / _mass(u0)
            if not drift <= MASS_DRIFT_MAX:
                problems.append(f"sample {i}: relative mass drift {drift:.3e} in a t={t} step")
                break
        return problems

    def output_files(self):
        return {Path(out).name: out for out in self.outs.values()}

    def compare_reference(self):
        for name, out in self.output_files().items():
            (g,), (r,) = _read_csv(out)[1], _read_csv(REFERENCE_DIR / name)[1]
            for col in (1, 2):  # RMS and max error
                if not _close(float(g[col]), float(r[col]), REFERENCE_RTOL):
                    return [f"local error at t={g[0]} is {g[col]}, reference {r[col]}"]
        return []


class KernelError(Workload):
    """`snls kernel-error` through cli.main, for kernel_d=1 and 2."""

    name = "kernel-error"
    why = ("the only workload that runs kernels: interp_exp solves a 2x2 Vandermonde "
           "system per (quad, s) point; maps or integrator changes predict no change")
    work_unit = "kernel evaluations (one quad at one s and t)"
    calibration_points = ("snls.experiments:kernel_K2d",)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.degrees = (1,) if tiny else (1, 2)
        self.units = sum(KERNEL_ROWS[d] for d in self.degrees) * KERNEL_QUADS * KERNEL_S_POINTS
        self.configs = {d: _write_config(self.workdir / f"{self.name}-d{d}.cfg",
                                         {"seed": seed, "kernel_d": d}) for d in (1, 2)}
        self.outs = {d: str(self.workdir / f"{self.name}-d{d}.csv") for d in self.degrees}

    def warmup(self):
        out = str(self.workdir / f"{self.name}-warm.csv")
        if _cli("kernel-error", "--config", self.configs[1], "--out", out) != 0:
            raise RuntimeError("warm-up kernel-error failed")

    def calls(self):
        return [partial(_cli, "kernel-error", "--config", self.configs[d], "--out", self.outs[d])
                for d in self.degrees]

    def check_pass(self, rcs):
        problems = [f"snls kernel-error d={d} exited {rc}"
                    for d, rc in zip(self.degrees, rcs) if rc != 0]
        if problems:
            return 0, problems
        for d in self.degrees:
            comments, rows = _read_csv(self.outs[d])
            if len(rows) != KERNEL_ROWS[d] or any(int(r[3]) != KERNEL_QUADS for r in rows):
                problems.append(f"d={d}: table is not {KERNEL_ROWS[d]} rows of {KERNEL_QUADS} quads")
            elif not all(math.isfinite(float(r[1])) for r in rows):
                problems.append(f"d={d}: non-finite kernel error")
            slope = float(comments[-1].split("slope=")[1].split(",")[0])
            lo, hi = KERNEL_ORDER_RANGE[d]
            if not lo <= slope <= hi:
                problems.append(f"d={d}: kernel error order {slope:.3f} outside [{lo}, {hi}]")
        self._record_digest()
        return self.units, problems

    def output_files(self):
        return {f"{self.name}-d{d}.csv": out for d, out in self.outs.items()}

    def compare_reference(self):
        problems = []
        for name, out in self.output_files().items():
            _, ref = _read_csv(REFERENCE_DIR / name)
            _, got = _read_csv(out)
            for g, r in zip(got, ref):
                if g[0] != r[0] or not _close(float(g[1]), float(r[1]), KERNEL_RTOL, KERNEL_ATOL):
                    problems.append(f"{name}: error {g[1]} at t={g[0]}, reference {r[1]} at t={r[0]}")
                    break
        return problems


WORKLOADS = {w.name: w for w in (SimulateK8, SimulateK256, LocalError, KernelError)}
