"""The benchmark's three seeded workloads.

A workload is built from a seed, runs one untimed warm-up op, then hands out
rounds of ops.  An op is a ``(label, fn)`` pair; ``fn()`` raises when the op
fails, either inside fkdv or in the output check that follows the call.
The checks use the acceptance gate's tolerances unchanged.  fkdv functions
are always looked up on their module at call time, so the traced run sees
every call through the installed wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from fkdv import fourier, pde, stability, waves

import tracing

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op ran but its output failed the benchmark's check."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_stable(report):
    check(report.verdict == "stable", f"{report.family} verdict {report.verdict}")


def _rel_drift(values):
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


class Workload:
    """Subclasses set ``round_size`` and define ``warmup`` and ``next_round``."""

    def start_tracing(self, tracer):
        """Trace fkdv in this process; return {metric: reason} for missing names."""
        return tracing.install(tracer)

    def layer_extras(self):
        return {}

    def details(self):
        return {}


class Dynamics(Workload):
    """ETDRK4 stability experiments against the unperturbed orbit.

    Wave parameters are the gate's (all ones), so op cost does not depend
    on the seed; the seed draws the perturbation of every op.  Each op runs
    a quarter characteristic time with diagnostics every 50 steps, short
    enough that a 35 s run holds more than 60 ops and its tail percentile
    falls on the N=4096 ops.
    """

    # (family, grid): the four default grids, then fifth-soliton at N=4096,
    # where dt stays at its 0.01 cap and the step is FFT-bound
    OPS = (("kdv-soliton", None), ("fifth-cnoidal", None), ("kdv-cnoidal", None),
           ("fifth-soliton", None), ("fifth-soliton", 4096))
    round_size = len(OPS)

    def __init__(self, seed, tiny=False):
        self.rng = random.Random(seed)
        self.profiles = {family: waves.build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
                         for family, _ in self.OPS}
        self.horizon_scale = 0.01 if tiny else 0.25
        self.momentum_drift = {}  # perturbation kind -> max relative drift

    def _op(self, family, grid_n):
        kind = self.rng.choice(("scale", "cosine", "noise"))
        eps = self.rng.uniform(0.005, 0.02)
        mode = self.rng.randint(1, 4)
        noise_seed = self.rng.randrange(2 ** 31)
        pert = pde.Perturbation(kind, eps, seed=noise_seed if kind == "noise" else None,
                                mode=mode)
        label = f"{family}/N{grid_n or 'default'}/{kind}"
        return label, lambda: self._run(family, grid_n, pert)

    def _run(self, family, grid_n, pert):
        profile = self.profiles[family]
        horizon = self.horizon_scale * pde.characteristic_time(profile)
        rep = pde.stability_experiment(profile, pert, horizon=horizon, grid_n=grid_n,
                                       record_every=50)
        mom_drift = _rel_drift([r.momentum for r in rep.records])
        self.momentum_drift[pert.kind] = max(self.momentum_drift.get(pert.kind, 0.0),
                                             mom_drift)
        check(rep.initial_dist_h2 > 0.0, "perturbation left the orbit distance at 0")
        check(rep.ratio_h1 < 5.0 and rep.ratio_h2 < 5.0,
              f"distance ratios {rep.ratio_h1:.3g}, {rep.ratio_h2:.3g} not below 5")
        mass_drift = _rel_drift([r.mass for r in rep.records])
        check(mass_drift < 1e-10, f"mass drift {mass_drift:.3e}")
        # noise drifts momentum past the scale-perturbation bound; it is
        # recorded as pde.momentum_drift_max, not gated (no tolerance exists)
        if pert.kind != "noise":
            check(mom_drift < 1e-8, f"momentum drift {mom_drift:.3e}")

    def warmup(self):
        self._op(*self.OPS[0])[1]()

    def next_round(self):
        return [self._op(family, grid_n) for family, grid_n in self.OPS]

    def layer_extras(self):
        return {"pde.momentum_drift_max": max(self.momentum_drift.values(), default=0.0)}

    def details(self):
        return {"momentum_drift_max_by_kind": self.momentum_drift}


class Analysis(Workload):
    """Profiles, coefficients, PF(2) and stability indices; no solver.

    An op checks four points drawn from the gate's ranges, kdv-cnoidal and
    fifth-cnoidal in turn, and ends with the Gegenbauer verdict.  A point
    takes about 140 ms, so host stalls of 50-100 ms would decide the tail
    percentile of one-point ops; four points per op keep it on the work.
    """

    round_size = 4
    SAMPLES = 4096

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _point(self, family):
        if family == "kdv-cnoidal":
            return family, self.rng.uniform(0.5, 2.0), self.rng.uniform(0.3, 3.0)
        return family, self.rng.uniform(0.25, 4.0), 1.0

    def _op(self):
        points = [self._point(family) for family in ("kdv-cnoidal", "fifth-cnoidal") * 2]
        label = " ".join(f"{family}/c={c:.4g}" for family, c, _ in points)

        def run():
            for point in points:
                self._run(*point)
            check_stable(stability.gegenbauer_verdict(stability.GegenbauerSeriesSpec(),
                                                      jmax=200))

        return label, run

    @staticmethod
    def _run(family, c, flux):
        # the gate checks the conservation laws on the default grid and the
        # coefficients on 4096 samples; at 4096 samples the spectral fourth
        # derivative of the cn^4 wave amplifies rounding past the law-1 bound
        law_prof = waves.build_profile(family, 1.0, 1.0, 1.0, c, flux)
        law = waves.conservation_residuals(law_prof)
        check(np.std(law.law1) / law.scale1 < 1e-6, "first law not constant")
        check(abs(law.mean1 - law_prof.params.flux_a) < 1e-6, "first-law mean off the flux")
        check(np.std(law.law2) / law.scale2 < 1e-4, "second law not constant")
        check(abs(law.mean2 - law_prof.params.flux_b) < 1e-4 * law.scale2,
              "second-law mean off the flux")

        kdv = family == "kdv-cnoidal"
        prof = waves.build_profile(family, 1.0, 1.0, 1.0, c, flux, n_samples=Analysis.SAMPLES)

        def analytic(n_max):
            if kdv:
                return fourier.cn2_coeffs(prof.cnoidal, n_max)
            return fourier.cn4_coeffs_halfmodulus(prof, n_max)

        exact, numeric = analytic(12), fourier.dft_coeffs(prof, 12)
        floor = 1e-6 * abs(exact[0])
        for n in range(13):
            err = abs(exact[n] - numeric[n])
            check(err <= 1e-8 * max(abs(exact[n]), floor), f"coefficient {n} off by {err:.3e}")
        for window in (12, 24):
            report = fourier.pf2_check(analytic(2 * window), window=window)
            check(report.passed, f"PF(2) at window {window}: min minor {report.min_minor:.3e}")

        if kdv:
            for mode in ("fixed-flux", "fixed-period"):
                check_stable(stability.cn2_norm_derivative(1.0, 1.0, c, flux, mode=mode))
        else:
            check_stable(stability.cn4_norm_derivative(1.0, 1.0, c))

    def warmup(self):
        self._op()[1]()

    def next_round(self):
        return [self._op() for _ in range(self.round_size)]


def _fmt(x):
    return f"{x:.6g}"


class Cli(Workload):
    """Every subcommand as a fresh ``python -m fkdv.cli`` process, one at a time.

    The argument lists are drawn once from the seed, so every round repeats
    them; the CSV files of each command are hashed and must match across
    rounds (the byte-identical output contract).
    """

    def __init__(self, seed, work_dir, env):
        rng = random.Random(seed)
        c, flux = _fmt(rng.uniform(0.5, 2.0)), _fmt(rng.uniform(0.3, 3.0))
        c5 = _fmt(rng.uniform(0.25, 4.0))
        grid = ",".join(_fmt(v) for v in sorted(rng.uniform(0.5, 2.0) for _ in range(3)))
        eps, noise_seed = _fmt(rng.uniform(0.005, 0.02)), str(rng.randrange(2 ** 31))
        kdv_cn = ["--family", "kdv-cnoidal", "--c", c, "--A", flux]
        # (label, arguments, expected exit code)
        self.commands = [
            ("profile", ["profile", *kdv_cn], 0),
            ("verify-fifth-soliton", ["verify", "--family", "fifth-soliton"], 0),
            ("verify-kdv-soliton", ["verify", "--family", "kdv-soliton"], 0),
            ("verify-kdv-cnoidal", ["verify", *kdv_cn], 0),
            ("verify-fifth-cnoidal", ["verify", "--family", "fifth-cnoidal", "--c", c5,
                                      "--nmax", "24"], 0),
            ("verify-negative-control", ["verify", *kdv_cn, "--speed-scale", "1.1"], 1),
            ("stability-kdv-cnoidal", ["stability", "--family", "kdv-cnoidal", "--A", flux,
                                       "--c-grid", grid], 0),
            ("stability-fifth-soliton", ["stability", "--family", "fifth-soliton"], 0),
            ("simulate", ["simulate", "--family", "kdv-soliton", "--horizon", "2",
                          "--perturb", f"noise:{eps}", "--seed", noise_seed], 0),
        ]
        self.round_size = len(self.commands)
        self.work_dir = work_dir
        self.env = env
        self.hashes = {}
        self.csv_bytes = {}
        self.momentum_drift = 0.0
        self.tracer = None
        self.import_ms = []
        self.absent = {}

    def _run(self, label, argv, expected):
        out = self.work_dir / label
        for old in self.work_dir.glob(f"{label}_*.csv"):
            old.unlink()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fkdv.cli"]
        else:
            spans_path = self.work_dir / f"{label}.spans.json"
            cmd = [sys.executable, str(HERE / "cli_launch.py"), str(spans_path)]
        proc = subprocess.run(cmd + argv + ["--out", str(out)], cwd=self.work_dir,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        if self.tracer is not None:
            self._merge_spans(spans_path)
        check(proc.returncode == expected,
              f"exit {proc.returncode}, expected {expected}: {proc.stderr.strip()[-300:]}")
        files = sorted(self.work_dir.glob(f"{label}_*.csv"))
        check(files, "no CSV written")
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        self.csv_bytes[label] = sum(f.stat().st_size for f in files)
        known = self.hashes.setdefault(label, digests)
        check(known == digests, "CSV output differs from an earlier pass with the same seed")
        diagnostics = self.work_dir / f"{label}_diagnostics.csv"
        if diagnostics.exists():
            with open(diagnostics) as fh:
                rows = list(csv.DictReader(fh))
            mass_drift = _rel_drift([float(r["mass"]) for r in rows])
            self.momentum_drift = max(self.momentum_drift,
                                      _rel_drift([float(r["momentum"]) for r in rows]))
            check(mass_drift < 1e-10, f"mass drift {mass_drift:.3e}")

    def _merge_spans(self, spans_path):
        with open(spans_path) as fh:
            record = json.load(fh)
        spans_path.unlink()
        self.import_ms.append(record["import_ms"])
        self.absent.update(record["absent"])
        offset = len(self.tracer.spans)
        for metric, start, end, parent, _, attrs in record["spans"]:
            self.tracer.spans.append([metric, start, end,
                                      None if parent is None else parent + offset,
                                      self.tracer.op, attrs])

    def start_tracing(self, tracer):
        # the launched processes trace themselves and hand back their spans
        self.tracer = tracer
        return self.absent

    def warmup(self):
        self._run(*self.commands[0])

    def next_round(self):
        return [(label, lambda cmd=(label, argv, code): self._run(*cmd))
                for label, argv, code in self.commands]

    def layer_extras(self):
        extras = {"cli.csv_bytes": sum(self.csv_bytes.values()),
                  "pde.momentum_drift_max": self.momentum_drift}
        if self.import_ms:
            extras["cli.import_ms"] = float(np.median(self.import_ms))
        return extras

    def details(self):
        return {"csv_sha256": self.hashes}


def make(name, seed, tiny, work_dir, env):
    if name == "dynamics":
        return Dynamics(seed, tiny)
    if name == "analysis":
        return Analysis(seed)
    if name == "cli":
        work_dir.mkdir(parents=True, exist_ok=True)
        return Cli(seed, work_dir, env)
    raise ValueError(f"unknown workload {name!r}")
