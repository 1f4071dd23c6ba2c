"""Command-line front end: profile / verify / stability / simulate.

Configuration precedence: built-in defaults < ``--config`` file (key=value
lines, # comments, keys named like the flags) < command-line flags.  The
file's values become the subcommand's defaults, so argparse converts and
checks them like flag values.  Exit codes: 0 success, 1 a
verification or stability check failed (or the run blew up), 2 usage or
parameter-validation errors.  All CSV output uses full round-trip precision
so identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from . import fourier, pde, stability, waves

_USAGE_ERROR = 2
_CHECK_FAILED = 1
# verify's PF(2) check takes O(nmax^2) time and memory; a profile holds a
# few arrays of --samples floats; stability takes time, memory and CSV rows
# in proportion to the --c-grid speeds
_NMAX_CAP = 64
_SAMPLES_CAP = 2 ** 20
_SPEEDS_CAP = 10_000
_GRID_CAP = 2 ** 16


def _wave_args(parser):
    parser.add_argument("--family", choices=waves.FAMILIES, required=True,
                        help="traveling-wave family")
    parser.add_argument("--gamma", type=float, default=1.0, help="steepening coefficient")
    parser.add_argument("--alpha", type=float, default=1.0, help="third-order dispersion")
    parser.add_argument("--beta", type=float, default=1.0, help="fifth-order dispersion")
    parser.add_argument("--C", dest="cee", type=float, default=0.0,
                        help="linear advection coefficient (simulate only; the closed "
                             "forms assume C = 0)")
    parser.add_argument("--c", type=float, default=1.0, help="wave speed")
    parser.add_argument("--A", dest="flux_a", type=float, default=1.0,
                        help="mass-flux constant of the cn^2 family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkdv",
        description="Traveling waves of the fifth-order KdV equation: "
                    "construction, verification, stability indices, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        # argparse reads a value that starts with '-' as an option unless it
        # matches this; its default admits one plain number, so a grid like
        # "-0.7,0.3" (or "-1e-3") lost its flag.  No option here starts '-<digit>'.
        p._negative_number_matcher = re.compile(r"-\.?\d")
        _wave_args(p)
        return p

    p_prof = command("profile", "build a wave and write its samples")
    p_prof.add_argument("--samples", type=int, default=0, help="sample count (0 = family default)")

    p_ver = command("verify", "run the verification battery")
    p_ver.add_argument("--samples", type=int, default=0, help="sample count (0 = family default)")
    p_ver.add_argument("--nmax", type=int, default=12,
                       help=f"coefficient truncation and PF(2) window, 1..{_NMAX_CAP}")
    p_ver.add_argument("--speed-scale", type=float, default=1.0,
                       help="negative control: scale the speed used in the residual check")

    p_stab = command("stability", "evaluate the stability functionals")
    p_stab.add_argument("--mode", choices=("fixed-flux", "fixed-period", "both"),
                        default="both", help="what is held fixed while differentiating in c")
    p_stab.add_argument("--c-grid", default=None,
                        help="comma-separated speeds (default: the single --c)")

    p_sim = command("simulate", "evolve a (perturbed) wave")
    p_sim.add_argument("--gridN", dest="grid_n", type=int, default=0,
                       help=f"grid points, power of two up to {_GRID_CAP} "
                            "(0 = family default)")
    p_sim.add_argument("--dt", type=float, default=0.0, help="time step (0 = automatic)")
    p_sim.add_argument("--horizon", type=float, default=0.0,
                       help="end time (0 = ten characteristic times)")
    p_sim.add_argument("--perturb", default=None,
                       help="perturbation kind:eps, kind in {scale,cosine,noise}")
    p_sim.add_argument("--seed", type=int, default=0, help="seed for noise perturbations")
    p_sim.add_argument("--record-every", type=int, default=50, help="diagnostics cadence")

    for p in sub.choices.values():
        p.add_argument("--out", default="fkdv", help="output path prefix")
        p.add_argument("--config", default=None, help="key=value config file")
        p.set_defaults(command_parser=p)
    return parser


def _config_defaults(parser: argparse.ArgumentParser, path: str):
    """Install the key=value lines of ``path`` as defaults of ``parser``."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    defaults = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("config", "help"):
            parser.error(f"config line {lineno}: unknown key {key!r}")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


def _check_args(args):
    """Reject, before any work, inputs no command can honour."""
    if args.cee != 0.0 and args.command != "simulate":
        raise ValueError(f"--C {args.cee!r}: the closed forms assume C = 0; "
                         "only simulate takes a nonzero C")
    # --samples 0 picks the family default
    for flag, value, lo, hi in (("--nmax", getattr(args, "nmax", 1), 1, _NMAX_CAP),
                                ("--samples", getattr(args, "samples", 0) or 64, 64, _SAMPLES_CAP)):
        if not lo <= value <= hi:
            raise ValueError(f"{flag} must lie in [{lo}, {hi}], got {value}")
    if args.command == "stability":
        args.speeds = ([float(s) for s in args.c_grid.split(",")] if args.c_grid
                       else [args.c])
        if len(args.speeds) > _SPEEDS_CAP:
            raise ValueError(f"--c-grid holds {len(args.speeds)} speeds, "
                             f"above the cap of {_SPEEDS_CAP}")
    for flag, value in (("--gamma", args.gamma), ("--alpha", args.alpha),
                        ("--beta", args.beta), ("--c", args.c), ("--A", args.flux_a),
                        ("--C", args.cee), ("--speed-scale", getattr(args, "speed_scale", 1.0)),
                        *(("--c-grid", c) for c in getattr(args, "speeds", ()))):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    grid_n = getattr(args, "grid_n", 0)
    if grid_n and not (0 < grid_n <= _GRID_CAP and grid_n & (grid_n - 1) == 0):
        raise ValueError(f"--gridN must be a power of two up to {_GRID_CAP} "
                         f"(0 = family default), got {grid_n}")


def _build_profile(args) -> waves.WaveProfile:
    profile = waves.build_profile(args.family, args.gamma, args.alpha, args.beta,
                                  args.c, args.flux_a,
                                  n_samples=getattr(args, "samples", 0))
    if args.cee != 0.0:
        profile = dataclasses.replace(
            profile, params=dataclasses.replace(profile.params, cee=args.cee))
    return profile


def cmd_profile(args) -> int:
    profile = _build_profile(args)
    path = f"{args.out}_profile.csv"
    waves.profile_to_csv(profile, path)
    p = profile.params
    print(f"family           {profile.family}")
    print(f"amplitude        {profile.amplitude:.9g}")
    print(f"speed c          {p.c:.9g}")
    print(f"flux A           {p.flux_a:.9g}")
    if profile.cnoidal is not None:
        cn = profile.cnoidal
        if np.isfinite(cn.delta):
            print(f"discriminant     {cn.delta:.9g}")
        print(f"modulus k        {cn.modulus:.9g}")
        print(f"wavelength       {cn.wavelength:.9g}")
        if np.isfinite(cn.emm):
            print(f"M(c)             {cn.emm:.9g}")
    print(f"samples written  {path}")
    return 0


def conservation_rows(check: waves.ConservationCheck, p: waves.MediumParams):
    """``verify``'s four conservation-law rows (name, value, tolerance); a row passes when
    value <= tolerance, and a ratio to a zero or non-finite scale is NaN, so it fails."""
    ratio1, ratio2 = (float(np.std(law)) / scale if 0.0 < scale < math.inf else math.nan
                      for law, scale in ((check.law1, check.scale1), (check.law2, check.scale2)))
    return [("law-1 std/scale", ratio1, 1e-6),
            ("|law-1 mean - A|", abs(check.mean1 - p.flux_a), 1e-6 * max(1.0, check.scale1)),
            ("law-2 std/scale", ratio2, 1e-4),
            ("|law-2 mean - B|", abs(check.mean2 - p.flux_b), 1e-4 * max(1.0, check.scale2))]


def cmd_verify(args) -> int:
    profile = _build_profile(args)
    # the DFT oracle of the coefficients needs 8 samples per harmonic
    if profile.periodic and len(profile.u) < 8 * args.nmax:
        raise ValueError(f"--samples {len(profile.u)} is below 8*--nmax = {8 * args.nmax} "
                         "for a periodic family")
    if args.speed_scale != 1.0:
        # tamper with the propagation speed to exercise the failure path
        bad = dataclasses.replace(profile.params, c=profile.params.c * args.speed_scale)
        profile = dataclasses.replace(profile, params=bad)

    check = waves.conservation_residuals(profile)
    waves.write_csv(f"{args.out}_residuals.csv", ("xi", "residual1", "residual2"),
                    zip(check.xi, check.residual1, check.residual2))
    p = profile.params
    print(f"conservation: law1 mean {check.mean1:.6e} (declared A {p.flux_a:.6e}), "
          f"law2 mean {check.mean2:.6e} (declared B {p.flux_b:.6e})")
    rows = conservation_rows(check, p)

    if profile.periodic:
        nmax = args.nmax
        # PF(2) at window nmax reads 2*nmax coefficients; each coefficient is
        # computed on its own, so the first nmax + 1 are also the compared ones
        analytic = fourier.analytic_coeffs(profile, 2 * nmax)
        exact, dft = analytic.values[:nmax + 1], fourier.dft_coeffs(profile, nmax).values
        rel = np.abs(exact - dft) / np.maximum(np.abs(exact), 1e-6 * abs(exact[0]))
        waves.write_csv(f"{args.out}_coeffs.csv", ("n", "analytic", "dft", "rel_err"),
                        zip(range(nmax + 1), exact, dft, rel))
        # a member of negative amplitude mirrors a positive one, (u, gamma) ->
        # (-u, -gamma) or for cn^4 (u, c, beta, xi) -> (-u, -c, -beta, -xi),
        # whose coefficients are exactly the negated ones
        sign = math.copysign(1.0, profile.amplitude)
        if sign < 0.0:
            print("PF(2) is checked on the mirrored sequence -u_hat")
        report = fourier.pf2_check(sign * analytic.two_sided(), window=nmax)
        rows += [(f"coeff rel err (n <= {nmax})", float(np.max(rel)), 1e-8),
                 ("-(least PF(2) minor)", -report.min_minor, report.tolerance)]

    passed = [value <= tol for _, value, tol in rows]
    for (name, value, tol), ok in zip(rows, passed):
        print(f"{name:<24}{value:>11.3e}  tolerance {tol:.3e}  {'ok' if ok else 'FAIL'}")
    if not all(passed):
        print(f"FAIL: {rows[passed.index(False)][0]}")
        return _CHECK_FAILED
    print("all checks passed")
    return 0


def cmd_stability(args) -> int:
    reports = stability.family_reports(args.family, args.gamma, args.alpha, args.beta,
                                       args.speeds, args.flux_a, args.mode)
    stability.reports_to_csv(reports, f"{args.out}_stability.csv")
    for rep in reports:
        if rep.series is not None:
            waves.write_csv(f"{args.out}_bj.csv", ("j", "b_j"), enumerate(rep.series))
        print(rep.summary())
    if any(r.verdict != "stable" for r in reports):
        print("FAIL: stability hypotheses not satisfied")
        return _CHECK_FAILED
    return 0


def _parse_perturbation(text: str | None, seed: int):
    if not text:
        return None
    try:
        kind, eps = text.split(":", 1)
        return pde.Perturbation(kind=kind.strip(), eps=float(eps),
                                seed=seed if kind.strip() == "noise" else None)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad perturbation spec {text!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    profile = _build_profile(args)
    perturbation = _parse_perturbation(args.perturb, args.seed)
    try:
        report = pde.stability_experiment(
            profile, perturbation,
            horizon=args.horizon or None,
            grid_n=args.grid_n or None,
            dt=args.dt or None,
            record_every=args.record_every)
    except pde.BlowUpError as exc:
        print(f"FAIL: blow-up at t={exc.time:g}")
        return _CHECK_FAILED
    pde.diagnostics_to_csv(report.records, f"{args.out}_diagnostics.csv")
    pde.snapshot_to_csv(report.final_state, f"{args.out}_snapshot.csv")
    print(f"family            {report.family}")
    print(f"horizon           {report.horizon:.6g}")
    print(f"initial dist H2   {report.initial_dist_h2:.6e}")
    print(f"max dist H1       {report.max_dist_h1:.6e}")
    print(f"max dist H2       {report.max_dist_h2:.6e}")
    if report.initial_dist_h2 > 0:
        print(f"max/initial (H2)  {report.ratio_h2:.3f}")
    print(f"mass drift        {abs(report.records[-1].mass - report.records[0].mass):.3e}")
    return 0


_COMMANDS = {
    "profile": cmd_profile,
    "verify": cmd_verify,
    "stability": cmd_stability,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _config_defaults(args.command_parser, args.config)
        args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
