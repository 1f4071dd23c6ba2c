#!/usr/bin/env python3
"""Sweep the wave speed and tabulate every stability index.

Writes one CSV per family plus the Gegenbauer term table, and prints a
compact summary.  Usage: python scripts/stability_sweep.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from fkdv.stability import (
    GegenbauerSeriesSpec,
    cn2_norm_derivative,
    cn4_norm_derivative,
    gegenbauer_verdict,
    kdv_soliton_norm_derivative,
    reports_to_csv,
)
from fkdv.waves import write_csv

OUTDIR = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("sweep_out")
SPEEDS = np.linspace(0.25, 4.0, 16)


def main():
    OUTDIR.mkdir(parents=True, exist_ok=True)

    rep = gegenbauer_verdict(GegenbauerSeriesSpec(), jmax=200)
    write_csv(OUTDIR / "gegenbauer_bj.csv", ("j", "b_j"), enumerate(rep.series))
    print(f"fifth-soliton: |b0|={abs(rep.terms['b0']):.4e} "
          f"sum={rep.partial_sum:.4e} -> {rep.verdict}")

    print("kdv-soliton:  d/dc ||phi||^2 = 36 sqrt(c) at gamma=alpha=1")
    for c in SPEEDS[:4]:
        print(f"  c={c:5.2f}: {kdv_soliton_norm_derivative(1.0, 1.0, float(c)):9.4f}")

    cn2_reports = []
    for c in SPEEDS:
        for mode in ("fixed-flux", "fixed-period"):
            cn2_reports.append(cn2_norm_derivative(1.0, 1.0, float(c), 1.0, mode=mode))
    reports_to_csv(cn2_reports, OUTDIR / "cn2_stability.csv")
    worst = min(r.norm_derivative for r in cn2_reports)
    print(f"kdv-cnoidal:  {len(cn2_reports)} sweep points, min derivative {worst:.4f}")

    cn4_reports = [cn4_norm_derivative(1.0, 1.0, float(c)) for c in SPEEDS]
    reports_to_csv(cn4_reports, OUTDIR / "cn4_stability.csv")
    print(f"fifth-cnoidal: min derivative {min(r.norm_derivative for r in cn4_reports):.4f}")
    print(f"tables in {OUTDIR}/")


if __name__ == "__main__":
    main()
