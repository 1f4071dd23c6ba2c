import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fkdv
from fkdv import cli, fourier, pde, waves
from fkdv.cli import main


def run(argv):
    return main(argv)


def unreachable(*args, **kwargs):
    raise AssertionError("validation should have stopped the command")


def verify_rows(out):
    """verify's check table: {name: (value, tolerance, status)}."""
    rows = {}
    for line in out.splitlines():
        if "  tolerance " in line:
            head, tail = line.split("  tolerance ")
            name, value = head.rsplit(None, 1)
            tol, status = tail.split()
            rows[name] = (float(value), float(tol), status)
    return rows


class TestProfileCommand:
    def test_fifth_soliton_echo(self, tmp_path, capsys):
        code = run(["profile", "--family", "fifth-soliton", "--gamma", "1",
                    "--alpha", "1", "--beta", "1", "--out", str(tmp_path / "w")])
        assert code == 0
        out = capsys.readouterr().out
        amp = float(out.split("amplitude")[1].splitlines()[0])
        assert amp == pytest.approx(105.0 / 169.0, rel=1e-9)
        assert amp == pytest.approx(0.621302, rel=1e-5)
        assert (tmp_path / "w_profile.csv").exists()

    def test_kdv_cnoidal_echoes_derived_quantities(self, tmp_path, capsys):
        code = run(["profile", "--family", "kdv-cnoidal", "--c", "1", "--A", "1",
                    "--out", str(tmp_path / "w")])
        assert code == 0
        out = capsys.readouterr().out
        assert "discriminant" in out and "33" in out
        assert "wavelength" in out and "modulus" in out

    def test_missing_family_names_parameter(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["profile", "--gamma", "1"])
        assert exc.value.code == 2
        assert "--family" in capsys.readouterr().err

    def test_degenerate_modulus_guard(self, tmp_path, capsys):
        code = run(["profile", "--family", "kdv-cnoidal", "--A", "0",
                    "--out", str(tmp_path / "w")])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.mark.parametrize("family", ["fifth-soliton", "kdv-cnoidal", "fifth-cnoidal"])
    def test_defaults_pass(self, family, tmp_path, capsys):
        code = run(["verify", "--family", family, "--out", str(tmp_path / "v")])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out
        assert (tmp_path / "v_residuals.csv").exists()

    def test_periodic_writes_coefficient_table(self, tmp_path):
        run(["verify", "--family", "kdv-cnoidal", "--out", str(tmp_path / "v")])
        header = (tmp_path / "v_coeffs.csv").read_text().splitlines()[0]
        assert header == "n,analytic,dft,rel_err"

    @pytest.mark.parametrize("family", ["fifth-soliton", "kdv-cnoidal"])
    def test_corrupted_speed_fails(self, family, tmp_path, capsys):
        code = run(["verify", "--family", family, "--speed-scale", "1.1",
                    "--out", str(tmp_path / "v")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_residuals_fail(self, tmp_path, capsys):
        # the profile's square overflows at amplitude 3e307, so every law statistic
        # is NaN (at c = 1e200, used before, the member's width is now rejected)
        with pytest.warns(RuntimeWarning):
            code = run(["verify", "--family", "kdv-soliton", "--gamma", "1e-307",
                        "--out", str(tmp_path / "v")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL: law-1 std/scale" in out
        value, tol, status = verify_rows(out)["law-1 std/scale"]
        assert math.isnan(value) and tol == 1e-6 and status == "FAIL"

    def test_zero_scale_fails(self, tmp_path, capsys):
        # u^2 underflows at c = 1e-300, so both laws' scales are exactly zero
        # and neither std/scale ratio is defined
        assert run(["verify", "--family", "fifth-cnoidal", "--c", "1e-300",
                    "--out", str(tmp_path / "v")]) == 1
        out = capsys.readouterr().out
        assert "FAIL: law-1 std/scale" in out
        rows = verify_rows(out)
        for name in ("law-1 std/scale", "law-2 std/scale"):
            assert math.isnan(rows[name][0]) and rows[name][2] == "FAIL"
        profile = waves.build_profile("fifth-cnoidal", 1.0, 1.0, 1.0, 1e-300, 1.0)
        check = waves.conservation_residuals(profile)
        assert check.scale1 == check.scale2 == 0.0

    def test_nan_dft_coefficient_fails(self, tmp_path, capsys, monkeypatch):
        # the coefficient error propagates NaN; it was dropped and verify passed
        dft_coeffs = fourier.dft_coeffs

        def one_nan(profile, n_max):
            values = dft_coeffs(profile, n_max).values.copy()
            values[3] = math.nan
            return fourier.CoeffSequence(values)

        monkeypatch.setattr(fourier, "dft_coeffs", one_nan)
        assert run(["verify", "--family", "kdv-cnoidal", "--out", str(tmp_path / "v")]) == 1
        out = capsys.readouterr().out
        assert "FAIL: coeff rel err (n <= 12)" in out
        assert math.isnan(verify_rows(out)["coeff rel err (n <= 12)"][0])
        assert (tmp_path / "v_coeffs.csv").read_text().splitlines()[4].endswith(",nan,nan")

    @pytest.mark.parametrize("family, count", [("fifth-soliton", 4), ("kdv-soliton", 4),
                                               ("kdv-cnoidal", 6), ("fifth-cnoidal", 6)])
    def test_one_row_per_check(self, family, count, tmp_path, capsys):
        assert run(["verify", "--family", family, "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        rows = verify_rows(out)
        assert len(rows) == count == out.count("tolerance")
        for value, tol, status in rows.values():
            assert value <= tol and status == "ok"

    def test_cnoidal_discriminant_overflow_is_a_usage_error(self, tmp_path, capsys):
        assert run(["verify", "--family", "kdv-cnoidal", "--c", "1e200",
                    "--out", str(tmp_path / "v")]) == 2
        assert "discriminant 9c^2 + 24*flux_a*gamma = inf must lie in (0, inf)" in (
            capsys.readouterr().err)

    def test_fifth_cnoidal_passes_on_4096_samples(self, tmp_path):
        # unchopped rounding, lifted by kappa^4, breaks law 1's 1e-6 bound here
        assert run(["verify", "--family", "fifth-cnoidal", "--samples", "4096",
                    "--out", str(tmp_path / "v")]) == 0

    def test_soliton_residuals_cover_the_box(self, tmp_path):
        # 2049 samples on [-W, W]; the repeated endpoint is the only one dropped
        run(["verify", "--family", "fifth-soliton", "--out", str(tmp_path / "v")])
        lines = (tmp_path / "v_residuals.csv").read_text().splitlines()
        assert lines[0] == "xi,residual1,residual2"
        assert len(lines) - 1 == 2048

    def test_negative_amplitude_checks_the_mirrored_sequence(self, tmp_path, capsys):
        # (u, gamma) -> (-u, -gamma) negates every coefficient exactly, so the
        # least minor is the gamma = A = 1 member's
        assert run(["verify", "--family", "kdv-cnoidal", "--gamma", "-1", "--A", "-1",
                    "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        assert "PF(2) is checked on the mirrored sequence -u_hat" in out
        assert verify_rows(out)["-(least PF(2) minor)"] == (-5.337e-47, 3.258e-14, "ok")

    def test_verify_prints_pf2_minor_next_to_its_tolerance(self, tmp_path, capsys):
        assert run(["verify", "--family", "fifth-cnoidal", "--out", str(tmp_path / "v")]) == 0
        negated_minor, tol, status = verify_rows(capsys.readouterr().out)["-(least PF(2) minor)"]
        assert negated_minor <= tol and tol > 0.0 and status == "ok"


class TestStabilityCommand:
    def test_fifth_soliton_series(self, tmp_path, capsys):
        code = run(["stability", "--family", "fifth-soliton", "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        b0 = abs(float(out.split("term b0 =")[1].splitlines()[0]))
        tail_sum = float(out.split("partial sum =")[1].split(",")[0])
        assert b0 == pytest.approx(6.14e-5, rel=0.01)
        assert tail_sum == pytest.approx(5.05e-6, rel=0.01)
        assert "stable" in out
        # header and b_0..b_200
        assert len((tmp_path / "s_bj.csv").read_text().splitlines()) == 202

    def test_kdv_soliton_derivative(self, tmp_path, capsys):
        code = run(["stability", "--family", "kdv-soliton", "--c", "1",
                    "--out", str(tmp_path / "s")])
        assert code == 0
        assert "36" in capsys.readouterr().out

    def test_cnoidal_fixed_period_mode(self, tmp_path, capsys):
        code = run(["stability", "--family", "kdv-cnoidal", "--mode", "fixed-period",
                    "--c-grid", "0.5,1", "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed-period" in out
        lines = (tmp_path / "s_stability.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two speeds

    # d/dc of the cn^2 norm at c = 0, gamma = alpha = A = 1, from 50-digit
    # mpmath (tests/test_stability.py); a speed of 1e-12 moves it by ~1e-12
    ZERO_SPEED = {"fixed-flux": 2.238571926536512, "fixed-period": 3.3578578898047677}

    def read_rows(self, path):
        header, *rows = path.read_text().splitlines()
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    # c = 0 exited 2 while the derivative was a Richardson difference with
    # steps relative to |c|; the closed form judges it
    def test_cnoidal_zero_speed_is_a_usage_error(self, tmp_path):
        code = run(["stability", "--family", "kdv-cnoidal", "--c-grid", "0",
                    "--out", str(tmp_path / "s")])
        assert code == 0
        rows = self.read_rows(tmp_path / "s_stability.csv")
        assert [r["mode"] for r in rows] == ["fixed-flux", "fixed-period"]
        for row in rows:
            assert row["verdict"] == "stable"
            assert float(row["norm_derivative"]) == pytest.approx(
                self.ZERO_SPEED[row["mode"]], rel=1e-12)

    # speeds too small for the Richardson steps exited 2; they are judged now
    @pytest.mark.parametrize("speed", ["1e-300", "1e-12"])
    def test_cnoidal_unresolvable_speed_is_a_usage_error(self, tmp_path, speed):
        code = run(["stability", "--family", "kdv-cnoidal", f"--c-grid=0.5,{speed}",
                    "--out", str(tmp_path / "s")])
        assert code == 0
        rows = self.read_rows(tmp_path / "s_stability.csv")
        assert [r["verdict"] for r in rows] == ["stable"] * 4
        for row in rows[2:]:
            assert float(row["c"]) == float(speed)
            assert float(row["norm_derivative"]) == pytest.approx(
                self.ZERO_SPEED[row["mode"]], rel=1e-11)

    def test_grid_with_a_leading_negative_speed(self, tmp_path):
        # argparse read "-0.7,0.3,1.5" as an option and exited 2
        csv = []
        for i, grid in enumerate((["--c-grid", "-0.7,0.3,1.5"], ["--c-grid=-0.7,0.3,1.5"])):
            assert run(["stability", "--family", "kdv-cnoidal", *grid,
                        "--out", str(tmp_path / f"g{i}")]) == 0
            csv.append((tmp_path / f"g{i}_stability.csv").read_bytes())
        assert csv[0] == csv[1]
        assert csv[0].count(b"\n") == 7  # header, three speeds in two modes

    def test_jmax_is_no_option(self, tmp_path, capsys):
        # the verdict does not depend on a truncation, so there is none to set
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--family", "fifth-soliton", "--jmax", "5",
                 "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "--jmax" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family, flag, value, message", [
        ("fifth-soliton", "--alpha", "-1", "the sech^4 soliton needs alpha > 0 and beta > 0"),
        ("kdv-soliton", "--gamma", "0", "gamma must be nonzero"),
        ("fifth-cnoidal", "--c", "-1", "the cn^4 wave needs c/beta > 0"),
    ])
    def test_member_the_builder_rejects_gets_no_verdict(self, family, flag, value, message,
                                                         tmp_path, capsys):
        assert run(["stability", "--family", family, flag, value,
                    "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s_stability.csv").exists()

    @pytest.mark.parametrize("family, mirror", [
        ("kdv-soliton", ["--alpha", "-1", "--c", "-1"]),
        ("fifth-cnoidal", ["--c", "-1", "--beta", "-1"]),
    ])
    def test_mirrored_member_gets_the_canonical_index(self, family, mirror, tmp_path):
        # columns from norm_derivative on match bit for bit; only c differs
        cols = []
        for name, flags in (("canon", []), ("mirror", mirror)):
            assert run(["stability", "--family", family, *flags,
                        "--out", str(tmp_path / name)]) == 0
            lines = (tmp_path / f"{name}_stability.csv").read_text().splitlines()
            cols.append([line.split(",", 3)[3] for line in lines])
        assert cols[0] == cols[1]
        assert cols[0][1].split(",")[2] == "stable"

    def test_jobs_flag(self, tmp_path):
        code = run(["stability", "--family", "fifth-cnoidal", "--c-grid", "0.5,1,2",
                    "--out", str(tmp_path / "s")])
        assert code == 0


class TestSimulateCommand:
    def test_unperturbed_soliton_orbit_error(self, tmp_path, capsys):
        code = run(["simulate", "--family", "kdv-soliton", "--gridN", "512",
                    "--horizon", "2", "--dt", "0.005", "--out", str(tmp_path / "r")])
        assert code == 0
        out = capsys.readouterr().out
        max_h2 = float(out.split("max dist H2")[1].splitlines()[0])
        assert max_h2 < 1e-5 * 3.0
        assert (tmp_path / "r_diagnostics.csv").exists()
        assert (tmp_path / "r_snapshot.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["simulate", "--family", "kdv-soliton", "--gridN", "256",
                "--horizon", "0.5", "--dt", "0.01", "--perturb", "noise:0.01",
                "--seed", "7"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a_diagnostics.csv").read_bytes() == \
               (tmp_path / "b_diagnostics.csv").read_bytes()
        assert (tmp_path / "a_snapshot.csv").read_bytes() == \
               (tmp_path / "b_snapshot.csv").read_bytes()

    def test_grid_validation(self, tmp_path, capsys):
        code = run(["simulate", "--family", "kdv-soliton", "--gridN", "100",
                    "--out", str(tmp_path / "r")])
        assert code == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["131072", "65537", "-256"])
    def test_grid_cap(self, grid, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "simulate", unreachable)
        assert run(["simulate", "--family", "kdv-soliton", "--gridN", grid]) == 2
        assert "--gridN" in capsys.readouterr().err

    def test_grid_cap_admits_its_bound(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args: seen.append(args) or 0)
        assert run(["simulate", "--family", "kdv-soliton", "--gridN", str(2 ** 16)]) == 0
        assert seen[0].grid_n == 2 ** 16

    def test_advection_reaches_the_solver(self, tmp_path):
        sim = ["simulate", "--family", "kdv-cnoidal", "--gridN", "256", "--horizon", "0.2",
               "--dt", "0.01"]
        for cee in ("0", "0.5"):
            assert run(sim + ["--C", cee, "--out", str(tmp_path / f"c{cee}")]) == 0
        snap = {cee: (tmp_path / f"c{cee}_snapshot.csv").read_bytes() for cee in ("0", "0.5")}
        assert snap["0"] != snap["0.5"]
        # C = 0 runs the builder's own profile, as before C was passed on
        report = pde.stability_experiment(waves.build_profile("kdv-cnoidal", 1.0, 1.0, 1.0,
                                                              1.0, 1.0),
                                          None, horizon=0.2, grid_n=256, dt=0.01)
        assert pde.snapshot_to_csv(report.final_state).encode() == snap["0"]

    def test_diagnostics_header(self, tmp_path):
        run(["simulate", "--family", "kdv-soliton", "--gridN", "256",
             "--horizon", "0.2", "--dt", "0.01", "--out", str(tmp_path / "r")])
        header = (tmp_path / "r_diagnostics.csv").read_text().splitlines()[0]
        assert header == "time,mass,momentum,distH1,distH2,shift"


class TestValidation:
    @pytest.mark.parametrize("command", ["profile", "verify", "stability"])
    def test_closed_forms_reject_advection(self, command, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, command, unreachable)
        assert run([command, "--family", "kdv-cnoidal", "--C", "0.5"]) == 2
        assert "assume C = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("nmax", ["0", "65", "100000"])
    def test_nmax_cap(self, nmax, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "verify", unreachable)
        assert run(["verify", "--family", "kdv-cnoidal", "--nmax", nmax]) == 2
        assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize("command,samples", [("profile", "63"), ("verify", "-1"),
                                                 ("profile", str(2 ** 20 + 1))])
    def test_samples_cap(self, command, samples, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, command, unreachable)
        assert run([command, "--family", "kdv-soliton", "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("profile", "--c", "inf"), ("profile", "--gamma", "nan"),
        ("verify", "--alpha", "-inf"), ("verify", "--beta", "nan"),
        ("verify", "--speed-scale", "nan"),
        ("simulate", "--A", "inf"), ("simulate", "--C", "nan"),
        ("stability", "--c", "inf"), ("stability", "--c-grid", "0.5,nan"),
        ("stability", "--c-grid", "-inf,1"),
    ])
    def test_non_finite_numbers_rejected(self, command, flag, value, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, command, unreachable)
        assert run([command, "--family", "kdv-soliton", f"{flag}={value}"]) == 2
        assert f"error: {flag} must be finite, got " in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["scale:nan", "cosine:inf", "noise:-inf"])
    def test_non_finite_perturbation_eps_rejected(self, spec, monkeypatch, capsys):
        monkeypatch.setattr(pde, "stability_experiment", unreachable)
        assert run(["simulate", "--family", "kdv-soliton", "--perturb", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad perturbation spec {spec!r}: ")
        assert "perturbation eps must be finite" in err

    def test_record_every_zero_is_a_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--family", "kdv-soliton", "--gridN", "256",
                    "--horizon", "0.1", "--record-every", "0",
                    "--out", str(tmp_path / "s")]) == 2
        assert "record_every" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--horizon", "inf", "t_end must be finite, got inf"),
        ("--horizon", "nan", "t_end must be finite, got nan"),
        ("--dt", "nan", "dt must be positive and finite, got nan"),
        ("--dt", "inf", "dt must be positive and finite, got inf"),
        ("--dt", "1e-9", "20000000000 steps, above the cap of 1000000"),
    ])
    def test_time_inputs_bounded(self, flag, value, message, tmp_path, monkeypatch, capsys):
        def unreachable_step(*args):
            raise AssertionError("validation should have stopped the run")

        monkeypatch.setattr(pde, "_step_spectrum", unreachable_step)
        assert run(["simulate", "--family", "kdv-soliton", "--gridN", "256", flag, value,
                    "--out", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["kdv-cnoidal", "fifth-cnoidal"])
    def test_too_few_samples_for_nmax_write_nothing(self, family, tmp_path, capsys):
        # the coefficient oracle needs 8*nmax samples; checked before any CSV
        assert run(["verify", "--family", family, "--samples", "100", "--nmax", "64",
                    "--out", str(tmp_path / "v")]) == 2
        captured = capsys.readouterr()
        assert "--samples 100" in captured.err and "8*--nmax = 512" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_soliton_takes_no_coefficients_at_any_nmax(self, tmp_path):
        # 100 samples are too few for its conservation laws, not for --nmax
        assert run(["verify", "--family", "kdv-soliton", "--samples", "100", "--nmax", "64",
                    "--out", str(tmp_path / "v")]) == 1
        assert (tmp_path / "v_residuals.csv").exists()

    def test_nmax_cap_admits_its_bound(self, tmp_path, capsys):
        assert run(["verify", "--family", "kdv-cnoidal", "--nmax", "64",
                    "--out", str(tmp_path / "v")]) == 0
        assert "PF(2)" in capsys.readouterr().out


class TestOutOfRange:
    # each raised OverflowError or ZeroDivisionError, succeeded with a
    # non-finite flux, or blamed the modulus for an overflowed amplitude
    @pytest.mark.parametrize("argv, reason", [
        (["profile", "--family", "fifth-soliton", "--alpha", "1e200"], "member"),
        (["verify", "--family", "fifth-soliton", "--alpha", "1e200"], "member"),
        (["stability", "--family", "fifth-soliton", "--alpha", "1e200"], "member"),
        (["profile", "--family", "fifth-cnoidal", "--c", "1e300"], "member's flux -inf"),
        (["verify", "--family", "fifth-cnoidal", "--c", "1e300"], "member's flux -inf"),
        (["stability", "--family", "kdv-soliton", "--gamma", "1e200"], "stability index"),
        (["stability", "--family", "kdv-soliton", "--gamma", "1e-200"], "stability index"),
        (["stability", "--family", "kdv-cnoidal", "--alpha", "1e200"], "stability index"),
        (["stability", "--family", "kdv-cnoidal", "--alpha", "1e-200"],
         "member's wavelength 6.29e-100"),
        (["stability", "--family", "fifth-cnoidal", "--gamma", "1e200"], "stability index"),
        (["stability", "--family", "fifth-cnoidal", "--gamma", "1e-200"], "stability index"),
        (["stability", "--family", "fifth-cnoidal", "--c", "1e200"], "member's flux -inf"),
        (["stability", "--family", "kdv-cnoidal", "--gamma", "1e-320", "--A", "1e-320"],
         "member's amplitude inf"),
        # kappa^4 overflowed on the samples: RuntimeWarnings, NaN rows and exit 1
        (["verify", "--family", "kdv-cnoidal", "--alpha", "1e-200"],
         "member's wavelength 6.29e-100"),
        (["simulate", "--family", "kdv-soliton", "--c", "1e300", "--alpha", "1e-300"],
         "member's width 0"),
    ])
    def test_usage_error_names_the_family(self, argv, reason, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: the {argv[2]} {reason}")
        assert "out of floating-point range" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    @pytest.mark.parametrize("count, code", [(10_000, 0), (10_001, 2)])
    def test_speed_grid_cap(self, count, code, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "stability", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c-grid = " + ",".join(["1"] * count) + "\n")
        assert run(["stability", "--family", "kdv-soliton", "--config", str(cfg)]) == code
        if code:
            assert capsys.readouterr().err == (
                "error: --c-grid holds 10001 speeds, above the cap of 10000\n")
            assert seen == []
        else:
            assert seen[0].speeds == [1.0] * count

    def test_file_sets_and_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2.0\nc = 4.0  # speed from file\n")
        code = run(["stability", "--family", "kdv-soliton", "--c", "1",
                    "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        # gamma = 2 from the file, c = 1 from the flag: derivative 36/4 = 9
        assert "= 9" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamm = 2.0\n")
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--family", "kdv-soliton", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_aliased_keys_resolved(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = 0.5\nA = 2.0\ngridN = 256\n")
        base = ["simulate", "--family", "kdv-cnoidal", "--config", str(cfg)]
        assert run(base) == 0
        assert run(base + ["--gridN", "512", "--C", "0.25"]) == 0
        assert [(a.cee, a.flux_a, a.grid_n) for a in seen] == [(0.5, 2.0, 256),
                                                             (0.25, 2.0, 512)]

    def test_config_and_flags_give_same_bytes(self, tmp_path, capsys):
        sim = ["simulate", "--family", "kdv-cnoidal", "--horizon", "0.2", "--dt", "0.01"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = 0.5\nA = 2.0\ngridN = 256\n")
        assert run(sim + ["--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
        assert run(sim + ["--C", "0.5", "--A", "2.0", "--gridN", "256",
                          "--out", str(tmp_path / "g")]) == 0
        snap = {k: (tmp_path / f"{k}_snapshot.csv").read_bytes() for k in "fg"}
        assert snap["f"] == snap["g"]
        assert len(snap["f"].splitlines()) == 2 + 256
        capsys.readouterr()
        cfg.write_text("A = 2.0\n")
        assert run(["profile", "--family", "kdv-cnoidal", "--config", str(cfg),
                    "--A", "1.5", "--out", str(tmp_path / "p")]) == 0
        assert "flux A           1.5" in capsys.readouterr().out

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gridN = many\n")
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--family", "kdv-soliton", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "gridN" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 2.0\n")
        with pytest.raises(SystemExit) as exc:
            run(["stability", "--family", "kdv-soliton", "--config", str(cfg)])
        assert exc.value.code == 2


def test_import_loads_no_scipy():
    # scipy is a test oracle only; the command line must not pay for its import
    src = str(Path(fkdv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fkdv.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
