import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fkdv
from fkdv import cli, pde, waves
from fkdv.cli import main


def run(argv):
    return main(argv)


def unreachable(args):
    raise AssertionError("validation should have stopped the command")


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

    def test_corrupted_speed_fails(self, tmp_path, capsys):
        code = run(["verify", "--family", "fifth-soliton", "--speed-scale", "1.1",
                    "--out", str(tmp_path / "v")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestStabilityCommand:
    def test_fifth_soliton_series(self, tmp_path, capsys):
        code = run(["stability", "--family", "fifth-soliton", "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        b0 = float(out.split("|b0|")[1].splitlines()[0])
        tail_sum = float(out.split("sum_(j>=1)")[1].splitlines()[0])
        assert b0 == pytest.approx(6.14e-5, rel=0.01)
        assert tail_sum == pytest.approx(5.05e-6, rel=0.01)
        assert "stable" in out
        assert (tmp_path / "s_bj.csv").exists()

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

    def test_inconclusive_reported_distinctly(self, tmp_path, capsys):
        code = run(["stability", "--family", "fifth-soliton", "--jmax", "1",
                    "--out", str(tmp_path / "s")])
        assert code == 1
        assert "INCONCLUSIVE" in capsys.readouterr().out

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

    @pytest.mark.parametrize("jmax", ["0", "10001"])
    def test_jmax_cap(self, jmax, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "stability", unreachable)
        assert run(["stability", "--family", "fifth-soliton", "--jmax", jmax]) == 2
        assert "--jmax" in capsys.readouterr().err

    def test_record_every_zero_is_a_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--family", "kdv-soliton", "--gridN", "256",
                    "--horizon", "0.1", "--record-every", "0",
                    "--out", str(tmp_path / "s")]) == 2
        assert "record_every" in capsys.readouterr().err

    def test_nmax_cap_admits_its_bound(self, tmp_path, capsys):
        assert run(["verify", "--family", "kdv-cnoidal", "--nmax", "64",
                    "--out", str(tmp_path / "v")]) == 0
        assert "PF(2)" in capsys.readouterr().out


class TestConfigFile:
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
