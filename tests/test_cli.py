import hashlib
import json

import numpy as np
import pytest

from conftest import synth_monthly_csv
from taperdyn import cli
from taperdyn.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    run,
)


def read_lines(path):
    return path.read_text().splitlines()


class TestAverage:
    def test_sweep_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = run(["average", "--system", "driven-logistic", "--eps", "0",
                    "--N", "5000", "--sweep", "--sweep-n", "100,500,2000",
                    "--outdir", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out / "average_sweep.csv")
        assert lines[0] == "N,err_unweighted,err_weighted"
        assert len(lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_reruns_byte_identical(self, tmp_path):
        args = ["average", "--eps", "0.01", "--N", "3000", "--sweep",
                "--sweep-n", "100,1000", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--outdir", str(a)]) == EXIT_OK
        assert run(args + ["--outdir", str(b)]) == EXIT_OK
        assert (a / "average_sweep.csv").read_bytes() == \
            (b / "average_sweep.csv").read_bytes()

    def test_invalid_eps_no_partial_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run(["average", "--eps", "-1", "--N", "100", "--outdir", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["average", "--bogus", "1"])
        assert exc.value.code == 2

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("TAPERDYN_OUTDIR", str(target))
        assert run(["average", "--N", "100"]) == EXIT_OK
        assert (target / "average.csv").exists()


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.05\nN = 400\n")
        out = tmp_path / "o"
        dump = tmp_path / "resolved.cfg"
        code = run(["average", "--config", str(cfg), "--eps", "0.01",
                    "--outdir", str(out), "--dump-config", str(dump)])
        assert code == EXIT_OK
        text = dump.read_text()
        assert "eps = 0.01" in text       # flag wins
        assert "N = 400" in text          # file wins over default
        assert "x0 = 0.25" in text        # default

    def test_resolved_config_roundtrips(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        dump1, dump2 = tmp_path / "d1.cfg", tmp_path / "d2.cfg"
        assert run(["average", "--eps", "0.02", "--N", "500",
                    "--outdir", str(out1), "--dump-config", str(dump1)]) == EXIT_OK
        text1 = dump1.read_text()
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("\n".join(l for l in text1.splitlines()
                                 if not l.startswith("subcommand")
                                 and not l.startswith("outdir")))
        assert run(["average", "--config", str(cfg), "--outdir", str(out2),
                    "--dump-config", str(dump2)]) == EXIT_OK
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("outdir")]
        assert strip(text1) == strip(dump2.read_text())
        assert (out1 / "average.csv").read_bytes() == (out2 / "average.csv").read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["average", "--config", str(cfg)]) == EXIT_CONFIG


class TestMethodCommands:
    def test_dmd_sweep(self, tmp_path):
        out = tmp_path / "dmd"
        code = run(["dmd", "--N", "200", "--sweep-n", "50,100",
                    "--project-r", "5", "--D", "8", "--outdir", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out / "dmd_sweep.csv")
        assert lines[0] == ("N,relerr_matrix_unw,relerr_matrix_w,"
                            "relerr_eigs_unw,relerr_eigs_w")
        assert len(lines) == 3
        assert (out / "dmd_eigs.csv").exists()

    def test_edmd_and_mpedmd(self, tmp_path):
        out = tmp_path / "edmd"
        code = run(["edmd", "--lam", "0.25", "--N", "2000", "--outdir", str(out)])
        assert code == EXIT_OK
        assert read_lines(out / "edmd_eigs.csv")[0] == "re,im"
        header = read_lines(out / "edmd_matrix.csv")[0]
        assert header.startswith("re_0,im_0")

        out2 = tmp_path / "mpedmd"
        code = run(["mpedmd", "--lam", "0.25", "--N", "2000", "--outdir", str(out2)])
        assert code == EXIT_OK
        eigs = np.loadtxt(out2 / "mpedmd_eigs.csv", delimiter=",", skiprows=1)
        radii = np.hypot(eigs[:, 0], eigs[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-10)

    def test_sindy_surrogate(self, tmp_path):
        out = tmp_path / "sindy"
        code = run(["sindy", "--N", "2000", "--eta", "1e-2", "--outdir", str(out)])
        assert code == EXIT_OK
        xi = np.loadtxt(out / "sindy_xi.csv", delimiter=",", skiprows=1)
        assert xi[1] == pytest.approx(-1.0, abs=1e-3)
        diag = json.loads(read_lines(out / "sindy_diagnostics.jsonl")[0])
        assert diag["converged"] is True
        assert diag["active"] == 1

    def test_sindy_discrete_requires_input(self, tmp_path):
        assert run(["sindy", "--mode", "discrete",
                    "--outdir", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_specmeas_on_complex_series(self, tmp_path):
        series = tmp_path / "series.csv"
        alpha = 2.0
        theta = (alpha * np.arange(3000)) % (2 * np.pi)
        rows = ["re,im"] + [f"{np.cos(t):.12f},{np.sin(t):.12f}" for t in theta]
        series.write_text("\n".join(rows) + "\n")
        out = tmp_path / "sm"
        code = run(["specmeas", "--input", str(series), "--format", "complex_csv",
                    "--M", "40", "--outdir", str(out)])
        assert code == EXIT_OK
        assert read_lines(out / "autocorr.csv")[0] == "n,re,im"
        dens = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        peak_theta = dens[np.argmax(dens[:, 1]), 0]
        assert peak_theta == pytest.approx(alpha, abs=0.05)

    def test_specmeas_missing_input(self, tmp_path):
        assert run(["specmeas", "--outdir", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_specmeas_nonexistent_file(self, tmp_path):
        assert run(["specmeas", "--input", str(tmp_path / "missing.csv"),
                    "--outdir", str(tmp_path / "x")]) == EXIT_DATA

    def test_specmeas_m_too_large(self, tmp_path):
        series = tmp_path / "short.csv"
        series.write_text("1.0\n2.0\n3.0\n")
        code = run(["specmeas", "--input", str(series), "--M", "5",
                    "--outdir", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_forecast_pipeline(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        out = tmp_path / "fc"
        code = run(["forecast", "--input", str(csv), "--valid-start", "2000-01",
                    "--valid-end", "2008-12", "--k-max", "8", "--M", "8",
                    "--series-lead", "4", "--outdir", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out / "forecast_skill.csv")
        assert lines[0] == "lead,rmse_unw,rmse_w,corr_unw,corr_w,climatology"
        assert len(lines) == 9
        series_lines = read_lines(out / "forecast_series_lead4.csv")
        assert series_lines[0] == "start_year,start_month,forecast_unw,forecast_w,truth"


class TestBenchCommand:
    def test_single_quick_criterion(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "--only", "4", "--outdir", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "PASS 4 dmd-exact-recovery" in printed
        lines = read_lines(out / "bench_results.csv")
        assert lines[0].startswith("criterion,status")


class TestExitCodes:
    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def failing_solver(cfg):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._RUNNERS, "dmd", failing_solver)
        out = tmp_path / "run"
        assert run(["dmd", "--outdir", str(out)]) == EXIT_NUMERICAL == 6
        err = capsys.readouterr().err
        assert "code=6 kind=LinAlgError" in err
        assert not out.exists()
