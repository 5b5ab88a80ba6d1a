import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import synth_monthly_csv
from taperdyn import RngStream, bench, cli
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
        code = run(["average", "--eps", "0",
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

    @pytest.mark.parametrize("subcommand, key", [("specmeas", "weighted = false"),
                                                 ("bench", "suite = paper-desk")])
    def test_removed_options_are_unknown_keys(self, tmp_path, capsys, subcommand, key):
        # specmeas tapers with --weight alone, and bench has one suite
        cfg = tmp_path / "old.cfg"
        cfg.write_text(key + "\n")
        out = tmp_path / "out"
        assert run([subcommand, "--config", str(cfg), "--outdir", str(out)]) == EXIT_CONFIG
        assert "kind=ConfigError" in capsys.readouterr().err
        assert not out.exists()
        for flag in ("--weighted", "--suite"):
            with pytest.raises(SystemExit) as exc:
                run([subcommand, flag, "x"])
            assert exc.value.code == 2


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

    @pytest.mark.parametrize("fmt", ["nino34_csv", "trajectory_csv"])
    def test_specmeas_refuses_non_series_format(self, tmp_path, monkeypatch, capsys, fmt):
        # both readers return data that is not a series; refused before the read
        def must_not_read(*args):
            raise AssertionError("specmeas read the input before checking its format")

        monkeypatch.setattr(cli, "ingest_series", must_not_read)
        synth_monthly_csv(tmp_path / "index.csv")
        out = tmp_path / "x"
        assert run(["specmeas", "--input", str(tmp_path / "index.csv"), "--format", fmt,
                    "--outdir", str(out)]) == EXIT_CONFIG
        assert "scalar_csv or complex_csv" in capsys.readouterr().err
        assert not out.exists()

    def test_specmeas_missing_input(self, tmp_path):
        assert run(["specmeas", "--outdir", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_specmeas_nonexistent_file(self, tmp_path):
        assert run(["specmeas", "--input", str(tmp_path / "missing.csv"),
                    "--outdir", str(tmp_path / "x")]) == EXIT_DATA

    @pytest.mark.parametrize("prominence", ["nan", "-1", "inf"])
    def test_specmeas_bad_prominence(self, tmp_path, capsys, prominence):
        _series_csv(tmp_path / "series.csv")
        out = tmp_path / "x"
        assert run(["specmeas", "--input", str(tmp_path / "series.csv"), "--M", "20",
                    "--prominence", prominence, "--outdir", str(out)]) == EXIT_VALIDATION
        assert "code=5 kind=DomainError" in capsys.readouterr().err
        assert not out.exists()

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


# runs subcommands in one fresh process and prints their exit codes and the
# scipy modules loaded after all of them
_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import taperdyn, taperdyn.cli
from taperdyn.cli import run

def codes(*argvs):
    return {a[0]: run([*a, "--outdir", f"{sys.argv[2]}/{a[0]}"]) for a in argvs}

numpy_only = codes(["average", "--N", "300"],
                   ["dmd", "--N", "200", "--sweep-n", "50,100", "--project-r", "5", "--D", "8"],
                   ["edmd", "--N", "500"], ["mpedmd", "--N", "500"], ["sindy", "--N", "500"],
                   ["specmeas", "--M", "20", "--grid", "256", "--input", sys.argv[3]])
print(json.dumps([numpy_only, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# the CLI runs with every scipy import refused; prints the exit codes
_SCIPY_BLOCKED = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"importing {name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
sys.path.insert(0, sys.argv[1])
from taperdyn.cli import run

argvs = [["average", "--N", "300"],
         ["dmd", "--N", "200", "--sweep-n", "50,100", "--project-r", "5", "--D", "8"],
         ["edmd", "--N", "500"], ["mpedmd", "--N", "500"], ["sindy", "--N", "500"],
         ["specmeas", "--M", "20", "--grid", "256", "--input", sys.argv[3]],
         ["forecast", "--input", sys.argv[4], "--valid-start", "2000-01",
          "--valid-end", "2008-12", "--k-max", "8", "--M", "8", "--series-lead", "4"]]
print(json.dumps({a[0]: run([*a, "--outdir", f"{sys.argv[2]}/{a[0]}"]) for a in argvs}))
"""


def test_numpy_only_subcommands_load_no_scipy(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    _series_csv(tmp_path / "series.csv")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(src), str(tmp_path),
                           str(tmp_path / "series.csv")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    numpy_only, after_all = json.loads(proc.stdout.splitlines()[-1])
    assert numpy_only == {"average": EXIT_OK, "dmd": EXIT_OK, "edmd": EXIT_OK,
                          "mpedmd": EXIT_OK, "sindy": EXIT_OK, "specmeas": EXIT_OK}
    assert after_all == []


def test_subcommands_run_with_scipy_import_refused(tmp_path):
    # every subcommand but bench; forecast takes the dense diffusion route
    src = Path(cli.__file__).resolve().parents[1]
    _series_csv(tmp_path / "series.csv")
    synth_monthly_csv(tmp_path / "index.csv")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, str(src), str(tmp_path),
                           str(tmp_path / "series.csv"), str(tmp_path / "index.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        name: EXIT_OK for name in
        ("average", "dmd", "edmd", "mpedmd", "sindy", "specmeas", "forecast")}, proc.stderr


class TestBenchCommand:
    def test_single_quick_criterion(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "--only", "4", "--outdir", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "PASS 4 dmd-exact-recovery" in printed
        lines = read_lines(out / "bench_results.csv")
        assert lines[0].startswith("criterion,status")

    def test_cpu_seconds_beside_wall_seconds(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["bench", "--only", "4", "--outdir", str(out)]) == EXIT_OK
        assert re.search(r"PASS 4 \S+ \(\d+\.\ds, cpu \d+\.\ds, budget 1s\)",
                         capsys.readouterr().out)
        header, row = read_lines(out / "bench_results.csv")
        assert header == "criterion,status,seconds,budget,details,cpu_seconds"
        assert float(row.rsplit(",", 1)[1]) >= 0.0

    def test_nino34_path_leaves_the_environment_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TAPERDYN_NINO34", raising=False)
        monkeypatch.chdir(tmp_path)  # and no data/nino34.csv below it
        synth_monthly_csv(tmp_path / "index.csv")
        before = dict(os.environ)
        # the synthetic index misses the criterion's real-data thresholds
        assert run(["bench", "--only", "12", "--nino34", str(tmp_path / "index.csv"),
                    "--outdir", str(tmp_path / "a")]) == EXIT_NUMERICAL
        assert "FAIL 12 nino34-forecast" in capsys.readouterr().out
        assert dict(os.environ) == before
        assert run(["bench", "--only", "12", "--outdir", str(tmp_path / "b")]) == EXIT_OK
        assert "SKIP 12 nino34-forecast" in capsys.readouterr().out

    def test_missing_nino34_path_refused_before_any_criterion(self, tmp_path, monkeypatch,
                                                              capsys):
        # an explicit path must exist; only the optional search skips criterion 12
        def must_not_run(*args):
            raise AssertionError("a criterion ran before the path check")

        monkeypatch.setattr(bench, "run_criterion", must_not_run)
        monkeypatch.setattr(bench, "criterion_12", must_not_run)
        out = tmp_path / "b"
        assert run(["bench", "--only", "1,12", "--nino34", str(tmp_path / "missing.csv"),
                    "--outdir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "code=4 kind=IngestError" in err and "missing.csv" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("text", ["", "Unable to allocate 72.8 TiB"])
    def test_memory_error_is_validation_failure(self, tmp_path, monkeypatch, capsys, text):
        def out_of_memory(cfg):
            raise MemoryError(text)  # raised, never allocated

        monkeypatch.setitem(cli._RUNNERS, "edmd", out_of_memory)
        out = tmp_path / "run"
        assert run(["edmd", "--outdir", str(out)]) == EXIT_VALIDATION == 5
        err = capsys.readouterr().err
        assert "code=5 kind=MemoryError" in err
        message = err.split('message="', 1)[1]
        assert message.startswith("edmd ran out of memory") and text in message
        assert not out.exists()


class TestOptionValues:
    @pytest.mark.parametrize("argv, config", [
        (["average", "--N", "abc"], None),
        (["average", "--eps", "x"], None),
        (["edmd", "--lam", "abc"], None),
        (["average", "--sweep", "maybe"], None),
        (["dmd", "--sweep-n", "10,x"], None),
        (["average"], "N = 1e4\n"),
        (["average"], "eps =\n"),
    ], ids=["N", "eps", "lam", "bool", "int-list", "config-N", "config-empty"])
    def test_unparseable_value_is_config_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        out = tmp_path / "out"
        assert run(argv + ["--outdir", str(out)]) == EXIT_CONFIG
        assert "code=3 kind=ConfigError" in capsys.readouterr().err
        assert not out.exists()


class TestBoundaryErrors:
    @pytest.mark.parametrize("grid", ["-5", "8"])
    def test_specmeas_grid_below_16_is_size_error(self, tmp_path, capsys, grid):
        _series_csv(tmp_path / "series.csv")
        out = tmp_path / "x"
        assert run(["specmeas", "--input", str(tmp_path / "series.csv"), "--M", "20",
                    "--grid", grid, "--outdir", str(out)]) == EXIT_VALIDATION
        assert "code=5 kind=SizeError" in capsys.readouterr().err
        assert not out.exists()

    def test_forecast_month_outside_the_year(self, tmp_path, capsys):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        out = tmp_path / "out"
        assert run(["forecast", "--input", str(csv), "--valid-end", "2013-13",
                    "--outdir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code=3 kind=ConfigError" in err and "'2013-13'" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--valid-start", "2005-01", "--valid-end", "2004-12"],
         "validation range 2005-01..2004-12"),
        (["--train-start", "1950-01", "--train-end", "1940-12"],
         "training range 1950-01..1940-12"),
    ])
    def test_forecast_reversed_range_is_config_error(self, tmp_path, capsys, flags, message):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code = run(["forecast", "--input", str(csv), *flags, "--outdir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code=3 kind=ConfigError" in err and f"{message} ends before it starts" in err
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_dmd_with_no_default_windows_is_validation_error(self, tmp_path, capsys):
        # the default window list range(10, min(501, N), 10) is empty for N = 8
        out = tmp_path / "out"
        assert run(["dmd", "--N", "8", "--outdir", str(out)]) == EXIT_VALIDATION
        assert "code=5 kind=SizeError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta", ["dt=abc seed=3", "dt=1 seed=3.5", "dt=-1", "dt=nan"])
    def test_bad_trajectory_metadata_is_data_error(self, tmp_path, capsys, meta):
        path = tmp_path / "traj.csv"
        rows = "\n".join(f"{np.cos(0.3 * n)},{np.sin(0.3 * n)}" for n in range(40))
        path.write_text(f"# system=x {meta}\n{rows}\n")
        assert run(["dmd", "--input", str(path), "--project-r", "0", "--N", "30",
                    "--sweep", "false", "--outdir", str(tmp_path / "o")]) == EXIT_DATA
        assert f"{path}:1: " in capsys.readouterr().err

    def test_mpedmd_rejects_monomials(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["mpedmd", "--dict", "monomials", "--N", "2000",
                    "--outdir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code=3 kind=ConfigError" in err
        assert "use fourier or identity" in err
        assert not out.exists()

    def test_sindy_unknown_mode_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sindy", "--mode", "foo", "--N", "200",
                    "--outdir", str(out)]) == EXIT_CONFIG
        assert "code=3 kind=ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, from_file", [
        ("noise-sigma", "-1", False), ("noise-sigma", "nan", False),
        ("phase", "inf", False), ("amplitude", "nan", False), ("dt", "inf", False),
        ("eta", "nan", False),
        ("dt", "0", True), ("dt", "-1", True), ("dt", "inf", True), ("dt", "nan", True)])
    def test_bad_sindy_scalar_is_named_config_error(self, tmp_path, capsys, flag, value,
                                                    from_file):
        extra = []
        if from_file:
            _positions_csv(tmp_path / "positions.csv")
            extra = ["--input", str(tmp_path / "positions.csv")]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sindy", f"--{flag}", value, "--N", "200", *extra,
                        "--outdir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code=3 kind=ConfigError" in err
        assert f'message="{flag.replace("-", "_")} must be' in err
        assert not out.exists()

    @pytest.mark.parametrize("N", [5, 15])
    def test_average_sweep_on_short_orbit_needs_windows(self, tmp_path, capsys, N):
        # the default windows geomspace(10, N // 10) exist only for N >= 100
        out = tmp_path / "out"
        assert run(["average", "--N", str(N), "--sweep",
                    "--outdir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code=3 kind=ConfigError" in err and "--sweep-n" in err
        assert not out.exists()

    def test_series_lead_checked_before_forecasting(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("nino34_compare ran before the lead check")

        monkeypatch.setattr(cli, "nino34_compare", must_not_run)
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        assert run(["forecast", "--input", str(csv), "--series-lead", "99",
                    "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "series_lead" in capsys.readouterr().err


class TestForecastWeight:
    def _skill(self, tmp_path, csv, weight):
        out = tmp_path / weight
        assert run(["forecast", "--input", str(csv), "--valid-end", "2008-12",
                    "--k-max", "6", "--M", "8", "--series-lead", "3",
                    "--weight", weight, "--outdir", str(out)]) == EXIT_OK
        return out / "forecast_skill.csv"

    def test_uniform_taper_reproduces_plain_skill(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        uniform = np.loadtxt(self._skill(tmp_path, csv, "uniform"), delimiter=",",
                             skiprows=1)
        np.testing.assert_allclose(uniform[:, 2], uniform[:, 1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(uniform[:, 4], uniform[:, 3], rtol=1e-12, atol=0)
        bump = self._skill(tmp_path, csv, "bump").read_bytes()
        assert bump != self._skill(tmp_path, csv, "uniform").read_bytes()


def _series_csv(path):
    path.write_text("".join(f"{np.cos(2.0 * n):.12f}\n" for n in range(600)))


# SHA-256 of every output of one small run per subcommand; any change to the
# numerics or to the CSV, JSONL or matrix formatting moves one of them
GOLDEN = {
    ("average", "--eps", "0.01", "--N", "3000", "--sweep", "--sweep-n", "100,1000",
     "--seed", "3"): {
        "average.csv": "f8e2430ae22c0f25b6de476964d3ff47b23efdfd070cfacfdd1ce1e78333d534",
        "average_sweep.csv": "c815cbee4513c7cf8c4c6c2f63dee42eb4c5ce20ca3390390d8bff9c10a1114e",
    },
    ("dmd", "--N", "200", "--sweep-n", "50,100", "--project-r", "5", "--D", "8"): {
        "dmd_eigs.csv": "f6fc7c2be0caf6958357a7bb5e1e4d2067df46414f9c300c184f162c0b614dd4",
        "dmd_matrix.csv": "739ec9cd02f9cfc500e6b65e18b8e7be5cc8f7736c8984275faecc3a1f985de2",
        "dmd_sweep.csv": "48836f4a45cba84adcea795c44cad296143f503d5e98404de562c396147a5b5e",
    },
    ("edmd", "--lam", "0.25", "--N", "2000"): {
        "edmd_eigs.csv": "7326871f5ccdc4ac472673d64bf7182f5b0e106eb0ac44cd50bdf973b6b5e9c2",
        "edmd_matrix.csv": "e9b516e381865031b03a082da5f1d7acc547ef52099d4bf542659acb8e1f0bc2",
    },
    ("mpedmd", "--lam", "0.25", "--N", "2000"): {
        "mpedmd_eigs.csv": "57cb0a9bca405dfedbbb49423e04f2b53cbe365c5e615a51fa0208b4eebe7ede",
        "mpedmd_matrix.csv": "bbaa4763c2876bc8fb2e0b648bb8394628102f331da4a9122ff3e21bee2054f8",
    },
    ("sindy", "--N", "2000", "--eta", "1e-2"): {
        "sindy_diagnostics.jsonl":
            "458b103734cb1400bc68434a3a2cdeb1a156b3bc555b13a113476fd6b7f52eb9",
        "sindy_xi.csv": "51b15619b0d5faa8887d803c6b2515228ce6e234583453277c620d4942c91d62",
    },
    ("specmeas", "--M", "20", "--grid", "256"): {
        "autocorr.csv": "a31304984aa6b47aa219c1694f148e5f264cf467f0b7ecef57d9f751c5ca5439",
        "density.csv": "53304f418380357ce656e11d0413df19f843f62c0f9da4e052af42ccb4d5e53c",
        "peaks.csv": "530f697feb3dd3e6fce1501f92cf7076ff25af14395b342dbd0da88d0f6b796d",
    },
}


def _positions_csv(path):
    # noisy harmonic positions, k = 0.01, one value per row
    noise = RngStream(5, "tests/positions").generator().standard_normal(1202)
    x = 2.0 * np.cos(0.01 * np.arange(1202) + 0.7) + 1e-7 * noise
    path.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))


def _trajectory_csv(path):
    # a noisy contracting rotation in R^3, one state per row
    gen = RngStream(6, "tests/trajectory").generator()
    c, s = np.cos(0.3), np.sin(0.3)
    A = np.array([[0.98 * c, -0.98 * s, 0.0], [0.98 * s, 0.98 * c, 0.0], [0.0, 0.0, 0.9]])
    states = np.empty((401, 3))
    states[0] = [1.0, 0.0, 0.5]
    for n in range(400):
        states[n + 1] = A @ states[n] + 1e-3 * gen.standard_normal(3)
    path.write_text("# system=rotation dt=0.5 seed=6\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in states.tolist()))


# the input files of the golden runs, written by the tests
_INPUTS = {"series.csv": _series_csv, "positions.csv": _positions_csv,
           "trajectory.csv": _trajectory_csv}

# SHA-256 of every output of the runs whose data come from --input
INPUT_GOLDEN = {
    "sindy-continuous": (
        ("sindy", "--dt", "0.01", "--eta", "1e-2", "--input", "positions.csv"), {
            "sindy_diagnostics.jsonl":
                "458b103734cb1400bc68434a3a2cdeb1a156b3bc555b13a113476fd6b7f52eb9",
            "sindy_xi.csv": "5c9914b316678b94c75444c5128561c6e8752583ff91f562d865de282a2ddc6d",
        }),
    "sindy-discrete": (
        ("sindy", "--mode", "discrete", "--degree", "2", "--eta", "1e-2",
         "--input", "trajectory.csv"), {
            "sindy_diagnostics.jsonl":
                "92ce55d90bc201a208ae5cbca4b06c4872be38a84736c3676adf3634d424465f",
            "sindy_xi.csv": "ca95556a6cb68887b2007a2ab5572609f7dda5e805b554c8268ada5e50009693",
        }),
    "dmd": (
        ("dmd", "--project-r", "0", "--sweep-n", "50,100,200", "--input", "trajectory.csv"), {
            "dmd_eigs.csv": "6b43478814c84daadeef0c60fec4bc11b4d234769ef37aa992f2151626646a58",
            "dmd_matrix.csv": "32b981dd3f3ec286c9f586d547beeddcaa33520ae4b24fec224f7e36c5ec2fbd",
            "dmd_sweep.csv": "1d7f71378f2273b0cb42de889c114c6774da6c77d0ab4bb671c3fbb8c07e5a40",
        }),
}


def _output_digests(out):
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    manifest = json.loads((out / "manifest.json").read_text())
    del digests["manifest.json"]
    assert manifest["outputs"] == digests
    return digests


def _golden_argv(argv, tmp_path):
    """argv of one golden run with its input files written under tmp_path."""
    if argv[0] == "specmeas":
        argv = (*argv, "--input", "series.csv")
    for name, write in _INPUTS.items():
        write(tmp_path / name)
    return [str(tmp_path / a) if a in _INPUTS else a for a in argv]


@pytest.mark.parametrize("case", list(INPUT_GOLDEN))
def test_input_golden_output_digests(tmp_path, case):
    argv, golden = INPUT_GOLDEN[case]
    out = tmp_path / "out"
    assert run([*_golden_argv(argv, tmp_path), "--outdir", str(out)]) == EXIT_OK
    assert _output_digests(out) == golden


@pytest.mark.parametrize("argv", list(GOLDEN), ids=[a[0] for a in GOLDEN])
def test_golden_output_digests(tmp_path, argv):
    out = tmp_path / "out"
    assert run([*_golden_argv(argv, tmp_path), "--outdir", str(out)]) == EXIT_OK
    assert _output_digests(out) == GOLDEN[argv]


# runs each argv of a JSON list into its own outdir; prints the exit codes
_GOLDEN_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from taperdyn.cli import run

argvs = json.loads(sys.argv[3])
print(json.dumps([run([*a, "--outdir", f"{sys.argv[2]}/{i}"]) for i, a in enumerate(argvs)]))
"""


def test_golden_outputs_do_not_depend_on_blas_threads(tmp_path):
    runs = list(GOLDEN.items()) + list(INPUT_GOLDEN.values())
    argvs = json.dumps([_golden_argv(argv, tmp_path) for argv, _ in runs])
    src = Path(cli.__file__).resolve().parents[1]
    digests = {}
    for threads in ("1", "2"):
        # the variable reaches the child processes only
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, str(src),
                               str(tmp_path / threads), argvs],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * len(runs), proc.stderr
        digests[threads] = [_output_digests(tmp_path / threads / str(i))
                            for i in range(len(runs))]
    assert digests["1"] == digests["2"] == [golden for _, golden in runs]
