import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import mmsediv
from mmsediv import __version__, diversity
from mmsediv.cli import CSV_HEADER, main, write_curve_csv
from mmsediv.montecarlo import BinomialCurve, CurvePoint, resolve_workers


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter with this package first on the path."""
    src = os.path.dirname(os.path.dirname(mmsediv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def run_module(args):
    """Run ``python -m mmsediv.cli``."""
    return run_python("-m", "mmsediv.cli", *args)


class TestPredict:
    def test_reference_scenario(self, capsys):
        code, out, _ = run(["predict", "--M", "2", "--N", "2", "--L", "2",
                            "--K", "64", "--rate", "3"], capsys)
        assert code == 0
        assert "m=1, diversity=3 (tight)" in out

    def test_flat_full_diversity(self, capsys):
        code, out, _ = run(["predict", "--M", "2", "--N", "2", "--rate", "1.2"],
                           capsys)
        assert code == 0
        assert "m=2, diversity=4 (tight)" in out

    def test_gap_region_prints_bracket(self, capsys):
        code, out, _ = run(["predict", "--M", "2", "--N", "2", "--L", "2",
                            "--K", "8", "--rate", "6"], capsys)
        assert code == 0
        assert "bounds only" in out

    def test_applicability_error_exits_1(self, capsys):
        code, _, err = run(["predict", "--M", "2", "--N", "2", "--L", "2",
                            "--K", "4", "--rate", "3"], capsys)
        assert code == 1
        assert "K > M^2(L-1)" in err

    def test_boundary_rate_exits_1(self, capsys):
        code, _, err = run(["predict", "--M", "2", "--N", "2", "--rate", "2"],
                           capsys)
        assert code == 1
        assert "boundary" in err

    def test_missing_rate_exits_1(self, capsys):
        code, _, err = run(["predict", "--M", "2", "--N", "2"], capsys)
        assert code == 1
        assert "rate" in err


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        points = [CurvePoint(rho=10.0 ** (db / 10.0), snr_db=db, trials=12345,
                             outages=67, p_out=67 / 12345,
                             ci_low=0.004197531, ci_high=0.0069135802,
                             converged=db < 20, skipped=db > 20)
                  for db in (0.0, 2.5, 17.5, 25.0, 30.0)]
        curve = BinomialCurve(scenario="flat-M2-N2-R3", points=points,
                              master_seed=7)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        rows = read_csv_rows(path)
        assert [row["scenario"] for row in rows] == [curve.scenario] * len(points)
        back = [CurvePoint(snr_db=float(row["snr_db"]), rho=float(row["rho"]),
                           trials=int(row["trials"]), outages=int(row["outages"]),
                           p_out=float(row["p_out"]), ci_low=float(row["ci_low"]),
                           ci_high=float(row["ci_high"]),
                           converged={"true": True, "false": False}[row["converged"]],
                           skipped=row["status"] == "skipped")
                for row in rows]
        assert back == curve.points
        assert [row["status"] for row in rows] == ["converged"] * 3 + ["skipped"] * 2
        header = path.read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_numpy_scalars_written_by_column(self, tmp_path):
        # the scalar types the estimators return; np.float64 reprs as
        # np.float64(...) and np.int64/np.bool_ are not int/bool instances
        point = CurvePoint(rho=np.float64(10.0 ** 0.25), snr_db=2.5,
                           trials=np.int64(20000), outages=np.int64(17),
                           p_out=17 / 20000, ci_low=np.float64(1e-05),
                           ci_high=np.float64(0.1 + 0.2), converged=np.bool_(False))
        path = tmp_path / "curve.csv"
        write_curve_csv(BinomialCurve(scenario="flat-M2-N2-R3", points=[point]),
                        path)
        assert path.read_bytes() == (
            b"scenario,snr_db,rho,trials,outages,p_out,ci_low,ci_high,converged,status\n"
            b"flat-M2-N2-R3,2.5,1.7782794100389228,20000,17,0.00085,1e-05,"
            b"0.30000000000000004,false,capped\n")


class TestOutage:
    def test_small_run_writes_csv_and_report(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, stdout, _ = run([
            "outage", "--M", "2", "--N", "2", "--rate", "2.5",
            "--snr-start", "0", "--snr-stop", "20", "--snr-step", "2.5",
            "--max-trials", "40000", "--target-events", "100",
            "--seed", "77", "--out", str(out), "--d-tolerance", "2.0"], capsys)
        assert code == 0
        assert out.exists()
        assert len(read_csv_rows(out)) == 9
        report = (tmp_path / "run.csv.report.txt").read_text()
        assert "seed: 77" in report
        assert f"tool: mmsediv {__version__}" in report
        assert "scaling: per-tap" in report
        assert "d_hat=" in report
        assert "verdict: PASS" in stdout

    def test_points_past_the_first_cap_are_reported_skipped(self, tmp_path, capsys):
        # 10 dB sees about 40 events in 200,000 trials and caps
        out = tmp_path / "skip.csv"
        code, stdout, _ = run([
            "outage", "--M", "2", "--N", "2", "--rate", "1.2",
            "--snr-start", "0", "--snr-stop", "15", "--snr-step", "2.5",
            "--max-trials", "200000", "--target-events", "100",
            "--d-tolerance", "10", "--out", str(out)], capsys)
        assert code == 0
        rows = read_csv_rows(out)
        assert [row["status"] for row in rows] == ["converged"] * 4 + [
            "capped", "skipped", "skipped"]
        assert [row["trials"] for row in rows[-2:]] == ["100000", "100000"]
        assert ("skipped points: 2 (12.5..15 dB), past the first capped point "
                "at 10 dB\n") in stdout
        assert "skipped_points=2\n" in stdout

    def test_degenerate_grid_exits_1(self, tmp_path, capsys):
        code, _, err = run([
            "outage", "--M", "2", "--N", "2", "--rate", "3",
            "--snr-start", "0", "--snr-stop", "1", "--snr-step", "5",
            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "3 grid points" in err

    @pytest.mark.parametrize("start, stop, step, message", [
        ("0", "10", "0", "snr-step must be positive"),
        ("10", "5", "2.5", "need snr-start < snr-stop"),
        ("5", "5", "2.5", "need snr-start < snr-stop"),
    ])
    def test_empty_or_stepless_grid_exits_1(self, tmp_path, capsys, start, stop,
                                            step, message):
        code, _, err = run([
            "outage", "--M", "2", "--N", "2", "--rate", "3",
            "--snr-start", start, "--snr-stop", stop, "--snr-step", step,
            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert message in err

    def test_fit_outside_tolerance_exits_2(self, tmp_path, capsys, monkeypatch):
        # a curve of slope exactly -2 against the predicted diversity 1
        def steep_curve(cfg, grid, **kwargs):
            points = [CurvePoint(rho=10.0 ** (db / 10.0), snr_db=float(db),
                                 trials=10 ** 6, outages=10 ** (5 - k),
                                 p_out=10.0 ** (-1 - k), ci_low=0.0, ci_high=1.0,
                                 converged=True, clamps=k)
                      for k, db in enumerate(grid)]
            return BinomialCurve(scenario=cfg.label(), points=points)

        monkeypatch.setattr(diversity, "estimate_outage", steep_curve)
        code, stdout, _ = run([
            "outage", "--M", "2", "--N", "2", "--rate", "3",
            "--snr-start", "0", "--snr-stop", "20", "--snr-step", "5",
            "--out", str(tmp_path / "f.csv")], capsys)
        assert code == 2
        assert "verdict: FAIL: d_hat=2.0000 outside [0.5, 1.5]" in stdout
        # the report adds up the clamps of the five points, 0 + 1 + 2 + 3 + 4
        assert "SINRs clamped beyond the roundoff slack: 10\n" in stdout
        report = (tmp_path / "f.csv.report.txt").read_text()
        assert "verdict=fail" in report and "clamped_beyond_slack=10\n" in report

    def test_unconverged_run_exits_2(self, tmp_path, capsys):
        # a tiny trial budget deep in the tail cannot converge any point
        code, stdout, _ = run([
            "outage", "--M", "2", "--N", "2", "--rate", "3",
            "--snr-start", "25", "--snr-stop", "35", "--snr-step", "2.5",
            "--max-trials", "2000", "--target-events", "200",
            "--out", str(tmp_path / "y.csv")], capsys)
        assert code == 2
        assert "UNCONVERGED" in stdout

    def test_overflowing_snr_exits_1_without_traceback(self, tmp_path):
        # from about 1,540 dB the squares in the MMSE elimination overflow
        proc = run_module([
            "outage", "--rate", "3", "--snr-start", "3000", "--snr-stop", "3010",
            "--snr-step", "5", "--max-trials", "1000",
            "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: elimination hit a nonpositive or non-finite pivot" in \
            proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_worker_count_leaves_csv_bit_identical(self, tmp_path, capsys):
        args = ["outage", "--M", "2", "--N", "2", "--L", "2", "--K", "8",
                "--rate", "3", "--snr-start", "0", "--snr-stop", "10",
                "--snr-step", "2.5", "--max-trials", "5000",
                "--target-events", "20", "--seed", "5", "--d-tolerance", "10"]
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        out_auto = tmp_path / "wauto.csv"
        code1, _, _ = run(args + ["--workers", "1", "--out", str(out1)], capsys)
        code2, _, _ = run(args + ["--workers", "2", "--out", str(out2)], capsys)
        code_auto, _, _ = run(args + ["--workers", "auto", "--out", str(out_auto)],
                              capsys)
        assert code1 == code2 == code_auto
        assert out1.read_bytes() == out2.read_bytes() == out_auto.read_bytes()
        report = (tmp_path / "wauto.csv.report.txt").read_text()
        assert f"workers: {resolve_workers('auto')}\n" in report

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key,value", [("snr-stop", "inf"),
                                           ("snr-step", "nan"),
                                           ("snr-start", "-inf")])
    def test_non_finite_grid_exits_1(self, tmp_path, capsys, source, key, value):
        args = ["outage", "--M", "2", "--N", "2", "--rate", "3",
                "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            args.append(f"--{key}={value}")
        else:
            cfg = tmp_path / "grid.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "must be finite" in err

    @pytest.mark.parametrize("step", ["0.001", "5e-324"])
    def test_oversized_grid_fails_before_sweep(self, tmp_path, capsys,
                                               monkeypatch, step):
        # 35,001 points, and a point count that overflows to inf
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran on an oversized grid")

        monkeypatch.setattr(diversity, "estimate_outage", no_sweep)
        code, _, err = run(["outage", "--M", "2", "--N", "2", "--rate", "3",
                            "--snr-step", step, "--out", str(tmp_path / "x.csv")],
                           capsys)
        assert code == 1
        assert "more than 10000 points" in err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_d_tolerance_fails_before_sweep(self, tmp_path, capsys,
                                                monkeypatch, source, value):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran with an unusable d-tolerance")

        monkeypatch.setattr(diversity, "estimate_outage", no_sweep)
        args = ["outage", "--M", "2", "--N", "2", "--rate", "3",
                "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            args.append(f"--d-tolerance={value}")
        else:
            cfg = tmp_path / "tol.cfg"
            cfg.write_text(f"d-tolerance={value}\n")
            args += ["--config", str(cfg)]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "d-tolerance must be finite and >= 0" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, workers):
        code, _, err = run(["outage", "--M", "2", "--N", "2", "--rate", "3",
                            "--seed", "-1", "--workers", workers,
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "master_seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("bad", ["csv", "report"])
    def test_unwritable_output_fails_before_sweep(self, tmp_path, capsys,
                                                  monkeypatch, bad):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran although its output cannot be written")

        monkeypatch.setattr(diversity, "estimate_outage", no_sweep)
        if bad == "csv":
            out = tmp_path / "missing" / "x.csv"
            unwritable = out
        else:
            out = tmp_path / "x.csv"
            unwritable = tmp_path / "x.csv.report.txt"
            unwritable.mkdir()
        code, _, err = run(["outage", "--M", "2", "--N", "2", "--rate", "3",
                            "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert str(unwritable) in err
        assert not out.exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# A1 link\nM=2\nN=2\n\nL=2\nK=64\nrate=3\n")
        code, out, _ = run(["predict", "--config", str(cfg)], capsys)
        assert code == 0
        assert "diversity=3" in out
        # flag overrides the file's L, turning the scenario flat
        code, out, _ = run(["predict", "--config", str(cfg), "--L", "1"], capsys)
        assert code == 0
        assert "diversity=1" in out

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, _, err = run(["predict", "--config", str(missing)], capsys)
        assert code == 1
        assert f"error: cannot read config file {missing}" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("floop=3\n")
        code, _, err = run(["predict", "--config", str(cfg), "--rate", "1"],
                           capsys)
        assert code == 1
        assert "floop" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("M 2\n")
        code, _, err = run(["predict", "--config", str(cfg), "--rate", "1"],
                           capsys)
        assert code == 1

    def test_file_workers_auto_reports_process_count(self, tmp_path, capsys):
        cfg = tmp_path / "auto.cfg"
        cfg.write_text("workers=auto\n")
        code, _, _ = run(["outage", "--config", str(cfg), "--rate", "3",
                          "--snr-start", "0", "--snr-stop", "10",
                          "--snr-step", "5", "--max-trials", "2000",
                          "--out", str(tmp_path / "auto.csv")], capsys)
        assert code in (0, 2)
        lines = (tmp_path / "auto.csv.report.txt").read_text().splitlines()
        count = resolve_workers("auto")
        assert f"workers: {count}" in lines
        assert f"workers={count}" in lines

    def test_file_run_matches_flag_run(self, tmp_path, capsys):
        # every option key, with both spellings of the separator
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M=2\nN=2\nL=1\nK=8\nrate=2.5\nsnr-start=0\n"
                       "snr-stop=20\nsnr_step=2.5\nseed=77\nworkers=2\n"
                       "max-trials=40000\ntarget_events=100\nscaling=paper\n"
                       f"out={tmp_path / 'file.csv'}\nd-tolerance=2\n")
        flags = ["--M", "2", "--N", "2", "--L", "1", "--K", "8",
                 "--rate", "2.5", "--snr-start", "0", "--snr-stop", "20",
                 "--snr-step", "2.5", "--seed", "77", "--workers", "2",
                 "--max-trials", "40000", "--target-events", "100",
                 "--scaling", "paper", "--d-tolerance", "2"]
        code_file, _, _ = run(["outage", "--config", str(cfg)], capsys)
        code_flags, _, _ = run(["outage"] + flags
                               + ["--out", str(tmp_path / "flags.csv")], capsys)
        code_override, _, _ = run(["outage", "--config", str(cfg),
                                   "--workers", "1", "--out",
                                   str(tmp_path / "override.csv")], capsys)
        assert code_file == code_flags == code_override == 0
        csv = (tmp_path / "file.csv").read_bytes()
        assert (tmp_path / "flags.csv").read_bytes() == csv
        assert (tmp_path / "override.csv").read_bytes() == csv
        report = (tmp_path / "file.csv.report.txt").read_text()
        assert "scaling: paper" in report
        assert "verdict: PASS" in report
        assert (tmp_path / "flags.csv.report.txt").read_text() == report

    @pytest.mark.parametrize("text", ["M=2.0\n", "config=other.cfg\n"])
    def test_bad_file_value_or_key_exits_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad3.cfg"
        cfg.write_text(text + "rate=1\n")
        code, _, err = run(["predict", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith("error: ")

    def test_flag_overrides_bad_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("rate=abc\n")
        code, out, _ = run(["predict", "--config", str(cfg), "--rate", "1.2"],
                           capsys)
        assert code == 0
        assert "m=2, diversity=4 (tight)" in out

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_file_workers_named(self, tmp_path, capsys, value):
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(f"workers={value}\nrate=3\n")
        code, _, err = run(["outage", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert f"argument --workers: invalid positive int or 'auto' value: '{value}'" in err


class TestVerifySubcommands:
    def test_verify_sinr_passes(self, capsys):
        code, out, _ = run(["verify-sinr", "--seed", "3"], capsys)
        assert code == 0
        assert "PASS sinr-oracle-equivalence" in out
        assert "FAIL" not in out

    def test_verify_wishart_passes(self, capsys):
        code, out, _ = run(["verify-wishart", "--seed", "4"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_verify_haar_passes(self, capsys):
        code, out, _ = run(["verify-haar", "--seed", "5"], capsys)
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("command", ["verify-haar", "verify-sinr",
                                         "verify-wishart"])
    def test_negative_seed_exits_1(self, capsys, command):
        code, _, err = run([command, "--seed", "-1"], capsys)
        assert code == 1
        assert "master_seed must be >= 0, got -1" in err


class TestModuleEntry:
    @pytest.mark.parametrize("args, code, text", [
        (["predict", "--rate", "1.2"], 0, "m=2, diversity=4 (tight)"),
        (["predict"], 1, "a target rate is required"),
    ], ids=["rate", "no-rate"])
    def test_python_m_runs_the_cli(self, args, code, text):
        proc = run_module(args)
        assert proc.returncode == code
        assert text in (proc.stdout if code == 0 else proc.stderr)

    def test_only_verify_haar_loads_scipy(self):
        # importing scipy.stats takes most of a `predict` run's start-up
        code = ("import sys\n"
                "from mmsediv.cli import main\n"
                "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "assert not scipy(), 'import'\n"
                "for args in (['predict', '--rate', '3'], ['verify-sinr'],\n"
                "             ['verify-wishart']):\n"
                "    assert main(args) == 0, args\n"
                "    assert not scipy(), args\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(["predict", "--bogus", "1"], capsys)
        assert code == 1

    def test_bad_scaling_value_exits_1(self, capsys):
        code, _, _ = run(["predict", "--M", "2", "--N", "2", "--rate", "1",
                          "--scaling", "wat"], capsys)
        assert code == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_workers_flag_exits_1(self, tmp_path, capsys, value):
        code, _, err = run(["outage", "--M", "2", "--N", "2", "--rate", "3",
                            f"--workers={value}", "--out", str(tmp_path / "x.csv")],
                           capsys)
        assert code == 1
        assert f"argument --workers: invalid positive int or 'auto' value: '{value}'" in err
