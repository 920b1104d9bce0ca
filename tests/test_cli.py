import concurrent.futures
import gc
import math
import os
import warnings

import numpy as np
import pytest

from hermite_trend import cli, experiments, hermite
from hermite_trend.cli import main

PASSING_CONSISTENCY = """
kind = consistency
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.2,0.05
replications = 100
n = 256
horizon = 2.0
window = 0.6,1.4
seed = 77
"""

PASSING_RATE = """
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625
replications = 100
n = 1024
horizon = 2.0
window = 0.6,1.4
seed = 31415
"""

PASSING_CLT = """
kind = clt
trend = const:0.5
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.05
replications = 100
n = 1024
horizon = 2.0
window = 0.6,1.4
t0 = 1.0
seed = 5
"""


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def read_csv(path):
    header = {}
    rows = []
    columns = None
    for line in open(path):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return header, columns, rows


class TestSimulate:
    def test_noiseless_X_equals_x(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["simulate", "--trend", "sin:0.5,0.8,3.0", "--eps", "0",
                    "--n", "256", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["t", "Z", "x", "X"]
        x = np.array([float(r[2]) for r in rows])
        big = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(big - x)) < 1e-10

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--trend", "const:0.5", "--q", "2", "--hurst", "0.7",
                "--n", "512", "--seed", "42"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hurst_domain_exit_2(self, capsys):
        assert run(["simulate", "--trend", "const:0.5", "--H", "0.4"]) == 2
        assert "(0.5, 1)" in capsys.readouterr().err

    def test_bad_trend_exit_2(self, capsys):
        assert run(["simulate", "--trend", "spline:1,2"]) == 2
        assert "spline" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["weier:0.3,1.5,3,12", "sin:1,2", "spline:1,2", "const"])
    def test_bad_trend_names_flag(self, spec, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--trend", spec, "--n", "64", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --trend {spec!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["const:nan", "weier:0.3,0.5,3,inf", "weier:0.3,0.5,3,700"])
    def test_non_finite_trend_exit_2(self, spec, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--trend", spec, "--n", "64", "--out", str(out)]) == 2
        assert spec.split(":")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("x0", "nan"), ("x0", "inf"), ("horizon", "inf")])
    def test_non_finite_flag_exit_2(self, flag, value, capsys):
        assert run(["simulate", "--trend", "const:0.5", f"--{flag}", value, "--n", "64"]) == 2
        assert f"{flag} must be" in capsys.readouterr().err

    def test_bad_rank_names_flag(self, capsys):
        assert run(["simulate", "--trend", "const:0.5", "--q", "0"]) == 2
        assert "--q" in capsys.readouterr().err

    def test_rank_above_max_names_flag(self, capsys):
        assert run(["simulate", "--trend", "const:0.5", "--q", "9"]) == 2
        assert "--q" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--n", "10"], "--n"),
        (["--m", "100"], "--m"),
        (["--eps", "1.5"], "--eps"),
        (["--seed", "-1", "--n", "64"], "--seed"),
    ])
    def test_layer_check_names_flag(self, flags, name, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--trend", "const:0.5", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} ")
        assert not out.exists()

    def test_unknown_flag_exit_2(self, capsys):
        assert run(["simulate", "--trend", "const:0.5", "--wat", "3"]) == 2

    def test_header_echoes_resolved_defaults(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--trend", "const:0.5", "--n", "64",
                    "--out", str(out)]) == 0
        header, _, _ = read_csv(out)
        # m, x0, method were never passed on the command line
        assert header["m"] == "512"
        assert header["x0"] == "1.0"
        assert header["method"] == "exact"
        assert header["seed"] == "0"


@pytest.fixture(scope="module")
def noisy_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("paths") / "noisy.csv"
    code = main(["simulate", "--trend", "const:0.5", "--eps", "0.01",
                 "--n", "1024", "--horizon", "1.0", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    return out


class TestEstimate:
    def test_round_trip_recovers_theta(self, noisy_path, tmp_path):
        out = tmp_path / "est.csv"
        assert run(["estimate", "--in", str(noisy_path), "--order", "1",
                    "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert columns == ["t", "product_estimate", "theta_hat", "valid"]
        assert header["rule"] == "main"
        # source config is carried into the estimate header
        assert header["trend"] == "const:0.5"
        assert header["eps"] == "0.01"
        theta = np.array([float(r[2]) for r in rows])
        valid = [r[3] for r in rows]
        assert all(v == "True" for v in valid)
        assert np.max(np.abs(theta - 0.5)) < 0.1

    def test_auto_bandwidth_matches_rule(self, noisy_path, tmp_path):
        out = tmp_path / "est.csv"
        assert run(["estimate", "--in", str(noisy_path), "--order", "1",
                    "--out", str(out)]) == 0
        header, _, _ = read_csv(out)
        assert float(header["bandwidth"]) == pytest.approx(0.01 ** (1 / 2.3), rel=1e-12)

    def test_manual_bandwidth_and_window(self, noisy_path, tmp_path):
        out = tmp_path / "est.csv"
        assert run(["estimate", "--in", str(noisy_path), "--order", "1",
                    "--bandwidth", "0.2", "--window", "0.3,0.7",
                    "--points", "5", "--out", str(out)]) == 0
        header, _, rows = read_csv(out)
        assert header["rule"] == "manual"
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.3 and float(rows[-1][0]) == 0.7

    def test_header_echoed_line_by_line(self, noisy_path, tmp_path):
        # a hand-made header is echoed in order, a repeated key once per line
        src = tmp_path / "noted.csv"
        src.write_text("# note = first\n#note=second\n# note = first\n" + noisy_path.read_text())
        out = tmp_path / "est.csv"
        assert run(["estimate", "--in", str(src), "--out", str(out)]) == 0
        echoed = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        simulated = [ln for ln in noisy_path.read_text().splitlines() if ln.startswith("#")]
        assert echoed[:3] == ["# note = first", "# note = second", "# note = first"]
        assert echoed[3:3 + len(simulated)] == simulated

    def test_auto_needs_noise(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        run(["simulate", "--trend", "const:0.5", "--eps", "0", "--n", "128",
             "--out", str(flat)])
        assert run(["estimate", "--in", str(flat)]) == 2
        assert "eps" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["estimate", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["estimate", "--in", str(bad)]) == 2
        assert "t,Z,x,X" in capsys.readouterr().err

    def test_non_finite_row_names_line(self, noisy_path, tmp_path, capsys):
        lines = noisy_path.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("t,")) + 5
        t, z, x, _ = lines[row].split(",")
        lines[row] = f"{t},{z},{x},nan"
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["estimate", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "--in" in err and f"line {row + 1}" in err

    def test_missing_header_key_named(self, noisy_path, tmp_path, capsys):
        text = noisy_path.read_text()
        bad = tmp_path / "nohorizon.csv"
        bad.write_text("".join(ln for ln in text.splitlines(keepends=True)
                               if not ln.startswith("# horizon")))
        assert run(["estimate", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "--in" in err and "horizon" in err

    @pytest.mark.parametrize("flags", [[], ["--bandwidth", "0.6"]])
    def test_too_wide_bandwidth_names_bandwidth_not_window(self, flags, tmp_path, capsys):
        # eps = 1 gives the main-rule bandwidth 1, so the default window
        # (phi, horizon - phi) = (1, 0) is empty; --window was never given
        wide = tmp_path / "wide.csv"
        assert run(["simulate", "--trend", "const:0.5", "--eps", "1.0", "--n", "64",
                    "--out", str(wide)]) == 0
        capsys.readouterr()
        assert run(["estimate", "--in", str(wide), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --bandwidth: ") and "too wide for horizon 1" in err, err
        assert "--window" not in err

    @pytest.mark.parametrize("flags, name", [
        (["--window", "0.1,0.2,0.3"], "--window"),
        (["--window", "0.5,0.2"], "--window"),
        (["--points", "0"], "--points"),
    ])
    def test_bad_window_or_points_names_flag(self, flags, name, noisy_path, capsys):
        assert run(["estimate", "--in", str(noisy_path), *flags]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_bandwidth_names_flag(self, value, noisy_path, capsys):
        assert run(["estimate", "--in", str(noisy_path), "--bandwidth", value]) == 2
        assert "--bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("hurst", "abc"), ("q", "1.5"), ("hurst", "0.4"), ("eps", "nan"), ("horizon", "-1"),
        ("x0", "0"), ("q", "9"),
    ])
    def test_bad_header_value_names_in_and_key(self, key, value, noisy_path, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(f"# {key} = {value}\n" if ln.startswith(f"# {key} =") else ln
                               for ln in noisy_path.read_text().splitlines(keepends=True)))
        assert run(["estimate", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --in: header {key} "), err

    @pytest.mark.parametrize("horizon", ["2.0", "0.5"])
    def test_time_column_off_header_grid_names_in_and_line(self, horizon, noisy_path,
                                                           tmp_path, capsys):
        lines = noisy_path.read_text().splitlines(keepends=True)
        bad = tmp_path / "horizon.csv"
        bad.write_text("".join(f"# horizon = {horizon}\n" if ln.startswith("# horizon =")
                               else ln for ln in lines))
        out = tmp_path / "est.csv"
        assert run(["estimate", "--in", str(bad), "--bandwidth", "0.2",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        first = next(i for i, ln in enumerate(lines) if ln.startswith("t,")) + 1
        # t_0 = 0 fits any horizon; t_1 = 1/1024 is the first row off the grid
        assert err.startswith("error: --in: line ") and f"line {first + 2} " in err, err
        assert not out.exists()

    def test_too_few_rows_names_in_and_n(self, noisy_path, tmp_path, capsys):
        lines = noisy_path.read_text().splitlines(keepends=True)
        first = next(i for i, ln in enumerate(lines) if ln.startswith("t,")) + 1
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[:first + 20]))
        assert run(["estimate", "--in", str(short)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --in: n ") and "got 19" in err, err


class TestKernel:
    def test_unit_box_variance_is_one(self, capsys):
        assert run(["kernel", "--width", "1", "--hurst", "0.7"]) == 0
        out = capsys.readouterr().out
        sigma_line = next(ln for ln in out.splitlines() if ln.startswith("sigma2"))
        assert abs(float(sigma_line.split(":")[1]) - 1.0) < 1e-8

    def test_vanishing_moment_prints_zero(self, capsys):
        assert run(["kernel", "--order", "1", "--hurst", "0.7"]) == 0
        out = capsys.readouterr().out
        moment1 = next(ln for ln in out.splitlines() if ln.startswith("moment j=1"))
        assert abs(float(moment1.split(":")[1])) < 1e-12

    def test_moment_table_spans_order_plus_one(self, capsys):
        assert run(["kernel", "--order", "3", "--hurst", "0.7"]) == 0
        out = capsys.readouterr().out
        moments = [ln for ln in out.splitlines() if ln.startswith("moment")]
        assert len(moments) == 5  # j = 0..4

    def test_order_thirteen_exit_2(self, capsys):
        assert run(["kernel", "--order", "13"]) == 2
        assert "order" in capsys.readouterr().err

    def test_bad_width_exit_2(self):
        assert run(["kernel", "--width", "-2"]) == 2

    def test_hurst_list(self, capsys):
        assert run(["kernel", "--order", "0", "--hurst", "0.55,0.7,0.9"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines() if ln.startswith("sigma2")]) == 3

    def test_bad_hurst_exit_2(self, capsys):
        assert run(["kernel", "--order", "0", "--hurst", "0.7,0.4"]) == 2
        assert "(0.5, 1)" in capsys.readouterr().err

    def test_unparsable_hurst_names_flag(self, capsys):
        assert run(["kernel", "--hurst", "0.7,abc"]) == 2
        assert "--hurst" in capsys.readouterr().err


class TestExperiment:
    def test_passing_run_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY)
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists() and (out / "summary.txt").exists()
        stdout = capsys.readouterr().out
        assert "pass=True" in stdout
        assert "# seed = 77" in stdout

    def test_failing_assertion_exit_1_still_writes(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY + "ceiling = 1e-30\n")
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "results.csv").exists()
        assert "pass=False" in (out / "summary.txt").read_text()

    def test_malformed_config_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("kind = rate-main\ntrend = const:0.5\nbogus = 1\n")
        assert run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("line, name", [("x0 = nan", "'x0'"), ("trend = const:nan", "const:nan")])
    def test_non_finite_config_exit_2(self, line, name, tmp_path, capsys, monkeypatch):
        def simulate(cfg, rung, trend_idx):
            raise RuntimeError("paths simulated for a non-finite config")

        monkeypatch.setattr(experiments, "_cell", simulate)
        key = line.split(" =")[0]
        text = "\n".join(ln for ln in PASSING_CONSISTENCY.splitlines()
                         if not ln.startswith(key + " ="))
        cfg = tmp_path / "c.txt"
        cfg.write_text(text + "\n" + line + "\n")
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def forbid_paths(monkeypatch):
        """Make every path draw raise: every replication route takes its streams here."""

        def no_streams(seed, key, reps):
            raise RuntimeError("a path was drawn")

        monkeypatch.setattr(hermite, "philox_streams", no_streams)

    def test_valid_config_reaches_the_patched_draw(self, tmp_path, capsys, monkeypatch):
        # positive control for the test below: the patch sits where the paths are drawn
        self.forbid_paths(monkeypatch)
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CLT)
        assert run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
        assert "a path was drawn" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("x0 = 0", "x0"), ("eval_points = 0", "eval_points"),
                                           ("trend = weier:0.3,0.5,3,12", "kernel"),
                                           ("trend = weier:0.3,1.5,3,12", "trend"),
                                           ("trend = sin:1,2", "trend")])
    def test_unrunnable_config_exit_2(self, line, key, tmp_path, capsys, monkeypatch):
        self.forbid_paths(monkeypatch)
        name = line.split(" =")[0]
        text = "\n".join(ln for ln in PASSING_CLT.splitlines() if not ln.startswith(name + " ="))
        cfg = tmp_path / "c.txt"
        cfg.write_text(text + "\n" + line + "\n")
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not out.exists()

    # A ladder along which the bandwidth or the noise factor eps^2 phi^{2H-2} does not fall
    # has no rate: for rate-alt that is every rho <= 1, for consistency a tied bandwidth.
    ALT = (PASSING_RATE.replace("kind = rate-main", "kind = rate-alt")
           .replace("kernel = legendre:1", "rho = 1.5"))
    TIED = (PASSING_CONSISTENCY.replace("legendre:1", "legendre:0")
            .replace("eps = 0.2,0.05", "eps = 0.5,0.49999999999999994"))

    def test_alt_base_reaches_the_patched_draw(self, tmp_path, capsys, monkeypatch):
        # positive control for the test below: the rate-alt base itself is runnable
        self.forbid_paths(monkeypatch)
        cfg = tmp_path / "c.txt"
        cfg.write_text(self.ALT)
        assert run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
        assert "a path was drawn" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [(ALT.replace("rho = 1.5", "rho = 0.9"), "rho"),
                                           (ALT.replace("rho = 1.5", "rho = 1.0"), "rho"),
                                           (TIED, "eps")],
                             ids=["alt-rho-0.9", "alt-rho-1.0", "consistency-tied-ladder"])
    def test_ladder_without_its_rate_exit_2(self, text, key, tmp_path, capsys, monkeypatch):
        self.forbid_paths(monkeypatch)
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not out.exists()

    def test_nan_replication_exit_3(self, tmp_path, capsys, monkeypatch):
        def nan_cell(cfg, rung, trend_idx):
            return lambda reps: np.full((len(reps), 21), np.nan)

        monkeypatch.setattr(experiments, "_cell", nan_cell)
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY)
        assert run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert "ReplicationFailure" in capsys.readouterr().err

    def test_rate_summary_echoes_theory(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_RATE)
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert "theory=1.73913" in capsys.readouterr().out

    def test_alt_rho_without_rate_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            PASSING_RATE.replace("kind = rate-main", "kind = rate-alt")
            .replace("kernel = legendre:1", "rho = 0.9")
        )
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: rho ")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_exit_2(self, workers, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise RuntimeError("a process pool was built")

        def no_cell(cfg, rung, trend_idx):
            raise RuntimeError("paths simulated")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(experiments, "_cell", no_cell)
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY)
        out = tmp_path / "rep"
        assert run(["experiment", "--config", str(cfg), "--out", str(out),
                    "--workers", str(workers)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(["experiment", "--config", str(cfg), "--out", str(one),
                    "--workers", "1"]) == 0
        assert run(["experiment", "--config", str(cfg), "--out", str(two),
                    "--workers", "2"]) == 0
        for name in ("results.csv", "summary.txt"):
            assert (one / name).read_bytes() == (two / name).read_bytes()


class TestPaths:
    """A path a flag names that the OS refuses, or that is not UTF-8, exits 2 naming the flag."""

    CASES = {
        "experiment-config-dir": ("experiment --config dir --out rep", "--config"),
        "experiment-config-missing": ("experiment --config missing.txt --out rep", "--config"),
        "experiment-config-not-utf8": ("experiment --config binary --out rep", "--config"),
        "experiment-out-existing-file": ("experiment --config c.txt --out file", "--out"),
        "estimate-in-dir": ("estimate --in dir", "--in"),
        "estimate-in-not-utf8": ("estimate --in binary", "--in"),
        "simulate-out-missing-dir": ("simulate --trend const:0.5 --n 64 --out missing/x.csv",
                                     "--out"),
        "kernel-out-dir": ("kernel --out dir", "--out"),
        "report-in-file": ("report --in file", "--in"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_names_the_flag(self, case, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("a plain file\n")
        (tmp_path / "binary").write_bytes(b"\xff\xfekind = clt\n")
        (tmp_path / "c.txt").write_text(PASSING_CLT)
        command, flag = self.CASES[case]
        if command.startswith("experiment"):
            TestExperiment.forbid_paths(monkeypatch)  # a bad path fails before any draw
        assert run(command.split()) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: cannot use ")
        assert not (tmp_path / "rep").exists() and (tmp_path / "file").is_file()

    def test_report_write_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # once --out exists as a directory, a failing write is a runtime failure
        def full_disk(result, out_dir):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "run_experiment", lambda cfg, workers: None)
        monkeypatch.setattr(cli, "write_report", full_disk)
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CLT)
        assert run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
        assert "runtime failure: OSError: [Errno 28]" in capsys.readouterr().err


class TestReport:
    def test_rate_report_refits_slope(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_RATE)
        out = tmp_path / "rep"
        run(["experiment", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert run(["report", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        refit = next(ln for ln in stdout.splitlines() if ln.startswith("refit slope="))
        slope = float(refit.split("slope=")[1].split(",")[0])
        assert abs(slope - 40 / 23) < 0.6
        assert "pass=True" in stdout

    def test_closes_summary_files(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(PASSING_CONSISTENCY)
        out = tmp_path / "rep"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            assert run(["report", "--in", str(out)]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_missing_dir_exit_2(self, tmp_path):
        assert run(["report", "--in", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize("rows", [
        pytest.param(["0.1,0.2,-2.3,-1.6", "0.1,0.3,-2.3,-1.2"], id="shared-log-eps"),
        pytest.param(["0.1,0.2,0,-1.6", "0.1,0.3,0,-1.2", "0.1,0.4,0,0"], id="all-zero-log-eps"),
        pytest.param(["0.1,0.2,-2.3,-1.6"], id="one-row"),
    ])
    def test_no_refit_without_two_distinct_log_eps(self, rows, tmp_path, capfd):
        (tmp_path / "results.csv").write_text("eps,sup_mse,log_eps,log_mse\n"
                                              + "".join(r + "\n" for r in rows))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["report", "--in", str(tmp_path)]) == 0
        out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
        assert not caught, [str(w.message) for w in caught]
        assert "refit slope" not in out and "no refit: a slope needs two distinct log_eps" in out
        assert "DLASCL" not in out + err and "SVD did not converge" not in out + err
        assert err == ""

    @pytest.mark.parametrize("text, needle", [
        pytest.param("eps,sup_mse,log_eps,log_mse\n0.1,0.2\n0.05,0.1\n", "line 2 ",
                     id="rate-too-few-fields"),
        pytest.param("eps,sup_mse,log_eps,log_mse\n0.1,0.2,-2.3,-1.6\n0.05,0.1,abc,-2.3\n",
                     "line 3 ", id="rate-non-numeric"),
        pytest.param("eps,sup_mse,log_eps,log_mse\n0.1,0.2,-2.3,-1.6,7\n", "line 2 ",
                     id="rate-too-many-fields"),
        pytest.param("eps,sup_mse,log_eps,log_mse\n0.1,0.2,-2.3,nan\n", "line 2 ",
                     id="rate-nan"),
        pytest.param("eps,statistic,value\n0.01,mean\n", "line 2 ", id="clt-too-few-fields"),
        pytest.param("eps,sup_mse,log_eps,log_mse\n", "no result rows", id="header-only"),
    ])
    def test_malformed_results_name_in(self, text, needle, tmp_path, capsys):
        (tmp_path / "results.csv").write_text(text)
        assert run(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --in: ") and needle in err, err

    def test_clt_stats_rendered(self, tmp_path, capsys):
        phi = 80 * 2**-12
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "kind = clt\ntrend = const:0.5\nq = 1\nhurst = 0.7\nkernel = box:1\n"
            f"eps = {phi ** 1.3!r}\nreplications = 100\nn = 2048\nhorizon = 1.0\n"
            "window = 0.45,0.55\nt0 = 0.5\nseed = 5\n"
        )
        out = tmp_path / "rep"
        run(["experiment", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert run(["report", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "variance=" in stdout and "sigma2=" in stdout
