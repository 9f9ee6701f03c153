import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigkdv import cli


def run(argv):
    return cli.dispatch(argv)


def test_import_leaves_scipy_stats_unloaded():
    # commands without a KS test (map eval, dist sample, ...) skip the
    # import of scipy.stats, the bulk of the start-up time
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, gigkdv.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["balance", "verify", "--variant", "fdk", "--n", "1000"],
    ["balance", "verify", "--variant", "psi", "--n", "1000"],
    ["balance", "verify", "--variant", "matrix", "--r", "2", "--n", "1000"],
    ["balance", "verify", "--variant", "matrix", "--r", "3", "--n", "1000"],
    ["lattice", "stationarity", "--n", "40", "--t", "4", "--probes", "2,4"],
    ["dist", "check"],
], ids=["fdk", "psi", "matrix", "matrix-r3", "lattice", "dist"])
def test_ks_commands_leave_scipy_stats_unloaded(argv):
    # gigkdv.ks computes the KS tests of these commands without scipy.stats
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, gigkdv.cli; gigkdv.cli.dispatch(sys.argv[1:]); "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.endswith("\nFalse\n")


def test_module_run_matches_dispatch(capsys):
    # `python -m gigkdv.cli` warns on stderr when the package imports cli
    argv = ["map", "eval", "--alpha", "1", "--beta", "2", "--x", "1", "--y", "1"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-m", "gigkdv.cli", *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert run(argv) == 0
    assert out.stderr == "" and out.stdout == capsys.readouterr().out


def test_readme_examples_parse():
    # the README's examples keep to the flags that the parameter tables declare
    readme = Path(cli.__file__).parents[2] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 11 and all(argv[0] == "gigkdv" for argv in commands)
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


class TestMapEval:
    def test_example_output(self, capsys):
        assert run(["map", "eval", "--alpha", "1", "--beta", "2",
                    "--x", "1", "--y", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# gigkdv v")
        assert out[1] == "1.5,0.6666666666666666"

    def test_psi_flag(self, capsys):
        assert run(["map", "eval", "--alpha", "1", "--beta", "0",
                    "--x", "1", "--y", "1", "--psi"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0.5,0.5"

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["map", "eval", "--alpha", "1", "--beta", "2", "--x", "1"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["map", "eval", "--alpha", "1", "--beta", "2", "--x", "1",
                 "--y", "1", "--bogus"])
        assert exc.value.code == 2

    def test_domain_error_exits_2(self, capsys):
        assert run(["map", "eval", "--alpha", "1", "--beta", "1",
                    "--x", "1", "--y", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestDistSample:
    def test_file_output(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run(["dist", "sample", "--law", "gig", "--lambda", "0.5",
                    "--a", "1", "--b", "1", "--n", "50", "--seed", "7",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# gigkdv v") and "seed=7" in lines[0]
        assert lines[1] == "value"
        values = [float(v) for v in lines[2:]]
        assert len(values) == 50 and all(v > 0 for v in values)

    @pytest.mark.parametrize("law,rates", [("gig", " a=1.0 b=1.0 "),
                                           ("gamma", " a=1.0 "), ("invgamma", " b=1.0 ")])
    def test_header_records_the_rates_read(self, law, rates, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(["dist", "sample", "--law", law, "--lambda", "2", "--n", "2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("seed=0")[1].startswith(rates)
        assert header.count("=") == 5 + rates.count("=")

    def test_zero_rate_is_the_limit_law(self, capsys, monkeypatch):
        # GIG(-0.5, 0, 1) is InvGamma(0.5, 1), and GIG(2, 3, 0) is Gamma(2, 3)
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        draws = []
        for argv in (["--law", "gig", "--a", "0", "--lambda", "-0.5"],
                     ["--law", "invgamma", "--lambda", "0.5"],
                     ["--law", "gig", "--b", "0", "--a", "3", "--lambda", "2"],
                     ["--law", "gamma", "--a", "3", "--lambda", "2"]):
            assert run(["dist", "sample", "--n", "5"] + argv) == 0
            draws.append(capsys.readouterr().out.splitlines()[2:])
        assert draws[0] == draws[1] and draws[2] == draws[3]

    @pytest.mark.parametrize("law", ["gamma", "invgamma"])
    def test_limit_law_needs_positive_lambda(self, law, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(["dist", "sample", "--law", law, "--lambda", "-1", "--n", "3"]) == 2
        assert capsys.readouterr().err == (
            f"gigkdv: error: the {law} law needs lambda > 0, got -1.0\n")

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["dist", "sample", "--law", "gamma", "--lambda", "2",
                "--a", "3", "--n", "20", "--seed", "5"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_empty_config_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert run(["dist", "sample", "--config", str(cfg), "--n", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "seed=0" in header

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=7\nn=3\n")
        assert run(["dist", "sample", "--config", str(cfg), "--seed", "9"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "seed=9" in header and "n=3" in header

    def test_env_seed_between_flag_and_config(self, tmp_path, capsys,
                                              monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=7\nn=2\n")
        monkeypatch.setenv(cli.SEED_ENV, "11")
        run(["dist", "sample", "--config", str(cfg)])
        assert "seed=11" in capsys.readouterr().out.splitlines()[0]
        run(["dist", "sample", "--config", str(cfg), "--seed", "9"])
        assert "seed=9" in capsys.readouterr().out.splitlines()[0]

    def test_config_sets_matrix_and_probe_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("r=2\na=2,0.5,0.5,1\nb=1;0;0;3\nn=40\nburn_in=20\nthin=1\n")
        run(["matrix", "sample", "--config", str(cfg), "--seed", "3"])
        header = capsys.readouterr().out.splitlines()[0]
        assert "a=[2.0;0.5;0.5;1.0]" in header and "b=[1.0;0.0;0.0;3.0]" in header
        cfg.write_text("probes=2, 4\nn=50\nt=4\n")
        assert run(["lattice", "stationarity", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["probes"] == "2,4"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=1\noops\n")
        assert run(["dist", "sample", "--config", str(cfg)]) == 2
        assert ":2:" in capsys.readouterr().err


class TestBatteries:
    def test_map_check_csv(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run(["map", "check", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "test,statistic,threshold,pass"
        assert all(line.endswith("True") for line in lines[2:])

    def test_matrix_check(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["matrix", "check", "--r", "2", "--alpha", "1",
                    "--beta", "2", "--seed", "5", "--out", str(out)]) == 0

    def test_matrix_sample_shape(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run(["matrix", "sample", "--r", "2", "--p", "1.5", "--n", "1000",
                    "--burn-in", "3000", "--thin", "5", "--seed", "3",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "burn_in=3000" in lines[0] and "thin=5" in lines[0]
        assert lines[1] == "m00,m01,m10,m11"
        row = [float(v) for v in lines[2].split(",")]
        assert row[1] == row[2]  # symmetric draw


class TestBalanceVerify:
    ARGV = ["balance", "verify", "--variant", "fdk", "--alpha", "1",
            "--beta", "2", "--c1", "1", "--c2", "1", "--lambda", "0.5",
            "--n", "5000", "--seed", "7"]

    def test_report_structure_and_exit(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(self.ARGV + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "gigkdv-report-v1"
        rep = doc["report"]
        assert rep["passed"] is True
        assert {"max_log_residual", "ks_stats", "independence", "seeds"
                } - set(rep) == {"seeds"}  # seed lives at the top level
        assert doc["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(self.ARGV + ["--out", str(a)])
        run(self.ARGV + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_seed_near_2_64(self, tmp_path):
        # the chain and normalizer seeds derived from it wrap around 2**64
        out = tmp_path / "rep.json"
        seed = 2**64 - 1
        assert run(["balance", "verify", "--variant", "matrix", "--r", "2",
                    "--n", "1000", "--seed", str(seed), "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["seed"] == seed

    def test_matrix_transport_tol_at_negative_lambda(self, tmp_path):
        # the transport tolerance is 16 eps S, about 1e-13 here, plus 3 se of
        # the normalizers' imbalance, so it is only as tight as their
        # estimates at lambda = -2
        out = tmp_path / "rep.json"
        assert run("balance verify --variant matrix --r 3 --lambda -2 "
                   "--a 2,0,0,0,1,0,0,0,0.5 --n 1000 --seed 7 --out".split()
                   + [str(out)]) == 0
        assert json.loads(out.read_text())["report"]["residual_tol"] < 0.05

    @pytest.mark.parametrize("c", ["1e5", "1e6"])
    def test_scalar_transport_at_large_rates(self, c):
        # the log-density terms grow like c, and their rounding with them:
        # 1.4e-9 at c = 1e5, which a fixed gate of 1e-9 once failed
        assert run(f"balance verify --variant fdk --c1 {c} --c2 {c} --n 2000 "
                   "--seed 7".split()) == 0

    def test_matrix_dominated_weights_exit_2(self, capsys):
        # one importance weight dominates each normalizer of a = diag(1e6,
        # 1e-6), so their se means nothing: the verdict is refused, not FAIL
        assert run("balance verify --variant matrix --r 2 --a 1e6,0,0,1e-6 "
                   "--n 1000 --seed 7".split()) == 2
        err = capsys.readouterr().err
        assert "effective size" in err and err.count("\n") == 1

    def test_batch_run(self, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text(
            "variant=fdk alpha=1 beta=2 c1=1 c2=1 lambda=0.5 n=2000 seed=3\n"
            "variant=fdk alpha=0.5 beta=3 c1=1 c2=3 lambda=-0.5 n=2000 seed=4\n"
            "variant=psi alpha=1 beta=2 c1=1 c2=1 lambda=0.5 n=2000 seed=5\n"
            "variant=psi alpha=1 beta=0 c1=1 c2=2 lambda=0.8 n=2000 seed=6\n"
            "variant=fdk alpha=1 beta=2 c1=1 c2=3 lambda=2 n=2000 seed=7\n")
        out = tmp_path / "batch.json"
        assert run(["balance", "verify", "--batch", str(batch),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [rep["params"]["lambda"] for rep in doc["report"]["reports"]
                ] == [0.5, -0.5, 0.5, 0.8, 2.0]

    def test_batch_line_then_flag_then_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        batch = tmp_path / "batch.txt"
        batch.write_text("variant=fdk lambda=0.8 n=1000\nvariant=fdk n=1000\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lambda=0.1\nalpha=0.5\nbeta=3\n")
        out = tmp_path / "batch.json"
        assert run(["balance", "verify", "--batch", str(batch), "--config", str(cfg),
                    "--lambda", "0.3", "--alpha", "2", "--out", str(out)]) in (0, 1)
        params = [rep["params"] for rep in json.loads(out.read_text())["report"]["reports"]]
        assert [(p["lambda"], p["alpha"], p["beta"]) for p in params] == [
            (0.8, 2.0, 3.0), (0.3, 2.0, 3.0)]

    def test_config_lambda_is_recorded(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lambda=0.8\nn=2000\n")
        out = tmp_path / "rep.json"
        assert run(["balance", "verify", "--config", str(cfg), "--seed", "6",
                    "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["params"]["lambda"] == 0.8

    def test_batch_seed_flag_beats_config(self, tmp_path, monkeypatch):
        # an entry without a seed of its own runs at the resolved seed,
        # where --seed outranks the config file
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        batch = tmp_path / "batch.txt"
        batch.write_text("variant=fdk alpha=1 beta=2 c1=1 c2=1 lambda=0.5 n=2000\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=5\n")
        stats = []
        for extra in (["--config", str(cfg)], []):
            out = tmp_path / "batch.json"
            assert run(["balance", "verify", "--batch", str(batch), "--seed", "9",
                        "--out", str(out)] + extra) in (0, 1)
            doc = json.loads(out.read_text())
            assert doc["seed"] == 9
            stats.append(doc["report"]["reports"][0]["independence"])
        assert stats[0] == stats[1]


class TestLattice:
    def test_run_frames_csv(self, tmp_path):
        out = tmp_path / "frames.csv"
        assert run(["lattice", "run", "--n", "4", "--t", "3", "--alpha", "1",
                    "--beta", "2", "--lambda", "0.5", "--c", "1",
                    "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,n,x,y"
        assert len(lines) == 2 + 4 * 4  # (T+1) frames x N sites
        t, n, x, y = lines[2].split(",")
        assert (t, n) == ("0", "1") and float(x) > 0 and float(y) > 0

    def test_stationarity_json(self, tmp_path):
        out = tmp_path / "stat.json"
        assert run(["lattice", "stationarity", "--n", "20000", "--t", "10",
                    "--alpha", "1", "--beta", "2", "--lambda", "0.5",
                    "--c", "1", "--probes", "5,10", "--seed", "9",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["passed"] is True

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["lattice", "run", "--n", "6", "--t", "4", "--alpha", "1",
                "--beta", "2", "--lambda", "0.5", "--c", "1", "--seed", "3"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


LATTICE = ["lattice", "stationarity", "--n", "50", "--t", "4", "--probes", "2,4"]


def _config_seed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed=abc\n")
    return LATTICE + ["--config", str(path)]


def _replay_text(tmp_path):
    path = tmp_path / "boundary.csv"
    path.write_text("kind,index,value\nx0,1,1.5\nx0,2,oops\n")
    return LATTICE + ["--replay", str(path)]


def _replay(tmp_path, x0, ycol, yref):
    path = tmp_path / "replay.csv"
    rows = [f"{kind},{i},{value!r}" for kind, values in
            (("x0", x0), ("ycol", ycol), ("yref", yref))
            for i, value in enumerate(values, start=1)]
    path.write_text("kind,index,value\n" + "\n".join(rows) + "\n")
    return ["lattice", "stationarity", "--n", str(len(x0)), "--t", str(len(ycol)),
            "--probes", "2,4", "--replay", str(path)]


def _replay_short_yref(tmp_path):
    return _replay(tmp_path, [1.0] * 50, [1.0] * 4, [1.0] * 49)


def _replay_huge_x0(tmp_path):
    # the carrier leaving the first cell is about x alpha / beta, past the
    # floating-point range
    return (_replay(tmp_path, [1.7e308] + [1.0] * 199, [1.0] * 4, [1.0] * 200)
            + ["--alpha", "2", "--beta", "1"])


def _replay_beta_zero(tmp_path):
    # with beta = 0 the carrier grows by about alpha x^2 per cell, and the
    # row scan's block composite has c = 0 and an underflowed d
    return (_replay(tmp_path, [1000.0] * 200, [1.0] * 4, [1.0] * 200)
            + ["--alpha", "1", "--beta", "0"])


VERIFY_FDK = ["balance", "verify", "--variant", "fdk", "--n", "1000"]
VERIFY_PSI = ["balance", "verify", "--variant", "psi", "--n", "1000"]
VERIFY_MATRIX = ["balance", "verify", "--variant", "matrix", "--n", "1000"]
MATRIX_SAMPLE = ["matrix", "sample", "--r", "2", "--n", "10"]
MAP_EVAL = ["map", "eval", "--alpha", "2", "--beta", "0.5"]


def _config_thin(tmp_path):
    path = tmp_path / "mcmc.cfg"
    path.write_text("thin=0\n")
    return MATRIX_SAMPLE + ["--config", str(path)]


def _batch_seed(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("variant=fdk n=100 seed=-3\n")
    return ["balance", "verify", "--batch", str(path)]


def _batch_line(tokens):
    def argv(tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(f"variant=fdk n=1000\nvariant=fdk {tokens} n=1000\n")
        return ["balance", "verify", "--batch", str(path)]
    return argv


def _config_key(line, base=LATTICE):
    def argv(tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(f"seed=3\n{line}\n")
        return base + ["--config", str(path)]
    return argv


def _out_dir(tmp_path):
    return ["dist", "sample", "--n", "3", "--out", str(tmp_path)]


def _binary(tmp_path, flag, argv):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    return argv + [flag, str(path)]


def _config_binary(tmp_path):
    return _binary(tmp_path, "--config", ["dist", "sample", "--n", "3"])


def _replay_binary(tmp_path):
    return _binary(tmp_path, "--replay", LATTICE)


class TestBadInput:
    @pytest.mark.parametrize("argv,env", [
        (LATTICE + ["--seed", "-1"], None),
        (["dist", "sample", "--seed", str(2**64)], None),
        (LATTICE, "99999999999999999999999"),
        (LATTICE, "abc"),
        (_config_seed, None),
        (LATTICE + ["--probes", "5,x"], None),
        (_replay_text, None),
        (_batch_seed, None),
        (_replay_short_yref, None),
        (_replay_huge_x0, None),
        (MATRIX_SAMPLE + ["--thin", "0"], None),
        (MATRIX_SAMPLE + ["--thin", "-3"], None),
        (MATRIX_SAMPLE + ["--burn-in", "-1"], None),
        (_config_thin, None),
        (MATRIX_SAMPLE, None),
        (_out_dir, None),
        (_config_binary, None),
        (_replay_binary, None),
        (MATRIX_SAMPLE + ["--n", "40", "--a", "1,abc,0,1"], None),
        (["matrix", "check", "--r", "-1"], None),
        (["dist", "sample", "--a", "1e308", "--n", "3"], None),
        (["dist", "sample", "--a", "1e-200", "--b", "1e-200", "--n", "3"], None),
        (MAP_EVAL + ["--x", "nan", "--y", "0.5"], None),
        (MAP_EVAL + ["--x", "inf", "--y", "0.5", "--psi"], None),
        (["lattice", "stationarity", "--n", "1", "--t", "4", "--probes", "2,4"], None),
        (_replay_beta_zero, None),
        (["matrix", "check", "--r", "2", "--alpha", "1e308"], None),
        (["matrix", "check", "--r", "3", "--beta", "1e308"], None),
        (["dist", "sample", "--law", "gamma", "--lambda", "inf", "--n", "3"], None),
        (["dist", "sample", "--law", "gamma", "--a", "inf", "--n", "3"], None),
        (["dist", "sample", "--law", "invgamma", "--b", "inf", "--n", "3"], None),
        (["map", "eval", "--alpha", "1e300", "--beta", "1", "--x", "1e100",
          "--y", "1e-300"], None),
        (["map", "eval", "--alpha", "1", "--beta", "1e300", "--x", "1e-300",
          "--y", "1e100"], None),
        (["dist", "sample", "--law", "gamma", "--lambda", "1", "--a", "1e-320",
          "--n", "3"], None),
        (["dist", "sample", "--law", "invgamma", "--lambda", "1", "--b", "1e-320",
          "--n", "3"], None),
        (["dist", "sample", "--law", "gig", "--lambda", "1", "--a", "1e-320",
          "--b", "1", "--n", "3"], None),
        (["lattice", "run", "--n", "2", "--t", "1", "--lambda", "1e308"], None),
        (["balance", "machinery", "--s", "200", "--n", "1000"], None),
        (["balance", "machinery", "--s", "1e300"], None),
        (["balance", "machinery", "--n", "1"], None),
    ], ids=["flag-seed-negative", "flag-seed-too-big", "env-seed-too-big",
            "env-seed-text", "config-seed-text", "probes-text", "replay-text",
            "batch-seed-negative", "replay-short-yref", "replay-huge-x0",
            "thin-zero", "thin-negative", "burn-in-negative", "config-thin-zero",
            "matrix-sample-2-per-chain", "out-directory", "config-binary",
            "replay-binary", "matrix-text", "matrix-r-negative", "gig-rate-huge",
            "gig-rates-tiny", "map-x-nan", "map-x-inf-psi", "lattice-one-site",
            "replay-beta-zero", "matrix-alpha-huge", "matrix-beta-huge",
            "gamma-shape-inf", "gamma-rate-inf", "invgamma-rate-inf",
            "fdk-image-u-underflows", "fdk-image-v-underflows", "gamma-draw-overflows",
            "invgamma-draw-underflows", "gig-setup-divides-by-zero",
            "gig-mode-shift-overflows", "machinery-se-infinite",
            "machinery-power-overflows", "machinery-one-draw"])
    def test_exits_2_with_one_line(self, argv, env, tmp_path, capsys,
                                   monkeypatch):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV, env)
        if callable(argv):
            argv = argv(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["lattice", "run", "--n", "2", "--t", "1", "--lambda", "1e308"],
        ["balance", "verify", "--variant", "matrix", "--r", "22", "--n", "1000"],
    ], ids=["lattice-run-boundary-draws", "matrix-verify-r-22"])
    def test_fails_before_any_output(self, argv, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,key", [
        (_batch_line("lam=0.8"), "lam"),
        (_batch_line("alpah=3"), "alpah"),
        (_config_key("alpah=3"), "alpah"),
        (_config_key("probes=2,4", ["dist", "sample", "--n", "3"]), "probes"),
    ], ids=["batch-lam", "batch-alpah", "config-alpah", "config-other-command"])
    def test_unknown_key_is_named(self, argv, key, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1
        assert f" {key}: unknown key" in err

    @pytest.mark.parametrize("argv,where,reader", [
        (VERIFY_FDK + ["--r", "3"], "--r", "the fdk variant"),
        (VERIFY_FDK + ["--a", "2,0,0,1"], "--a", "the fdk variant"),
        (VERIFY_PSI + ["--b", "1"], "--b", "the psi variant"),
        (VERIFY_MATRIX + ["--c1", "5"], "--c1", "the matrix variant"),
        (VERIFY_MATRIX + ["--c2", "5"], "--c2", "the matrix variant"),
        (_config_key("r=2", VERIFY_FDK), "c.cfg: r", "the fdk variant"),
        (_config_key("c2=2", VERIFY_MATRIX), "c.cfg: c2", "the matrix variant"),
        (_batch_line("a=1"), "batch.txt:2: a", "the fdk variant"),
        (["dist", "sample", "--law", "gamma", "--b", "5", "--n", "3"], "--b",
         "the gamma law"),
        (["dist", "sample", "--law", "invgamma", "--a", "5", "--n", "3"], "--a",
         "the invgamma law"),
        (_config_key("b=2", ["dist", "sample", "--law", "gamma", "--n", "3"]),
         "c.cfg: b", "the gamma law"),
    ], ids=["fdk-r", "fdk-a", "psi-b", "matrix-c1", "matrix-c2", "config-fdk-r",
            "config-matrix-c2", "batch-fdk-a", "gamma-b", "invgamma-a", "config-gamma-b"])
    def test_unread_key_is_named(self, argv, where, reader, tmp_path, capsys,
                                 monkeypatch):
        # every key a run is given is one it reads
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        if callable(argv):
            argv = argv(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1
        assert err.endswith(f"{where}: not read by {reader}\n")

    def test_replay_indices_run_in_file_order(self, tmp_path, capsys, monkeypatch):
        # x0 sites 2, 1, 7 and yref site 1 twice once ran, in file order
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        path = tmp_path / "replay.csv"
        path.write_text("kind,index,value\nx0,2,1.0\nx0,1,2.0\nx0,7,3.0\n"
                        "ycol,1,1.0\nyref,1,1.0\nyref,1,1.5\nyref,3,1.0\n")
        assert run(["lattice", "run", "--n", "3", "--t", "1", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"gigkdv: error: {path}: row ['x0', '2', '1.0'] needs index 1")
        path.write_text("kind,index,value\nx0,1,1.0\nx0,2,2.0\nx0,3,3.0\n"
                        "ycol,1,1.0\nyref,1,1.0\nyref,1,1.5\nyref,3,1.0\n")
        assert run(["lattice", "run", "--n", "3", "--t", "1", "--replay", str(path)]) == 2
        assert "row ['yref', '1', '1.5'] needs index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        "x0,2,1.0\nx0,1,2.0\nx0,3,3.0\nycol,1,1.0\nyref,1,1.0\nyref,2,1.0\nyref,3,1.0\n",
        "x0,1,1.0\nx0,2,2.0\nycol,1,1.0\nyref,1,1.0\nyref,2,1.0\n",
        "x0,1,1.0\nx0,2,2.0\nx0,3,3.0\nycol,1,1.0\nycol,2,1.0\n"
        "yref,1,1.0\nyref,2,1.0\nyref,3,1.0\n",
        "x0,1,1.0\nx0,2,0.0\nx0,3,3.0\nycol,1,1.0\nyref,1,1.0\nyref,2,1.0\nyref,3,1.0\n",
    ], ids=["bad-index", "short-file", "size-mismatch", "zero-value"])
    def test_failed_replay_writes_nothing(self, rows, tmp_path, capsys, monkeypatch):
        # the boundary file is read and checked before the header is written
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        path = tmp_path / "replay.csv"
        path.write_text("kind,index,value\n" + rows)
        assert run(["lattice", "run", "--n", "3", "--t", "1", "--replay", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        MAP_EVAL[:2] + ["--alpha", "1", "--beta", "0", "--x", "1e200", "--y", "1e200"],
        MAP_EVAL[:2] + ["--alpha", "0", "--beta", "1", "--x", "1e200", "--y", "1e200"],
        MAP_EVAL[:2] + ["--alpha", "1", "--beta", "1e-300", "--x", "1e300", "--y", "1e-30"],
        MAP_EVAL[:2] + ["--alpha", "1", "--beta", "2", "--x", "1e300", "--y", "1e-320",
                        "--psi"],
    ], ids=["fdk-beta-zero", "fdk-alpha-zero", "fdk-overflow", "psi"])
    def test_map_image_out_of_range(self, argv, capsys, monkeypatch):
        # these images once printed as 0.0 or inf, with exit 0
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gigkdv: error: the ") and err.count("\n") == 1
        assert err.endswith("image leaves the floating-point range\n")

    @pytest.mark.parametrize("argv,where,value", [
        (LATTICE + ["--c", "0"], "--c", "0.0"),
        (LATTICE + ["--c2", "-1"], "--c2", "-1.0"),
        (_config_key("c=-2"), "c.cfg: c", "-2.0"),
        (_config_key("c2=0", ["lattice", "run", "--n", "3", "--t", "1"]), "c.cfg: c2", "0.0"),
    ], ids=["flag-c", "flag-c2", "config-c", "config-c2"])
    def test_lattice_scale_is_named(self, argv, where, value, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        if callable(argv):
            argv = argv(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1
        assert err.endswith(f"{where}: must be > 0, got {value}\n")

    @pytest.mark.parametrize("argv,zero", [
        (VERIFY_FDK + ["--beta", "0", "--lambda", "-0.5"], "beta"),
        (VERIFY_PSI + ["--alpha", "0", "--lambda", "-0.5"], "alpha"),
        (["lattice", "run", "--n", "3", "--t", "1", "--beta", "0", "--lambda", "-0.5"],
         "beta"),
    ], ids=["fdk", "psi", "lattice"])
    def test_limit_law_needs_positive_lambda(self, argv, zero, capsys, monkeypatch):
        # alpha = 0 or beta = 0 turns a law into its Gamma or inverse-Gamma
        # limit, which exists for lambda > 0 only
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"gigkdv: error: {zero} = 0 requires lambda > 0, got lambda=-0.5\n")

    def test_tiny_replay_value_leaves_the_range(self, tmp_path, capsys, monkeypatch):
        # past x0 = 5e-324 a carrier underflows to 0: the row leaves the
        # floating-point range, while every boundary value is valid
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        x0 = [1.0] * 200
        x0[63] = 5e-324
        assert run(_replay(tmp_path, x0, [1.0] * 4, [1.0] * 200)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("gigkdv: error: row 1 leaves the floating-point range")

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_scaled_rate_names_its_flag(self, flag, capsys, monkeypatch):
        # the laws' rates are alpha a, beta b, ...; an overflow there is the
        # flag's fault, not that of the identity matrices a and b
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(["balance", "verify", "--variant", "matrix", flag, "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"gigkdv: error: {flag[2:]} * a needs finite entries")

    def test_unwritable_out_found_before_the_work(self, tmp_path, capsys,
                                                  monkeypatch):
        def work(seed):
            pytest.fail("the battery ran before --out was opened")
        monkeypatch.setattr(cli.dist, "check_battery", work)
        assert run(["dist", "check", "--out", str(tmp_path / "missing" / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1

    # every size here is beyond any address space, so no machine can map it,
    # whatever its overcommit setting: 2e17 float64 values take 1.4 EiB and
    # the allocator refuses them; 2e18 and 2e19, on which numpy would raise
    # ValueError, are refused as parsed; 6e17 draws of 2 x 2 matrices are
    # more values than numpy can index, though 6e17 itself is not
    @pytest.mark.parametrize("argv", [
        *([*cmd, "--n", "200000000000000000"] for cmd in (
            ["dist", "sample"], ["matrix", "sample", "--r", "2"],
            ["lattice", "run", "--t", "3"],
            ["lattice", "stationarity", "--t", "3", "--probes", "1"],
            ["balance", "verify"], ["balance", "verify", "--variant", "matrix"],
            ["balance", "machinery"])),
        *([*cmd, "--n", n] for n in ("2000000000000000000", "20000000000000000000")
          for cmd in (["dist", "sample"], ["matrix", "sample", "--r", "2"],
                      ["lattice", "run", "--t", "3"])),
        ["lattice", "run", "--n", "3", "--t", "2000000000000000000"],
        ["matrix", "sample", "--r", "2", "--n", "600000000000000000"],
        ["balance", "verify", "--variant", "matrix", "--n", "600000000000000000"],
        ["matrix", "sample", "--n", "25", "--r", "1000000000"],
    ])
    def test_unallocatable_size_exits_2(self, argv, capsys, monkeypatch):
        # such a crash once exited 1, the status of a failed verdict; a
        # matrix run must fail before its MCMC work, which starts at the mode
        def work(params):
            pytest.fail("the MCMC started before the draws were allocated")
        monkeypatch.setattr(cli.matrix, "mgig_mode", work)
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gigkdv: error: ") and err.count("\n") == 1

    def test_closed_pipe_ends_quietly(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from gigkdv.cli import main; main()",
             "lattice", "run", "--n", "20000", "--t", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"# gigkdv v")
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


# ---------------------------------------------------------------------------
# bounded fuzz of dispatch: real subcommands, tiny sizes, valid and garbage
# values mixed; every run must end with status 0, 1 or 2 and no traceback
# ---------------------------------------------------------------------------

GARBAGE = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "abc", "", "1e308", "2.5"])
# seeds that are rejected before any work: a valid seed would run the full
# 5 s `dist check` battery, which has no size knob
BAD_SEED = st.sampled_from(["-1", "abc", "", "nan", str(2**64)])
SEED = st.one_of(st.integers(0, 3).map(str), BAD_SEED)
FLOAT = st.one_of(st.sampled_from(["0.5", "1", "2", "3", "-0.5", "-2"]), GARBAGE)
SIZE = st.one_of(st.integers(1, 6).map(str), GARBAGE)
MATRIX_TEXT = st.sampled_from(["1,0,0,1", "2,0.5,0.5,1", "1", "1,2,3,4",
                               "nan,0,0,1", "abc", "", "1;0;0;1"])
# balance verify needs n >= 1000; the matrix variant gets only n below that,
# since one matrix verdict at n = 1000 takes seconds
MATRIX_N = st.one_of(st.integers(1, 999).map(str), GARBAGE)
FDK_N = st.one_of(st.just("1000"), MATRIX_N)

# file-valued flags draw "@name" tokens, which name files of FUZZ_FILES
# (bytes) or "@dir" and "@missing"
FUZZ_FILES = {
    "binary": b"\xff\xfe\x00\x01",
    "empty": b"",
    "cfg_ok": b"alpha=2\nbeta=1\nn=3\n",
    "cfg_bad": b"oops\n",
    "cfg_seed": b"seed=abc\nthin=0\n",
    "replay_short": b"kind,index,value\nx0,1,1.5\n",
    "batch_bad": b"variant=fdk n=abc\n",
    "batch_ok": b"variant=psi alpha=1 beta=0 c1=1 c2=2 lambda=0.8 n=1000 seed=6\n",
}
ANY_FILE = ["@binary", "@empty", "@dir", "@missing"]
COMMON_FLAGS = {
    "--seed": SEED,
    "--config": st.sampled_from(["@cfg_ok", "@cfg_bad", "@cfg_seed"] + ANY_FILE),
    "--out": st.sampled_from(["-", "@dir", "@missing", "@out"]),
}
BATCH = st.sampled_from(["@batch_bad", "@batch_ok"] + ANY_FILE)

MAP_FLAGS = {"--alpha": FLOAT, "--beta": FLOAT}
BALANCE_FLAGS = {**MAP_FLAGS, "--c1": FLOAT, "--c2": FLOAT, "--lambda": FLOAT}
LATTICE_FLAGS = {"--n": SIZE, "--t": SIZE, **BALANCE_FLAGS, "--c": FLOAT,
                 "--c2": FLOAT, "--replay": st.sampled_from(["@replay_short"] + ANY_FILE)}
# each base argv sets the sizes a command would otherwise take from its
# defaults (up to n = 200,000); drawn flags come later and override them
COMMANDS = [
    (["specfun", "check"], {}),
    (["dist", "sample"], {"--law": st.sampled_from(["gig", "gamma", "invgamma", "x"]),
                          "--lambda": FLOAT, "--a": FLOAT, "--b": FLOAT,
                          "--n": SIZE}),
    (["dist", "check", "--seed", "abc"], {"--seed": BAD_SEED}),
    (["map", "eval", "--alpha", "1", "--beta", "2", "--x", "1", "--y", "1"],
     {**MAP_FLAGS, "--x": FLOAT, "--y": FLOAT, "--psi": st.just(None)}),
    (["map", "check"], {}),
    (["matrix", "check"], {"--r": st.one_of(st.sampled_from(["1", "2", "3"]), GARBAGE),
                           **MAP_FLAGS}),
    (["matrix", "sample", "--n", "32", "--burn-in", "20", "--thin", "1"],
     {"--r": st.one_of(st.sampled_from(["1", "2"]), GARBAGE), "--p": FLOAT,
      "--a": MATRIX_TEXT, "--b": MATRIX_TEXT,
      "--n": st.one_of(st.integers(1, 40).map(str), GARBAGE),
      "--burn-in": SIZE, "--thin": SIZE}),
    (["balance", "verify", "--n", "1000"],
     {"--variant": st.sampled_from(["fdk", "psi", "x"]), **BALANCE_FLAGS, "--n": FDK_N,
      "--batch": BATCH}),
    (["balance", "verify", "--variant", "matrix", "--n", "999"],
     {**BALANCE_FLAGS, "--r": SIZE, "--a": MATRIX_TEXT, "--b": MATRIX_TEXT,
      "--n": MATRIX_N, "--batch": BATCH}),
    (["balance", "machinery", "--n", "1000"],
     {**BALANCE_FLAGS, "--s": FLOAT, "--sigma": FLOAT, "--theta": FLOAT, "--n": SIZE}),
    (["lattice", "run", "--n", "5", "--t", "3"], LATTICE_FLAGS),
    (["lattice", "stationarity", "--n", "50", "--t", "4", "--probes", "2,4"],
     {**LATTICE_FLAGS, "--probes": st.sampled_from(["1,2", "2", "", "x", "-1", "0,99"])}),
]


@st.composite
def fuzz_argv(draw, files):
    base, flags = draw(st.sampled_from(COMMANDS))
    flags = {**COMMON_FLAGS, **flags}
    argv = list(base)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(flags[flag])
        if value is not None and value.startswith("@"):
            value = files[value[1:]]
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"dir": str(root), "missing": str(root / "no" / "f"),
             "out": str(root / "out.txt")}
    for name, data in FUZZ_FILES.items():
        (root / name).write_bytes(data)
        files[name] = str(root / name)
    return files


def test_dispatch_fuzz(fuzz_files):
    @settings(max_examples=300, derandomize=True)
    @given(argv=fuzz_argv(fuzz_files))
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                status = cli.dispatch(argv)
            except SystemExit as exc:  # argparse's usage errors
                status = exc.code
        assert status in (0, 1, 2), (argv, status)
        assert "Traceback" not in err.getvalue(), argv

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.SEED_ENV, raising=False)
        check()
