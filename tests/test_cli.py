import argparse
import json
import os
import subprocess
import sys

import pytest

from milsde import cli


def parse(verb, **flags):
    return cli.parse_config(verb, flags)


def below_subgrid_floor(fine_factor):
    """Each sub-grid case at ``fine_factor`` below 3, with its config error.

    One sub-cell per cell makes every within-cell displacement 0, two every
    integral nested twice within a cell.
    """
    return [(["lemma-check", "--case", case, "--fine-factor", fine_factor, "--n", "16",
              "--paths", "200", "--seed", "1"], f"case '{case}' needs fine_factor >= 3")
            for case in ("null", "7.4", "7.4a", "7.4b", "7.6")]


class TestParseConfig:
    def test_minimal_flags_get_defaults(self):
        cfg = parse("rate", model="gbm", scheme="milstein", n_list="16,32,64,128",
                    paths=100, seed=1)
        assert cfg.fine_factor == 64
        assert cfg.slope_band == (-1.15, -0.85)

    def test_missing_seed_is_an_error(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            parse("rate", model="gbm", n_list="16,32,64,128", paths=10)

    def test_divisibility_rule(self):
        with pytest.raises(cli.ConfigError, match="does not divide"):
            parse("rate", model="gbm", n_list="12,64", paths=10, seed=1)

    def test_all_errors_reported(self):
        with pytest.raises(cli.ConfigError) as err:
            parse("rate", model="nope", scheme="rk4", n_list="16,32,64,128",
                  paths=10)
        text = "; ".join(err.value.errors)
        assert "model" in text and "scheme" in text and "seed" in text
        assert len(err.value.errors) >= 3

    def test_unknown_case(self):
        with pytest.raises(cli.ConfigError, match="unknown case"):
            parse("lemma-check", case="9.9", seed=1)

    def test_file_values_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment\nmodel = gbm\nscheme = milstein\n"
            "n_list = 16,32,64,128\npaths = 1000\nseed = 5\n")
        cfg = cli.parse_config("rate", {"paths": 500}, config_file=str(cfg_file))
        assert cfg.paths == 500
        assert cfg.model == "gbm" and cfg.seed == 5

    def test_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("mystery = 3\nseed = 1\n")
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config("lemma-check", {"case": "7.2a"},
                             config_file=str(cfg_file))

    def test_format_key_is_gone(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("format = csv\nseed = 1\n")
        with pytest.raises(cli.ConfigError, match="unknown key 'format'"):
            cli.parse_config("lemma-check", {"case": "7.2a"},
                             config_file=str(cfg_file))

    def test_bad_file_line_keeps_valid_keys(self, tmp_path):
        # the valid 'model' line still counts: only the real error is listed
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("model = gbm\nformat = csv\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("rate", {"seed": 1}, config_file=str(cfg_file))
        assert len(err.value.errors) == 1
        assert "unknown key 'format'" in err.value.errors[0]

    def test_hash_ignores_execution_knobs(self):
        a = parse("lemma-check", case="7.2a", seed=1, threads=1)
        b = parse("lemma-check", case="7.2a", seed=1, threads=8, out="/tmp/x")
        assert a.config_hash() == b.config_hash()
        c = parse("lemma-check", case="7.2a", seed=2)
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("verb,flags", [
        ("rate", dict(model="gbm", scheme="euler", n_list="16,32,64,256",
                      paths=123, fine_factor=8, seed=9)),
        ("error-law", dict(model="gbm", n=32, paths=2000, draws=1500,
                           fine_count=1024, seed=4)),
        ("lemma-check", dict(case="7.4b", n=16, paths=50, fine_factor=8, seed=2)),
    ])
    def test_config_file_round_trip(self, tmp_path, verb, flags):
        cfg = parse(verb, **flags)
        path = tmp_path / "round.cfg"
        path.write_text(cfg.to_config_text())
        again = cli.parse_config(verb, {}, config_file=str(path))
        assert again.science_dict() == cfg.science_dict()
        assert again.config_hash() == cfg.config_hash()


class TestMain:
    def test_no_verb_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_verb(self):
        assert cli.main(["frobnicate"]) == 2

    def test_config_error_exit(self, capsys):
        code = cli.main(["rate", "--model", "gbm"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["lemma-check", "--case", "7.2a", "--seed", "-1"], "seed must be >= 0"),
        (["rate", "--model", "gbm", "--n-list", "16,32", "--seed", "1"],
         "at least 3 grid sizes"),
        (["rate", "--model", "gbm", "--n-list", "16,32,64", "--seed", "1"], "8x span"),
        (["rate", "--model", "gbm", "--n-list", "0,16,128", "--seed", "1"],
         "n_list entries must be >= 1"),
    ] + below_subgrid_floor("1") + [
        (["lemma-check", "--case", "7.3", "--paths", str(1 << 32), "--seed", "1"],
         "paths must be < 2^32"),
        (["limit-sim", "--model", "gbm", "--draws", str(1 << 32), "--seed", "1"],
         "draws must be < 2^32"),
        (["rate", "--model", "gbm", "--n-list", "", "--seed", "1"],
         "at least 3 grid sizes, got 0"),
    ] + below_subgrid_floor("2") + [
        (["rate", "--model", "gbm", "--n-list", "16,16,128", "--fine-factor", "2",
          "--paths", "200", "--seed", "1"], "n_list entries must be distinct"),
        (["simulate", "--model", "gbm", "--n", "100000", "--fine-factor", "1000",
          "--seed", "1"], "100000000 fine cells (n x fine_factor) is too large"),
        (["lemma-check", "--case", "7.3", "--n", "100000", "--fine-factor", "1000",
          "--seed", "1"], "100000000 fine cells (n x fine_factor) is too large"),
        (["error-law", "--model", "gbm", "--n", "100000", "--fine-factor", "1000",
          "--seed", "1"], "100000000 fine cells (n x fine_factor) is too large"),
        (["rate", "--model", "gbm", "--n-list", "16,32,131072", "--fine-factor", "1024",
          "--seed", "1"], "134217728 fine cells (max(n_list) x fine_factor) is too large"),
        (["error-law", "--model", "gbm", "--fine-count", "100000000", "--seed", "1"],
         "100000000 fine cells (fine_count) is too large"),
        (["limit-sim", "--model", "gbm", "--fine-count", "100000000", "--seed", "1"],
         "100000000 fine cells (fine_count) is too large"),
        (["error-law", "--model", "gbm", "--seed", "6", "--ks-threshold", "5"],
         "ks_threshold must lie strictly between 0 and 1, got 5.0"),
        (["error-law", "--model", "gbm", "--seed", "6", "--ks-threshold", "nan"],
         "ks_threshold must lie strictly between 0 and 1, got nan"),
        (["error-law", "--model", "gbm", "--seed", "6", "--ks-threshold", "0"],
         "ks_threshold must lie strictly between 0 and 1, got 0.0"),
        (["rate", "--model", "gbm", "--slope-lo", "1", "--slope-hi", "-1", "--seed", "1"],
         "slope_lo < slope_hi, got [1.0, -1.0]"),
        (["rate", "--model", "gbm", "--slope-lo=-inf", "--slope-hi", "-1", "--seed", "1"],
         "slope_lo < slope_hi, got [-inf, -1.0]"),
        (["lemma-check", "--case", "7.2c", "--n", "8", "--paths", "30", "--seed", "1"],
         "case '7.2c' needs n >= 13"),
        (["rate", "--model", "ou", "--n-list", "2,4,16", "--fine-factor", "1", "--paths", "2",
          "--seed", "0", "--slope-lo", "-3", "--slope-hi", "3"],
         "model 'ou' has no closed form, so its reference is Milstein on the fine grid: "
         "it needs fine_factor >= 2"),
        (["rate", "--model", "ou", "--scheme", "euler", "--n-list", "2,4,16",
          "--fine-factor", "1", "--paths", "2", "--seed", "0", "--slope-lo", "-3",
          "--slope-hi", "3"], "model 'ou' has no closed form"),
        (["error-law", "--model", "ou", "--n", "4", "--fine-factor", "1", "--fine-count", "16",
          "--paths", "1000", "--draws", "1000", "--seed", "1"],
         "model 'ou' has no closed form"),
        (["lemma-check", "--case", "7.3", "--threads", "65", "--seed", "1"],
         "threads must be <= 64, got 65"),
        (["limit-sim", "--model", "gbm", "--threads", str(1 << 40), "--seed", "1"],
         "threads must be <= 64"),
        (["error-law", "--model", "ou", "--n", "32", "--fine-factor", "16", "--paths", "1000",
          "--draws", "1000", "--fine-count", "512", "--seed", "2"],
         "model 'ou' has a limit error U that is identically 0"),
        (["error-law", "--model", "det-exp", "--n", "16", "--fine-factor", "8",
          "--fine-count", "64", "--paths", "1000", "--draws", "1000", "--seed", "1"],
         "model 'det-exp' has a limit error U that is identically 0"),
    ])
    def test_config_only_errors_exit_two(self, argv, message, tmp_path, capsys,
                                         monkeypatch):
        def no_work(config):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "run", no_work)  # 2^32 paths would never end
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv,messages", [
        (["rate", "--model", "gbm", "--n-list", "16,16,131072", "--fine-factor", "1024",
          "--slope-lo", "nan", "--slope-hi", "-1"],
         ["n_list entries must be distinct", "got 2", "(max(n_list) x fine_factor) is too large",
          "slope_lo < slope_hi, got [nan, -1.0]"]),
        (["error-law", "--model", "gbm", "--fine-count", "100000000", "--ks-threshold", "1"],
         ["(fine_count) is too large", "strictly between 0 and 1, got 1.0"]),
        (["lemma-check", "--case", "7.2a", "--n", "1", "--paths", "0"],
         ["case '7.2a' needs n >= 13", "paths must be >= 30"]),
        (["error-law", "--model", "ou", "--fine-factor", "1", "--paths", "10"],
         ["model 'ou' has no closed form", "paths must be >= 1000",
          "model 'ou' has a limit error U that is identically 0"]),
        (["limit-sim", "--model", "gbm", "--threads", "100", "--draws", "10"],
         ["threads must be <= 64, got 100", "draws must be >= 30"]),
    ])
    def test_grid_and_threshold_errors_are_listed_together(self, argv, messages, tmp_path,
                                                           capsys):
        code = cli.main(argv + ["--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        for message in messages + ["seed must be >= 0"]:
            assert message in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("verb", ["error-law", "lemma-check"])
    def test_config_file_number_error_exits_two(self, verb, tmp_path, capsys):
        # every verb converts every file key, even one it does not read
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("model = gbm\ncase = 7.2a\nks_threshold = abc\n")
        out = tmp_path / "out"
        code = cli.main([verb, "--config", str(cfg_file), "--seed", "-1",
                         "--out", str(out / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ks_threshold must be a number, got 'abc'" in err
        assert "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb,flags", [
        ("simulate", ["--n", "8", "--paths", "3"]),
        ("rate", ["--n-list", "16,32,64,128", "--fine-factor", "1", "--paths", "20"]),
    ])
    @pytest.mark.parametrize("model", ["gbm", "det-exp"])
    def test_ito_scheme_on_other_models_exits_two(self, verb, flags, model, tmp_path,
                                                  capsys):
        # the embedding rule is checked with the config, and listed with the
        # other errors (here the negative seed)
        code = cli.main([verb, "--model", model, "--scheme", "milstein54", *flags,
                         "--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"model '{model}' is not of that form" in err
        assert "seed must be >= 0" in err
        assert not os.listdir(tmp_path)

    def test_ito_scheme_on_the_embedding_is_accepted(self):
        cfg = parse("simulate", model="gbm-drift", scheme="milstein54", seed=1)
        assert cfg.scheme == "milstein54"

    def test_small_limit_sim_draws_exit_two_before_simulating(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli.limits, "draw_error_limit", no_work)
        code = cli.main(["limit-sim", "--model", "gbm", "--draws", "10",
                         "--fine-count", "64", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"draws must be >= {cli.montecarlo.MOMENT_MIN_SAMPLES}" in \
            capsys.readouterr().err
        assert not os.listdir(tmp_path)
        assert parse("limit-sim", model="gbm", draws=30, seed=1).draws == 30

    def test_small_lemma_check_paths_exit_two_before_simulating(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli.oracles, "run_case", no_work)
        code = cli.main(["lemma-check", "--case", "7.3", "--n", "32", "--paths", "10",
                         "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"paths must be >= {cli.montecarlo.MOMENT_MIN_SAMPLES}" in \
            capsys.readouterr().err
        assert not os.listdir(tmp_path)
        assert parse("lemma-check", case="7.3", paths=30, seed=1).paths == 30

    def test_small_error_law_samples_exit_two_before_simulating(self, tmp_path,
                                                                 capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli.montecarlo, "run_error_law", no_work)
        code = cli.main(["error-law", "--model", "gbm", "--paths", "100",
                         "--draws", "100", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "paths must be >= 1000" in err and "draws must be >= 1000" in err

    def test_lemma_check_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "det"
        code = cli.main(["lemma-check", "--case", "7.2a", "--n", "128",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "det.json").read_text())
        assert report["passed"] is True
        assert report["config"]["case"] == "7.2a"
        assert report["config_hash"]
        csv_text = (tmp_path / "det.csv").read_text()
        assert csv_text.startswith("# schema=milsde.lemma-check.v1\n# config_hash=")
        assert "PASS" in capsys.readouterr().out

    def test_rate_failing_band_exits_one(self, tmp_path):
        code = cli.main(["rate", "--model", "det-exp", "--scheme", "milstein",
                         "--n-list", "16,32,64,128", "--paths", "1",
                         "--fine-factor", "1", "--seed", "1",
                         "--slope-lo", "-0.2", "--slope-hi", "-0.1",
                         "--out", str(tmp_path / "r")])
        assert code == 1

    def test_simulate_writes_paths(self, tmp_path):
        out = tmp_path / "sim"
        code = cli.main(["simulate", "--model", "gbm", "--scheme", "milstein",
                         "--n", "8", "--fine-factor", "4", "--paths", "3",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "sim.csv").read_text().strip().splitlines()
        assert lines[2] == "path_index,t,x_1"
        assert len(lines) == 3 + 3 * 9  # header comments + column row + rows

    def test_default_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        code = cli.main(["lemma-check", "--case", "7.2r", "--n", "64",
                         "--seed", "3"])
        assert code == 0
        names = os.listdir(tmp_path)
        assert any(n.startswith("milsde-lemma-check-") and n.endswith(".json")
                   for n in names)

    def test_reports_byte_identical_across_threads(self, tmp_path):
        argv = ["rate", "--model", "gbm", "--scheme", "milstein",
                "--n-list", "16,32,64,128", "--paths", "400",
                "--fine-factor", "1", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(argv + ["--threads", "1", "--out", str(out1)]) == 0
        assert cli.main(argv + ["--threads", "4", "--out", str(out2)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # each size spans two chunks of paths.DEFAULT_CHUNK (1000) paths
    @pytest.mark.parametrize("argv", [
        ["lemma-check", "--case", "7.3", "--n", "8", "--fine-factor", "4", "--paths", "1200"],
        ["lemma-check", "--case", "null", "--n", "8", "--fine-factor", "4", "--paths", "1200"],
        ["lemma-check", "--case", "7.4", "--n", "8", "--fine-factor", "4", "--paths", "1200"],
        ["lemma-check", "--case", "7.6", "--n", "8", "--fine-factor", "4", "--paths", "1200"],
        ["limit-sim", "--model", "gbm-drift", "--draws", "1200", "--fine-count", "32"],
        ["error-law", "--model", "gbm", "--n", "8", "--fine-factor", "2", "--paths", "1200",
         "--draws", "1200", "--fine-count", "32", "--ks-threshold", "0.5"],
        ["simulate", "--model", "gbm", "--scheme", "milstein", "--n", "4",
         "--fine-factor", "2", "--paths", "1200"],
    ], ids=["lemma-7.3", "lemma-null", "lemma-7.4", "lemma-7.6", "limit-sim", "error-law",
            "simulate"])
    def test_multi_chunk_reports_byte_identical_across_threads(self, argv, tmp_path, capsys):
        for threads in ("1", "2"):
            code = cli.main(argv + ["--seed", "5", "--threads", threads,
                                    "--out", str(tmp_path / f"t{threads}")])
            assert code in (0, 1)
        capsys.readouterr()
        for suffix in (".json", ".csv"):
            assert (tmp_path / f"t1{suffix}").read_bytes() == \
                (tmp_path / f"t2{suffix}").read_bytes()

    @pytest.mark.parametrize("argv,code", [
        (["lemma-check", "--case", "7.2a", "--n", "32"], 0),
        (["rate", "--model", "det-exp", "--n-list", "16,32,64,128", "--paths", "1",
          "--fine-factor", "1", "--slope-lo", "-0.2", "--slope-hi", "-0.1"], 1),
    ])
    def test_closed_stdout_keeps_the_verdict(self, argv, code, tmp_path, monkeypatch):
        # milsde ... | head: the reader is gone before the table is printed
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed_pipe, monkeypatch.context() as m:
            m.setattr(sys, "stdout", closed_pipe)
            assert cli.main(argv + ["--seed", "1", "--out", str(tmp_path / "r")]) == code
        assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]

    def test_unwritable_output_is_runtime_failure(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = cli.main(["lemma-check", "--case", "7.2a", "--n", "32",
                         "--seed", "1", "--out", str(target / "x")])
        assert code == 3

    def test_limit_sim_smoke(self, tmp_path):
        code = cli.main(["limit-sim", "--model", "gbm", "--draws", "50",
                         "--fine-count", "128", "--seed", "1",
                         "--out", str(tmp_path / "lim")])
        assert code == 0
        lines = (tmp_path / "lim.csv").read_text().strip().splitlines()
        assert lines[2].startswith("draw,u_1,qv_mm")
        assert len(lines) == 3 + 50


_COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--out", "--threads"}


@pytest.mark.parametrize("verb,help_line,flags", [
    ("simulate", "run a scheme and dump paths",
     {"--model", "--scheme", "--n", "--fine-factor", "--paths"}),
    ("rate", "strong-error rate fit over coupled paths",
     {"--model", "--scheme", "--n-list", "--fine-factor", "--paths", "--slope-lo",
      "--slope-hi"}),
    ("error-law", "compare n U^n with the simulated limit law",
     {"--model", "--n", "--paths", "--draws", "--fine-factor", "--fine-count",
      "--ks-threshold"}),
    ("lemma-check", "closed-form constant checks",
     {"--case", "--n", "--paths", "--fine-factor"}),
    ("limit-sim", "sample the limit error law", {"--model", "--draws", "--fine-count"}),
])
def test_flag_surface(verb, help_line, flags):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["simulate", "rate", "error-law", "lemma-check",
                                 "limit-sim"]
    assert {c.dest: c.help for c in sub._choices_actions}[verb] == help_line
    got = {s for a in sub.choices[verb]._actions for s in a.option_strings}
    assert got == flags | _COMMON_FLAGS


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "milsde", "lemma-check", "--case", "7.2a", "--n", "32"]
    done = subprocess.run(argv + ["--seed", "1", "--out", str(tmp_path / "det")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "det.json").read_text())["passed"] is True
    done = subprocess.run(argv + ["--out", str(tmp_path / "noseed")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--seed is required" in done.stderr
    # a verb loads only what it runs: neither scipy nor the test-only references
    gate = ("import sys, milsde, milsde.cli\n"
            "milsde.cli.build_parser()\n"
            "code = milsde.cli.main(%r)\n"
            "loaded = [m for m in ('scipy', 'milsde.crosscheck') if m in sys.modules]\n"
            "sys.exit(f'exit {code}, loaded {loaded}' if code or loaded else 0)\n"
            % (argv[3:] + ["--seed", "1", "--out", str(tmp_path / "gate")]))
    done = subprocess.run([sys.executable, "-c", gate], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["det.csv", "det.json", "gate.csv", "gate.json"]
