"""End-to-end tests of the command-line interface.

Commands run in-process through main() so exit codes and outputs are
asserted directly; one test runs the entry point declared in pyproject.toml
in a subprocess.
"""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minutecast
from minutecast import cli, lstm
from minutecast.errors import ConfigError, DataError
from minutecast.forest import ForestConfig
from minutecast.lstm import TrainConfig
from minutecast.marketdata import SynthParams
from minutecast.marketdata import load_minute_bars, minute_to_time
from minutecast.rolling import read_store


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        config = cli.load_run_config(None)
        assert config.seed == 0
        assert config.workers == 1
        assert config.models == ("naive", "ols-vix", "lstm")
        assert config.predictors == ("vix",)

    def test_file_values_and_comments(self, tmp_path):
        path = write_config(tmp_path, """
            # pipeline setup
            synth_days = 4
            seed = 7          # master seed
            models = naive, ols-rv
            predictors = vix, agg
            rf_max_features =
        """)
        config = cli.load_run_config(path)
        assert config.synth_days == 4
        assert config.seed == 7
        assert config.models == ("naive", "ols-rv")
        assert config.predictors == ("vix", "agg")
        assert config.rf.max_features is None

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, "seed = 5\nworkers = 2\n")
        config = cli.load_run_config(path, {"seed": 9})
        assert config.seed == 9
        assert config.workers == 2

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "epochs = 5\n")
        with pytest.raises(ConfigError):
            cli.load_run_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            cli.load_run_config(path)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "seed = soon\n")
        with pytest.raises(ConfigError):
            cli.load_run_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "just a line\n")
        with pytest.raises(ConfigError):
            cli.load_run_config(path)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            cli.RunConfig(models=())
        with pytest.raises(ConfigError):
            cli.RunConfig(predictors=())
        with pytest.raises(ConfigError):
            cli.RunConfig(seed=-1)
        with pytest.raises(ConfigError):
            cli.RunConfig(workers=0)

    def test_build_roster_expansion(self):
        config = cli.RunConfig(models=("naive", "ols", "lstm", "rf"),
                               predictors=("vix", "agg"))
        roster = cli.build_roster(config)
        keys = [spec.key for spec in roster]
        assert keys == [
            "naive:none",
            "ols-ar1:ar1", "ols-rv:rv", "ols-vix:vix", "ols-dvix:dvix", "ols-vrp:vrp",
            "lstm:vix", "lstm:agg",
            "rf:vix", "rf:agg",
        ]

    def test_build_roster_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            cli.build_roster(cli.RunConfig(models=("garch",)))

    def test_restated_defaults_agree(self):
        # RunConfig's lstm, rf and synth sections take their defaults from
        # TrainConfig, ForestConfig and SynthParams and pass them on unchanged
        roster = cli.build_roster(cli.RunConfig(models=("lstm", "rf")))
        assert [spec.config for spec in roster] == [TrainConfig(), ForestConfig()]
        assert cli.RunConfig(synth_days=3).synth_params() == SynthParams(n_days=3, seed=0)

    @pytest.mark.parametrize("key, text, name, value", [
        ("lstm_hidden_dim", "3", "hidden_dim", 3),
        ("lstm_epochs", "7", "epochs", 7),
        ("lstm_learning_rate", "0.125", "learning_rate", 0.125),
        ("lstm_sequence_length", "4", "sequence_length", 4),
        ("lstm_clip_norm", "2.5", "clip_norm", 2.5),
        ("lstm_init_scale", "0.375", "init_scale", 0.375),
        ("rf_trees", "9", "n_trees", 9),
        ("rf_min_leaf", "6", "min_leaf", 6),
        ("rf_max_features", "2", "max_features", 2),
        ("rf_block_length", "8", "block_length", 8),
        ("rf_feature_mode", "per-tree", "feature_mode", "per-tree"),
        ("synth_return_vol", "0.001", "return_vol", 0.001),
        ("synth_vix_mean", "22.5", "vix_mean", 22.5),
        ("synth_vix_vol", "0.02", "vix_vol", 0.02),
        ("synth_vix_persistence", "0.9", "vix_persistence", 0.9),
        ("synth_leverage_corr", "-0.25", "leverage_corr", -0.25),
    ])
    def test_section_key_lands_on_its_field(self, tmp_path, key, text, name, value):
        # a key at a non-default value moves its own field and nothing else,
        # as the roster and the generator see them
        path = write_config(tmp_path, f"synth_days = 2\nmodels = lstm, rf\n{key} = {text}\n")
        config = cli.load_run_config(path)
        lstm_spec, rf_spec = cli.build_roster(config)
        landed = {"lstm": lstm_spec.config, "rf": rf_spec.config, "synth": config.synth_params()}
        expected = {"lstm": TrainConfig(), "rf": ForestConfig(),
                    "synth": SynthParams(n_days=2, seed=0)}
        section = key.split("_", 1)[0]
        expected[section] = replace(expected[section], **{name: value})
        assert landed == expected

    def test_flags_land_on_config_keys(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "cmd_run", lambda config: seen.update(run=config) or 0)
        monkeypatch.setattr(
            cli, "cmd_synth", lambda config, out: seen.update(synth=(config, out)) or 0
        )
        assert cli.main(["run", "--seed", "3", "--workers", "2", "--out", "o",
                         "--models", "a,b", "--predictors", "c, d"]) == 0
        assert seen["run"] == cli.RunConfig(
            seed=3, workers=2, out="o", models=("a", "b"), predictors=("c", "d")
        )
        assert cli.main(["synth", "--days", "4", "--seed", "5", "--out", "bars.csv"]) == 0
        assert seen["synth"] == (cli.RunConfig(synth_days=4, seed=5), "bars.csv")


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "bars.csv"
        argv = ["synth", "--days", "5", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        lines = first.decode().strip().split("\n")
        assert lines[0] == "date,time,spy_price,vix"
        assert len(lines) == 1 + 5 * 371
        assert cli.main(argv) == 0
        assert out.read_bytes() == first

    def test_zero_days_header_only(self, tmp_path):
        out = tmp_path / "bars.csv"
        assert cli.main(["synth", "--days", "0", "--out", str(out)]) == 0
        assert out.read_text() == "date,time,spy_price,vix\n"

    def test_output_loads_cleanly(self, tmp_path):
        out = tmp_path / "bars.csv"
        cli.main(["synth", "--days", "2", "--seed", "1", "--out", str(out)])
        days = load_minute_bars(out)
        assert len(days) == 2
        assert all(len(d.bars) == 371 for d in days)

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["synth", "--days", "1", "--seed", "1", "--out", str(a)])
        cli.main(["synth", "--days", "1", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_days_required(self, tmp_path, capsys):
        out = tmp_path / "bars.csv"
        assert cli.main(["synth", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err


def make_bars(tmp_path, mutate=None, name="bars.csv"):
    """A small clean file, optionally mutated line-wise."""
    out = tmp_path / name
    cli.main(["synth", "--days", "2", "--seed", "4", "--out", str(out)])
    if mutate is not None:
        lines = out.read_text().strip().split("\n")
        lines = mutate(lines)
        out.write_text("\n".join(lines) + "\n")
    return str(out)


class TestValidate:
    def test_clean_file(self, tmp_path, capsys):
        path = make_bars(tmp_path)
        assert cli.main(["validate", path]) == 0
        output = capsys.readouterr().out
        assert "0 errors" in output
        assert "2 days" in output
        assert "371 session bars" in output

    def test_duplicate_minute(self, tmp_path, capsys):
        path = make_bars(tmp_path, lambda lines: lines + [lines[-1]])
        assert cli.main(["validate", path]) == 3
        output = capsys.readouterr().out
        assert "1 errors" in output
        assert "duplicate bar" in output

    def test_out_of_session_row_warns_only(self, tmp_path, capsys):
        def add_early(lines):
            date = lines[1].split(",")[0]
            # pre-open print, placed where minutes stay monotone
            return lines[:1] + [f"{date},09:35,100.0,19.0"] + lines[1:]
        path = make_bars(tmp_path, add_early)
        assert cli.main(["validate", path]) == 0
        output = capsys.readouterr().out
        assert "out-of-session" in output
        assert "0 errors" in output

    def test_gap_warns_only(self, tmp_path, capsys):
        path = make_bars(tmp_path, lambda lines: lines[:50] + lines[60:])
        assert cli.main(["validate", path]) == 0
        output = capsys.readouterr().out
        assert "missing session minutes" in output
        assert "0 errors" in output

    def test_short_day_warns(self, tmp_path, capsys):
        path = make_bars(tmp_path, lambda lines: lines[:1 + 20])
        assert cli.main(["validate", path]) == 0
        assert "would be dropped" in capsys.readouterr().out

    def test_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n")
        assert cli.main(["validate", str(bad)]) == 3

    def test_malformed_field(self, tmp_path, capsys):
        def corrupt(lines):
            lines[5] = lines[5].rsplit(",", 1)[0] + ",not-a-number"
            return lines
        path = make_bars(tmp_path, corrupt)
        assert cli.main(["validate", path]) == 3
        assert "line 6" in capsys.readouterr().out

    def test_non_finite_values(self, tmp_path, capsys):
        def corrupt(lines):
            day, time, _, vix = lines[3].split(",")
            lines[3] = f"{day},{time},nan,{vix}"
            day, time, price, _ = lines[7].split(",")
            lines[7] = f"{day},{time},{price},inf"
            return lines
        path = make_bars(tmp_path, corrupt)
        assert cli.main(["validate", path]) == 3
        output = capsys.readouterr().out
        assert "2 errors" in output
        assert "line 4: spy_price must be finite" in output
        assert "line 8: vix must be finite" in output

    def test_non_monotone(self, tmp_path, capsys):
        path = make_bars(tmp_path, lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:])
        assert cli.main(["validate", path]) == 3
        assert "non-monotone" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.csv")]) == 3
        assert "data error" in capsys.readouterr().err


# Row shapes for the agreement property: mostly valid rows, plus every kind
# of defect the scanner knows, so files land on both sides of the verdict.
_ROW_KINDS = ("valid",) * 30 + (
    "duplicate", "swap", "nan", "inf", "nonpositive", "short", "long",
    "bad_time", "bad_date", "late", "blank",
)


@st.composite
def bar_files(draw):
    """Text of a bar CSV over two days, with defects mixed into valid rows."""
    header = draw(st.sampled_from(["date,time,spy_price,vix"] * 10 + ["date,time,price,vix", ""]))
    lines = [header] if header else []
    for day in ("2021-03-01", "2021-03-02"):
        minute = draw(st.integers(0, 20))  # minutes below 10 are out of session
        for _ in range(draw(st.integers(0, 12))):
            minute += draw(st.integers(1, 3))
            price = repr(draw(st.floats(1.0, 500.0)))
            vix = repr(draw(st.floats(0.0, 90.0)))
            date, time = day, minute_to_time(minute)
            kind = draw(st.sampled_from(_ROW_KINDS))
            if kind == "nan":
                price = "nan"
            elif kind == "inf":
                vix = "inf"
            elif kind == "nonpositive":
                price = draw(st.sampled_from(["0", "-1.5"]))
            elif kind == "bad_time":
                time = draw(st.sampled_from(["25:00", "10:7x", "1030"]))
            elif kind == "bad_date":
                date = "2021-02-30"
            elif kind == "late":
                time = "16:05"
            row = [date, time, price, vix]
            if kind == "short":
                row = row[:3]
            elif kind == "long":
                row = row + ["1"]
            lines.append(",".join(row))
            if kind == "duplicate":
                lines.append(lines[-1])
            elif kind == "swap" and len(lines) > 2:
                lines[-2], lines[-1] = lines[-1], lines[-2]
            elif kind == "blank":
                lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


class TestValidateAgreesWithLoader:
    @settings(max_examples=200, deadline=None)
    @given(text=bar_files())
    def test_exit_code_and_first_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bars.csv")
            with open(path, "w", newline="") as handle:
                handle.write(text)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["validate", path])
            try:
                load_minute_bars(path)
            except DataError as exc:
                assert code == 3
                errors = [
                    line[len("error: "):]
                    for line in printed.getvalue().splitlines()
                    if line.startswith("error: ")
                ]
                assert errors[:1] == [str(exc)]
            else:
                assert code == 0


SMALL_RUN = """
synth_days = 3
seed = 6
models = naive, ols-vix, lstm
predictors = vix
lstm_hidden_dim = 3
lstm_epochs = 2
"""


class TestRun:
    def test_record_counts_and_reports(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        records = read_store(out / "predictions.csv")
        assert len(records) == 3 * 3 * 340
        table = capsys.readouterr().out
        assert "naive" in table and "lstm" in table and "ols-vix" in table
        with open(out / "aggregate_report.csv") as handle:
            rows = list(csv.DictReader(handle))
        naive_r2 = [r for r in rows if r["model"] == "naive" and r["metric"] == "r2_oos"][0]
        assert abs(float(naive_r2["mean"])) < 1e-12
        assert naive_r2["n_days_raw"] == "3"

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", config, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", config, "--out", str(out2)]) == 0
        for name in ("predictions.csv", "daily_metrics.csv", "aggregate_report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_model_override_flag(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out),
                         "--models", "naive"]) == 0
        records = read_store(out / "predictions.csv")
        assert len(records) == 3 * 340
        assert {r.model for r in records} == {"naive"}

    def test_rf_route(self, tmp_path):
        config = write_config(tmp_path, """
            synth_days = 1
            models = rf
            predictors = ar1
            rf_trees = 2
        """)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        records = read_store(out / "predictions.csv")
        assert len(records) == 340
        assert {r.model for r in records} == {"rf"}
        assert all(r.status == "ok" for r in records)

    def test_input_route_with_date_filter(self, tmp_path):
        bars = tmp_path / "bars.csv"
        assert cli.main(["synth", "--days", "5", "--seed", "2", "--out", str(bars)]) == 0
        config = write_config(tmp_path, f"""
            input = {bars}
            start_date = 2020-01-06
            models = naive
        """)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        records = read_store(out / "predictions.csv")
        # synth starts 2020-01-02: Thu, Fri, then Mon-Wed; the filter keeps 3
        assert len(records) == 3 * 340
        assert min(r.day for r in records).isoformat() == "2020-01-06"

    def test_synthetic_days_respect_end_date(self, tmp_path, capsys):
        config = write_config(tmp_path, """
            synth_days = 3
            end_date = 2020-01-02
            models = naive
        """)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        records = read_store(out / "predictions.csv")
        assert len(records) == 340
        assert {r.day.isoformat() for r in records} == {"2020-01-02"}
        before = write_config(tmp_path, "synth_days = 3\nend_date = 2019-12-31\n", name="b.conf")
        assert cli.main(["run", "--config", before, "--out", str(out)]) == 3
        assert "within the date range" in capsys.readouterr().err

    def test_pre_2020_input_runs_with_default_dates(self, tmp_path, capsys):
        # the synthetic start date is no lower bound on an input file's days
        def to_2015(lines):
            return [
                line.replace("2020-01-02", "2015-06-01").replace("2020-01-03", "2015-06-02")
                for line in lines
            ]

        bars = make_bars(tmp_path, to_2015)
        config = write_config(tmp_path, f"input = {bars}\nmodels = naive\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        days = sorted({r.day.isoformat() for r in read_store(out / "predictions.csv")})
        assert days == ["2015-06-01", "2015-06-02"]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        config = write_config(tmp_path, "models = naive\n")
        assert cli.main(["run", "--config", config]) == 2
        bars = make_bars(tmp_path)
        both = write_config(tmp_path, f"input = {bars}\nsynth_days = 2\n", name="b.conf")
        assert cli.main(["run", "--config", both]) == 2

    def test_unknown_model_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, "synth_days = 1\nmodels = garch\n")
        assert cli.main(["run", "--config", config]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, "synth_days = 1\nhorizon = 2\n")
        assert cli.main(["run", "--config", config]) == 2

    def test_unused_settings_are_checked_at_load(self, tmp_path, capsys):
        # a generator setting on an input run, and a model setting under synth
        bars = make_bars(tmp_path)
        config = write_config(tmp_path, f"input = {bars}\nmodels = naive\nsynth_vix_mean = -1\n")
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "config error: vix_mean must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        config = write_config(tmp_path, "lstm_epochs = 0\n", name="synth.conf")
        out = tmp_path / "synth.csv"
        assert cli.main(["synth", "--config", config, "--days", "1", "--out", str(out)]) == 2
        assert "config error: epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, "input = /nonexistent/bars.csv\n")
        assert cli.main(["run", "--config", config]) == 3


class TestReport:
    def test_reaggregates_identically(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        redone = tmp_path / "redone"
        assert cli.main(["report", str(out / "predictions.csv"),
                         "--out", str(redone)]) == 0
        for name in ("daily_metrics.csv", "aggregate_report.csv"):
            assert (redone / name).read_bytes() == (out / name).read_bytes()
        assert not (redone / "predictions.csv").exists()

    def test_missing_store(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.csv")]) == 3

    def test_empty_store(self, tmp_path, capsys):
        from minutecast.rolling import write_store
        path = tmp_path / "empty.csv"
        write_store([], path)
        assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 3


class TestGradcheck:
    def test_passes(self, capsys):
        assert cli.main(["gradcheck", "--instances", "5"]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output
        assert output.count("max_rel_err") == 5

    def test_corrupt_fails(self, capsys, monkeypatch):
        backward = lstm._backward

        def faulty(*args):
            g_wx, *rest = backward(*args)
            return (g_wx + 1e-3, *rest)

        monkeypatch.setattr(lstm, "_backward", faulty)
        assert cli.main(["gradcheck", "--instances", "3"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["minutecast"] == "minutecast.cli:main"

        # the same call the generated console-script wrapper makes, run from
        # a foreign working directory against the package imported here
        package_root = str(Path(minutecast.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from minutecast.cli import main; sys.exit(main())",
             "gradcheck", "--instances", "2"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_import_does_not_load_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows
        # it even where scipy is installed
        package_root = str(Path(minutecast.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, minutecast, minutecast.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["forecast"])
        assert info.value.code == 2
