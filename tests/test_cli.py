"""CSV ingestion, flag parsing, subcommand outputs, and exit codes.

Every dispatch-based test runs with deterministic=True so outputs carry no
timestamp line and byte-level comparisons are meaningful.
"""

import csv
import logging
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lave
import lave.cli as cli_mod
import lave.garch as garch_mod
from lave.cli import (
    DEFAULT_LAMBDA_TABLE,
    RunConfig,
    _parse_design,
    dispatch,
    ingest_csv,
    main,
    parse_config,
)
from lave.errors import GarchConvergenceError, InputDataError
from lave.transform import power_constants


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_returns(path, values, header="return"):
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    write_lines(path, lines)


def read_output(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestIngest:
    def test_price_pair_becomes_one_log_return(self, tmp_path):
        f = tmp_path / "prices.csv"
        write_lines(f, ["price", "1.0", repr(math.e)])
        r = ingest_csv(f)
        assert len(r) == 1
        assert r.values[0] == pytest.approx(1.0, rel=1e-15)
        assert r.origin_label == "prices.csv"

    def test_date_column_is_ignored(self, tmp_path):
        f = tmp_path / "dated.csv"
        write_lines(f, ["date,price", "2020-01-01,1.0", f"2020-01-02,{math.e!r}"])
        r = ingest_csv(f)
        assert len(r) == 1
        assert r.values[0] == pytest.approx(1.0, rel=1e-15)

    def test_return_column_passes_through(self, tmp_path):
        values = np.random.default_rng(0).standard_normal(25)
        f = tmp_path / "returns.csv"
        write_returns(f, values)
        np.testing.assert_array_equal(ingest_csv(f).values, values)

    def test_non_numeric_rows_are_dropped_and_logged(self, tmp_path, caplog):
        # a stray quote drops its own line only: read by one reader, its
        # cell would run on to the end of the file
        for cell in ("oops", '"n/a'):
            f = tmp_path / "messy.csv"
            write_lines(f, ["return", "0.1", cell, "-0.2", "0.3"])
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="lave.cli"):
                r = ingest_csv(f)
            np.testing.assert_array_equal(r.values, [0.1, -0.2, 0.3])
            assert "dropped 1" in caplog.text

    def test_dropped_rows_warning_reaches_stderr(self, tmp_path):
        # a fresh interpreter: pytest's log capture would hide the
        # last-resort handler that prints the warning for a CLI user
        f = tmp_path / "messy.csv"
        write_lines(f, ["return", "0.1", "oops", "-0.2", "0.3", "0.05", "-0.4"])
        src = str(Path(lave.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["stats", "--input", str(f), "--out-dir", str(tmp_path), "--deterministic"]
        proc = subprocess.run(
            [sys.executable, "-m", "lave.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dropped 1" in proc.stderr

    def test_headerless_numbers_default_to_returns(self, tmp_path):
        f = tmp_path / "bare.csv"
        write_lines(f, ["0.5", "-0.5", "0.25"])
        np.testing.assert_array_equal(ingest_csv(f).values, [0.5, -0.5, 0.25])

    def test_comment_directive_selects_prices(self, tmp_path):
        f = tmp_path / "bare_prices.csv"
        write_lines(f, ["# prices", "1.0", repr(math.e)])
        r = ingest_csv(f)
        assert len(r) == 1
        assert r.values[0] == pytest.approx(1.0, rel=1e-15)

    def test_explicit_kind_overrides_header(self, tmp_path):
        f = tmp_path / "labeled.csv"
        write_lines(f, ["price", "1.0", "2.0", "4.0"])
        r = ingest_csv(f, kind="returns")
        np.testing.assert_array_equal(r.values, [1.0, 2.0, 4.0])

    def test_error_cases(self, tmp_path):
        with pytest.raises(InputDataError):
            ingest_csv(tmp_path / "missing.csv")
        no_col = tmp_path / "no_col.csv"
        write_lines(no_col, ["date,volume", "2020-01-01,5"])
        with pytest.raises(InputDataError):
            ingest_csv(no_col)
        short = tmp_path / "short.csv"
        write_lines(short, ["return", "0.1"])
        with pytest.raises(InputDataError):
            ingest_csv(short)
        empty = tmp_path / "empty.csv"
        write_lines(empty, ["# just a comment"])
        with pytest.raises(InputDataError):
            ingest_csv(empty)

    @pytest.mark.parametrize("lines", [["return", "0.1", "-0.2", "0.3"], ["0.1", "-0.2", "0.3"]])
    def test_byte_order_mark_is_skipped(self, tmp_path, lines):
        # spreadsheet exports often start with one
        f = tmp_path / "bom.csv"
        write_lines(f, ["\ufeff" + lines[0]] + lines[1:])
        np.testing.assert_array_equal(ingest_csv(f).values, [0.1, -0.2, 0.3])


    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        # a Latin-1 export: the comment's e-acute is the single byte 0xe9
        f = tmp_path / "latin1.csv"
        f.write_bytes("# café\nreturn\n0.1\n-0.2\n0.3\n-0.1\n0.2\n".encode("latin-1"))
        with pytest.raises(InputDataError, match="latin1.csv.*not UTF-8"):
            ingest_csv(f)
        assert main(["stats", "--input", str(f), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "kind=input" in err and "latin1.csv" in err and "UTF-8" in err

    def test_non_utf8_offset_counts_the_byte_order_mark(self, tmp_path):
        # 3 bytes of mark, then 11 of text: the bad byte is at offset 14
        f = tmp_path / "bom_latin1.csv"
        f.write_bytes(b"\xef\xbb\xbfreturn\n0.1\n\xe9\n")
        with pytest.raises(InputDataError, match=r"byte 0xe9 at offset 14\)"):
            ingest_csv(f)

    @pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
    def test_oversized_cell_is_an_input_error(self, tmp_path, capsys, quote):
        # over the csv module's default field size limit of 131072 characters,
        # as a binary or single-line file passed by mistake can be. A file
        # with a quote is read line by line, one without by one reader; the
        # error names the file's line, which counts the comment and the blank
        f = tmp_path / "huge.csv"
        cell = quote + "1" * 140_000 + quote
        write_lines(f, ["# exported by hand", "", "return", "0.1", "-0.2", cell, "0.3"])
        with pytest.raises(InputDataError, match="huge.csv line 6.*field larger than field limit"):
            ingest_csv(f)
        assert main(["stats", "--input", str(f), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "kind=input" in err and "huge.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_cells_are_dropped_like_non_numeric_ones(self, tmp_path, caplog, cell):
        loaded = {}
        for name in (cell, "abc"):
            f = tmp_path / "returns.csv"
            write_lines(f, ["return", "0.1", name, "-0.2", "0.3", "-0.1"])
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lave.cli"):
                loaded[name] = ingest_csv(f).values
            assert "dropped 1 non-numeric rows" in caplog.text
        np.testing.assert_array_equal(loaded[cell], loaded["abc"])
        np.testing.assert_array_equal(loaded[cell], [0.1, -0.2, 0.3, -0.1])


class TestConfigParsing:
    def test_round_trip_through_argv(self, tmp_path):
        cfg = RunConfig(
            command="simulate",
            gamma=1.0,
            m0=5,
            lam="2.5",
            t0=12,
            max_len=200,
            seed=9,
            out_dir=str(tmp_path),
            deterministic=True,
            input_path="data.csv",
            input_kind="returns",
            design="two-jump-5x",
            gamma_grid="0.5,1.0",
            lambdas="0.5:40:2.4",
            replications=77,
            t_start=25,
            m_ref=40,
            alpha=0.1,
            garch_window=100,
            p=1.0,
            max_lag=30,
            standardize=True,
            curves_for="1.0,40",
        )
        assert parse_config(cfg.to_argv()) == cfg

    def test_defaults(self):
        cfg = parse_config(["estimate"])
        assert cfg.command == "estimate"
        assert cfg.gamma == 0.5 and cfg.m0 == 10 and cfg.lam == "auto:80"
        assert cfg.garch_window == 350 and cfg.p == 0.5 and cfg.max_lag == 50

    def test_flag_aliases(self):
        assert parse_config(["estimate", "--lambda", "2.5"]).lam == "2.5"
        assert parse_config(["calibrate", "--reps", "100"]).replications == 100
        assert parse_config(["backtest", "--window", "60"]).garch_window == 60
        assert parse_config(["stats", "--out", "elsewhere"]).out_dir == "elsewhere"
        assert parse_config(["backtest", "--p", "1.0"]).p == 1.0

    def test_flags_may_precede_the_command(self):
        before = parse_config(["--gamma", "1", "--deterministic", "estimate"])
        assert before == parse_config(["estimate", "--gamma", "1", "--deterministic"])

    def test_auto_m_shorthand(self):
        assert parse_config(["estimate", "--auto-M", "40"]).lam == "auto:40"

    def test_lam_and_auto_m_last_flag_wins(self):
        assert parse_config(["estimate", "--auto-M", "40", "--lam", "table:80"]).lam == "table:80"
        assert parse_config(["estimate", "--lam", "table:80", "--auto-M", "40"]).lam == "auto:40"

    def test_auto_m_needs_an_integer(self, capsys):
        assert main(["estimate", "--auto-M", "x"]) == 2
        assert "argument --auto-M: invalid int value: 'x'" in capsys.readouterr().err

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("LAVE_SEED", "7")
        assert parse_config(["stats"]).seed == 7
        assert parse_config(["stats", "--seed", "3"]).seed == 3

    def test_seed_header_reproduces_under_any_env(self, monkeypatch):
        # the header always carries the seed, so $LAVE_SEED cannot stand in
        # for one that equals 0
        monkeypatch.setenv("LAVE_SEED", "7")
        cfg = parse_config(["stats", "--seed", "0"])
        assert cfg.seed == 0
        assert parse_config(cfg.to_argv()) == cfg

    @pytest.mark.parametrize(
        "command", ["constants", "calibrate", "estimate", "simulate", "backtest", "stats", "acf"]
    )
    def test_every_default_comes_from_runconfig(self, command):
        assert parse_config([command]) == RunConfig(command=command)

    def test_every_field_is_set_by_each_of_its_flags(self, capsys):
        values = dict(
            gamma=1.0, m0=5, lam="2.5", t0=12, max_len=200, seed=9, out_dir="elsewhere",
            deterministic=True, input_path="data.csv", input_kind="returns",
            design="two-jump-5x", gamma_grid="0.5,1.0", lambdas="0.5:40:2.4",
            replications=77, t_start=25, m_ref=40, alpha=0.1, garch_window=100, p=1.0,
            max_lag=30, standardize=True, curves_for="1.0,40",
        )
        assert [f.name for f in fields(RunConfig)] == ["command", *values]
        names = set()
        for f in fields(RunConfig)[1:]:
            value = values[f.name]
            for name in cli_mod._names(f):
                argv = ["estimate", name] + ([] if value is True else [str(value)])
                assert parse_config(argv) == RunConfig("estimate", **{f.name: value}), name
                names.add(name)
        assert main(["--help"]) == 0
        listed = set()
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                invocation = line.strip().split("  ")[0]
                listed.update(part.split(" ")[0] for part in invocation.split(", "))
        # --auto-M, which stores --lam auto:M, is the one flag of no field
        assert listed == names | {"-h", "--help", "--auto-M"}

    def test_design_presets_and_syntax(self):
        spec = _parse_design("two-jump-3x", seed=4)
        assert spec.segments == ((80, 1.0), (80, 3.0), (80, 1.0))
        assert spec.seed == 4
        custom = _parse_design("30x1,30x2.5", seed=0)
        assert custom.segments == ((30, 1.0), (30, 2.5))
        with pytest.raises(ValueError):
            _parse_design("not-a-design", seed=0)

    def test_lambda_table_matches_shipped_defaults(self):
        assert DEFAULT_LAMBDA_TABLE[(0.5, 80)] == 2.74
        assert DEFAULT_LAMBDA_TABLE[(0.5, 40)] == 2.40
        assert len(DEFAULT_LAMBDA_TABLE) == 6


class TestCommands:
    def test_constants_table(self, tmp_path, capsys):
        cfg = RunConfig(command="constants", out_dir=str(tmp_path), deterministic=True)
        assert dispatch(cfg) == 0
        assert "constants.csv" in capsys.readouterr().out
        header, rows = read_output(tmp_path / "constants.csv")
        assert header == ["gamma", "c", "d_squared", "s", "a"]
        assert [row[0] for row in rows] == ["0.5", "1.0", "2.0"]
        p05 = power_constants(0.5)
        assert float(rows[0][1]) == pytest.approx(p05.c_gamma, abs=1e-9)
        assert float(rows[0][2]) == pytest.approx(p05.d_gamma**2, abs=1e-9)
        assert float(rows[0][3]) == pytest.approx(p05.s_gamma, abs=1e-9)
        assert float(rows[0][4]) == pytest.approx(p05.a_gamma, abs=1e-9)
        # no tail constant is defined at gamma = 2
        assert rows[2][4] == ""
        assert float(rows[2][2]) == pytest.approx(2.0, abs=1e-9)

    def test_calibrate_reproduces_shipped_threshold(self, tmp_path):
        cfg = RunConfig(
            command="calibrate", m_ref=40, out_dir=str(tmp_path), deterministic=True
        )
        assert dispatch(cfg) == 0
        header, rows = read_output(tmp_path / "calibrate.csv")
        assert header[:5] == ["gamma", "M", "m0", "alpha", "lam"]
        (row,) = rows
        lam = float(row[4])
        assert lam == pytest.approx(2.390625, abs=1e-9)
        assert abs(lam - DEFAULT_LAMBDA_TABLE[(0.5, 40)]) <= 0.15
        assert float(row[5]) == pytest.approx(0.0485, abs=1e-12)
        assert row[6] == "2000"
        assert float(row[7]) == pytest.approx(
            1.96 * math.sqrt(0.05 * 0.95 / 2000), rel=1e-9
        )

    def test_estimate_on_homogeneous_series(self, tmp_path):
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(1).standard_normal(150))
        cfg = RunConfig(
            command="estimate", lam="2.74", input_path=str(f),
            out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 0
        header, rows = read_output(tmp_path / "estimate.csv")
        assert header == ["t", "sigma_hat", "interval_len"]
        assert len(rows) == 131
        assert [int(r[0]) for r in rows][:3] == [20, 21, 22]
        lens = np.array([int(r[2]) for r in rows])
        # windows keep growing when the data stay homogeneous
        assert np.median(lens[65:]) > np.median(lens[:65])
        assert all(float(r[1]) > 0 for r in rows)

    def test_simulate_writes_errors_and_curves(self, tmp_path):
        cfg = RunConfig(
            command="simulate", design="two-jump-3x", replications=50,
            gamma_grid="0.5", lambdas="0.5:40:2.40;0.5:80:2.74",
            out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 0
        header, rows = read_output(tmp_path / "errors.csv")
        assert header == ["gamma", "lambda", "M_label", "error"]
        assert [(r[0], r[2]) for r in rows] == [("0.5", "40"), ("0.5", "80")]
        assert all(float(r[3]) > 0 for r in rows)
        c_header, c_rows = read_output(tmp_path / "curves.csv")
        assert c_header == [
            "t", "sigma_true", "sigma_hat_median", "q25", "q75",
            "len_median", "len_q25", "len_q75",
        ]
        assert len(c_rows) == 221
        assert {r[1] for r in c_rows} == {"1.0", "3.0"}

    def test_simulate_names_a_substituted_curve(self, tmp_path, caplog):
        cfg = RunConfig(
            command="simulate", design="two-jump-3x", replications=10,
            gamma_grid="0.5", lambdas="0.5:40:2.40", curves_for="1.0,80",
            out_dir=str(tmp_path), deterministic=True,
        )
        with caplog.at_level(logging.WARNING, logger="lave.cli"):
            assert dispatch(cfg) == 0
        assert "--curves-for gamma=1.0, M=80 was not computed; writing gamma=0.5, M=40" in caplog.text

    def test_simulate_names_gammas_an_explicit_table_drops(self, tmp_path, caplog):
        common = dict(
            command="simulate", design="two-jump-3x", replications=5,
            lambdas="0.5:80:2.7", deterministic=True,
        )
        only = RunConfig(gamma_grid="0.5", out_dir=str(tmp_path / "only"), **common)
        assert dispatch(only) == 0
        grid = RunConfig(gamma_grid="0.5,1.0,2.0", out_dir=str(tmp_path / "grid"), **common)
        with caplog.at_level(logging.WARNING, logger="lave.cli"):
            assert dispatch(grid) == 0
        assert "--lambdas has no entry for gamma=1.0,2.0 of --gamma-grid" in caplog.text
        for name in ("errors.csv", "curves.csv"):
            assert read_output(tmp_path / "grid" / name) == read_output(tmp_path / "only" / name)

    def test_simulate_names_entries_off_the_gamma_grid(self, tmp_path, caplog):
        common = dict(
            command="simulate", design="two-jump-3x", replications=5, gamma_grid="0.5",
            deterministic=True,
        )
        on = RunConfig(lambdas="0.5:80:2.7", out_dir=str(tmp_path / "on"), **common)
        assert dispatch(on) == 0
        off = RunConfig(
            lambdas="0.5:80:2.7;1.0:80:3.0;2.0:40:2.4", out_dir=str(tmp_path / "off"), **common
        )
        with caplog.at_level(logging.WARNING, logger="lave.cli"):
            assert dispatch(off) == 0
        assert "--lambdas entries for gamma=1.0,2.0 are off --gamma-grid" in caplog.text
        for name in ("errors.csv", "curves.csv"):
            assert read_output(tmp_path / "off" / name) == read_output(tmp_path / "on" / name)

    def test_simulate_names_a_substituted_curve_before_the_study(
        self, tmp_path, caplog, monkeypatch
    ):
        logged = []
        study = cli_mod.run_change_point_experiment

        def recording_study(*args, **kwargs):
            logged.append(caplog.text)
            return study(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_change_point_experiment", recording_study)
        cfg = RunConfig(
            command="simulate", design="two-jump-3x", replications=5,
            lambdas="2.0:80:3.18;0.5:40:2.4", curves_for="1.0,80",
            out_dir=str(tmp_path), deterministic=True,
        )
        with caplog.at_level(logging.WARNING, logger="lave.cli"):
            assert dispatch(cfg) == 0
        assert len(logged) == 1
        assert "--curves-for gamma=1.0, M=80 was not computed; writing gamma=0.5, M=40" in logged[0]

    @pytest.mark.parametrize(
        "flags",
        [{}, {"curves_for": "2.0,40"}, {"lambdas": "0.5:40:2.4;2.0:80:3.18", "curves_for": "1.0,80"}],
        ids=["default", "2.0,40", "fallback"],
    )
    def test_simulate_curves_equal_those_of_a_study_with_every_curve(
        self, tmp_path, monkeypatch, flags
    ):
        common = dict(command="simulate", design="two-jump-3x", replications=20,
                      deterministic=True, **flags)
        assert dispatch(RunConfig(out_dir=str(tmp_path / "one"), **common)) == 0
        study = cli_mod.run_change_point_experiment

        def every_curve(*args, curves_for, **kwargs):
            return study(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_change_point_experiment", every_curve)
        assert dispatch(RunConfig(out_dir=str(tmp_path / "all"), **common)) == 0
        for name in ("errors.csv", "curves.csv"):
            one, every = (
                [ln for ln in (tmp_path / side / name).read_bytes().splitlines(True)
                 if not ln.startswith(b"#")]
                for side in ("one", "all")
            )
            assert one == every, name

    def test_backtest_outputs(self, tmp_path):
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(2).standard_normal(160))
        cfg = RunConfig(
            command="backtest", lam="2.74", input_path=str(f), garch_window=50,
            out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 0
        header, rows = read_output(tmp_path / "comparison.csv")
        assert header == [
            "label", "gamma", "M_label", "ratio", "lave_score", "garch_score", "t0", "p",
        ]
        (row,) = rows
        assert row[0] == "returns.csv"
        assert float(row[3]) == pytest.approx(float(row[4]) / float(row[5]), rel=1e-9)
        assert float(row[3]) > 0
        assert row[6] == "50" and row[7] == "0.5"
        f_header, f_rows = read_output(tmp_path / "forecasts.csv")
        assert f_header == ["t", "lave_sigma_sq", "garch_sigma_sq", "r_sq_next"]
        assert len(f_rows) == 110
        assert [int(r[0]) for r in f_rows][0] == 50

    def test_stats_row(self, tmp_path):
        f = tmp_path / "returns.csv"
        values = np.random.default_rng(3).standard_normal(500)
        write_returns(f, values)
        cfg = RunConfig(command="stats", input_path=str(f), out_dir=str(tmp_path), deterministic=True)
        assert dispatch(cfg) == 0
        header, rows = read_output(tmp_path / "stats.csv")
        assert header == ["label", "n", "mean", "variance", "skewness", "kurtosis"]
        (row,) = rows
        assert row[0] == "returns.csv" and row[1] == "500"
        assert float(row[3]) == pytest.approx(float(np.var(values)), rel=1e-9)

    def test_acf_with_standardization(self, tmp_path):
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(4).standard_normal(160))
        cfg = RunConfig(
            command="acf", lam="2.74", input_path=str(f), max_lag=20,
            standardize=True, out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 0
        for name in ("acf.csv", "acf_standardized.csv"):
            header, rows = read_output(tmp_path / name)
            assert header == ["lag", "value"]
            assert len(rows) == 21
            assert float(rows[0][1]) == 1.0


class TestThresholdSources:
    """--lam table:M|auto:M and --lambdas table|auto resolve through one path."""

    def test_missing_table_entry_fails_alike(self, tmp_path, capsys):
        common = ["--design", "two-jump-3x", "--out-dir", str(tmp_path), "--deterministic"]
        assert main(["estimate", "--gamma", "1.5", "--lam", "table:40", *common]) == 4
        from_estimate = capsys.readouterr().err
        argv = ["simulate", "--gamma-grid", "1.5", "--lambdas", "table", "--reps", "5", *common]
        assert main(argv) == 4
        assert "no shipped threshold for gamma=1.5, M=40" in from_estimate
        assert capsys.readouterr().err == from_estimate

    def test_auto_cell_equals_calibrate(self, tmp_path):
        sim = RunConfig(
            command="simulate", design="two-jump-3x", replications=10, gamma_grid="1.0",
            lambdas="auto", curves_for="1.0,80", seed=3,
            out_dir=str(tmp_path / "sim"), deterministic=True,
        )
        assert dispatch(sim) == 0
        _, rows = read_output(tmp_path / "sim" / "errors.csv")
        cells = {int(r[2]): r[1] for r in rows}
        assert sorted(cells) == [40, 80]
        for m, lam in cells.items():
            cal = RunConfig(
                command="calibrate", gamma=1.0, m_ref=m, seed=3,
                out_dir=str(tmp_path / f"cal{m}"), deterministic=True,
            )
            assert dispatch(cal) == 0
            _, (row,) = read_output(tmp_path / f"cal{m}" / "calibrate.csv")
            assert row[4] == lam


class TestExitCodes:
    def test_usage_errors_exit_two(self):
        assert main(["bogus"]) == 2
        assert main([]) == 2

    def test_help_exits_zero_and_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name, (_, short) in cli_mod._COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(short)}$", out, re.M), name
        assert main(["estimate", "--help"]) == 0
        assert "--gamma" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["calibrate"], ["simulate", "--design", "two-jump-3x"]], ids=lambda a: a[0]
    )
    def test_zero_replications_exit_four(self, tmp_path, capsys, argv):
        # 0 is a count, not a request for the command's default count
        assert main([*argv, "--replications", "0", "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "lave-error code=4 kind=domain" in err and "replications must be positive" in err
        assert not any(tmp_path.iterdir())

    def test_missing_input_exits_three(self, tmp_path, capsys):
        cfg = RunConfig(command="estimate", lam="2.74", out_dir=str(tmp_path))
        assert dispatch(cfg) == 3
        assert "lave-error code=3 kind=input" in capsys.readouterr().err

    def test_domain_errors_exit_four(self, tmp_path, capsys):
        code = main(["constants", "--gamma-grid", "-1", "--out-dir", str(tmp_path)])
        assert code == 4
        assert "lave-error code=4 kind=domain" in capsys.readouterr().err

    @pytest.mark.parametrize("curves_for", ["0.5", "0.5,eighty"])
    def test_malformed_curves_for_exits_four_before_the_study(self, tmp_path, capsys, curves_for):
        argv = ["simulate", "--design", "two-jump-3x", "--reps", "5", "--curves-for", curves_for,
                "--out-dir", str(tmp_path), "--deterministic"]
        assert main(argv) == 4
        assert "--curves-for" in capsys.readouterr().err
        assert not (tmp_path / "errors.csv").exists()

    def test_table_with_no_grid_gamma_exits_four_before_the_study(self, tmp_path, capsys):
        argv = ["simulate", "--design", "two-jump-3x", "--reps", "5", "--gamma-grid", "0.5",
                "--lambdas", "1.0:80:3.0;2.0:40:2.4", "--out-dir", str(tmp_path), "--deterministic"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "lave-error code=4" in err and "--lambdas" in err and "--gamma-grid" in err
        assert not any(tmp_path.iterdir())

    def test_malformed_lambdas_exits_four_before_the_study(self, tmp_path, capsys):
        argv = ["simulate", "--design", "two-jump-3x", "--reps", "5", "--lambdas", "0.5:80",
                "--out-dir", str(tmp_path), "--deterministic"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "--lambdas '0.5:80' is not" in err and "GAMMA:M:VALUE" in err
        assert not (tmp_path / "errors.csv").exists()

    def test_malformed_lam_exits_four(self, tmp_path, capsys):
        argv = ["estimate", "--design", "two-jump-3x", "--lam", "auto",
                "--out-dir", str(tmp_path), "--deterministic"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "--lam 'auto' is not a number, table:M or auto:M" in err
        assert not (tmp_path / "estimate.csv").exists()

    def test_unbracketed_calibration_exits_five(self, tmp_path, capsys):
        cfg = RunConfig(
            command="calibrate", m_ref=20, alpha=0.9, replications=300,
            out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 5
        assert "lave-error code=5 kind=convergence" in capsys.readouterr().err


class TestReproducibility:
    def test_deterministic_runs_are_byte_identical(self, tmp_path):
        argv = ["constants", "--out-dir", str(tmp_path), "--deterministic"]
        assert main(argv) == 0
        first = (tmp_path / "constants.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "constants.csv").read_bytes() == first

    def test_output_header_reproduces_config(self, tmp_path):
        cfg = RunConfig(
            command="simulate", design="two-jump-3x", replications=20,
            gamma_grid="0.5", lambdas="0.5:80:2.74",
            out_dir=str(tmp_path), deterministic=True,
        )
        assert dispatch(cfg) == 0
        first = (tmp_path / "errors.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# config: ")
        echoed = first[len("# config: "):].split()
        assert parse_config(echoed) == cfg

    def test_quoted_header_reproduces_values_with_spaces(self, tmp_path):
        cfg = RunConfig(
            command="estimate", design="two-jump-3x", lam="table:80",
            gamma_grid="0.5, 1.0", out_dir=str(tmp_path / "sp ace"), deterministic=True,
        )
        assert dispatch(cfg) == 0
        first = (tmp_path / "sp ace" / "estimate.csv").read_text(encoding="utf-8").splitlines()[0]
        assert parse_config(shlex.split(first[len("# config: "):])) == cfg


class TestWriteCsv:
    def test_every_cell_goes_through_the_number_format(self, tmp_path):
        cfg = RunConfig(command="stats", out_dir=str(tmp_path), deterministic=True)
        row = [np.float64(1 / 3), 1 / 3, np.int64(7), float("nan"), "a label"]
        path = cli_mod._write_csv(cfg, "cells.csv", ["a", "b", "c", "d", "e"], zip(row))
        _, rows = read_output(path)
        assert rows == [["0.333333333333", "0.333333333333", "7", "nan", "a label"]]

    def test_array_columns_format_as_their_cells_do(self, tmp_path):
        # a whole array column is formatted at once, as each of its cells alone
        cfg = RunConfig(command="stats", out_dir=str(tmp_path), deterministic=True)
        floats = np.array([1 / 3, float("nan"), 2.0, -1e-13, 123456.7890123456789])
        ints = np.arange(5, dtype=np.int64)
        cells = [list(floats), list(ints), floats.tolist()]
        path = cli_mod._write_csv(cfg, "arrays.csv", ["f", "i", "p"], [floats, ints, cells[2]])
        by_cell = cli_mod._write_csv(cfg, "cells.csv", ["f", "i", "p"], cells)
        _, rows = read_output(path)
        assert rows == read_output(by_cell)[1]
        assert rows[0] == ["0.333333333333", "0", "0.333333333333"]
        assert [row[0] for row in rows[1:]] == ["nan", "2.0", "-0.0", "123456.78901234567"]
        # a column within [1e-3, 100) is formatted by '%.12f' at once, which
        # gives each cell's own string, at ties in the 12th decimal too
        rng = np.random.default_rng(0)
        ties = (rng.integers(10**9, 10**14, 500) + 0.5) / 1e12
        spread = 10 ** rng.uniform(-3, 2, 500) * rng.choice([-1, 1], 500)
        edges = [1e-3, 2.0, -10.0, 99.99999999999996]
        inside = np.concatenate([ties, np.nextafter(ties, 0), -ties, spread, edges])
        cells = cli_mod._format_column(inside)
        assert cells == [repr(round(x, 12)) for x in inside.tolist()]
        assert cells[-4:] == ["0.001", "2.0", "-10.0", "100.0"]
        outside = np.array([5e-5, 123456.7890123456789, 2.0])
        assert cli_mod._format_column(outside) == ["5e-05", "123456.78901234567", "2.0"]



class TestStartup:
    """Fresh interpreters: scipy would be most of a command's start-up, and
    lave runs on numpy alone. The GARCH code has its own simplex, scan and
    logit, and lave.transform its own lgam and golden-section search."""

    COMMANDS = (
        ["estimate", "--design", "two-jump-3x", "--lam", "table:80"],
        ["simulate", "--design", "two-jump-3x", "--replications", "20"],
        ["calibrate", "--replications", "200"],
        ["stats", "--design", "two-jump-3x"],
        ["acf", "--design", "two-jump-3x", "--standardize", "--lam", "table:80"],
        ["backtest", "--design", "two-jump-3x", "--lam", "table:80", "--garch-window", "100"],
        ["constants"],
    )

    def _run(self, code):
        src = str(Path(lave.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_import_and_runs_load_no_scipy(self, tmp_path):
        # nor numpy.ma, which np.percentile loads through np.unique: about
        # 15 ms of every command's start-up
        code = f"""
import sys, lave.cli
def unwanted_loaded():
    return "numpy.ma" in sys.modules or any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
loaded = ["import"] if unwanted_loaded() else []
for argv in {self.COMMANDS!r}:
    assert lave.cli.main([*argv, "--out-dir", {str(tmp_path)!r}, "--deterministic"]) == 0
    loaded += [argv[0]] if unwanted_loaded() else []
from lave.transform import power_constants
print(loaded, repr(power_constants(0.5).a_gamma))
"""
        assert self._run(code)[-1] == "[] 1.0045849424076858"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        assert sorted(argv[0] for argv in self.COMMANDS) == sorted(cli_mod._COMMANDS)
        # a meta-path finder first in line makes every scipy import fail
        code = f"""
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was not blocked")
import lave.cli
for argv in {self.COMMANDS!r}:
    assert lave.cli.main([*argv, "--out-dir", {str(tmp_path)!r}, "--deterministic"]) == 0, argv
from lave.transform import power_constants
print(repr(power_constants(0.5).a_gamma))
"""
        assert self._run(code)[-1] == "1.0045849424076858"

    @pytest.mark.skipif(
        sys.version_info >= (3, 13),
        reason="from 3.13 dataclasses execs one builder per class, even one that makes no method",
    )
    def test_import_compiles_no_generated_source(self):
        # dataclasses writes and execs the source of each method it makes,
        # so lave's 23 records take their methods from lave._record instead.
        # Each compiled source that is not a file is charged to the module
        # whose body was running: the stdlib and numpy build namedtuples (an
        # eval each) when imported.
        code = """
import os, sys, numpy
generated = set()
def hook(event, args):
    if event == "compile" and not os.path.isfile(args[1]):
        frame = sys._getframe(1)
        while frame.f_code.co_name != "<module>":
            frame = frame.f_back
        generated.add(frame.f_globals["__name__"])
sys.addaudithook(hook)
import lave.cli
print(sorted(m for m in generated if m.split(".")[0] == "lave"))
"""
        assert self._run(code)[-1] == "[]"

    def test_input_runs_load_no_module_after_import(self, tmp_path):
        # a command pays no import of its own; reading an input file with
        # the utf-8-sig codec was one
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(3).standard_normal(160))
        code = f"""
import sys, lave.cli
for argv in (["estimate", "--lam", "table:80"], ["backtest", "--lam", "table:80", "--garch-window", "100"]):
    loaded = set(sys.modules)
    assert lave.cli.main([*argv, "--input", {str(f)!r}, "--out-dir", {str(tmp_path)!r}]) == 0
    print("loaded by", argv[0], sorted(set(sys.modules) - loaded))
"""
        lines = [line for line in self._run(code) if line.startswith("loaded by")]
        assert lines == ["loaded by estimate []", "loaded by backtest []"]


class TestLogging:
    def test_backtest_warns_once_with_the_fallback_count(self, tmp_path, caplog, monkeypatch):
        real_fit = garch_mod._fit
        calls = {"n": 0}

        def flaky(window, init):
            calls["n"] += 1
            if calls["n"] in (3, 4, 9):
                raise GarchConvergenceError("budget", best_params=None, best_loglik=0.0)
            return real_fit(window, init)

        monkeypatch.setattr(garch_mod, "_fit", flaky)
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(2).standard_normal(80))
        argv = ["backtest", "--input", str(f), "--garch-window", "60", "--lam", "2.74",
                "--out-dir", str(tmp_path), "--deterministic"]
        with caplog.at_level(logging.WARNING, logger="lave"):
            assert main(argv) == 0
        warnings = [rec for rec in caplog.records if "GARCH refits" in rec.getMessage()]
        assert [(rec.name, rec.levelno) for rec in warnings] == [("lave.cli", logging.WARNING)]
        assert warnings[0].getMessage().startswith("3 GARCH refits did not converge")
        header, rows = read_output(tmp_path / "comparison.csv")
        assert header == [
            "label", "gamma", "M_label", "ratio", "lave_score", "garch_score", "t0", "p",
        ]
        assert len(rows) == 1

    def test_backtest_is_quiet_without_fallbacks(self, tmp_path, caplog):
        f = tmp_path / "returns.csv"
        write_returns(f, np.random.default_rng(2).standard_normal(80))
        argv = ["backtest", "--input", str(f), "--garch-window", "60", "--lam", "2.74",
                "--out-dir", str(tmp_path), "--deterministic"]
        with caplog.at_level(logging.WARNING, logger="lave"):
            assert main(argv) == 0
        assert caplog.records == []
