import ast
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finpipe
import reference_io as ref
from finpipe import (
    EquityCurve,
    OptionQuote,
    Panel,
    PositionSeries,
    bs_price,
    equity_curve,
    greeks,
    historical_vol,
    implied_vol,
    load_csv,
)
from finpipe import cli, forecast, frame, metrics, table
from finpipe.cli import COMMANDS, OPTIONS, derive_seed, main
from finpipe.errors import MetricError
from finpipe.forecast import read_metadata
from ranges import assert_no_worker_left, in_ranges
from synth import ohlcv_panel, write_raw_csv


def _read_metric_csv(path):
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "metric,value":
            continue
        name, value = line.split(",", 1)
        rows[name] = value
    return rows


@pytest.fixture
def raw_csv(tmp_path):
    panel = ohlcv_panel(600, seed=101, assets=("X",))
    path = tmp_path / "raw.csv"
    write_raw_csv(path, panel)
    return path


def run_m2s_pipeline(base_dir, raw_path, seed="7"):
    """Full preprocess -> split -> forecast -> evaluate -> backtest -> report run."""
    base_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "transformed": base_dir / "transformed.csv",
        "anchors": base_dir / "anchors.csv",
        "splits": base_dir / "splits",
        "forecasts": base_dir / "forecasts.csv",
        "metrics": base_dir / "metrics.csv",
        "curve": base_dir / "curve.csv",
        "report": base_dir / "report.csv",
    }
    steps = [
        ["preprocess", "--input", str(raw_path), "--output", str(paths["transformed"]),
         "--anchors", str(paths["anchors"])],
        ["split", "--input", str(raw_path), "--output-dir", str(paths["splits"])],
        ["naive-forecast", "--input", str(paths["transformed"]),
         "--output", str(paths["forecasts"]), "--input-len", "512", "--horizon", "5",
         "--target-vars", "close_X", "--task", "m2s", "--seed", seed],
        ["evaluate", "--truth", str(paths["transformed"]),
         "--forecasts", str(paths["forecasts"]), "--output", str(paths["metrics"])],
        ["backtest", "--forecasts", str(paths["forecasts"]),
         "--panel", str(paths["transformed"]), "--anchors", str(paths["anchors"]),
         "--output", str(paths["curve"]), "--strategy", "timing",
         "--target-var", "close_X", "--window", "21", "--rebalance", "5"],
        ["report", "--input", str(paths["curve"]), "--output", str(paths["report"])],
    ]
    for step in steps:
        rc = main(step)
        assert rc == 0, f"step {step[0]} failed"
    return paths


def _small_run(tmp_path):
    """A preprocessed 80-row panel and its m2s naive forecast of close_X (L=20, H=5)."""
    raw, t, a, fc = (tmp_path / name for name in ("raw.csv", "t.csv", "a.csv", "fc.csv"))
    tmp_path.mkdir(exist_ok=True)
    write_raw_csv(raw, ohlcv_panel(80, seed=31, assets=("X",)))
    assert main(["preprocess", "--input", str(raw), "--output", str(t),
                 "--anchors", str(a)]) == 0
    assert main(["naive-forecast", "--input", str(t), "--output", str(fc),
                 "--input-len", "20", "--horizon", "5", "--task", "m2s",
                 "--target-vars", "close_X"]) == 0
    return {"raw": raw, "transformed": t, "anchors": a, "forecasts": fc}


def _write_curve(path):
    """A 30-row timing curve with random returns; returns its lines."""
    rets = np.random.default_rng(11).uniform(-0.02, 0.03, 30)
    net = np.cumprod(1.0 + rets)
    lines = ["timestamp,net_value,period_return,position"]
    lines.extend(f"{i},{n!r},{r!r},1.0"
                 for i, (n, r) in enumerate(zip(net.tolist(), rets.tolist())))
    path.write_text("\n".join(lines) + "\n")
    return lines


class TestPipeline:
    def test_end_to_end_m2s(self, tmp_path, raw_csv):
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        for name in ("transformed", "anchors", "forecasts", "metrics", "curve", "report"):
            assert paths[name].exists(), name
        for split in ("train", "val", "test"):
            assert (paths["splits"] / f"{split}.csv").exists()
        metrics = _read_metric_csv(paths["metrics"])
        assert set(metrics) == {"mse", "mae", "msic", "msir"}
        assert float(metrics["mse"]) > 0.0
        report = _read_metric_csv(paths["report"])
        assert len(report) == 9
        assert "annual_return" in report

    def test_split_sizes(self, tmp_path, raw_csv):
        out = tmp_path / "splits"
        assert main(["split", "--input", str(raw_csv), "--output-dir", str(out)]) == 0
        sizes = [load_csv(out / f"{n}.csv").n_rows for n in ("train", "val", "test")]
        assert sizes == [420, 60, 120]

    def test_outputs_carry_provenance(self, tmp_path, raw_csv):
        # The hashes are pinned: a change to option names, defaults or the
        # set of hashed options shows up here.
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        expected = {
            "transformed": "ce5dca17db56cde9", "anchors": "ce5dca17db56cde9",
            "forecasts": "d71607d85d82fa01", "metrics": "b3962aaf53f649e7",
            "curve": "6723898302d2b503", "report": "5d7ac917f24bc12e",
        }
        files = {name: paths[name] for name in expected}
        files.update((part, paths["splits"] / f"{part}.csv") for part in ("train", "val", "test"))
        for name, path in files.items():
            head = path.read_text().splitlines()[:3]
            assert head[0] == f"#config_hash={expected.get(name, 'ff6d5e2fdc2b374b')}", name
            assert head[1].startswith("#seed=")
            assert head[2].startswith("#version=")

    def test_transformed_panel_round_trips(self, tmp_path, raw_csv):
        run_m2s_pipeline(tmp_path / "run", raw_csv)
        transformed = load_csv(tmp_path / "run" / "transformed.csv")
        assert transformed.column("close_X")[0] == 100.0

    def test_blank_lines_in_forecast_header_are_skipped(self, tmp_path, raw_csv):
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        text = paths["forecasts"].read_text()
        assert "\n#L=" in text
        variants = {"leading": "\n" + text, "inner": text.replace("\n#L=", "\n\n#L=", 1)}
        for name, body in variants.items():
            forecasts, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_metrics.csv"
            forecasts.write_text(body)
            rc = main(["evaluate", "--truth", str(paths["transformed"]),
                       "--forecasts", str(forecasts), "--output", str(out)])
            assert rc == 0, name
            assert out.read_text() == paths["metrics"].read_text(), name

    def test_seed_changes_forecasts(self, tmp_path, raw_csv):
        a = run_m2s_pipeline(tmp_path / "a", raw_csv, seed="7")
        b = run_m2s_pipeline(tmp_path / "b", raw_csv, seed="8")
        assert a["forecasts"].read_text() != b["forecasts"].read_text()

    def test_derive_seed_streams_are_stable_and_distinct(self):
        assert derive_seed(7, "naive-forecast") == derive_seed(7, "naive-forecast")
        assert derive_seed(7, "naive-forecast") != derive_seed(8, "naive-forecast")
        assert derive_seed(7, "a") != derive_seed(7, "b")


def _float_options():
    """(command, option) for every option whose converter turns "0.5" into a float."""
    found = []
    for command, opts in OPTIONS.items():
        for opt in opts:
            try:
                if isinstance(opt.convert("0.5"), float):
                    found.append((command, opt.name))
            except ValueError:  # int and the boolean parser refuse "0.5"
                pass
    return found


FLOAT_OPTIONS = _float_options()


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, raw_csv):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", str(raw_csv), "--nope", "x"])
        assert exc.value.code == 2

    def test_missing_required_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "--input", "x.csv"])
        assert exc.value.code == 2

    def test_bad_choice_exits_two(self, tmp_path, raw_csv):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--forecasts", "f", "--panel", "p", "--anchors", "a",
                  "--output", "o", "--strategy", "martingale", "--target-var", "x"])
        assert exc.value.code == 2

    def test_topk_requires_k(self):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--forecasts", "f", "--panel", "p", "--anchors", "a",
                  "--output", "o", "--strategy", "topk"])
        assert exc.value.code == 2

    def test_timing_requires_target_var(self):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--forecasts", "f", "--panel", "p", "--anchors", "a",
                  "--output", "o", "--strategy", "timing"])
        assert exc.value.code == 2

    def test_threads_is_an_unknown_option(self, raw_csv, tmp_path, capsys):
        split = ["split", "--input", str(raw_csv), "--output-dir", str(tmp_path / "s")]
        for argv in [split, *([command] for command in COMMANDS)]:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command",
                             ["preprocess", "split", "naive-forecast", "evaluate", "backtest"])
    def test_freq_is_a_report_option_only(self, tmp_path, capsys, command):
        # These stages hashed --freq into #config_hash without ever reading it.
        with pytest.raises(SystemExit) as exc:
            main([command, "--freq", "daily"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --freq daily" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("freq=daily\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"config file sets unknown option 'freq' for {command}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, message", [
        (["split", "--train", "1.5"], "--train must be in (0, 1), got 1.5"),
        (["split", "--train", "0.5"], "split fractions must sum to 1"),
        (["naive-forecast", "--horizon", "0"], "--input-len and --horizon must be >= 1"),
        (["naive-forecast", "--noise-std", "-1"], "--noise-std must be non-negative"),
        (["backtest", "--strategy", "timing", "--target-var", "close_X", "--window", "0"],
         "--window and --rebalance must be >= 1"),
        (["report", "--periods-per-year", "0"], "--periods-per-year must be positive"),
        (["option-analytics", "--hv-window", "1"], "--hv-window must be >= 2"),
    ])
    def test_range_rules_exit_two_and_write_nothing(self, tmp_path, raw_csv, capsys, argv,
                                                    message):
        out = str(tmp_path / "out.csv")
        files = {
            "split": ["--input", str(raw_csv), "--output-dir", str(tmp_path / "s")],
            "backtest": ["--forecasts", str(raw_csv), "--panel", str(raw_csv),
                         "--anchors", str(raw_csv), "--output", out],
        }.get(argv[0], ["--input", str(raw_csv), "--output", out])
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + files + argv[1:])
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_float_options_are_found(self):
        assert sorted(name for _, name in FLOAT_OPTIONS) == [
            "baseline", "noise_std", "periods_per_year", "risk_free", "test", "train", "val"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-Infinity"])
    @pytest.mark.parametrize("command, name", FLOAT_OPTIONS)
    def test_float_options_must_be_finite(self, tmp_path, raw_csv, capsys, command, name, value):
        # --noise-std nan used to write noise-free predictions, --risk-free nan
        # sharpe,nan and --periods-per-year nan annual_return,nan, all with exit 0.
        flag = "--" + name.replace("_", "-")
        out = str(tmp_path / "out.csv")
        files = {
            "preprocess": ["--input", str(raw_csv), "--output", out,
                           "--anchors", str(tmp_path / "a.csv")],
            "split": ["--input", str(raw_csv), "--output-dir", str(tmp_path / "s")],
        }.get(command, ["--input", str(raw_csv), "--output", out])
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, *files, f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"error: argument {flag}: float value must be finite, got '{value}'\n" \
            in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_argparse_words_conversion_and_choice_errors(self, tmp_path, raw_csv, capsys):
        split = ["split", "--input", str(raw_csv), "--output-dir", str(tmp_path / "s")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon=x\n")
        cases = [
            (split + ["--train", "abc"], "argument --train: invalid float value: 'abc'"),
            (["evaluate", "--truth", "t", "--forecasts", "f", "--output", "o",
              "--method", "kendall"],
             "argument --method: invalid choice: 'kendall' (choose from 'spearman', 'pearson')"),
            (["naive-forecast", "--input", "i", "--output", "o", "--config", str(cfg)],
             "argument --horizon: invalid int value: 'x'"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"finpipe {argv[0]}: error: {message}\n" in capsys.readouterr().err

    def test_m2s_needs_single_target(self, tmp_path, raw_csv):
        rc = main(["naive-forecast", "--input", str(raw_csv),
                   "--output", str(tmp_path / "f.csv"), "--input-len", "512",
                   "--horizon", "5", "--task", "m2s"])
        assert rc == 1  # five variables against a single-target task


    @pytest.mark.parametrize("targets, rc", [("close_X", 1), ("close_X,volume_X", 1),
                                             ("open_X,high_X,low_X,close_X,volume_X", 0)])
    def test_m2m_needs_no_targets_or_every_variable(self, tmp_path, raw_csv, capsys,
                                                    targets, rc):
        # A subset used to exit 0, writing the m2s body under another hash.
        out = tmp_path / "f.csv"
        assert main(["naive-forecast", "--input", str(raw_csv), "--output", str(out),
                     "--input-len", "512", "--horizon", "5", "--task", "m2m",
                     "--target-vars", targets]) == rc
        assert out.exists() == (rc == 0)
        if rc:
            n = len(targets.split(","))
            assert (f"task m2m needs no --target-vars or all 5 variables, got {n}"
                    in capsys.readouterr().err)

class TestDataErrors:
    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "t.csv"),
                   "--anchors", str(tmp_path / "a.csv")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err

    def test_failed_run_writes_nothing(self, tmp_path, raw_csv):
        out = tmp_path / "t.csv"
        anchors = tmp_path / "a.csv"
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,close_X\n0,100\n1,oops\n")
        rc = main(["preprocess", "--input", str(bad), "--output", str(out),
                   "--anchors", str(anchors)])
        assert rc == 1
        assert not out.exists()
        assert not anchors.exists()

    def test_inconsistent_forecast_file_exits_one(self, tmp_path, raw_csv, capsys):
        # Doctoring the #H header shrinks the truth window count, so the
        # recorded sample ids no longer fit; evaluate must refuse and write
        # nothing.
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        text = paths["forecasts"].read_text().replace("#H=5", "#H=21")
        clash = tmp_path / "clash.csv"
        clash.write_text(text)
        out = tmp_path / "m.csv"
        rc = main(["evaluate", "--truth", str(paths["transformed"]),
                   "--forecasts", str(clash), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "outside" in capsys.readouterr().err

    def test_repeated_target_variable_exits_one(self, tmp_path, raw_csv, capsys):
        out = tmp_path / "f.csv"
        rc = main(["naive-forecast", "--input", str(raw_csv), "--output", str(out),
                   "--input-len", "512", "--horizon", "5", "--task", "m2p",
                   "--target-vars", "close_X,close_X"])
        assert rc == 1
        assert not out.exists()
        assert "target variable 'close_X' is listed more than once" in capsys.readouterr().err

    def test_forecast_file_repeating_a_variable_exits_one(self, tmp_path, raw_csv, capsys):
        # What naive-forecast used to write for --target-vars close_X,close_X:
        # the name twice in #variables= and every record twice.
        records = "".join(f"0,{step},close_X,100.0\n" for step in range(1, 6))
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("#L=512\n#H=5\n#model=naive\n#variables=close_X,close_X\n"
                             "sample_id,step,variable,y_pred\n" + records + records)
        out = tmp_path / "m.csv"
        rc = main(["evaluate", "--truth", str(raw_csv), "--forecasts", str(forecasts),
                   "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "target variable 'close_X' is listed more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_prediction_exits_one(self, tmp_path, raw_csv, capsys, bad):
        # A nan y_pred used to give mse,nan and mae,nan next to a finite msic.
        forecasts = tmp_path / "f.csv"
        assert main(["naive-forecast", "--input", str(raw_csv), "--output", str(forecasts),
                     "--input-len", "512", "--horizon", "5", "--task", "m2s",
                     "--target-vars", "close_X"]) == 0
        lines = forecasts.read_text().splitlines()
        first = lines.index("sample_id,step,variable,y_pred") + 1  # table row 2
        record = lines[first + 2].split(",")
        lines[first + 2] = ",".join(record[:3] + [bad])
        forecasts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        rc = main(["evaluate", "--truth", str(raw_csv), "--forecasts", str(forecasts),
                   "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert f"non-finite value '{bad}' at row 4, column 'y_pred'" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("curve_empty", "curve.csv: empty file"),
        ("curve_lacks_columns", "curve file lacks column(s) ['net_value', 'period_return']"),
        ("curve_without_rows", "curve file has no rows"),
        ("quotes_empty", "quotes.csv: empty file"),
        ("quotes_lack_columns", "quote file lacks column(s) ['kind']"),
        ("quotes_without_rows", "quote file has no rows"),
        ("hv_source_missing", "no hv source column 'nope'"),
        ("m2p_all_variables", "task m2p needs a proper subset of the 5 variables, got 5"),
        ("forecasts_lack_l_h", "forecast file lacks #L/#H headers"),
        ("anchor_record_missing", "anchor file has no record for variable 'close_X'"),
        ("variable_not_a_price", "variable 'volume_X' is volume, not a tradeable price"),
        ("target_var_not_forecast", "no target variable 'open_X' among forecast variables"),
    ])
    def test_input_rules_exit_one_and_write_nothing(self, tmp_path, capsys, case, message):
        run = _small_run(tmp_path / "run")
        out = tmp_path / "out.csv"
        curve, quotes, fc = tmp_path / "curve.csv", tmp_path / "quotes.csv", tmp_path / "fc.csv"
        quote_header = "timestamp,spot,strike,rate,expiry,kind,market_price"
        backtest = ["backtest", "--panel", str(run["transformed"]), "--output", str(out),
                    "--strategy", "timing", "--window", "5"]
        if case.startswith("curve"):
            curve.write_text({"curve_empty": "",
                              "curve_lacks_columns": "timestamp,position\n0,1.0\n",
                              "curve_without_rows": "timestamp,net_value,period_return\n",
                              }[case])
            argv = ["report", "--input", str(curve), "--output", str(out)]
        elif case.startswith("quotes") or case == "hv_source_missing":
            quotes.write_text({"quotes_empty": "",
                               "quotes_lack_columns": quote_header.replace(",kind", "")
                               + "\n0,100,100,0.01,0.5,7.0\n",
                               "quotes_without_rows": quote_header + "\n",
                               "hv_source_missing": quote_header
                               + "".join(f"\n{i},100,100,0.01,0.5,call,7.0" for i in range(3)),
                               }[case])
            argv = ["option-analytics", "--input", str(quotes), "--output", str(out)]
            if case == "hv_source_missing":
                argv += ["--hv-window", "2", "--hv-source", "nope"]
        elif case == "m2p_all_variables":
            argv = ["naive-forecast", "--input", str(run["transformed"]), "--output", str(out),
                    "--input-len", "20", "--task", "m2p"]
        elif case == "forecasts_lack_l_h":
            fc.write_text("#model=naive\nsample_id,step,variable,y_pred\n0,1,close_X,100.0\n")
            argv = ["evaluate", "--truth", str(run["transformed"]), "--forecasts", str(fc),
                    "--output", str(out)]
        elif case == "anchor_record_missing":
            anchors = tmp_path / "anchors.csv"
            anchors.write_text("".join(line + "\n" for line in
                                       run["anchors"].read_text().splitlines()
                                       if not line.startswith("close_X,")))
            argv = backtest + ["--forecasts", str(run["forecasts"]), "--anchors", str(anchors),
                               "--target-var", "close_X"]
        elif case == "variable_not_a_price":
            assert main(["naive-forecast", "--input", str(run["transformed"]),
                         "--output", str(fc), "--input-len", "20", "--task", "m2s",
                         "--target-vars", "volume_X"]) == 0
            argv = backtest + ["--forecasts", str(fc), "--anchors", str(run["anchors"]),
                               "--target-var", "volume_X"]
        else:
            argv = backtest + ["--forecasts", str(run["forecasts"]),
                               "--anchors", str(run["anchors"]), "--target-var", "open_X"]
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("reader", ["panel", "anchor", "forecast_header", "forecast_body",
                                        "curve", "quote"])
    def test_a_table_that_is_not_utf8_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                                    reader):
        # One \xff byte used to end the stage in a UnicodeDecodeError traceback.
        run = _small_run(tmp_path / "run")
        m2m, curve, quotes = (tmp_path / "run" / n for n in ("m2m.csv", "curve.csv", "q.csv"))
        # About 35 KB, so its last record lies beyond the text the header is read from.
        assert main(["naive-forecast", "--input", str(run["transformed"]), "--output", str(m2m),
                     "--input-len", "20", "--horizon", "5"]) == 0
        _write_curve(curve)
        quotes.write_text("timestamp,spot,strike,rate,expiry,kind,market_price\n"
                          "0,100,100,0.01,0.5,call,7.0\n1,100,100,0.01,0.5,put,7.0\n")
        source = {"panel": run["raw"], "anchor": run["anchors"], "forecast_header": m2m,
                  "forecast_body": m2m, "curve": curve, "quote": quotes}[reader]
        lines = source.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(b"#model=")) \
            if reader == "forecast_header" else -1
        lines[at] = lines[at].rstrip(b"\n") + b"\xff\n"
        bad, out = tmp_path / "bad.csv", tmp_path / "out.csv"
        bad.write_bytes(b"".join(lines))
        if reader == "forecast_body":
            assert read_metadata(bad)["H"] == 5  # the table reader meets the byte
        evaluate = ["evaluate", "--truth", str(run["transformed"]), "--output", str(out),
                    "--forecasts", str(bad)]
        argv = {
            "panel": ["preprocess", "--input", str(bad), "--output", str(out),
                      "--anchors", str(tmp_path / "anchors.csv")],
            "anchor": ["backtest", "--forecasts", str(run["forecasts"]),
                       "--panel", str(run["transformed"]), "--anchors", str(bad),
                       "--output", str(out), "--strategy", "timing", "--target-var", "close_X",
                       "--window", "5"],
            "forecast_header": evaluate,
            "forecast_body": evaluate,
            "curve": ["report", "--input", str(bad), "--output", str(out)],
            "quote": ["option-analytics", "--input", str(bad), "--output", str(out)],
        }[reader]
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith(f"error: {bad}: not UTF-8 text\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_backtest_parses_each_timestamp_once(self, tmp_path, monkeypatch):
        panel = ohlcv_panel(80, seed=31, assets=("X",))
        days = [str(np.datetime64("2020-01-01") + d) for d in range(panel.n_rows)]
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, Panel(days, panel.variables, panel.values))
        t, a, fc = tmp_path / "t.csv", tmp_path / "a.csv", tmp_path / "fc.csv"
        assert main(["preprocess", "--input", str(raw), "--output", str(t),
                     "--anchors", str(a)]) == 0
        assert main(["naive-forecast", "--input", str(t), "--output", str(fc),
                     "--input-len", "20", "--horizon", "5", "--task", "m2s",
                     "--target-vars", "close_X"]) == 0
        calls = []
        key = frame._timestamp_key
        monkeypatch.setattr(frame, "_timestamp_key", lambda label: calls.append(label) or key(label))
        rc = main(["backtest", "--forecasts", str(fc), "--panel", str(t), "--anchors", str(a),
                   "--output", str(tmp_path / "curve.csv"), "--strategy", "timing",
                   "--target-var", "close_X", "--window", "5"])
        assert rc == 0
        assert sorted(calls) == days


class TestConfigFile:
    def test_config_supplies_options_and_flags_win(self, tmp_path, raw_csv):
        main(["preprocess", "--input", str(raw_csv),
              "--output", str(tmp_path / "t.csv"), "--anchors", str(tmp_path / "a.csv")])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "input-len=512\nhorizon=5\ntask=m2s\ntarget-vars=close_X\nnoise-std=0\nseed=3\n"
        )
        out_cfg = tmp_path / "fc_cfg.csv"
        rc = main(["naive-forecast", "--input", str(tmp_path / "t.csv"),
                   "--output", str(out_cfg), "--config", str(cfg)])
        assert rc == 0
        out_flag = tmp_path / "fc_flag.csv"
        rc = main(["naive-forecast", "--input", str(tmp_path / "t.csv"),
                   "--output", str(out_flag), "--config", str(cfg),
                   "--noise-std", "0.001"])
        assert rc == 0
        # zero noise repeats values; the overriding flag perturbs them
        assert out_cfg.read_text() != out_flag.read_text()

    def test_unknown_config_key_exits_two(self, tmp_path, raw_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", str(raw_csv),
                  "--output-dir", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2

    def test_malformed_config_exits_two(self, tmp_path, raw_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", str(raw_csv),
                  "--output-dir", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2

    def test_config_supplies_required_options(self, tmp_path, raw_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={raw_csv}\noutput-dir={tmp_path / 'from_cfg'}\n")
        assert main(["split", "--config", str(cfg)]) == 0
        assert main(["split", "--input", str(raw_csv),
                     "--output-dir", str(tmp_path / "from_flags")]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "from_cfg" / name).read_bytes() == \
                (tmp_path / "from_flags" / name).read_bytes()

    def test_shared_noise_from_config_equals_the_flag(self, tmp_path, raw_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shared-noise=true\n")
        base = ["naive-forecast", "--input", str(raw_csv), "--input-len", "512",
                "--horizon", "5", "--task", "m2s", "--target-vars", "close_X"]
        outs = {name: tmp_path / f"{name}.csv" for name in ("config", "flag", "off")}
        assert main(base + ["--output", str(outs["config"]), "--config", str(cfg)]) == 0
        assert main(base + ["--output", str(outs["flag"]), "--shared-noise"]) == 0
        assert main(base + ["--output", str(outs["off"])]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert outs["config"].read_bytes() != outs["off"].read_bytes()

    def test_missing_config_exits_two(self, tmp_path, raw_csv, capsys):
        cfg = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", str(raw_csv),
                  "--output-dir", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"error: no such config file: {cfg}\n" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("kind, reason", [
        ("directory", "Is a directory"),
        ("invalid utf-8", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_unreadable_config_exits_two(self, tmp_path, raw_csv, capsys, kind, reason):
        # Both used to end in a traceback with exit 1.
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"train=0.7\n\xff\n")
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", str(raw_csv),
                  "--output-dir", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config file {cfg}: " in err
        assert reason in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("line, message", [
        ("shared-noise=maybe", "config option shared_noise='maybe' is not a valid value"),
        ("horizon=x", None),  # argparse's wording, pinned in TestUsageErrors
        ("config=other.cfg", "config file sets unknown option 'config' for naive-forecast"),
    ])
    def test_bad_config_line_exits_two(self, tmp_path, raw_csv, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:
            main(["naive-forecast", "--input", str(raw_csv), "--output", str(out),
                  "--input-len", "512", "--config", str(cfg)])
        assert exc.value.code == 2
        assert not out.exists()
        if message is not None:
            assert f"error: {message}\n" in capsys.readouterr().err


class TestNaiveForecastStream:
    """naive-forecast draws, formats and writes its predictions a block at a time."""

    NAMES = ("v0", "v1", "v2")

    def _inputs(self, tmp_path, values=None):
        """A 3-variable panel CSV of 40 rows: 33 windows at L=5, H=3."""
        if values is None:
            values = np.random.default_rng(8).normal(100.0, 1.0, (40, 3))
        path = tmp_path / "panel.csv"
        frame.write_csv(Panel(range(len(values)), self.NAMES, values), path)
        return path

    def _windows(self, path, targets=()):
        return frame.sliding_windows(load_csv(path), frame.WindowSpec(5, 3, targets))

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("task, targets", [("m2m", ()), ("m2p", ("v2", "v0"))])
    @pytest.mark.parametrize("flags, noise_std, redraw", [
        ([], 0.001, True), (["--shared-noise"], 0.001, False), (["--noise-std", "0"], 0.0, True)])
    def test_the_file_is_the_whole_forecast_written(self, tmp_path, monkeypatch, count, task,
                                                    targets, flags, noise_std, redraw):
        # The bytes of write_forecasts(make_batch(windows, naive_forecast(...))), however
        # the samples fall into ranges and blocks and however the skipped noise is drawn.
        src, out, whole = self._inputs(tmp_path), tmp_path / "fc.csv", tmp_path / "whole.csv"
        argv = ["naive-forecast", "--input", str(src), "--output", str(out), "--input-len", "5",
                "--horizon", "3", "--task", task, "--seed", "4", *flags]
        if targets:
            argv += ["--target-vars", ",".join(targets)]
        with monkeypatch.context() as patch:
            patch.setattr(table, "BLOCK_BYTES", 256)  # a few samples a block
            patch.setattr(forecast, "NOISE_SKIP", 7)  # a skip draws in several pieces
            if count > 1:
                in_ranges(patch, count)
            assert main(argv) == 0
        assert_no_worker_left()
        windows = self._windows(src, targets)
        preds = forecast.naive_forecast(windows, 3, noise_std, derive_seed(4, "naive-forecast"),
                                        redraw)
        forecast.write_forecasts(whole, forecast.make_batch(windows, preds), 5,
                                 header_comments=out.read_text().splitlines()[:3])
        assert out.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("redraw", [True, False])
    def test_blocks_in_any_order_are_the_forecasts_rows(self, tmp_path, monkeypatch, redraw):
        # Chunked normal draws are the one draw, so a block that skips ahead,
        # or back, re-seeds and drops the samples before it to land on its rows.
        rng = np.random.default_rng(12)
        whole = rng.normal(0.0, 0.5, 1000)
        again = np.random.default_rng(12)
        pieces = [again.normal(0.0, 0.5, n) for n in (1, 6, 7, 500, 486)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        monkeypatch.setattr(forecast, "NOISE_SKIP", 5)
        windows = self._windows(self._inputs(tmp_path))
        preds = forecast.naive_forecast(windows, 3, 0.01, seed=9, redraw_per_step=redraw)
        block = forecast.naive_blocks(windows, 3, 0.01, seed=9, redraw_per_step=redraw)
        for start, stop in ((20, 33), (0, 1), (1, 4), (4, 20), (7, 8), (8, 9), (32, 33)):
            assert block(start, stop).tobytes() == preds[start:stop].tobytes()

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_non_finite_prediction_is_refused_and_nothing_written(
            self, tmp_path, monkeypatch, capsys, count):
        # As ForecastBatch refused it when the whole forecast was made first;
        # a block source without the check wrote 694 'inf' cells at the
        # m2m_eval shape and exited 0.
        src, out = self._inputs(tmp_path), tmp_path / "fc.csv"
        windows = self._windows(src)
        with pytest.raises(MetricError) as refused:
            forecast.make_batch(windows, forecast.naive_forecast(
                windows, 3, 1e308, derive_seed(0, "naive-forecast")))
        with monkeypatch.context() as patch:
            if count > 1:
                in_ranges(patch, count)
            assert main(["naive-forecast", "--input", str(src), "--output", str(out),
                         "--input-len", "5", "--horizon", "3", "--noise-std", "1e308"]) == 1
        assert capsys.readouterr().err == f"finpipe naive-forecast: error: {refused.value}\n"
        assert "y_pred must be finite, got " in str(refused.value)
        assert not out.exists()
        assert_no_worker_left()

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_a_non_finite_prediction_in_a_workers_range_is_found_by_the_parent(
            self, tmp_path, monkeypatch, capsys):
        # Only the last window's last value is the largest float, so only its
        # predictions overflow: the last range's worker fails, and the parent
        # redoes that range and names the value at its index in the whole forecast.
        values = np.random.default_rng(8).normal(0.0, 1.0, (40, 3))
        values[-4, 1] = np.finfo(float).max
        src, out = self._inputs(tmp_path, values), tmp_path / "fc.csv"
        windows = self._windows(src)
        with pytest.raises(MetricError) as refused:
            forecast.make_batch(windows, forecast.naive_forecast(
                windows, 3, 1e300, derive_seed(0, "naive-forecast")))
        assert "at index (32, " in str(refused.value)
        with monkeypatch.context() as patch:
            in_ranges(patch, 3)
            assert main(["naive-forecast", "--input", str(src), "--output", str(out),
                         "--input-len", "5", "--horizon", "3", "--noise-std", "1e300"]) == 1
        assert capsys.readouterr().err == f"finpipe naive-forecast: error: {refused.value}\n"
        assert not out.exists()
        assert_no_worker_left()

    def test_the_stage_holds_no_forecast(self, tmp_path, monkeypatch):
        # The m2m_eval shape: 6533 rows of 20 variables, 6017 windows, a 4.8 MB
        # forecast. Beyond the traced peak of reading its panel (2.5 MB, the
        # stage's largest step now) the stage took 7.2 MB at the parent, which
        # held the forecast; it takes 0.06 MB now, under a quarter forecast.
        monkeypatch.setattr(table, "MAX_RANGES", 1)  # every byte read in this process
        names = tuple(f"v{i}" for i in range(20))
        src = tmp_path / "panel.csv"
        frame.write_csv(Panel(range(6533), names,
                              np.random.default_rng(5).normal(size=(6533, 20))), src)
        argv = ["naive-forecast", "--input", str(src), "--output", str(tmp_path / "fc.csv")]
        assert main(argv) == 0  # what only a process's first run allocates is left out
        peaks = []
        for run in (lambda: load_csv(src), lambda: main(argv)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.25 * 6017 * 5 * 20 * 8


class TestEvaluateDegenerateDispersion:
    def test_noise_free_naive_reports_na_msir(self, tmp_path, raw_csv):
        main(["preprocess", "--input", str(raw_csv),
              "--output", str(tmp_path / "t.csv"), "--anchors", str(tmp_path / "a.csv")])
        fc = tmp_path / "fc.csv"
        main(["naive-forecast", "--input", str(tmp_path / "t.csv"), "--output", str(fc),
              "--input-len", "512", "--horizon", "5", "--task", "m2s",
              "--target-vars", "close_X", "--noise-std", "0"])
        out = tmp_path / "metrics.csv"
        rc = main(["evaluate", "--truth", str(tmp_path / "t.csv"),
                   "--forecasts", str(fc), "--output", str(out)])
        assert rc == 0
        metrics = _read_metric_csv(out)
        assert float(metrics["msic"]) == 0.0
        assert metrics["msir"] == "NA"

    def test_horizon_one_reports_na_correlations(self, tmp_path):
        run = _small_run(tmp_path)
        fc, out = tmp_path / "h1.csv", tmp_path / "metrics.csv"
        assert main(["naive-forecast", "--input", str(run["transformed"]), "--output", str(fc),
                     "--input-len", "20", "--horizon", "1", "--task", "m2s",
                     "--target-vars", "close_X"]) == 0
        rc = main(["evaluate", "--truth", str(run["transformed"]), "--forecasts", str(fc),
                   "--output", str(out)])
        assert rc == 0
        metrics = _read_metric_csv(out)
        assert list(metrics) == ["mse", "mae", "msic", "msir"]
        assert float(metrics["mse"]) > 0.0
        assert (metrics["msic"], metrics["msir"]) == ("NA", "NA")


class TestEvaluateErrors:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_vars=st.integers(1, 3), horizon=st.integers(1, 4), n_windows=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e6]),
           data=st.data())
    def test_mse_and_mae_cells_are_the_metrics_of_the_loaded_batch(
            self, tmp_path, n_vars, horizon, n_windows, seed, scale, data):
        # evaluate makes both from one difference array written over the
        # predictions; a batch loaded afresh gives the same bits through
        # mse and mae, for full files and for sample and variable subsets,
        # whose predictions are copies taken from the file's grid.
        rng = np.random.default_rng(seed)
        n_rows = n_windows + 2 + horizon - 1
        names = tuple(f"v{i}" for i in range(n_vars))
        panel = Panel(range(n_rows), names, rng.normal(0.0, scale, (n_rows, n_vars)))
        windows = frame.sliding_windows(panel, frame.WindowSpec(2, horizon))
        preds = windows.truth + rng.normal(0.0, scale, windows.truth.shape)
        truth, forecasts = tmp_path / "truth.csv", tmp_path / "fc.csv"
        frame.write_csv(panel, truth)
        forecast.write_forecasts(forecasts, forecast.make_batch(windows, preds), 2)
        samples = data.draw(st.sets(st.integers(0, n_windows - 1), min_size=1), label="samples")
        variables = data.draw(st.sets(st.sampled_from(names), min_size=1), label="variables")
        head, body = forecasts.read_text().split("sample_id,step,variable,y_pred\n")
        kept = [line for line in body.splitlines()
                if int(line.split(",")[0]) in samples and line.split(",")[2] in variables]
        forecasts.write_text(head + "sample_id,step,variable,y_pred\n" + "\n".join(kept) + "\n")
        out = tmp_path / "metrics.csv"
        assert main(["evaluate", "--truth", str(truth), "--forecasts", str(forecasts),
                     "--output", str(out)]) == 0
        cells = _read_metric_csv(out)
        batch = forecast.load_forecasts(forecasts, windows)
        assert (cells["mse"], cells["mae"]) == (repr(metrics.mse(batch)), repr(metrics.mae(batch)))
        assert list(cells) == ["mse", "mae", "msic", "msir"]

    def test_peak_grows_by_the_grid_not_a_difference_array(self, tmp_path, monkeypatch):
        # A full m2m file of 25 steps over 4 variables, at 200 and 400 windows.
        # Smaller blocks of text and of ranked samples keep what does not grow
        # with the file below the difference array, so a small file shows it.
        # The traced peak grew 18.8 B a record when mse and mae each made a
        # difference array (8 B) beside the grid's values (8 B); it grows
        # 12.3-12.8 B now: the grid's 9 B, the truth panel's share and the
        # per-sample arrays.
        monkeypatch.setattr(table, "BLOCK_BYTES", 4096)
        monkeypatch.setattr(metrics, "IC_BLOCK_SAMPLES", 16)
        rng = np.random.default_rng(3)
        names = tuple(f"v{i}" for i in range(4))
        peaks = []
        for n_windows in (200, 400):
            panel = Panel(range(n_windows + 26), names, rng.normal(100.0, 1.0, (n_windows + 26, 4)))
            windows = frame.sliding_windows(panel, frame.WindowSpec(2, 25))
            truth, forecasts = tmp_path / f"truth{n_windows}.csv", tmp_path / f"fc{n_windows}.csv"
            frame.write_csv(panel, truth)
            preds = forecast.naive_forecast(windows, 25, seed=1)
            forecast.write_forecasts(forecasts, forecast.make_batch(windows, preds), 2)
            argv = ["evaluate", "--truth", str(truth), "--forecasts", str(forecasts),
                    "--output", str(tmp_path / "metrics.csv")]
            if not peaks:  # what only a process's first run allocates is left out
                assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (200 * 25 * 4) < 14


class TestBacktestCli:
    def test_topk_with_all_assets_equals_equal_weight(self, tmp_path):
        panel = ohlcv_panel(600, seed=55, assets=("AAA", "BBB", "CCC"))
        raw = tmp_path / "raw3.csv"
        write_raw_csv(raw, panel)
        main(["preprocess", "--input", str(raw), "--output", str(tmp_path / "t.csv"),
              "--anchors", str(tmp_path / "a.csv")])
        fc = tmp_path / "fc.csv"
        main(["naive-forecast", "--input", str(tmp_path / "t.csv"), "--output", str(fc),
              "--input-len", "512", "--horizon", "5",
              "--target-vars", "close_AAA,close_BBB,close_CCC", "--task", "m2p",
              "--seed", "9"])
        curve_path = tmp_path / "curve.csv"
        rc = main(["backtest", "--forecasts", str(fc), "--panel", str(tmp_path / "t.csv"),
                   "--anchors", str(tmp_path / "a.csv"), "--output", str(curve_path),
                   "--strategy", "topk", "--k", "3", "--window", "21"])
        assert rc == 0
        lines = [l for l in curve_path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["timestamp", "net_value", "period_return", "position"]
        rows = [l.split(",") for l in lines[1:]]
        held = {row[3] for row in rows}
        assert held == {"close_AAA|close_BBB|close_CCC"}

    def test_longshort_positions_column(self, tmp_path, raw_csv):
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        curve_path = tmp_path / "ls.csv"
        rc = main(["backtest", "--forecasts", str(paths["forecasts"]),
                   "--panel", str(paths["transformed"]),
                   "--anchors", str(paths["anchors"]), "--output", str(curve_path),
                   "--strategy", "longshort", "--target-var", "close_X",
                   "--window", "21"])
        assert rc == 0
        rows = [l.split(",") for l in curve_path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("timestamp")]
        assert {row[3] for row in rows} <= {"1.0", "-1.0"}

    def test_sample_id_gaps_exit_one(self, tmp_path, raw_csv, capsys):
        # Every 5th sample only: each row would earn a one-step return while
        # standing for five held days.
        paths = run_m2s_pipeline(tmp_path / "run", raw_csv)
        lines = paths["forecasts"].read_text().splitlines()
        kept = [l for l in lines if l.startswith("#") or l.startswith("sample_id")
                or int(l.split(",")[0]) % 5 == 0]
        strided = tmp_path / "strided.csv"
        strided.write_text("\n".join(kept) + "\n")
        out = tmp_path / "curve.csv"
        rc = main(["backtest", "--forecasts", str(strided), "--panel", str(paths["transformed"]),
                   "--anchors", str(paths["anchors"]), "--output", str(out),
                   "--strategy", "timing", "--target-var", "close_X", "--window", "21"])
        assert rc == 1
        assert not out.exists()
        assert "sample ids jump from 0 to 5" in capsys.readouterr().err
        evaluated = tmp_path / "metrics.csv"
        assert main(["evaluate", "--truth", str(paths["transformed"]), "--forecasts",
                     str(strided), "--output", str(evaluated)]) == 0


class TestOptionAnalyticsCli:
    def _quotes_csv(self, path, n=40):
        rng = np.random.default_rng(5)
        lines = ["timestamp,spot,strike,rate,expiry,kind,market_price"]
        quotes = []
        for i in range(n):
            kind = "call" if i % 2 == 0 else "put"
            spot = float(rng.uniform(90, 110))
            sigma = float(rng.uniform(0.1, 0.6))
            q = OptionQuote(spot, 100.0, 0.03, float(rng.uniform(0.2, 1.5)), kind)
            price = bs_price(q, sigma)
            quotes.append(OptionQuote(spot, 100.0, 0.03, q.expiry, kind, price))
            lines.append(f"{i},{spot!r},100.0,0.03,{q.expiry!r},{kind},{price!r}")
        path.write_text("\n".join(lines) + "\n")
        return quotes

    def test_extends_rows_with_iv_and_greeks(self, tmp_path):
        src = tmp_path / "quotes.csv"
        quotes = self._quotes_csv(src)
        out = tmp_path / "analytics.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[-6:] == ["iv", "delta", "theta", "gamma", "vega", "rho"]
        for quote, line in zip(quotes, lines[1:]):
            cells = line.split(",")
            iv = float(cells[header.index("iv")])
            expected_iv = implied_vol(quote)
            assert iv == expected_iv
            g = greeks(quote, iv)
            assert float(cells[header.index("delta")]) == g.delta
            assert float(cells[header.index("vega")]) == g.vega

    def test_hv_column_alignment(self, tmp_path):
        src = tmp_path / "quotes.csv"
        self._quotes_csv(src, n=30)
        out = tmp_path / "analytics.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out),
                   "--hv-window", "10", "--hv-source", "spot"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        hv_idx = lines[0].split(",").index("hv")
        assert all(row[hv_idx] == "" for row in rows[:9])
        assert all(row[hv_idx] != "" for row in rows[9:])

    def test_block_writer_matches_a_row_by_row_join(self, tmp_path, monkeypatch):
        # Four blocks and a partial one; the hv blanks run into the second block.
        monkeypatch.setattr(table, "BLOCK_BYTES", 1024)
        src = tmp_path / "quotes.csv"
        quotes = self._quotes_csv(src, n=56)
        src.write_text(src.read_text().replace("\n0,", "\n 0 ,", 1))  # a cell to strip
        out = tmp_path / "analytics.csv"
        assert main(["option-analytics", "--input", str(src), "--output", str(out),
                     "--hv-window", "21", "--hv-source", "spot"]) == 0
        hv = [""] * 20 + list(map(repr, historical_vol([q.spot for q in quotes], 21).tolist()))
        lines = [l for l in out.read_text().splitlines(keepends=True) if l.startswith("#")]
        lines.append("timestamp,spot,strike,rate,expiry,kind,market_price,"
                     "iv,delta,theta,gamma,vega,rho,hv\n")
        input_rows = src.read_text().splitlines()[1:]
        for row, quote, hv_cell in zip(input_rows, quotes, hv):
            iv = implied_vol(quote)
            g = greeks(quote, iv)
            values = (iv, g.delta, g.theta, g.gamma, g.vega, g.rho_rate)
            cells = [c.strip() for c in row.split(",")] + [repr(v) for v in values] + [hv_cell]
            lines.append(",".join(cells) + "\n")
        assert out.read_text() == "".join(lines)

    def test_echoed_cells_are_quoted(self, tmp_path):
        # Unquoted, "a,b" gave its row 15 fields under a 14-field header.
        src = tmp_path / "quotes.csv"
        src.write_text(
            'timestamp,spot,strike,rate,expiry,kind,market_price,"note, free text"\n'
            '0,100.0,100.0,0.01,0.5,call,7.0,"a,b"\n'
            '1,100.0,100.0,0.01,0.5,put,7.0,"say ""hi"""\n'
            '2,100.0,100.0,0.01,0.5,call,7.0,"two\r\nlines"\n'
            '3,100.0,100.0,0.01,0.5,put,7.0,plain\n'
        )
        out = tmp_path / "analytics.csv"
        assert main(["option-analytics", "--input", str(src), "--output", str(out)]) == 0
        source_header, source_rows = ref.read_table(src)
        header, rows = ref.read_table(out)
        assert header[:8] == source_header
        assert [row[:8] for row in rows] == source_rows
        assert [row[7] for row in rows] == ["a,b", 'say "hi"', "two\r\nlines", "plain"]

    def test_a_first_cell_is_never_echoed_as_a_comment(self, tmp_path):
        # Stripped, " #a" became "#a", and reading the output back lost its row.
        src = tmp_path / "quotes.csv"
        src.write_text(
            "timestamp,spot,strike,rate,expiry,kind,market_price\n"
            " #a,100.0,100.0,0.01,0.5,call,7.0\n"
            "b,100.0,100.0,0.01,0.5,put,7.0\n"
        )
        out = tmp_path / "analytics.csv"
        assert main(["option-analytics", "--input", str(src), "--output", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [l.split(",")[0] for l in body] == [" #a", "b"]
        assert len(ref.read_table(out)[1]) == 2

    def test_arbitrage_violation_exits_one(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        src.write_text(
            "timestamp,spot,strike,rate,expiry,kind,market_price\n"
            "0,100.0,100.0,0.05,1.0,call,200.0\n"
        )
        rc = main(["option-analytics", "--input", str(src),
                   "--output", str(tmp_path / "out.csv")])
        assert rc == 1
        assert not (tmp_path / "out.csv").exists()
        assert "no-arbitrage" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("2,100.0,100.0,0.0,1.0,cal,10.0", "kind must be 'call' or 'put', got 'cal'"),
        ("2,-5,100.0,0.0,1.0,call,10.0", "spot must be positive, got -5.0"),
        ("2,100.0,100.0,0.0,1.0,call,100.5",
         "call price 100.5 outside no-arbitrage range (0.0, 100.0)"),
    ])
    def test_rejected_quote_names_its_file_and_row(self, tmp_path, capsys, row, message):
        src = tmp_path / "quotes.csv"
        src.write_text("timestamp,spot,strike,rate,expiry,kind,market_price\n"
                       f"1,100.0,100.0,0.0,1.0,call,10.0\n{row}\n")
        out = tmp_path / "out.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert f"error: {src}: row 3: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("0,100.0,100.0,-1000,1.0,call,10.0",
         "exp(-rate * expiry) leaves the float range at rate -1000.0, expiry 1.0"),
        ("0,1e-200,1e200,0.0,1.0,call,10.0",
         "spot / strike leaves the float range at spot 1e-200, strike 1e+200"),
    ])
    def test_quote_outside_the_float_range_names_its_row(self, tmp_path, capsys, row, message):
        # These raised OverflowError and ValueError from the math module, as tracebacks.
        src = tmp_path / "quotes.csv"
        src.write_text(f"timestamp,spot,strike,rate,expiry,kind,market_price\n{row}\n")
        out = tmp_path / "out.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert f"error: {src}: row 2: {message}\n" in capsys.readouterr().err

    def test_first_bad_quote_cell_in_file_order_is_named(self, tmp_path, capsys):
        # A bad spot on row 8 used to be named before a bad market_price on row 3.
        src = tmp_path / "quotes.csv"
        self._quotes_csv(src, n=10)
        lines = [line.split(",") for line in src.read_text().splitlines()]
        lines[2][6], lines[7][1] = "x", "nan"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        out = tmp_path / "out.csv"
        assert main(["option-analytics", "--input", str(src), "--output", str(out)]) == 1
        assert not out.exists()
        assert "row 3: bad value in column 'market_price'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_quote_cell_exits_one(self, tmp_path, capsys, bad):
        src = tmp_path / "quotes.csv"
        self._quotes_csv(src, n=6)
        lines = src.read_text().splitlines()
        cells = lines[4].split(",")
        cells[1] = bad
        lines[4] = ",".join(cells)
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "row 5: bad value in column 'spot'" in capsys.readouterr().err

    def test_row_with_extra_field_exits_one(self, tmp_path, capsys):
        # Unchecked, the extra field shifted iv under the delta header.
        src = tmp_path / "quotes.csv"
        src.write_text(
            "timestamp,spot,strike,rate,expiry,kind,market_price\n"
            "0,100,100,0.01,0.5,call,7.0,EXTRA\n"
        )
        out = tmp_path / "out.csv"
        rc = main(["option-analytics", "--input", str(src), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "row 2 has 8 fields, expected 7" in capsys.readouterr().err


def _analytics_oracle(src, window=None, source="spot"):
    """The body of ``analytics.csv`` row by row: reference_io's reader, the scalar
    solver on each quote, and historical_vol over the whole series."""
    header, rows = ref.read_table(src)
    at = header.index
    hv = [""] * len(rows)
    if window is not None:
        hv[window - 1 :] = map(repr, historical_vol([float(r[at(source)]) for r in rows],
                                                    window).tolist())
    body = []
    for row, hv_cell in zip(rows, hv):
        quote = OptionQuote(*(float(row[at(c)]) for c in ("spot", "strike", "rate", "expiry")),
                            row[at("kind")].strip().lower(), float(row[at("market_price")]))
        iv = implied_vol(quote)
        g = greeks(quote, iv)
        cells = [c.strip() for c in row]
        cells += [repr(v) for v in (iv, g.delta, g.theta, g.gamma, g.vega, g.rho_rate)]
        body.append(",".join(cells + ([hv_cell] if window is not None else [])))
    return body


def _block_starts(path):
    """The 0-based body row that begins each block ``table.read_blocks`` gives."""
    sizes = table.read_blocks(path, lambda blocks: [len(b) for b in blocks])
    return np.cumsum([0] + sizes[:-1]).tolist()


class TestOptionAnalyticsStreaming:
    """option-analytics reads, solves and writes one block at a time."""

    _quotes_csv = TestOptionAnalyticsCli._quotes_csv

    def _run(self, src, out, *flags):
        return main(["option-analytics", "--input", str(src), "--output", str(out), *flags])

    def _body(self, out):
        return [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]

    def test_hv_windows_wider_than_a_block_match_the_whole_series(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table, "BLOCK_BYTES", 256)  # three or four rows a block
        src = tmp_path / "quotes.csv"
        self._quotes_csv(src, n=60)
        starts = _block_starts(src)
        assert len(starts) > 10
        # The last window ends exactly on a block's last row, the case where a
        # block's series holds one window only.
        for window in (2, 5, 17, starts[7]):
            out = tmp_path / f"analytics_{window}.csv"
            assert self._run(src, out, "--hv-window", str(window), "--hv-source", "spot") == 0
            assert self._body(out) == _analytics_oracle(src, window)
        assert self._run(src, tmp_path / "plain.csv") == 0
        assert self._body(tmp_path / "plain.csv") == _analytics_oracle(src)

    def test_hv_of_a_series_too_short_is_an_error(self, tmp_path, monkeypatch, capsys):
        # Eight prices, four blocks: the error comes after the last block, and names the file.
        monkeypatch.setattr(table, "BLOCK_BYTES", 128)
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=8)
        assert len(_block_starts(src)) > 2
        assert self._run(src, out, "--hv-window", "8") == 1
        assert capsys.readouterr().err.endswith(f"error: {src}: need at least 9 prices, got 8\n")
        assert not out.exists()

    @pytest.mark.parametrize("column", ["spot", "market_price"])
    def test_bad_cell_on_the_first_row_of_a_later_block(self, tmp_path, monkeypatch, capsys,
                                                        column):
        monkeypatch.setattr(table, "BLOCK_BYTES", 512)
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=40)
        row = _block_starts(src)[2]
        lines = [line.split(",") for line in src.read_text().splitlines()]
        lines[row + 1][lines[0].index(column)] = "x"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        assert self._run(src, out, "--hv-window", "3") == 1
        assert capsys.readouterr().err.endswith(
            f"error: {src}: row {row + 2}: bad value in column {column!r}\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_ragged_row_after_a_full_block_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(table, "BLOCK_BYTES", 512)
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=40)
        row = _block_starts(src)[1]
        lines = src.read_text().splitlines()
        lines[row + 1] += ",EXTRA"
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        assert self._run(src, out) == 1
        assert f"row {row + 2} has 8 fields, expected 7" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_an_earlier_output_survives_a_failing_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table, "BLOCK_BYTES", 512)
        src, out = tmp_path / "quotes.csv", tmp_path / "analytics.csv"
        self._quotes_csv(src, n=40)
        assert self._run(src, out) == 0
        earlier = out.read_bytes()
        lines = src.read_text().splitlines()
        lines[-1] = lines[-1].replace(",call,", ",cal,").replace(",put,", ",pt,")
        src.write_text("\n".join(lines) + "\n")
        assert self._run(src, out, "--hv-window", "3") == 1
        assert out.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["analytics.csv", "quotes.csv"]

    def test_a_pricing_error_wins_over_a_later_bad_cell(self, tmp_path, capsys):
        # The bad cell on row 900 used to be named, since every cell was cast first.
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=1000)
        lines = [line.split(",") for line in src.read_text().splitlines()]
        lines[2][5], lines[899][1] = "cal", "x"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        assert self._run(src, out) == 1
        assert capsys.readouterr().err.endswith(
            f"error: {src}: row 3: kind must be 'call' or 'put', got 'cal'\n")
        assert not out.exists()

    def test_a_missing_hv_source_is_named_before_any_quote_is_solved(self, tmp_path, capsys,
                                                                     monkeypatch):
        # It used to come after every quote, so row 2's pricing error was named instead.
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=5)
        src.write_text(src.read_text().replace(",call,", ",cal,", 1))
        monkeypatch.setattr(cli, "implied_vol", lambda quote: pytest.fail("a quote was solved"))
        assert self._run(src, out, "--hv-window", "2", "--hv-source", "nope") == 1
        assert capsys.readouterr().err.endswith(f"error: {src}: no hv source column 'nope'\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad_row, kind_row, message", [
        (4, 6, "row 4: bad value in column 'underlying'"),
        (6, 4, "row 4: kind must be 'call' or 'put', got 'cal'"),
    ])
    def test_a_bad_hv_source_cell_is_named_in_file_order(self, tmp_path, capsys, bad_row,
                                                         kind_row, message):
        # The hv source column used to be cast after every quote was solved, so a
        # pricing error anywhere came first.
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=10)
        lines = [line.split(",") for line in src.read_text().splitlines()]
        for i, cells in enumerate(lines):
            cells.append("underlying" if i == 0 else repr(100.0 + i))
        lines[bad_row - 1][-1], lines[kind_row - 1][5] = "nan", "cal"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        assert self._run(src, out, "--hv-window", "3", "--hv-source", "underlying") == 1
        assert capsys.readouterr().err.endswith(f"error: {src}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("price_row, kind_row, message", [
        (5, 30, "row 5: prices must be positive and finite"),
        (30, 5, "row 5: kind must be 'call' or 'put', got 'cal'"),
    ])
    def test_a_non_positive_hv_price_is_named_after_its_block(self, tmp_path, monkeypatch,
                                                             capsys, price_row, kind_row,
                                                             message):
        monkeypatch.setattr(table, "BLOCK_BYTES", 512)
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=40)
        lines = [line.split(",") for line in src.read_text().splitlines()]
        for i, cells in enumerate(lines):
            cells.append("underlying" if i == 0 else repr(100.0 + i))
        lines[price_row - 1][-1], lines[kind_row - 1][5] = "0.0", "cal"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        assert 3 < _block_starts(src)[1] <= 28  # rows 5 and 30 lie in different blocks
        assert self._run(src, out, "--hv-window", "3", "--hv-source", "underlying") == 1
        assert capsys.readouterr().err.endswith(f"error: {src}: {message}\n")
        assert not out.exists()

    def test_a_ragged_row_is_named_before_a_short_hv_series(self, tmp_path, capsys):
        # The rows above the ragged one used to be named as too short a series: "got 1".
        src, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
        self._quotes_csv(src, n=3)
        lines = src.read_text().splitlines()
        lines[2] += ",EXTRA"
        src.write_text("\n".join(lines) + "\n")
        assert self._run(src, out, "--hv-window", "5", "--hv-source", "spot") == 1
        assert capsys.readouterr().err.endswith(f"error: {src}: row 3 has 8 fields, expected 7\n")
        assert not out.exists()

    def test_memory_does_not_grow_with_the_book(self, tmp_path):
        # Every quote cell used to be held as text until the last quote was solved.
        import tracemalloc

        peaks = []
        for n in (1500, 6000):
            src = tmp_path / f"quotes_{n}.csv"
            self._quotes_csv(src, n=n)
            tracemalloc.start()
            try:
                assert self._run(src, tmp_path / f"analytics_{n}.csv",
                                 "--hv-window", "21", "--hv-source", "spot") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def _range_of_row(path, row, count, monkeypatch):
    """The range, of ``count``, that holds the 0-based body ``row`` of ``path``."""
    lines = path.read_bytes().splitlines(keepends=True)
    with monkeypatch.context() as patch, open(path, "rb") as fh:
        in_ranges(patch, count)
        cuts = table.Blocks(path, fh, split=True)._cuts()
    start = sum(map(len, lines[: row + 1]))  # the header is line 0
    return sum(cut <= start for cut in cuts[1:-1])


class TestOptionAnalyticsRanges:
    """A quote body cut into ranges gives the bytes, errors and files of one range."""

    _quotes_csv = TestOptionAnalyticsCli._quotes_csv

    def _run(self, monkeypatch, count, src, out, *flags, plain=True):
        """Exit code of option-analytics with the body cut into ``count`` ranges (1: uncut),
        after checking that every worker did its range when they are all ``plain``."""
        loaded = []
        with monkeypatch.context() as patch:
            if count > 1:
                in_ranges(patch, count)
                load = table._load
                patch.setattr(table, "_load", lambda out: loaded.append(load(out)) or loaded[-1])
            rc = main(["option-analytics", "--input", str(src), "--output", str(out), *flags])
        assert None not in loaded or not plain
        assert_no_worker_left()
        return rc

    def _book(self, src, n=60, underlying=False):
        self._quotes_csv(src, n=n)
        lines = [line.split(",") for line in src.read_text().splitlines()]
        if underlying:
            for i, cells in enumerate(lines):
                cells.append("underlying" if i == 0 else repr(100.0 + i))
        return lines

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_ranges_write_the_bytes_of_one_range(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(table, "BLOCK_BYTES", 512)  # a few blocks a range
        src = tmp_path / "quotes.csv"
        self._quotes_csv(src, n=60)
        first = next(i for i in range(60) if _range_of_row(src, i, count, monkeypatch))
        # The widest window is longer than the first range, so its hv straddles the cut.
        for flags in ([], ["--hv-window", "3"], ["--hv-window", str(first + 5)]):
            serial, ranged_out = tmp_path / "serial.csv", tmp_path / "analytics.csv"
            assert self._run(monkeypatch, 1, src, serial, *flags) == 0
            assert self._run(monkeypatch, count, src, ranged_out, *flags) == 0
            assert ranged_out.read_bytes() == serial.read_bytes()
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "analytics.csv", "quotes.csv", "serial.csv"]

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("kind", ["bad_cell", "no_arbitrage", "hv_price", "ragged"])
    def test_an_error_in_a_later_range_is_the_one_of_one_range(self, tmp_path, monkeypatch,
                                                               capsys, kind, count):
        src = tmp_path / "quotes.csv"
        lines = self._book(src, underlying=True)
        row = 45  # 0-based body row, in the last range or the one above it
        cells = lines[row + 1]
        if kind == "bad_cell":
            cells[6] = "x"
        elif kind == "no_arbitrage":  # a call priced at its spot, the upper bound
            cells[5], cells[6] = "call", cells[1]
        elif kind == "hv_price":
            cells[-1] = "0.0"
        else:
            cells.append("EXTRA")
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        assert _range_of_row(src, row, count, monkeypatch) >= 1
        flags = ["--hv-window", "3", "--hv-source", "underlying"]
        errors = []
        for ranges in (1, count):
            capsys.readouterr()
            assert self._run(monkeypatch, ranges, src, tmp_path / "out.csv", *flags,
                             plain=kind != "ragged") == 1
            errors.append(capsys.readouterr().err)
            assert sorted(tmp_path.iterdir()) == [src]
        assert errors[1] == errors[0]
        assert f"{src}: row {row + 2}" in errors[0]

    @pytest.mark.parametrize("kind", ["quoted", "crlf"])
    def test_a_range_that_is_not_plain_is_read_again_in_one_range(self, tmp_path, monkeypatch,
                                                                   kind):
        src = tmp_path / "quotes.csv"
        lines = self._book(src)
        row = 45
        if kind == "quoted":
            lines[row + 1][0] = f'"{lines[row + 1][0]}"'
        else:
            lines[row + 1][-1] += "\r"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        assert _range_of_row(src, row, 2, monkeypatch) == 1
        flags = ["--hv-window", "3", "--hv-source", "spot"]
        serial, out = tmp_path / "serial.csv", tmp_path / "analytics.csv"
        assert self._run(monkeypatch, 1, src, serial, *flags) == 0
        assert self._run(monkeypatch, 2, src, out, *flags, plain=False) == 0
        assert out.read_bytes() == serial.read_bytes()
        text = out.read_text()
        assert text.count("#config_hash=") == text.count("\ntimestamp,") == 1
        assert len(ref.read_table(out)[1]) == 60

    def test_no_worker_or_file_outlives_a_failure_in_the_parents_range(self, tmp_path,
                                                                        monkeypatch, capsys):
        src, out = tmp_path / "quotes.csv", tmp_path / "analytics.csv"
        lines = self._book(src)
        lines[2][5] = "cal"
        src.write_text("".join(",".join(cells) + "\n" for cells in lines))
        parent, solve, slept = os.getpid(), cli.implied_vol, []

        def slow_in_a_worker(quote):  # the worker is still solving when the parent fails
            if os.getpid() != parent and not slept:
                slept.append(True)
                time.sleep(30)
            return solve(quote)

        monkeypatch.setattr(cli, "implied_vol", slow_in_a_worker)
        start = time.monotonic()
        assert self._run(monkeypatch, 2, src, out) == 1
        assert time.monotonic() - start < 15
        assert capsys.readouterr().err.endswith(
            f"error: {src}: row 3: kind must be 'call' or 'put', got 'cal'\n")
        assert sorted(tmp_path.iterdir()) == [src]


class TestReportCli:
    def test_report_from_library_curve(self, tmp_path):
        rng = np.random.default_rng(11)
        rets = rng.uniform(-0.02, 0.03, 120)
        positions = PositionSeries(range(120), ("x",), np.ones((120, 1)), 1)
        curve = equity_curve(positions, Panel(range(120), ("x",), rets[:, None]))
        path = tmp_path / "curve.csv"
        lines = ["timestamp,net_value,period_return,position"]
        for i in range(120):
            lines.append(
                f"{i},{float(curve.net_values[i])!r},{float(curve.period_returns[i])!r},1.0"
            )
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        rc = main(["report", "--input", str(path), "--output", str(out)])
        assert rc == 0
        report = _read_metric_csv(out)
        from finpipe.stats import full_report

        expected = full_report(EquityCurve(range(120), rets), 252.0)
        assert float(report["annual_return"]) == expected.annual_return
        assert float(report["max_drawdown"]) == expected.max_drawdown

    def test_row_with_missing_field_exits_one(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text("timestamp,net_value,period_return,position\n"
                        "0,1.01,0.01,1.0\n1,1.02,0.0099\n")
        out = tmp_path / "report.csv"
        rc = main(["report", "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "row 3 has 3 fields, expected 4" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["net_value", "period_return"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_curve_cell_exits_one(self, tmp_path, capsys, column, bad):
        # A nan period_return used to report 7 of the 9 statistics as NA, exit 0.
        path = tmp_path / "curve.csv"
        lines = _write_curve(path)
        cells = lines[7].split(",")
        cells[lines[0].split(",").index(column)] = bad
        lines[7] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        rc = main(["report", "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert f"row 8: bad value in column {column!r}" in capsys.readouterr().err

    def test_first_bad_curve_cell_in_file_order_is_named(self, tmp_path, capsys):
        # A bad net_value on row 8 used to be named before a bad period_return on row 3.
        path = tmp_path / "curve.csv"
        lines = [line.split(",") for line in _write_curve(path)]
        lines[2][2], lines[7][1] = "x", "inf"
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        out = tmp_path / "report.csv"
        assert main(["report", "--input", str(path), "--output", str(out)]) == 1
        assert not out.exists()
        assert "row 3: bad value in column 'period_return'" in capsys.readouterr().err

    def test_net_value_that_is_not_the_running_product_exits_one(self, tmp_path, capsys):
        # A flat net_value beside returns compounding to a gain used to exit 0
        # with max_drawdown 0.0 next to statistics of the returns.
        path = tmp_path / "curve.csv"
        lines = _write_curve(path)
        rets = [float(line.split(",")[2]) for line in lines[1:]]
        lines[1:] = [f"{i},1.0,{r!r},1.0" for i, r in enumerate(rets)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        rc = main(["report", "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert (f"{path}: row 2: net_value 1.0 is not the running product of period_return "
                f"(expected {1.0 + rets[0]!r})" in capsys.readouterr().err)

    @pytest.mark.parametrize("rel, rc", [(1e-6, 1), (1e-12, 0)])
    def test_net_value_is_checked_to_a_relative_1e_9(self, tmp_path, capsys, rel, rc):
        path = tmp_path / "curve.csv"
        lines = _write_curve(path)
        cells = lines[7].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + rel))
        lines[7] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        assert main(["report", "--input", str(path), "--output", str(out)]) == rc
        if rc:
            assert "row 8: net_value" in capsys.readouterr().err

    def test_total_loss_period_exits_one(self, tmp_path, capsys):
        # Used to exit 0 with NA statistics.
        path = tmp_path / "curve.csv"
        path.write_text("timestamp,net_value,period_return,position\n"
                        "0,1.01,0.01,1.0\n1,0.0,-1.0,1.0\n2,0.0,0.01,1.0\n")
        out = tmp_path / "report.csv"
        rc = main(["report", "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "-100%" in capsys.readouterr().err

    def test_freq_sets_the_default_periods_per_year(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        _write_curve(path)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--input", str(path), "--output", "r.csv", "--freq", "weekly"])
        assert exc.value.code == 2
        assert "invalid choice: 'weekly'" in capsys.readouterr().err

        def metric_lines(*flags):
            out = tmp_path / "report.csv"
            assert main(["report", "--input", str(path), "--output", str(out), *flags]) == 0
            return [line for line in out.read_text().splitlines() if not line.startswith("#")]

        hourly = metric_lines("--freq", "hourly")
        assert hourly == metric_lines("--periods-per-year", "8760")
        assert hourly != metric_lines()  # daily: 252
        assert metric_lines() == metric_lines("--periods-per-year", "252")

    def test_minutely_needs_explicit_periods(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--input", "c.csv", "--output", "r.csv",
                  "--freq", "minutely"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_module_runs_main_on_sys_argv(self, tmp_path, raw_csv):
        # What the installed ``finpipe`` script does: main() reads sys.argv.
        package_root = str(Path(finpipe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "finpipe.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=60)

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={raw_csv}\noutput-dir=from_cfg\n")
        done = run("split", "--config", str(cfg))
        assert done.returncode == 0, done.stderr
        assert main(["split", "--input", str(raw_csv), "--output-dir", str(tmp_path / "ref")]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "from_cfg" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes()

        missing = run("preprocess", "--input", "absent.csv", "--output", "t.csv",
                      "--anchors", "a.csv")
        assert missing.returncode == 1
        assert "finpipe preprocess: error: no such file: absent.csv" in missing.stderr
        assert not (tmp_path / "t.csv").exists()

        unknown = run("split", "--input", str(raw_csv), "--output-dir", "s", "--nope")
        assert unknown.returncode == 2
        assert "unrecognized arguments: --nope" in unknown.stderr
        assert not (tmp_path / "s").exists()

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes about a second to import and scipy.special a third
        # of one; every stage would pay them. The package imports neither:
        # ranks are computed in numpy and the normal CDF comes from math.erfc.
        package_root = str(Path(finpipe.__file__).resolve().parents[1])
        for module in ("finpipe", "finpipe.cli"):
            done = subprocess.run(
                [sys.executable, "-c", f"import {module}, sys; "
                 "print([m in sys.modules for m in ('scipy.stats', 'scipy.special')])"],
                env=dict(os.environ, PYTHONPATH=package_root), capture_output=True, text=True,
                timeout=60)
            assert done.returncode == 0, done.stderr
            assert done.stdout == "[False, False]\n", module

    def test_import_leaves_the_worker_modules_unloaded(self):
        # The range map in finpipe.table imports what its workers need on
        # first use, so a stage with small files pays for none of it; numpy.random
        # (2.8 MB of RSS) is loaded by naive-forecast's first draw alone. Without
        # site (-S), no .pth file imports tempfile before the package does.
        package_root = str(Path(finpipe.__file__).resolve().parents[1])
        numpy_root = str(Path(np.__file__).resolve().parents[1])
        modules = ("multiprocessing", "concurrent.futures", "tempfile", "numpy.random")
        done = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, finpipe.cli; "
             f"print([m for m in {modules!r} if m in sys.modules])"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, numpy_root])),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_option_analytics_loads_no_scipy(self, tmp_path):
        package_root = str(Path(finpipe.__file__).resolve().parents[1])
        (tmp_path / "quotes.csv").write_text(
            "timestamp,spot,strike,rate,expiry,kind,market_price\n"
            "0,100.0,100.0,0.01,0.5,call,7.0\n"
            "1,100.0,90.0,0.01,0.5,put,1.5\n")
        code = ("import sys, finpipe.cli\n"
                "rc = finpipe.cli.main(['option-analytics', '--input', 'quotes.csv', "
                "'--output', 'analytics.csv'])\n"
                "print(rc, sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=package_root),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 []\n"
        assert (tmp_path / "analytics.csv").is_file()

    def test_package_source_imports_no_scipy(self):
        package_dir = Path(finpipe.__file__).resolve().parent
        sources = sorted(package_dir.glob("*.py"))
        assert sources
        found = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
        assert found == []
