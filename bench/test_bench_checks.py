"""The benchmark's output checks accept real artefacts and reject corrupted ones.

Runs every stage in-process at a small scale, so the whole file takes a
few seconds. The paper-scale runs live in ``run.py``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import finpipe.cli as cli
import harness
import run
import verify
import workload as wl

ROOT = Path(__file__).resolve().parent.parent
# Small enough for a few seconds, large enough for the forecast-noise test.
SCALES = {
    "m2m_eval": wl.Scale(rows=700, input_len=64, horizon=5, quotes=0),
    "close_backtest": wl.Scale(rows=1500, input_len=64, horizon=5, quotes=0),
    "option_book": wl.Scale(rows=0, input_len=0, horizon=0, quotes=300),
}
SEED = 11


def _run_stages(workload: str, workdir: Path) -> None:
    wl.write_inputs(workload, SEED, SCALES[workload], workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv, _ in wl.stages(workload, SEED, SCALES[workload]):
            assert cli.main(argv) == 0, label
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    for workload in wl.WORKLOADS:
        _run_stages(workload, base / workload)
    return base


@pytest.fixture
def work(built, tmp_path):
    """A private copy of one workload's clean artefacts."""
    def copy(workload: str) -> Path:
        dest = tmp_path / workload
        shutil.copytree(built / workload, dest)
        return dest
    return copy


def _edit(path: Path, line_no: int, fn) -> None:
    """Replace data line ``line_no`` (0 = header, comments skipped) by ``fn(cells)``."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    idx = data[line_no]
    lines[idx] = ",".join(fn(lines[idx].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _bump_digit(text: str, position: int) -> str:
    """Change the digit at ``position`` places after the decimal point."""
    head, _, frac = text.partition(".")
    digit = str((int(frac[position - 1]) + 5) % 10)
    return f"{head}.{frac[:position - 1]}{digit}{frac[position:]}"


def _problems(workload: str, workdir: Path) -> dict:
    return verify.check_pass(workload, SEED, SCALES[workload], workdir, ROOT)["problems"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_clean_artefacts_pass_every_check(built, workload):
    assert _problems(workload, built / workload) == {
        label: [] for label, _, _ in wl.stages(workload, SEED, SCALES[workload])}


def test_preprocess_check_rejects_a_changed_cell(work):
    d = work("m2m_eval")
    _edit(d / "transformed.csv", 7, lambda c: c[:3] + [_bump_digit(c[3], 9)] + c[4:])
    assert _problems("m2m_eval", d)["preprocess"]


def test_preprocess_check_rejects_a_wrong_anchor(work):
    d = work("m2m_eval")
    _edit(d / "anchors.csv", 4, lambda c: c[:3] + [_bump_digit(c[3], 3)] + c[4:])
    assert _problems("m2m_eval", d)["preprocess"]


def test_split_check_rejects_a_moved_row(work):
    d = work("m2m_eval")
    val = (d / "splits" / "val.csv").read_text().splitlines()
    (d / "splits" / "val.csv").write_text("\n".join(val[:-1]) + "\n")
    test = (d / "splits" / "test.csv").read_text().splitlines()
    header = [i for i, ln in enumerate(test) if not ln.startswith("#")][0]
    test.insert(header + 1, val[-1])
    (d / "splits" / "test.csv").write_text("\n".join(test) + "\n")
    assert _problems("m2m_eval", d)["split"]


def test_forecast_check_rejects_a_changed_y_pred_digit(work):
    d = work("m2m_eval")
    _edit(d / "forecasts.csv", 500, lambda c: c[:3] + [_bump_digit(c[3], 2)])
    problems = _problems("m2m_eval", d)
    assert problems["naive-forecast"]
    assert problems["evaluate"]


def test_forecast_check_rejects_a_duplicated_record(work):
    d = work("close_backtest")
    _edit(d / "forecasts.csv", 5, lambda c: [c[0], "1", *c[2:]])
    problems = _problems("close_backtest", d)
    assert any("duplicated" in p for p in problems["naive-forecast"])
    assert problems["backtest:timing"]


def test_evaluate_check_rejects_a_changed_metric(work):
    d = work("m2m_eval")
    _edit(d / "metrics.csv", 3, lambda c: [c[0], _bump_digit(c[1], 8)])
    assert _problems("m2m_eval", d)["evaluate"]


def test_rank_correlation_matches_the_test_oracle():
    import numpy as np

    oracle = verify.load_oracle(ROOT)
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(40, 5, 3))
    pred = np.round(rng.normal(size=(40, 5, 3)), 1)  # ties
    pred[0, :, 0] = 1.0  # constant pair
    rho = verify.pair_correlations(truth, pred)
    for b in range(40):
        for c in range(3):
            assert rho[b, c] == pytest.approx(
                oracle.spearman(truth[b, :, c].tolist(), pred[b, :, c].tolist()), abs=1e-12)


def test_backtest_check_rejects_a_scaled_net_value(work):
    d = work("close_backtest")
    _edit(d / "curve_timing.csv", 100, lambda c: [c[0], repr(float(c[1]) * (1 + 1e-7)), *c[2:]])
    assert _problems("close_backtest", d)["backtest:timing"]


def test_backtest_check_rejects_a_flipped_position(work):
    d = work("close_backtest")
    _edit(d / "curve_longshort.csv", 40, lambda c: c[:3] + [repr(-float(c[3]))])
    assert _problems("close_backtest", d)["backtest:longshort"]


def test_backtest_check_rejects_a_topk_row_with_one_asset(work):
    d = work("close_backtest")
    _edit(d / "curve_topk.csv", 10, lambda c: c[:3] + [c[3].split("|")[0]])
    assert _problems("close_backtest", d)["backtest:topk"]


def test_report_check_rejects_a_changed_statistic(work):
    d = work("close_backtest")
    _edit(d / "report_topk.csv", 4, lambda c: [c[0], _bump_digit(c[1], 6)])
    assert _problems("close_backtest", d)["report:topk"]


@pytest.mark.parametrize("column, change", [
    (7, lambda v: v + 1e-5),         # iv off by 1e-5
    (10, lambda v: v * (1 + 1e-6)),  # gamma
    (13, lambda v: v * (1 + 1e-8)),  # hv
])
def test_option_check_rejects_a_changed_value(work, column, change):
    d = work("option_book")
    book = wl.make_quotes("option_book", SEED, SCALES["option_book"])
    row = int(max(range(wl.HV_WINDOW, len(book.sigma)), key=lambda i: book.sigma[i]))
    _edit(d / "analytics.csv", row + 1,
          lambda c: c[:column] + [repr(change(float(c[column])))] + c[column + 1:])
    assert _problems("option_book", d)["option-analytics"]


def test_byte_identity_check_names_a_changed_file(work):
    d = work("m2m_eval")
    reference: dict = {}
    assert run.artefact_mismatches(reference, d, ["forecasts.csv", "metrics.csv"]) == []
    _edit(d / "forecasts.csv", 9, lambda c: c[:3] + [_bump_digit(c[3], 12)])
    assert run.artefact_mismatches(reference, d, ["forecasts.csv", "metrics.csv"]) == [
        "forecasts.csv differs from the first pass"]


def test_traced_stage_layers_add_up_and_count_calls(built, tmp_path):
    d = tmp_path / "option_book"
    shutil.copytree(built / "option_book", d)
    (_, argv, _), = wl.stages("option_book", SEED, SCALES["option_book"])
    rec = harness.run_stage(argv, d, trace=True)
    assert rec["rc"] == 0 and rec["unwrapped"] == []
    assert sum(rec["layers"].values()) + rec["self_s"] == pytest.approx(rec["seconds"], abs=1e-9)
    assert rec["counts"]["options.quotes"] == SCALES["option_book"].quotes
    assert rec["counts"]["options.greeks_calls"] > SCALES["option_book"].quotes  # the solver's calls count too
    assert rec["counts"]["options.bs_price_calls"] > SCALES["option_book"].quotes
    assert rec["counts"]["io.bytes_written"] == (d / "analytics.csv").stat().st_size
    assert cli.implied_vol.__module__ == "finpipe.options"  # the parent stays unwrapped


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "option_book",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
