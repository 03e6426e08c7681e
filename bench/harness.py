"""Run CLI stages in forked processes, time them, and optionally trace layers.

The parent process imports ``finpipe.cli`` once and never runs a stage
itself. Each stage invocation is a fresh fork of it, so every stage starts
from the state a user's ``finpipe <stage>`` process has after its imports,
and its peak resident set is its own. Work that is not a stage (input
generation, output checks) also runs in a forked child, one at a time, so
the parent stays small and at most two processes exist at once.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

CHILD_TIMEOUT_S = 150  # a child still running after this is killed by SIGALRM

# Every callable finpipe.cli imports from another module, and the layer
# metric its time goes to. Calls through these names are all the calls the
# CLI makes into the other modules; exception classes are left alone.
LAYER_OF = {
    "load_csv": "frame.load_csv_s",
    "write_csv": "frame.write_csv_s",
    "sliding_windows": "frame.sliding_windows_s",
    "WindowSpec": "frame.sliding_windows_s",
    "Panel": "frame.panel_s",
    "chronological_split": "frame.chronological_split_s",
    "SplitSpec": "frame.chronological_split_s",
    "naive_forecast": "forecast.naive_forecast_s",
    "make_batch": "forecast.naive_forecast_s",
    "write_forecasts": "forecast.write_forecasts_s",
    "load_forecasts": "forecast.load_forecasts_s",
    "read_metadata": "forecast.load_forecasts_s",
    "transform_panel": "preprocess.transform_panel_s",
    "write_anchor_file": "preprocess.anchor_io_s",
    "load_anchor_file": "preprocess.anchor_io_s",
    "inverse_price_transform": "preprocess.inverse_price_transform_s",
    "mse": "metrics.mse_s",
    "mae": "metrics.mae_s",
    "ms_ic": "metrics.ms_ic_s",
    "ms_ir": "metrics.ms_ir_s",
    "difference_signal": "strategy.signal_s",
    "diff_in_diff": "strategy.signal_s",
    "timing_positions": "strategy.positions_s",
    "long_short_positions": "strategy.positions_s",
    "portfolio_topk": "strategy.positions_s",
    "forward_returns": "strategy.forward_returns_s",
    "equity_curve": "strategy.equity_curve_s",
    "EquityCurve": "strategy.equity_curve_s",
    "full_report": "stats.full_report_s",
    "periods_per_year_for": "stats.full_report_s",
    "OptionQuote": "options.option_quote_s",
    "implied_vol": "options.implied_vol_s",
    "greeks": "options.greeks_s",
    "historical_vol": "options.historical_vol_s",
}
STAGE_METRIC = {
    "preprocess": "cli.preprocess_s", "split": "cli.split_s",
    "naive-forecast": "cli.naive_forecast_s", "evaluate": "cli.evaluate_s",
    "backtest": "cli.backtest_s", "report": "cli.report_s",
    "option-analytics": "cli.option_analytics_s",
}
COUNTS = ("forecast.records_written", "forecast.records_read", "frame.rows_read",
          "options.quotes", "options.bs_price_calls", "options.greeks_calls",
          "io.bytes_read", "io.bytes_written")
IMPORTS = {"finpipe.cli": "import.finpipe.cli_s", "finpipe.metrics": "import.finpipe.metrics_s",
           "finpipe.options": "import.finpipe.options_s", "scipy.stats": "import.scipy.stats_s"}
LAYER_METRICS = tuple(sorted(set(LAYER_OF.values())))
PER_LAYER = (tuple(STAGE_METRIC.values()) + ("cli.self_s",) + LAYER_METRICS + COUNTS
             + tuple(IMPORTS.values()))


def unit(metric: str) -> str:
    if metric.startswith("io."):
        return "bytes"
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    """Exclusive time per layer metric and counts, kept in memory.

    A span's time goes to its metric minus the time of spans nested in it,
    so the layer times of a stage plus its self time add up to the stage.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._nested = [0.0]

    def timed(self, metric, fn, after=None):
        def wrapper(*args, **kwargs):
            self._nested.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[metric] += elapsed - self._nested.pop()
                self._nested[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, metric, fn):
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, cli) -> list[str]:
        """Wrap the CLI's cross-module callables; return names left unwrapped."""
        import finpipe.options as options

        def add(metric, amount):
            self.counts[metric] += amount

        options.bs_price = self.counted("options.bs_price_calls", options.bs_price)
        options.greeks = self.counted("options.greeks_calls", options.greeks)
        after = {  # (args, result) -> count of the work the call did
            "write_forecasts": lambda a, r: add("forecast.records_written", a[1].y_pred.size),
            "load_forecasts": lambda a, r: add("forecast.records_read", r.y_pred.size),
            "load_csv": lambda a, r: add("frame.rows_read", r.n_rows),
            "OptionQuote": lambda a, r: add("options.quotes", 1),
        }
        unwrapped = []
        for name, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if not callable(obj) or not module.startswith("finpipe.") or module == cli.__name__:
                continue
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            if name == "greeks":
                obj = options.greeks  # the counting wrapper, timed only for the CLI's own calls
            if name in LAYER_OF:
                setattr(cli, name, self.timed(LAYER_OF[name], obj, after.get(name)))
            else:
                unwrapped.append(name)
        return unwrapped


def _proc_io() -> tuple[int, int, int]:
    """(rchar, wchar, bytes of this read) of this process; zeros without /proc."""
    try:
        with open("/proc/self/io", "rb") as fh:
            raw = fh.read()
    except OSError:
        return 0, 0, 0
    fields = dict(line.split(b":") for line in raw.splitlines() if b":" in line)
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


def _child(pipe_w: int, job) -> None:
    """Body of a forked child: run ``job``, send its JSON result, exit."""
    code = 0
    try:
        os.dup2(2, 1)  # keep the benchmark's stdout for its result line
        signal.alarm(CHILD_TIMEOUT_S)
        payload = json.dumps(job()).encode()
        view = memoryview(payload)
        while view:
            view = view[os.write(pipe_w, view):]
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        sys.stderr.flush()
        os._exit(code)


def fork_call(job) -> tuple[object, float]:
    """Run ``job()`` in a forked child; return (its JSON result or None, peak RSS MB)."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, job)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    data = b"".join(chunks)
    ok = os.waitstatus_to_exitcode(status) == 0 and data
    return (json.loads(data) if ok else None), usage.ru_maxrss / 1024.0


def run_stage(argv: list[str], workdir: Path, trace: bool) -> dict:
    """One CLI invocation in a fresh fork: exit code, seconds in main, peak RSS.

    With ``trace``, also the stage's layer times, self time and counts.
    """

    def job():
        import finpipe.cli as cli

        os.chdir(workdir)
        tracer = Tracer()
        unwrapped = tracer.install(cli) if trace else []
        rchar0, wchar0, own = _proc_io()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
        rchar1, wchar1, _ = _proc_io()
        out = {"rc": rc, "seconds": seconds}
        if trace:
            counts = dict(tracer.counts)
            counts["io.bytes_read"] = max(rchar1 - rchar0 - own, 0)
            counts["io.bytes_written"] = wchar1 - wchar0
            out.update(layers=dict(tracer.seconds), counts=counts, unwrapped=unwrapped,
                       self_s=seconds - sum(tracer.seconds.values()))
        return out

    result, rss_mb = fork_call(job)
    if result is None:  # the child died before reporting; counted as a failed invocation
        result = {"rc": -1, "seconds": 0.0}
    result["rss_mb"] = rss_mb
    return result


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def startup(src: Path, importtime: bool) -> dict:
    """Spawn a fresh interpreter that imports finpipe.cli.

    Returns the seconds from spawn to the end of that import, measured on
    the system-wide monotonic clock, and with ``importtime`` the cumulative
    import seconds of the modules in ``IMPORTS``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import time, finpipe.cli; print(time.monotonic(), finpipe.cli.__file__)"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"start-up failed: {proc.stderr.strip()[-500:]}")
    stamp, path = proc.stdout.strip().split(" ", 1)
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"start-up imported finpipe from {path}, not from {src}")
    out = {"setup_s": float(stamp) - start}
    if importtime:
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3).strip() in IMPORTS:
                out[IMPORTS[m.group(3).strip()]] = int(m.group(2)) / 1e6
    return out
