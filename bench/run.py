"""Paper-scale benchmark of the finpipe CLI stages.

    python3 bench/run.py --workload m2m_eval --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, runs one discarded warm-up
pass whose artefacts are checked against independent recomputations
(``verify.py``), then makes timed passes, with a fresh-interpreter start-up
after a pass about every five seconds, until ``--seconds`` have passed (at
least three passes and five start-ups). Every later pass must reproduce the warm-up pass's artefacts
byte for byte. The last line of stdout is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run. Progress and a per-stage breakdown go to stderr;
samples, artefact digests and the trace go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import verify
import workload as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_STARTUPS = 5
# A start-up follows a pass only once the loop has run this long per start-up
# so far: about one per 5 s, spread over the run, and most of the timed loop
# goes to passes.
STARTUP_EVERY_S = 5.0
DEADLINE_S = 120.0  # stop starting passes after this much wall time, whatever --seconds says


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artefact_mismatches(reference: dict[str, str], workdir: Path, outputs: list[str]) -> list[str]:
    """Compare a stage's files with the first pass's digests, recording new ones."""
    faults = []
    for name in outputs:
        path = workdir / name
        digest = sha256(path) if path.is_file() else "missing"
        if reference.setdefault(name, digest) != digest:
            faults.append(f"{name} differs from the first pass")
    return faults


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_totals(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: stage, layer and self seconds, counts."""
    totals: dict[str, float] = defaultdict(float)
    for rec in records:
        totals[harness.STAGE_METRIC[rec["command"]]] += rec["seconds"]
        totals["cli.self_s"] += rec["self_s"]
        for key, value in {**rec["layers"], **rec["counts"]}.items():
            totals[key] += value
    return {name: totals.get(name, 0.0) for name in harness.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "finpipe" / "cli.py", ROOT / "tests" / "oracle_utils.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        log(f"bench: not a finpipe checkout, missing {missing}")
        return 2
    sys.path.insert(0, str(SRC))
    import finpipe.cli

    if not Path(finpipe.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"bench: imported finpipe from {finpipe.cli.__file__}, not from {SRC}")
        return 2

    began = time.monotonic()
    trace = bool(args.trace)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scale = wl.PAPER
    inputs, _ = harness.fork_call(lambda: wl.write_inputs(args.workload, args.seed, scale, workdir))
    if inputs is None:
        log("bench: input generation failed")
        return 1
    log(f"bench: {args.workload} seed {args.seed} inputs {inputs}")
    plan = wl.stages(args.workload, args.seed, scale)

    attempted = failed = 0
    reference: dict[str, str] = {}
    summary: dict = {"workload": args.workload, "seed": args.seed, "trace": trace,
                     "inputs": inputs}

    def run_pass(check: bool) -> list[dict]:
        nonlocal attempted, failed
        records = [dict(harness.run_stage(argv, workdir, trace), label=label, command=argv[0])
                   for label, argv, _ in plan]
        problems: dict[str, list[str]] = {}
        if check:
            result, _ = harness.fork_call(
                lambda: verify.check_pass(args.workload, args.seed, scale, workdir, ROOT))
            if result is None:
                result = {"problems": {label: ["output check crashed"] for label, _, _ in plan},
                          "info": {}}
            problems = result["problems"]
            summary["check_info"] = result["info"]
        for rec, (label, _, outputs) in zip(records, plan):
            faults = list(problems.get(label, []))
            if rec["rc"] != 0:
                faults.append(f"exit code {rec['rc']}")
            faults += artefact_mismatches(reference, workdir, outputs)
            attempted += 1
            if faults:
                failed += 1
                log(f"bench: FAILED {label}: {faults[:5]}")
        return records

    run_pass(check=True)
    startups: list[dict] = []
    passes: list[list[dict]] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(check=False))
        if len(startups) < (time.monotonic() - start) / STARTUP_EVERY_S:
            startups.append(harness.startup(SRC, trace))
        now = time.monotonic()
        log(f"bench: pass {len(passes)} pipeline {sum(r['seconds'] for r in passes[-1]):.3f} s, "
            f"{len(startups)} start-ups, last {startups[-1]['setup_s']:.3f} s")
        # Stop at the pass boundary nearest to --seconds, so a run's wall
        # time does not grow by up to a whole pass beyond it.
        measured = now - start
        if now - began > DEADLINE_S or (measured + measured / len(passes) / 2 >= args.seconds
                                        and len(passes) >= MIN_PASSES):
            break
    while len(startups) < MIN_STARTUPS:
        startups.append(harness.startup(SRC, trace))

    pipeline = [sum(r["seconds"] for r in p) for p in passes]
    if trace:
        per_pass = [layer_totals(p) for p in passes]
        metrics = {name: {"value": statistics.median(t[name] for t in per_pass),
                          "unit": harness.unit(name)}
                   for name in harness.PER_LAYER if not name.startswith("import.")}
        for name in harness.IMPORTS.values():
            metrics[name] = {"value": statistics.median(s.get(name, 0.0) for s in startups),
                             "unit": "s"}
        unwrapped = sorted({n for p in passes for r in p for n in r.get("unwrapped", [])})
        if unwrapped:
            log(f"bench: CLI names with no layer metric (their time is in cli.self_s): {unwrapped}")
        last = passes[len(passes) // 2]
        log("bench: traced stages of one pass (seconds; layers + self = stage):")
        for rec in last:
            layers = {k: round(v, 4) for k, v in sorted(rec["layers"].items())}
            log(f"  {rec['label']:<20} {rec['seconds']:.4f} = {layers} + self {rec['self_s']:.4f}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in startups), "unit": "s"},
            "pipeline_s": {"value": statistics.median(pipeline), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
                            "unit": "MB"},
        }
    summary.update(pipeline_s=pipeline, setup_s=[s["setup_s"] for s in startups],
                   passes=passes, startups=startups, artefact_sha256=reference,
                   attempted=attempted, failed=failed, wall_s=time.monotonic() - began)
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    log(f"bench: {len(passes)} passes, median pipeline {statistics.median(pipeline):.4f} s "
        f"({'traced' if trace else 'untraced'}), {len(startups)} start-ups, "
        f"{attempted} invocations, {failed} failed, {time.monotonic() - began:.1f} s wall")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
