"""Run one workload of the sdecub benchmark and print its metrics.

    python3 perfbench/run.py --workload raw_vs_mc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json`` and nothing is
instrumented.  With ``--trace 1`` they are the per-layer metrics: the run
alternates untraced and traced passes, and the median difference between
the two passes of a round is the tracing overhead.  Either way an untimed
warm-up pass comes first.

Each run also writes ``perfbench/out/<workload>-seed<seed>-trace<t>/``:
``record.json`` (provenance, every sample, failures, per-interval table
statistics), ``frontier.csv`` (seconds beside error for every estimate) and,
when traced, ``spans.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9  # set-up runs per run: this process plus fresh interpreters
DETAIL_METRICS = (
    "table_s",
    "estimate_s",
    "estimate_err",
    "mc_stderr",
    "epoch_s.cubature",
    "epoch_s.mc",
    "tape_mb.cubature",
    "tape_mb.mc",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import sdecub from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "sdecub" / "__init__.py").is_file():
        raise SystemExit(f"no sdecub source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdecub

    if Path(sdecub.__file__).resolve().parent != SRC / "sdecub":
        raise SystemExit(f"imported sdecub from {sdecub.__file__}, not from {SRC}")
    return sdecub


def setup(name: str, seed: int, sizes=None, traced: bool = False):
    """Everything before the first timed operation.

    Returns (sc, state, seconds, tracer); ``tracer`` is None when untraced.
    """
    start = time.perf_counter()
    sc = import_package()
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else None
    with tracing.instrument(tracer, sc) if traced else nullcontext():
        state = workloads.WORKLOADS[name][0](sc, sizes or workloads.Sizes(), seed)
    return sc, state, time.perf_counter() - start, tracer


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, import included."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(sc, name, state, budget: float, modes: tuple[bool, ...], min_rounds: int):
    """An untimed warm-up pass, then rounds of one pass per mode (untraced, traced).

    The warm-up lets the process's first large allocations happen before
    timing.  At least ``min_rounds`` rounds run; further rounds start only
    while the mean round so far still fits in ``budget`` seconds.
    Alternating the modes keeps drift in machine speed out of their
    difference.  Returns (warm-up result, {mode: [(result, tracer)]}).
    """
    import tracing
    import workloads

    run_pass = workloads.WORKLOADS[name][1]
    warmup = run_pass(state, None)
    out: dict[bool, list] = {traced: [] for traced in modes}
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= budget:
        for traced in modes:
            tracer = tracing.Tracer() if traced else None
            with tracing.instrument(tracer, sc) if traced else nullcontext():
                out[traced].append((run_pass(state, tracer), tracer))
        rounds += 1
    return warmup, out


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _frontier(passes) -> list[dict]:
    """One row per point; seconds are the median over the run's passes."""
    rows: dict[tuple, dict] = {}
    seconds: dict[tuple, list[float]] = {}
    for result, _ in passes:
        for row in result.frontier:
            key = (row["arm"], row["dynamics"], row["k"])
            rows.setdefault(key, dict(row))
            seconds.setdefault(key, []).append(row["seconds"])
    for key, row in rows.items():
        row["seconds"] = statistics.median(seconds[key])
    return list(rows.values())


def _source_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "sdecub").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def run(name: str, seed: int, seconds: float, trace: int, sizes=None):
    """Run one workload; returns (result line, run record, spans or None)."""
    spec = load_spec()
    sc, state, setup_s, setup_tracer = setup(name, seed, sizes, traced=bool(trace))
    import numpy as np
    import tracing

    record = dict(
        provenance=dict(
            workload=name, seed=seed, seconds=seconds, trace=trace,
            nproc=os.cpu_count(), python=platform.python_version(),
            numpy=np.__version__, platform=platform.platform(),
            sdecub_nonblank_lines=_source_lines(),
        ),
        setup_samples=[setup_s],
    )
    spans = None
    if not trace:
        record["setup_samples"] += [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        warmup, timed = run_passes(sc, name, state, seconds, (False,), min_rounds=1)
        passes = timed[False]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(record["setup_samples"]),
            "cubature_s": _median([s for r, _ in passes for s in r.cubature_s]),
            "mc_s": _median([s for r, _ in passes for s in r.mc_s]),
            "peak_rss_mb": rss_kib * 1024 / 1e6,
        }
        declared = spec["end_to_end"]
        all_passes = [(warmup, None)] + passes
    else:
        warmup, timed = run_passes(sc, name, state, seconds, (False, True), min_rounds=2)
        plain, traced = timed[False], timed[True]
        per_pass = [tracing.layer_metrics(tracer) for _, tracer in traced]
        metrics = {key: _median([m[key] for m in per_pass]) for key in per_pass[0]}
        setup_layers = tracing.layer_metrics(setup_tracer)
        metrics["formulas.verify_s"] = setup_layers["formulas.verify_s"]
        metrics["formulas.words"] = setup_layers["formulas.words"]
        for key in DETAIL_METRICS:
            values = [r.detail[key] for r, _ in plain if key in r.detail]
            metrics[key] = _median(values)
        # each round ran one untraced and one traced pass back to back
        metrics["trace.overhead_s"] = _median(
            [t.wall_s - p.wall_s for (p, _), (t, _) in zip(plain, traced)]
        )
        counts = {key: [m[key] for m in per_pass] for key in tracing.COUNT_METRICS}
        for key in ("tape_mb.cubature", "tape_mb.mc"):
            counts[key] = [r.detail[key] for r, _ in plain + traced if key in r.detail]
        unstable = [key for key, values in counts.items() if len(set(values)) > 1]
        metrics["counts.unstable"] = len(unstable)
        record["counts_unstable"] = unstable
        record["counts"] = counts
        record["tables"] = tracing.interval_records(traced[0][1])
        record["traced_pass_wall_s"] = [r.wall_s for r, _ in traced]
        spans = [
            [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in tracer.spans]
            for tracer in [setup_tracer] + [t for _, t in traced]
        ]
        declared = spec["per_layer"]
        all_passes = [(warmup, None)] + plain + traced
        passes = plain
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    failures = [f for r, _ in all_passes for f in r.failures]
    attempted = sum(r.attempted for r, _ in all_passes)
    record.update(
        pass_wall_s=[r.wall_s for r, _ in passes],
        sample_counts=dict(
            setup_s=len(record["setup_samples"]),
            cubature_s=sum(len(r.cubature_s) for r, _ in passes),
            mc_s=sum(len(r.mc_s) for r, _ in passes),
        ),
        cubature_samples=[r.cubature_s for r, _ in passes],
        mc_samples=[r.mc_s for r, _ in passes],
        detail=[r.detail for r, _ in passes],
        failures=failures,
        frontier=_frontier(passes),
    )
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = line
    return line, record, spans


def write_outputs(name, seed, trace, record, spans):
    out = OUT / f"{name}-seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    columns = ["arm", "dynamics", "k", "paths", "seconds", "error", "stderr", "table_seconds"]
    with open(out / "frontier.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(record["frontier"])
    if spans is not None:
        (out / "spans.json").write_text(json.dumps(spans, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
        return 0
    line, record, spans = run(args.workload, args.seed, args.seconds, args.trace)
    write_outputs(args.workload, args.seed, args.trace, record, spans)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
