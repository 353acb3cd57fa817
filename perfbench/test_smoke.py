"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import threading

import pytest

import run
import tracing
import workloads

TINY = workloads.Sizes(
    tables_1d=(3, 4),
    table_2d_k=3,
    reuse_mc_paths=2000,
    reuse_mc_grid=32,
    raw_k=4,
    raw_mc_paths=2000,
    raw_mc_grid=32,
    train_d_x=2,
    train_width=4,
    train_epochs=4,
    train_mc_grid=20,
)
SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(name):
    line, record, spans = run.run(name, seed=3, seconds=0, trace=0, sizes=TINY)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert spans is None
    assert bool(record["frontier"]) == (name != "train_d8")


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_emitted(name):
    line, record, spans = run.run(name, seed=3, seconds=0, trace=1, sizes=TINY)
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert line["correct"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["counts.unstable"] == 0
    assert metrics["formulas.words"] > 0
    recombines = name == "table_reuse"
    assert (metrics["recombination.rmp_s"] > 0) == recombines
    assert (metrics["recombination.balls"] > 0) == recombines
    assert metrics["recombination.moment_defect_max"] < 1e-10
    assert (metrics["tape.nodes.cubature"] > 0) == (name == "train_d8")
    assert (metrics["ode.em_path_steps"] > 0) == (name != "train_d8")
    assert (metrics["partition.leaves"] > 0) == (name == "raw_vs_mc")
    assert len(spans) == 1 + len(record["traced_pass_wall_s"])
    if recombines:
        assert [t["table"] for t in record["tables"]] == [
            "deg5-d1-k3", "deg5-d1-k4", "deg3-d2-k3"
        ]


def _span(tracer, id, parent, start, end):
    span = tracing.Span(id, parent, f"s{id}", start, end)
    tracer.spans.append(span)
    return span


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    _span(tracer, 1, None, 0.0, 10.0)
    _span(tracer, 2, 1, 1.0, 4.0)
    _span(tracer, 3, 1, 3.0, 6.0)  # overlaps its sibling, as threads do
    _span(tracer, 4, 1, 8.0, 12.0)  # runs past its parent's end
    _span(tracer, 5, 2, 2.0, 3.0)  # a grandchild leaves the root untouched
    assert tracing.self_times(tracer.spans) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}


def test_worker_thread_span_hangs_under_main_thread_span():
    tracer = tracing.Tracer()

    def work():
        with tracer.span("inner"):
            pass

    with tracer.span("outer") as outer:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.id
