"""Spans recorded around sdecub's layers, and the per-layer metrics they give.

The benchmark never edits the package.  ``instrument`` replaces, for the
duration of a ``with`` block, the attributes through which each layer is
called (its import sites) by wrappers that open a span, and restores them on
exit.  Spans live in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans.

    A span opened in a worker thread with nothing open in that thread gets
    the main thread's innermost open span as parent: the estimator's thread
    pool runs its chunks while the main thread waits inside the estimate.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        outer = stack or self._main_stack
        span = Span(next(self._ids), outer[-1].id if outer else None, name, 0.0, attrs=attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def timed(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, args, result)`` runs once it closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.seconds - covered
    return out


def moment_defect(before, after, basis) -> float:
    """Largest relative change in total mass or in any basis moment.

    A moment's change is taken relative to the input's absolute moment
    sum_i w_i |phi(x_i)|, so moments that vanish by symmetry stay defined.
    """
    mass_in = before.total_mass()
    worst = abs(after.total_mass() - mass_in) / mass_in
    phi_in = basis.evaluate(before.points)
    phi_out = basis.evaluate(after.points)
    change = np.abs(after.weights @ phi_out - before.weights @ phi_in)
    scale = np.maximum(before.weights @ np.abs(phi_in), np.finfo(float).tiny)
    return max(worst, float(np.max(change / scale)))


@contextmanager
def patched(owner, name: str, make_wrapper):
    """Replace ``owner.name`` by ``make_wrapper(original)`` until exit."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def instrument(tracer: Tracer, sc):
    """Wrap every layer's public functions at the sites they are called from."""

    def words(span, args, report):
        span.attrs["words"] = report.words_checked

    def table_done(span, args, table):
        manifest = table.manifest
        span.attrs["table"] = f"deg{manifest['degree']}-d{manifest['dim']}-k{table.k}"
        span.attrs["survivors"] = list(table.survivor_counts)

    def wrap_rmp(original):
        def rmp(measure, localization, basis):
            with tracer.span(
                "recombination.rmp",
                balls=len(localization.balls),
                points_in=measure.size,
                reduction_steps=0,
                outer_rounds=0,
                kernel_exhausted=0,
            ) as span:
                out = original(measure, localization, basis)
            span.attrs["points_out"] = out.size
            with tracer.span("check.moments"):
                span.attrs["moment_defect"] = moment_defect(measure, out, basis)
            return out

        return rmp

    def wrap_recombine(original):
        # runs inside the rmp span, once per ball
        def recombine(measure, basis, with_stats=False):
            out, stats = original(measure, basis, with_stats=True)
            attrs = tracer.current().attrs
            attrs["reduction_steps"] += stats.reduction_steps
            attrs["outer_rounds"] += stats.outer_rounds
            attrs["kernel_exhausted"] += int(stats.output_size > basis.size + 1)
            return (out, stats) if with_stats else out

        return recombine

    def wrap_enumerate(original):
        # time spent consuming the generator: drain it inside the span
        def enumerate_leaves(formula, partition):
            with tracer.span("partition.enumerate_leaves") as span:
                leaves = list(original(formula, partition))
            span.attrs["leaves"] = len(leaves)
            return iter(leaves)

        return enumerate_leaves

    def rk4_counts(span, args, result):
        fields, seg_times, derivs, x0 = args[:4]
        steps_per_segment = args[4] if len(args) > 4 else 32
        rows, _, d_b = derivs.shape
        d = np.shape(x0)[-1]
        path_steps = rows * (seg_times.shape[0] - 1) * steps_per_segment
        span.attrs.update(
            rows=rows,
            path_steps=path_steps,
            rhs_evals=4 * path_steps,
            # per stage: drift, its copy, diffusion, contraction; per step:
            # three stage states and the new state (float64, computed)
            bytes=8 * path_steps * (4 * (3 * d + d * d_b) + 4 * d),
        )

    def em_counts(span, args, result):
        span.attrs["path_steps"] = args[4] * args[6]  # grid * n_paths

    def tape_nodes(span, args, order):
        span.attrs["nodes"] = len(order)

    R, E, T = sc.recombination, sc.estimator, sc.training
    wraps = [
        (sc, "verify_cubature", lambda f: tracer.timed("formulas.verify", f, words)),
        (sc, "preprocess", lambda f: tracer.timed("recombination.preprocess", f, table_done)),
        (T, "preprocess", lambda f: tracer.timed("recombination.preprocess", f, table_done)),
        (R, "klv_step", lambda f: tracer.timed("recombination.klv_step", f)),
        (R.DiscreteMeasure, "canonicalize", lambda f: tracer.timed("recombination.canonicalize", f)),
        (R, "localize", lambda f: tracer.timed("recombination.localize", f)),
        (R, "rmp", wrap_rmp),
        (R, "recombine", wrap_recombine),
        (sc, "cubature_estimate", lambda f: tracer.timed("estimator.cubature_estimate", f)),
        (sc, "mc_estimate", lambda f: tracer.timed("estimator.mc_estimate", f)),
        (E, "enumerate_leaves", wrap_enumerate),
        (E, "solve_controlled_ode_batch", lambda f: tracer.timed("ode.rk4", f, rk4_counts)),
        (E, "solve_sde_mc_batch", lambda f: tracer.timed("ode.em", f, em_counts)),
        (T, "loss_and_gradient_cubature", lambda f: tracer.timed("training.gradient.cubature", f)),
        (T, "loss_and_gradient_mc", lambda f: tracer.timed("training.gradient.mc", f)),
        (sc.tape, "backward", lambda f: tracer.timed("tape.backward", f, tape_nodes)),
        (sc.tape, "topo_order", lambda f: tracer.timed("tape.topo_order", f)),
    ] + [
        (sc.NetworkFields, method, lambda f: tracer.timed("nets.eval", f))
        for method in ("drift_prior", "drift_posterior", "diffusion_diag")
    ]
    with ExitStack() as stack:
        for owner, name, make in wraps:
            stack.enter_context(patched(owner, name, make))
        yield


def traced_fields(tracer: Tracer | None, fields):
    """A VectorFieldSet whose drift (with the Stratonovich correction) and
    diffusion callables open spans."""
    if tracer is None:
        return fields
    return dataclasses.replace(
        fields,
        drift=tracer.timed("fields.drift", fields.drift),
        diffusion=tracer.timed("fields.diffusion", fields.diffusion),
    )


def traced_spec(tracer: Tracer | None, spec):
    """A FieldSpec whose Ito coefficients, as Euler-Maruyama calls them, open spans."""
    if tracer is None:
        return spec
    return dataclasses.replace(
        spec,
        mu=tracer.timed("fields.mu", spec.mu),
        sigma=tracer.timed("fields.sigma", spec.sigma),
    )


def traced_functional(tracer: Tracer | None, functional):
    if tracer is None:
        return functional
    return dataclasses.replace(
        functional,
        evaluate_batch=tracer.timed("estimator.functional", functional.evaluate_batch),
    )


# Counts that must repeat exactly from one traced pass to the next.
COUNT_METRICS = (
    "partition.leaves",
    "recombination.balls",
    "recombination.reduction_steps",
    "recombination.outer_rounds",
    "recombination.points_in",
    "recombination.points_out",
    "recombination.kernel_exhausted",
    "ode.rk4_calls",
    "ode.rk4_path_steps",
    "ode.rk4_rhs_evals",
    "ode.rk4_bytes_computed",
    "ode.em_path_steps",
    "fields.calls",
    "tape.nodes.cubature",
    "tape.nodes.mc",
    "nets.calls",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers not called read zero."""
    spans = tracer.spans
    self_s = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    by_id = {s.id: s for s in spans}
    backward_in = defaultdict(float)
    nodes = defaultdict(int)
    for s in by_name["tape.backward"]:
        arm = by_id[s.parent].name.rsplit(".", 1)[-1] if s.parent in by_id else "none"
        backward_in[arm] += s.seconds
        nodes[arm] = max(nodes[arm], s.attrs["nodes"])
    gradient_s = total("training.gradient.cubature") + total("training.gradient.mc")
    backward_s = total("tape.backward")
    rk4_s, em_s = total("ode.rk4"), total("ode.em")
    rk4_calls = len(by_name["ode.rk4"])
    points_in = attr("recombination.rmp", "points_in")
    points_out = attr("recombination.rmp", "points_out")
    fields = ("fields.drift", "fields.diffusion", "fields.mu", "fields.sigma")
    return {
        "formulas.verify_s": total("formulas.verify"),
        "formulas.words": attr("formulas.verify", "words"),
        "partition.enumerate_s": total("partition.enumerate_leaves"),
        "partition.leaves": attr("partition.enumerate_leaves", "leaves"),
        "recombination.klv_s": total("recombination.klv_step")
        + total("recombination.canonicalize"),
        "recombination.localize_s": total("recombination.localize"),
        "recombination.rmp_s": total("recombination.rmp"),
        "recombination.readoff_s": sum(self_s[s.id] for s in by_name["recombination.preprocess"]),
        "recombination.balls": attr("recombination.rmp", "balls"),
        "recombination.reduction_steps": attr("recombination.rmp", "reduction_steps"),
        "recombination.outer_rounds": attr("recombination.rmp", "outer_rounds"),
        "recombination.points_in": points_in,
        "recombination.points_out": points_out,
        "recombination.compression": ratio(points_out, points_in),
        "recombination.kernel_exhausted": attr("recombination.rmp", "kernel_exhausted"),
        "recombination.moment_defect_max": max(
            (s.attrs["moment_defect"] for s in by_name["recombination.rmp"]), default=0.0
        ),
        "ode.rk4_s": rk4_s,
        "ode.rk4_calls": rk4_calls,
        "ode.rk4_batch_rows": ratio(attr("ode.rk4", "rows"), rk4_calls),
        "ode.rk4_path_steps": attr("ode.rk4", "path_steps"),
        "ode.rk4_rhs_evals": attr("ode.rk4", "rhs_evals"),
        "ode.rk4_path_steps_per_s": ratio(attr("ode.rk4", "path_steps"), rk4_s),
        "ode.rk4_bytes_computed": attr("ode.rk4", "bytes"),
        "ode.em_s": em_s,
        "ode.em_path_steps": attr("ode.em", "path_steps"),
        "ode.em_path_steps_per_s": ratio(attr("ode.em", "path_steps"), em_s),
        "fields.drift_s": total("fields.drift"),
        "fields.diffusion_s": total("fields.diffusion"),
        "fields.mu_s": total("fields.mu"),
        "fields.sigma_s": total("fields.sigma"),
        "fields.calls": sum(len(by_name[name]) for name in fields),
        "estimator.functional_s": total("estimator.functional"),
        "estimator.cubature_self_s": sum(
            self_s[s.id] for s in by_name["estimator.cubature_estimate"]
        ),
        "estimator.mc_self_s": sum(self_s[s.id] for s in by_name["estimator.mc_estimate"]),
        "tape.backward_s": backward_s,
        "tape.topo_s": total("tape.topo_order"),
        "tape.nodes.cubature": nodes["cubature"],
        "tape.nodes.mc": nodes["mc"],
        "tape.backward_share": ratio(backward_s, gradient_s),
        "nets.eval_s": total("nets.eval"),
        "nets.calls": len(by_name["nets.eval"]),
        "training.forward_s": gradient_s - backward_in["cubature"] - backward_in["mc"],
    }


def interval_records(tracer: Tracer) -> list[dict]:
    """Per table, per interval: survivors, balls and seconds spent."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append(s)
    stages = {
        "recombination.klv_step",
        "recombination.canonicalize",
        "recombination.localize",
        "recombination.rmp",
    }
    out = []
    for pre in tracer.spans:
        if pre.name != "recombination.preprocess":
            continue
        intervals: list[dict] = []
        for s in sorted(children[pre.id], key=lambda s: s.start):
            if s.name == "recombination.klv_step":
                intervals.append({"balls": 0, "seconds": 0.0})
            if s.name in stages:
                intervals[-1]["seconds"] += s.seconds
                intervals[-1]["balls"] += s.attrs.get("balls", 0)
        for i, survivors in enumerate(pre.attrs["survivors"]):
            intervals[i]["interval"] = i + 1
            intervals[i]["survivors"] = survivors
        out.append({"table": pre.attrs["table"], "seconds": pre.seconds, "intervals": intervals})
    return out
