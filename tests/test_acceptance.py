"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, mirroring the package's external contracts:
formula validity gates, recombination exactness, brute-force equivalence of
the pre-processed tree, oracle estimation, convergence-rate reproduction,
pre-processing cost, gradient correctness, and the training comparison.
"""

import math
import time

import numpy as np
import pytest

from sdecub import (
    BenchConfig,
    DiscreteMeasure,
    NetworkFields,
    TestBasis,
    TrainConfig,
    convergence_experiment,
    cubature_estimate,
    degree3_formula,
    degree5_formula,
    enumerate_leaves,
    loss_and_gradient_cubature,
    loss_and_gradient_mc,
    make_field,
    make_partition,
    make_training_data,
    mc_estimate,
    preprocess,
    recombine,
    sine_tracking_functional,
    train,
    verify_cubature,
)
from sdecub.training import build_tree


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_cubature_validity():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        rep = verify_cubature(degree3_formula(d), 3, tol=1e-10)
        assert rep.passed
        worst = max(worst, rep.max_defect)
    rep5 = verify_cubature(degree5_formula(1), 5, tol=1e-10)
    assert rep5.passed
    worst = max(worst, rep5.max_defect)
    cross = verify_cubature(degree3_formula(1), 5, tol=1e-10)
    assert not cross.passed
    defect = cross.defects[(1, 1, 1, 1)]
    assert defect == pytest.approx(1.0 / 12.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    report(
        "C1 cubature validity",
        worst <= 1e-10 and elapsed < 1.0,
        f"max defect {worst:.2e}, degree-3 vs degree-5 words defect on (1,1,1,1) "
        f"= {defect:.12f} (= 1/12), {elapsed:.2f}s",
    )


def test_criterion_2_recombination_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_moment = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 5))
        basis = TestBasis(d, degree)
        n = int(rng.integers(basis.size + 2, 140))
        points = rng.normal(scale=rng.uniform(0.5, 2.0), size=(n, d))
        weights = rng.uniform(0.05, 1.0, size=n)
        weights /= weights.sum()
        measure = DiscreteMeasure(points, weights)
        before = weights @ basis.evaluate(points)
        out = recombine(measure, basis)
        assert out.size <= basis.size + 1
        original = {row.tobytes() for row in points}
        assert all(row.tobytes() in original for row in out.points)
        after = out.weights @ basis.evaluate(out.points)
        scale = np.maximum(np.abs(before), 1.0)
        moment_err = float(np.max(np.abs(after - before) / scale))
        mass_err = abs(out.total_mass() - 1.0)
        worst_moment = max(worst_moment, moment_err, mass_err)
    elapsed = time.perf_counter() - start
    report(
        "C2 recombination exactness",
        worst_moment <= 1e-10 and elapsed < 30.0,
        f"1000 random measures, worst relative moment/mass error "
        f"{worst_moment:.2e}, support bounds held, {elapsed:.1f}s",
    )


def test_criterion_3_brute_force_equivalence():
    start = time.perf_counter()
    spec = make_field("brownian", sigma=1.0)
    strat = spec.stratonovich()
    functional = sine_tracking_functional()
    worst = 0.0
    for formula in (degree3_formula(1), degree5_formula(1)):
        for gamma in (0.6, 1.0):
            for k in (2, 3):
                partition = make_partition(1.0, k, gamma)
                table = preprocess(
                    formula, partition, TestBasis(1, 4), radius_mode="singleton"
                )
                raw = cubature_estimate(
                    functional, strat, formula, partition, None,
                    x0=spec.x0, steps_per_segment=8,
                )
                reduced = cubature_estimate(
                    functional, strat, formula, partition, table,
                    x0=spec.x0, steps_per_segment=8,
                )
                assert reduced.n_paths == formula.q**k
                worst = max(worst, abs(reduced.value - raw.value))
    elapsed = time.perf_counter() - start
    report(
        "C3 brute-force equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |recombined - exhaustive| = {worst:.2e} over q<=3, k<=3, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_oracle_estimation():
    start = time.perf_counter()
    spec = make_field("brownian", sigma=1.0)
    formula = degree5_formula(1)
    partition = make_partition(1.0, 8, 0.6)
    table = preprocess(formula, partition, TestBasis(1, 4), p_star=2)
    cub = cubature_estimate(
        sine_tracking_functional(), spec.stratonovich(), formula, partition, table,
        x0=spec.x0, steps_per_segment=32,
    )
    mc = mc_estimate(sine_tracking_functional(), spec, 100000, 512, seed=20240817)
    cub_err = abs(cub.value - 1.0)
    mc_err = abs(mc.value - 1.0)
    elapsed = time.perf_counter() - start
    report(
        "C4 oracle estimation",
        cub_err <= 2e-2 and mc_err <= 2e-2 and elapsed < 120.0,
        f"analytic value 1: cubature (m=5, k=8, n={cub.n_paths}) err {cub_err:.3e}, "
        f"MC (n=1e5) err {mc_err:.3e}, {elapsed:.0f}s",
    )


def test_criterion_5_rate_reproduction():
    start = time.perf_counter()
    config = BenchConfig(
        spec=make_field("scaled_diffusion", sigma=0.6),
        functional=sine_tracking_functional(),
        seed=20240817,
    )
    rows, summary = convergence_experiment(config)
    mc_slope = summary["mc_slope"]
    cub_slope = summary["cubature_slope_pre_plateau"]
    dominated = summary["cubature_dominates_mc"]
    elapsed = time.perf_counter() - start
    for r in rows:
        print(f"    {r.method:9s} n={r.n:7d} error={r.error:.3e}")
    report(
        "C5 rate reproduction",
        abs(mc_slope + 0.5) <= 0.15 and cub_slope <= -0.8 and dominated
        and elapsed < 600.0,
        f"MC slope {mc_slope:.3f} (want -0.5 +- 0.15), cubature pre-plateau "
        f"slope {cub_slope:.3f} (want <= -0.8), dominated={dominated}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_preprocessing_cost():
    formula = degree5_formula(1)
    partition = make_partition(1.0, 10, 0.6)
    table = preprocess(formula, partition, TestBasis(1, 4), p_star=2)
    report(
        "C6 pre-processing cost",
        table.seconds <= 10.0 and table.n_leaves < 3**10,
        f"m=5, d_b=1, k=10: {table.seconds:.3f}s, surviving paths "
        f"{table.n_leaves} < 3^10 = {3**10}",
    )


def test_criterion_7_gradient_correctness():
    start = time.perf_counter()
    base = TrainConfig(d_x=1, width=4, k=3)
    spec = make_training_data(base)
    formula, partition, table = build_tree(base)
    worst = 0.0
    h = 1e-4
    for seed in range(20):
        nets = NetworkFields(1, width=4)
        theta = nets.init_params(seed)

        def cub_loss(th):
            return loss_and_gradient_cubature(
                nets, th, table, formula, partition, spec, steps_per_segment=4
            ).loss

        def mc_loss(th):
            return loss_and_gradient_mc(nets, th, 3, 16, seed + 100, spec).loss

        for loss_fn, grad in (
            (cub_loss, loss_and_gradient_cubature(
                nets, theta, table, formula, partition, spec, steps_per_segment=4
            ).gradient),
            (mc_loss, loss_and_gradient_mc(nets, theta, 3, 16, seed + 100, spec).gradient),
        ):
            for i in range(nets.n_params):
                def shifted(delta, i=i):
                    t = theta.copy()
                    t[i] += delta
                    return loss_fn(t)

                # fourth-order central stencil keeps the oracle's own
                # truncation error well below the 1e-5 gate
                fd = (
                    8.0 * (shifted(h) - shifted(-h)) - (shifted(2 * h) - shifted(-2 * h))
                ) / (12.0 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        "C7 gradient correctness",
        worst <= 1e-5 and elapsed < 120.0,
        f"20 random networks, both arms, worst relative deviation from "
        f"central differences {worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_8_training_parity_and_speedup():
    start = time.perf_counter()
    results = {}
    for label, config in (
        ("1-d", TrainConfig(d_x=1, k=5, epochs=200, lr=1e-2)),
        ("8-d", TrainConfig(d_x=8, k=2, epochs=200, lr=1e-2, basis_degree=1)),
    ):
        log = train(config)
        cub = log.losses("cubature")
        mc = log.losses("mc")
        drop_cub = 1.0 - cub[-1] / cub[0]
        drop_mc = 1.0 - mc[-1] / mc[0]
        speedup = float(np.median(log.seconds("mc")) / np.median(log.seconds("cubature")))
        results[label] = (drop_cub, drop_mc, speedup, log.n_paths)
        print(
            f"    {label}: n={log.n_paths}, loss drop cubature {drop_cub:.0%}, "
            f"mc {drop_mc:.0%}, per-epoch speedup {speedup:.2f}x"
        )
    ok = all(
        drop_cub >= 0.5 and drop_mc >= 0.5 and speedup > 1.0
        for drop_cub, drop_mc, speedup, _ in results.values()
    )
    elapsed = time.perf_counter() - start
    report(
        "C8 training parity and speedup",
        ok,
        f"200 epochs at matched path counts; both arms drop >= 50% and the "
        f"cubature arm is faster in 1-d and 8-d, {elapsed:.0f}s",
    )


def test_error_does_not_grow_with_tree_depth():
    # recombination keeps moments at the knots only, so a biased estimator's
    # error grows with k; thresholds fixed before the sweep was run
    start = time.perf_counter()
    formula = degree5_formula(1)
    ks = range(6, 15)
    tables = {
        k: (partition, preprocess(formula, partition, TestBasis(1, 4), p_star=2))
        for k in ks
        for partition in [make_partition(1.0, k, 0.6)]
    }
    raw_partition = make_partition(1.0, 10, 0.6)
    dynamics = [("brownian", 1.0)] + [("scaled_diffusion", s) for s in (0.3, 0.6, 0.9)]
    worst_growth = worst_vs_raw = 0.0
    for name, sigma in dynamics:
        spec = make_field(name, sigma=sigma)
        strat = spec.stratonovich()

        def error(partition, table):
            rep = cubature_estimate(
                sine_tracking_functional(), strat, formula, partition, table,
                x0=spec.x0, steps_per_segment=8,
            )
            return abs(rep.value - spec.sine_tracking_value)

        errors = {k: error(*tables[k]) for k in ks}
        raw = error(raw_partition, None)
        growth = max(errors.values()) / errors[6]
        vs_raw = errors[12] / raw
        print(f"    {name} sigma={sigma}: err(6..14) {[f'{errors[k]:.1e}' for k in ks]}, "
              f"raw k=10 {raw:.1e}")
        worst_growth = max(worst_growth, growth)
        worst_vs_raw = max(worst_vs_raw, vs_raw)
    elapsed = time.perf_counter() - start
    report(
        "k-sweep error growth",
        worst_growth <= 1.5 and worst_vs_raw <= 2.0,
        f"max err(k)/err(6) = {worst_growth:.2f} over k=6..14, max err(12)/raw err(10) "
        f"= {worst_vs_raw:.2f}, 4 dynamics, {elapsed:.1f}s",
    )
