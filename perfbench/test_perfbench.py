"""Tests of the benchmark itself: inputs, gate, tracing and statistics.

Run from the root of a checkout with `python3 -m pytest -q perfbench`.
"""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from centroaffine import HomogeneousPolynomial, chart_metric, make_chart  # noqa: E402


def _poly_and_seed(case):
    argv = list(case.argv)
    poly = argv[argv.index("--poly") + 1]
    seed = next(a for a in argv if a.startswith("--seed="))
    point = np.array([float(v) for v in seed[len("--seed="):].split(",")])
    if poly.startswith("{"):
        return HomogeneousPolynomial.from_json(json.loads(poly)), point
    return HomogeneousPolynomial.parse(poly), point


@pytest.mark.parametrize("workload", sorted(bench_workloads.BUILDERS))
def test_inputs_are_deterministic_in_the_seed(workload):
    build = bench_workloads.BUILDERS[workload]
    assert build(5) == build(5)
    assert all(f"{bench_workloads.rng_seed_of(6)}" in c.argv for c in build(6) if c.command == "analyze")


def test_certify_inputs_change_with_the_seed():
    first = bench_workloads.certify_cases(1)
    second = bench_workloads.certify_cases(2)
    assert [c.label for c in first] == [c.label for c in second]
    assert all(a.argv != b.argv for a, b in zip(first, second) if a.command == "analyze")


@pytest.mark.parametrize("seed", [0, 1, 2, 2**40 + 3])
def test_every_generated_cubic_is_hyperbolic_at_its_seed_point(seed):
    cubics = 0
    for case in bench_workloads.certify_cases(seed):
        if case.command != "analyze":
            continue
        poly, point = _poly_and_seed(case)
        if poly.degree != 3:
            continue
        cubics += 1
        assert poly(point) > 0.0, case.label
        frame = make_chart(poly, point)
        metric = chart_metric(frame, np.zeros(frame.chart_dim)).matrix
        assert np.linalg.eigvalsh(metric).min() > 0.0, case.label
    assert cubics == 6  # three transformed fixtures and one random cubic per dimension 2, 3, 4


def test_random_linear_map_is_well_conditioned():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        a = bench_workloads.random_linear_map(rng, dim)
        s = np.linalg.svd(a, compute_uv=False)
        assert 0.7 <= s.min() and s.max() <= 1.4


def _good_report():
    return {
        "completeness": {
            "status": "incomplete",
            "route": "finite-length-witness",
            "evidence": {"witness_length": math.sqrt(2.0) * math.pi + 1e-7},
        },
        "identities": {
            "euler_max_rel": 1e-15,
            "position_identity_max_rel": 1e-14,
            "metric_routes_max_rel": 1e-12,
            "lorentz_radial_max_rel": 1e-14,
            "lorentz_gradient_max_rel": 1e-14,
            "cone_identity_max_abs": 1e-9,
        },
    }


def test_gate_accepts_a_good_report_and_names_every_miss():
    case = bench_workloads.geodesic_cases(0)[1]
    assert case.label == "analytic-k2"
    assert bench_workloads.gate(case, 0, _good_report()) == []
    bad = _good_report()
    bad["completeness"]["evidence"]["witness_length"] += 1e-4
    bad["identities"]["cone_identity_max_abs"] = 1e-3
    bad["structure"] = {"fund_equation_max_abs": math.nan}
    problems = bench_workloads.gate(case, 2, bad)
    assert len(problems) == 4
    assert bench_workloads.gate(bench_workloads.Case("repro", (), command="repro"), 0, {"pass": False})


def test_tail_percentile_has_ten_samples_beyond_it():
    samples = list(range(1, 21))
    pct, value = bench_trace.tail_percentile(reversed(samples))
    assert (pct, value) == (50.0, 10)
    assert sum(1 for s in samples if s > value) == 10
    pct, value = bench_trace.tail_percentile(range(100))
    assert (pct, value) == (90.0, 89)
    assert bench_trace.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    with pytest.raises(ValueError):
        bench_trace.tail_percentile([])


def test_weighted_median_reduces_to_the_median_with_equal_weights():
    for xs in ([3.0], [4.0, 1.0], [5.0, 1.0, 3.0, 2.0], [2.0, 2.0, 7.0]):
        assert bench_trace.weighted_median((x, 0.5) for x in xs) == statistics.median(xs)
    assert bench_trace.weighted_median([(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]) == 1.5
    assert bench_trace.weighted_median([(1.0, 1.0), (2.0, 0.25), (3.0, 0.25)]) == 1.0
    with pytest.raises(ValueError):
        bench_trace.weighted_median([])


def test_mix_statistics_weigh_every_input_of_a_pass_equally():
    # input 0 (an analysis) ran three times, input 1 (an analysis) once and
    # failed its gate, input 2 (not an analysis) twice
    samples = [(0, 1.0, True, True), (1, 5.0, True, False), (2, 0.5, False, True)]
    samples += [(0, 3.0, True, True), (2, 1.5, False, True), (0, 2.0, True, True)]
    stats = bench_trace.mix_statistics(samples)
    assert stats["analyses_per_s"] == 1.0 / (2.0 + 5.0 + 1.0)
    # weights 1/3 for each time of input 0 and 1 for input 1: half the total
    # weight is reached exactly at 3.0, so the median lies between 3.0 and 5.0
    assert stats["p50"] == 4.0
    assert (stats["tail"], stats["tail_pct"], stats["samples"]) == (5.0, 100.0, 4)
    times = [float(t) for t in range(1, 21)]
    stats = bench_trace.mix_statistics([(i, t, True, True) for i, t in enumerate(times)])
    assert (stats["p50"], stats["tail"], stats["tail_pct"]) == (10.5, 10.0, 50.0)


def test_self_time_on_a_synthetic_span_tree():
    # cli[0, 10] encloses verdict[1, 5] (which encloses ray[2, 3]) and dumps[6, 9]
    # (whose recursive call at 7 folds into it).
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0])
    rec = bench_trace.Recorder(clock=lambda: next(ticks))
    assert rec.enter("cli")
    assert rec.enter("verdict")
    assert rec.enter("ray")
    rec.exit()
    rec.exit()
    assert rec.enter("dumps")
    assert not rec.enter("dumps")
    rec.exit()
    rec.exit()
    assert dict(rec.self_time) == {"ray": 1.0, "verdict": 3.0, "dumps": 3.0, "cli": 3.0}
    assert dict(rec.calls) == {"ray": 1, "verdict": 1, "dumps": 1, "cli": 1}
    assert rec.edges[("verdict", "ray")] == 1 and rec.edges[("cli", "dumps")] == 1
    assert sum(rec.self_time.values()) == 10.0  # self times partition the root span


def test_wrappers_cover_every_binding_and_come_off_cleanly():
    from centroaffine import chart, completeness, structure

    original = chart.chart_metric
    rec = bench_trace.Recorder()
    uninstall = bench_trace.install(rec)
    try:
        assert bench_trace.unwrapped_bindings() == []
        assert completeness.chart_metric is structure.chart_metric is chart.chart_metric
        assert chart.chart_metric is not original
        poly = HomogeneousPolynomial.parse("x*y*z")
        frame = make_chart(poly, [1.0, 1.0, 1.0])
        completeness.geodesic_shoot(frame, np.zeros(2), np.array([1.0, 0.0]), max_len=0.05, refinements=0)
        frame.boundary_distance(np.zeros(2), np.array([1.0, 0.0]))
        frame.boundary_distance(np.zeros(2), np.array([1.0, 0.0]))
    finally:
        uninstall()
    assert chart.chart_metric is original and completeness.chart_metric is original
    layers = rec.per_layer()
    assert layers["completeness.geodesic_shoot.calls"] == 1
    assert layers["chart.levi_civita_gamma.calls"] > 0
    assert layers["completeness.gamma_per_shot"] == layers["chart.levi_civita_gamma.calls"]
    assert layers["homogeneous.third_tensor.calls"] == layers["chart.levi_civita_gamma.calls"]
    rays = layers["chart.boundary_distance.calls"]
    assert rays >= 2 and layers["chart.boundary_distance.distinct_share"] == (rays - 1) / rays


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy.integrate._quadpack",
            "import time:        50 |         80 |     scipy.integrate._ode",
            "import time:       300 |       1200 |   scipy.stats",
            "import time:        20 |       2000 | centroaffine.cli",
        ]
    )
    times = bench_trace.parse_importtime(text)
    assert times["scipy.stats"] == 1200e-6
    assert times["scipy.integrate"] == 150e-6
    assert times["centroaffine.cli"] == 2000e-6
    assert times["centroaffine.forms"] == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == bench_workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_trace.per_layer_metric_specs()
    )
    assert spec["paths"] == ["perfbench"]
