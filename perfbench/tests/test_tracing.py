"""Tests of the benchmark's tracing: wrappers change no result, leave no
trace behind, and self times add up.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import tracing
import trpca
import workloads
from tracing import Span, Tracer


def small_instance():
    rng = np.random.default_rng(7)
    L0 = workloads.low_rank_tensor(3, 12, 5, 2)
    E0 = np.where(rng.random(L0.shape) < 0.05, rng.choice([-1.0, 1.0], L0.shape), 0.0)
    return L0 + E0


def bindings():
    """Every (namespace, name) -> object the tracer may replace."""
    names = [m for m in sys.modules if m == "trpca" or m.startswith("trpca.")]
    out = {("numpy.linalg", "svd"): np.linalg.svd}
    for m in names:
        for attr, value in vars(sys.modules[m]).items():
            if callable(value):
                out[(m, attr)] = value
    return out


def test_traced_solve_is_bit_identical():
    X = small_instance()
    plain = trpca.solver.solve(X)
    tracer = Tracer()
    with tracing.traced(tracer):
        traced = trpca.solver.solve(X)
    assert np.array_equal(plain.L, traced.L)
    assert np.array_equal(plain.E, traced.E)
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "prox.tsvt", "t_algebra.dft3", tracing.SVD} <= names


def test_wrappers_are_removed_afterwards():
    before = bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert trpca.solver.tsvt is not before[("trpca.solver", "tsvt")]
            assert np.linalg.svd is not before[("numpy.linalg", "svd")]
            raise RuntimeError("leave the block early")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # no spans are recorded once the wrappers are gone
    trpca.solver.solve(small_instance())
    assert tracer.spans == []


def span(i, name, start, end, parent=None, op=0, **info):
    return Span(i, name, float(start), float(end), parent, op, info)


def test_self_time_accounting_on_a_synthetic_tree():
    spans = [
        span(0, "solver.solve", 0, 10),
        span(1, "prox.tsvt", 1, 5, parent=0),
        span(2, tracing.SVD, 2, 3, parent=1),
        span(3, tracing.SVD, 3, 4.5, parent=1),
        span(4, "prox.soft_threshold", 6, 9, parent=0),
        # a child overlapping its sibling is covered once, not twice
        span(5, "tensor_core.norm_inf", 8, 9.5, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10 - 4 - 3.5, 1: 4 - 2.5, 2: 1, 3: 1.5, 4: 3, 5: 1.5})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration + 1.0)
    # without the overlap the self times of a tree sum to its root's duration
    tree = spans[:5]
    assert sum(tracing.self_times(tree).values()) == pytest.approx(tree[0].duration)


def test_layer_metrics_of_a_synthetic_op():
    spans = [
        span(0, "op", 0, 20),
        span(1, "solver.solve", 0, 10, parent=0, iterations=4, converged=True),
        span(2, "prox.tsvt", 1, 5, parent=1),
        span(3, tracing.SVD, 2, 3, parent=2),
        span(4, "t_algebra.dft3", 1, 2, parent=2, bytes=24),
        span(5, "t_algebra.multi_rank", 11, 15, parent=0),
        span(6, tracing.SVD, 12, 14, parent=5),  # not inside tsvt
    ]
    m = layers.summarize(spans, traced_s=[2.0], untraced_s=[1.5])
    assert m["prox.tsvt.svd_s"] == 1 and m["prox.tsvt.svd_calls"] == 1
    assert m["prox.tsvt.s"] == 4 and m["prox.tsvt.self_s"] == 2
    assert m["solver.solve.self_s"] == 6 and m["solver.iterations"] == 4
    assert m["solver.iter_s"] == 2.5 and m["solver.converged_frac"] == 1
    assert m["t_algebra.fft_bytes"] == 24 and m["t_algebra.multi_rank.s"] == 4
    assert m["imaging.psnr.s"] == 0
    assert m["trace.overhead_s"] == 0.5


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {m.name: m.unit for m in layers.METRICS + [layers.OVERHEAD]}


def test_solve_subtree_self_times_sum_to_its_duration():
    spans = [
        span(0, "op", 0, 20),
        span(1, "solver.solve", 1, 11, parent=0, iterations=1, converged=True),
        span(2, "prox.tsvt", 2, 6, parent=1),
        span(3, tracing.SVD, 3, 4, parent=2),
        span(4, "synth.make_instance", 12, 13, parent=0),
    ]
    assert layers.subtree_self_s(spans, "solver.solve") == pytest.approx((10, 10))
