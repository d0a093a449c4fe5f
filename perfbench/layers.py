"""Per-layer metrics computed from the spans of a traced run.

``METRICS`` names each metric, how it is computed from the spans of one
operation, the workloads that exercise it, and the end-to-end metric it is
expected to move there.  BENCHMARK.json lists the same names; later
changes cite them.  A metric of a layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import SVD, Span, self_times

ALL = ("recovery_100", "phase_sweep", "denoise_rgb64", "inspect_100")
SOLVING = ("recovery_100", "phase_sweep", "denoise_rgb64")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # how per_op/summarize compute it: total, self, calls, svd_s, ...
    span: str
    workloads: tuple
    moves: str


METRICS = [
    Metric("prox.tsvt.svd_s", "s", "svd_s", "prox.tsvt", SOLVING,
           "op_s.p50 on recovery_100, the easy half of phase_sweep and denoise_rgb64; "
           "not on the hard phase cells"),
    Metric("prox.tsvt.svd_calls", "count", "svd_calls", "prox.tsvt", SOLVING,
           "op_s.p50 on recovery_100, the easy half of phase_sweep and denoise_rgb64"),
    Metric("t_algebra.dft3.s", "s", "total", "t_algebra.dft3", ALL,
           "op_s.p50 and peak_rss_mib on recovery_100; near nothing on denoise_rgb64"),
    Metric("t_algebra.idft3.s", "s", "total", "t_algebra.idft3", ALL,
           "op_s.p50 and peak_rss_mib on recovery_100; near nothing on denoise_rgb64"),
    Metric("t_algebra.dft3.calls", "count", "calls", "t_algebra.dft3", ALL,
           "op_s.p50 on recovery_100"),
    Metric("t_algebra.fft_bytes", "B", "bytes", "", ALL,
           "peak_rss_mib and op_s.p50 on recovery_100 (computed from array sizes)"),
    Metric("prox.tsvt.s", "s", "total", "prox.tsvt", SOLVING, "op_s.p50 on recovery_100"),
    Metric("prox.tsvt.self_s", "s", "self", "prox.tsvt", SOLVING,
           "op_s.p50 on recovery_100 (reconstruction, conjugate mirroring, as_tensor)"),
    Metric("prox.soft_threshold.s", "s", "total", "prox.soft_threshold", SOLVING,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep"),
    Metric("solver.solve.s", "s", "total", "solver.solve", SOLVING,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep"),
    Metric("solver.solve.self_s", "s", "self", "solver.solve", SOLVING,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep "
           "(residuals, Y update, temporaries)"),
    Metric("tensor_core.norm_inf.s", "s", "total", "tensor_core.norm_inf", ALL,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep"),
    Metric("tensor_core.as_tensor.s", "s", "total", "tensor_core.as_tensor", ALL,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep"),
    Metric("solver.iterations", "count", "iterations", "solver.solve", SOLVING,
           "op_s.p50 on every solving workload; a stopping-rule change moves it, "
           "solver.iter_s should stay"),
    Metric("solver.iter_s", "s", "pooled", "solver.solve", SOLVING,
           "op_s.p50 on denoise_rgb64 and the ungated phase_sweep"),
    Metric("solver.converged_frac", "fraction", "pooled", "solver.solve", SOLVING,
           "recovered_frac on the ungated phase_sweep"),
    Metric("t_algebra.multi_rank.s", "s", "total", "t_algebra.multi_rank",
           ("recovery_100", "phase_sweep", "inspect_100"),
           "op_s.p50 on inspect_100 only"),
    Metric("t_algebra.tnn.s", "s", "total", "t_algebra.tnn", ("inspect_100",),
           "op_s.p50 on inspect_100 only"),
    Metric("t_algebra.spectral_norm.s", "s", "total", "t_algebra.spectral_norm",
           ("inspect_100",), "op_s.p50 on inspect_100 only"),
    Metric("t_algebra.tsvd.s", "s", "total", "t_algebra.tsvd", ("inspect_100",),
           "op_s.p50 on inspect_100 only"),
    Metric("t_algebra.tprod.s", "s", "total", "t_algebra.tprod",
           ("recovery_100", "phase_sweep", "inspect_100"),
           "op_s.p50 on inspect_100 only"),
    Metric("t_algebra.tprod.calls", "count", "calls", "t_algebra.tprod",
           ("recovery_100", "phase_sweep", "inspect_100"), "op_s.p50 on inspect_100 only"),
    Metric("solver.incoherence_report.s", "s", "total", "solver.incoherence_report",
           ("inspect_100",), "op_s.p50 on inspect_100 only"),
    Metric("tensor_core.load_tensor.s", "s", "total", "tensor_core.load_tensor",
           ("inspect_100",), "op_s.p50 on inspect_100 only"),
    Metric("cli.main.self_s", "s", "self", "cli.main", ("inspect_100",),
           "op_s.p50 on inspect_100 only"),
    Metric("synth.make_instance.s", "s", "total", "synth.make_instance",
           ("recovery_100", "phase_sweep"),
           "op_s.p50 on recovery_100; ops_per_s on the ungated phase_sweep"),
    Metric("synth.run_trial.self_s", "s", "self", "synth.run_trial",
           ("recovery_100", "phase_sweep"),
           "op_s.p50 on recovery_100; ops_per_s on the ungated phase_sweep (scoring)"),
    Metric("imaging.corrupt_pixels.s", "s", "total", "imaging.corrupt_pixels",
           ("denoise_rgb64",), "op_s.p50 on denoise_rgb64"),
    Metric("imaging.rpca_channelwise_baseline.s", "s", "total",
           "imaging.rpca_channelwise_baseline", ("denoise_rgb64",), "op_s.p50 on denoise_rgb64"),
    Metric("imaging.psnr.s", "s", "total", "imaging.psnr", ("denoise_rgb64",),
           "op_s.p50 on denoise_rgb64"),
    Metric("imaging.denoise.self_s", "s", "self", "imaging.denoise", ("denoise_rgb64",),
           "op_s.p50 on denoise_rgb64"),
]

# Reported by the traced run next to the layer metrics.
OVERHEAD = Metric("trace.overhead_s", "s", "overhead", "", ALL,
                  "nothing: traced minus untraced op_s.p50 of the same inputs")


def _ancestors(span: Span, by_id: dict):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Op id -> metric name -> value for that operation."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    ops: dict[int, list[Span]] = {}
    for s in spans:
        ops.setdefault(s.op, []).append(s)
    out = {}
    for op, op_spans in ops.items():
        vals = {}
        for m in METRICS:
            if m.kind == "pooled":
                continue
            if m.kind == "total":
                # outermost spans only, so recursion is not counted twice
                v = sum(s.duration for s in op_spans if s.name == m.span
                        and all(a.name != m.span for a in _ancestors(s, by_id)))
            elif m.kind == "self":
                v = sum(selfs[s.id] for s in op_spans if s.name == m.span)
            elif m.kind == "calls":
                v = sum(1 for s in op_spans if s.name == m.span)
            elif m.kind in ("svd_s", "svd_calls"):
                inside = [s for s in op_spans if s.name == SVD
                          and any(a.name == m.span for a in _ancestors(s, by_id))]
                v = sum(s.duration for s in inside) if m.kind == "svd_s" else len(inside)
            elif m.kind == "bytes":
                v = sum(s.info.get("bytes", 0) for s in op_spans)
            elif m.kind == "iterations":
                v = sum(s.info["iterations"] for s in op_spans if s.name == m.span)
            vals[m.name] = v
        out[op] = vals
    return out


def summarize(spans: list[Span], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Metric name -> value: the median over traced operations, except the
    pooled solver ratios (over all solves) and the tracing overhead."""
    ops = per_op(spans)
    result = {}
    for m in METRICS:
        if m.kind != "pooled":
            result[m.name] = statistics.median(v[m.name] for v in ops.values()) if ops else 0.0
    solves = [s for s in spans if s.name == "solver.solve"]
    iterations = sum(s.info["iterations"] for s in solves)
    result["solver.iter_s"] = sum(s.duration for s in solves) / iterations if iterations else 0.0
    result["solver.converged_frac"] = (
        sum(s.info["converged"] for s in solves) / len(solves) if solves else 0.0)
    result[OVERHEAD.name] = statistics.median(traced_s) - statistics.median(untraced_s)
    return result


def subtree_self_s(spans: list[Span], name: str) -> tuple[float, float]:
    """(sum of the self times of every span at or under a ``name`` span,
    sum of the durations of the outermost ``name`` spans); equal when the
    self-time accounting is complete."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    inside = 0.0
    total = 0.0
    for s in spans:
        chain = [s, *_ancestors(s, by_id)]
        if any(a.name == name for a in chain):
            inside += selfs[s.id]
        if s.name == name and all(a.name != name for a in chain[1:]):
            total += s.duration
    return inside, total


def unit(name: str) -> str:
    return next(m.unit for m in METRICS + [OVERHEAD] if m.name == name)
