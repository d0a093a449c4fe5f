"""Benchmark of the trpca package, end to end and layer by layer.

    python3 perfbench/run.py --workload recovery_100 --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process against the trpca
sources of this checkout (``src/``), checks every operation's output and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation that
raises or fails its check is counted in ``failed``, not in the exit code.
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced operations on the same inputs and reports
the per-layer metrics of ``layers.py`` plus the tracing overhead.
``--workload all`` runs every workload, each in its own process.

BENCHMARK.json lists the workloads that gate a change.  ``phase_sweep`` runs
only by name: on a shared 2-vCPU host its per-cell times jitter too much
between runs for a 0.25 bound.

End-to-end metrics:
  op_s.p50        median wall seconds per operation (the sample count is
                  ``attempted``)
  ops_per_s       operations that passed their check per second of the
                  measured window
  setup_s         seconds from before ``import trpca`` until the inputs are
                  ready: the median of this process and four fresh ones
  peak_rss_mib    peak resident memory of this process
  recovered_frac  share of operations that met the workload's recovery
                  criterion (see ``workloads.py``)
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import machine

# BLAS gets one thread per usable core unless OPENBLAS_NUM_THREADS says
# otherwise; the output records the count.  One thread ran the 100^3 row
# faster (15-18 s against 21-24 s, 2-vCPU Xeon, OpenBLAS 0.3.31) but spread
# twice as wide from run to run on a shared host.
machine.pin_blas_threads(machine.nproc())

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ["recovery_100", "phase_sweep", "denoise_rgb64", "inspect_100"]
SETUP_SAMPLES = 5
END_TO_END_UNITS = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "recovered_frac": "fraction",
}


def setup(name: str, seed: int):
    """Import trpca and build the workload's inputs; returns it and the seconds."""
    start = time.perf_counter()
    import trpca
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT)
    elapsed = time.perf_counter() - start
    if not Path(trpca.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported trpca from {trpca.__file__}, not from {SRC}")
    return workload, elapsed


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, check=True, text=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def close(workload) -> None:
    if hasattr(workload, "close"):
        workload.close()


def timed(workload, i: int):
    """Run operation i; returns (seconds, result or None, error or None)."""
    start = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception:  # an operation that raises counts as failed; keep measuring
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, out, None


def measure(workload, seconds: float, tracer=None):
    """Closed loop over operations until ``seconds`` have passed, ending on
    a whole batch.  With a tracer, each input runs untraced then traced.

    Returns (untraced, traced, window seconds); each list holds
    (input index, seconds, result, error).
    """
    import tracing

    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        untraced.append((i, *timed(workload, i)))
        if tracer is not None:
            tracer.op = i
            with tracing.traced(tracer), tracer.span("op"):
                traced.append((i, *timed(workload, i)))
        i += 1
        if i % workload.batch == 0 and time.perf_counter() - start >= seconds:
            return untraced, traced, time.perf_counter() - start


def check_all(workload, runs):
    """Returns (passed, recovered) counts; failures are reported on stderr."""
    passed = recovered = 0
    for i, _, out, err in runs:
        ok = rec = False
        if err is None:
            try:
                ok, rec = workload.check(i, out)
            except Exception:  # a malformed result fails its check
                err = traceback.format_exc()
        if not ok:
            print(f"op {i} failed: {err or out!r}", file=sys.stderr)
        passed += bool(ok)
        recovered += bool(rec)
    return passed, recovered


def report_line(name: str, value: float, unit: str, samples: int, note: str = "") -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<8} (n={samples}){note}")


def run_one(args) -> int:
    if args.setup_probe:
        workload, seconds = setup(args.workload, args.seed)
        close(workload)
        print(seconds)
        return 0

    workload, own_setup = setup(args.workload, args.seed)
    try:
        env = machine.describe()
        machine.check(env)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": env}))
        setups = [own_setup] + [
            setup_in_fresh_process(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        untraced, traced, window = measure(workload, args.seconds, tracer)
        passed, recovered = check_all(workload, untraced + traced)
        if hasattr(workload, "summary"):
            print(workload.summary([out for _, _, out, _ in untraced + traced]))
    finally:
        close(workload)

    attempted = len(untraced) + len(traced)
    untraced_s = [t for _, t, _, _ in untraced]
    if args.trace:
        import layers

        metrics = layers.summarize(tracer.spans, [t for _, t, _, _ in traced], untraced_s)
        units = {name: layers.unit(name) for name in metrics}
        notes = {m.name: "  not called by this workload" for m in layers.METRICS
                 if args.workload not in m.workloads}
        samples = len(traced)
        write_spans(tracer, args, env)
        print(f"{args.workload}: {attempted} ops, half of them traced, {passed} passed")
        self_sum, total = layers.subtree_self_s(tracer.spans, "solver.solve")
        if total:
            print(f"  self times at and under solver.solve sum to {self_sum:.6f} s "
                  f"of solver.solve's {total:.6f} s")
    else:
        metrics = {
            "op_s.p50": statistics.median(untraced_s),
            "ops_per_s": passed / window,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "recovered_frac": recovered / attempted,
        }
        units = END_TO_END_UNITS
        notes = {}
        samples = attempted
        print(f"{args.workload}: {attempted} ops in {window:.2f} s, {passed} passed")
    for name, value in metrics.items():
        report_line(name, value, units[name], SETUP_SAMPLES if name == "setup_s" else samples,
                    notes.get(name, ""))
    result = {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(tracer, args, env: dict) -> None:
    path = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "machine": env}) + "\n")
        for s in tracer.spans:
            f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "op": s.op, **s.info}) + "\n")
    print(f"wrote {len(tracer.spans)} spans to {path}")


def run_all(args) -> int:
    """Every workload in its own process; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print(f"error: {name} exited with {proc.returncode} without a result",
                  file=sys.stderr)
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "trpca" / "__init__.py").is_file():
        print(f"error: no trpca sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
