"""Benchmark of the eqw package: three workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sign-classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run builds the workload's ops from the seed (the set-up), then runs
passes over them, each op timed on its own, until another pass would not
fit in ``--seconds``; it always completes at least one pass. Every result is
checked against the answer known by construction after its pass ends. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones (median over passes) plus the tracing overhead, and writes every span
to ``perfbench/out/trace-<workload>-<seed>.json.gz``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class PassRecord:
    wall: float
    latencies: list[float]
    failures: list[str]
    traced: bool
    layer: dict = field(default_factory=dict)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import eqw from it."""
    if not (SRC / "eqw" / "__init__.py").is_file():
        sys.exit(f"error: no eqw package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eqw

    if SRC not in Path(eqw.__file__).resolve().parents:
        sys.exit(f"error: eqw was imported from {eqw.__file__}, not from {SRC}")


def run_pass(ops, tracer=None, first_op: int = 0) -> PassRecord:
    """Run every op once, timing each, then check all results."""
    import layers

    results, latencies = [], []
    gc.collect()
    if tracer is not None:
        mark = len(tracer.spans)
        maps_before = layers.index_map_counts()
        tracer.install()
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = op.run()
                else:
                    tracer.op, tracer.family = first_op + i, op.family
                    with tracer.span(op.span, op.family):
                        res = op.run()
            except Exception as exc:  # a failed op is counted, the pass goes on
                res = exc
            latencies.append(time.perf_counter() - t0)
            results.append(res)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            msg = f"raised {res!r}"
        else:
            try:
                msg = op.check(res)
            except Exception as exc:
                msg = f"check raised {exc!r}"
        if msg:
            failures.append(f"{op.label}: {msg}")
    record = PassRecord(wall, latencies, failures, tracer is not None)
    if tracer is not None:
        maps_after = layers.index_map_counts()
        extra = {
            "index_maps": None if maps_after is None else (
                maps_after[0] - maps_before[0], maps_after[1] - maps_before[1]),
            "stdout_bytes": sum(len(getattr(r, "stdout_bytes", b"")) for r in results),
        }
        record.layer = layers.pass_metrics(tracer.spans[mark:], extra)
    return record


def run_passes(ops, seconds: float, tracer=None) -> list[PassRecord]:
    """Passes until the next would end after ``seconds``; traced runs alternate.

    A traced run starts untraced and always makes at least one pass of each
    kind, so the tracing overhead has both sides.
    """
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(ops, tracer if traced else None, len(passes) * len(ops)))
        if tracer is not None and len(passes) < 2:
            continue
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its first op being ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(t1 - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def parallel_efficiency() -> float:
    """t(workers=1) / (2 t(workers=2)) over census-verify's pooled enumerations."""
    import eqw.census as census

    def timed(workers: int) -> float:
        t0 = time.perf_counter()
        census.enumerate_grover(5, 4, workers=workers)
        census.enumerate_dj(4, workers=workers)
        return time.perf_counter() - t0

    two = timed(2)
    one = timed(1)
    return one / (2.0 * two)


def outcome(passes: list[PassRecord]) -> tuple[bool, int, int]:
    """(correct, ops attempted, ops failed) over all passes of a run."""
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(len(p.latencies) for p in passes)
    return failed == 0, attempted, failed


def end_to_end(passes: list[PassRecord], setup_s: float, rss: float) -> tuple[dict, list[str]]:
    lat = [t * 1e3 for p in passes for t in p.latencies]
    p90 = statistics.quantiles(lat, n=10)[-1]
    beyond = sum(t > p90 for t in lat)
    _, attempted, failed = outcome(passes)
    per_op = zip(*(p.latencies for p in passes))
    metrics = {
        "wall_s": sum(statistics.median(times) for times in per_op),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    notes = [
        f"wall_s: {len(passes[0].latencies)} ops per pass, each at its median over "
        f"{len(passes)} passes",
        f"op_p50_ms, op_p90_ms: {attempted} ops, {beyond} beyond p90",
        f"setup_s: median of {SETUP_PROBES} fresh interpreters",
        f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}",
    ]
    return metrics, notes


def per_layer(passes: list[PassRecord], workload: str) -> tuple[dict, list[str]]:
    import layers

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {}
    for name in layers.UNITS:
        values = [p.layer[name] for p in traced if p.layer.get(name) is not None]
        metrics[name] = statistics.median(values) if values else None
    metrics["bench.trace_overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    metrics["census.parallel_efficiency"] = (
        parallel_efficiency() if workload == "census-verify" else 0.0
    )
    notes = [f"per-layer: median over {len(traced)} traced passes; "
             f"overhead against {len(plain)} untraced passes"]
    return metrics, notes


def run_one(args) -> int:
    _import_program()
    import layers
    import workloads
    from tracing import Tracer, write

    ops = workloads.build_ops(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    passes = run_passes(ops, args.seconds, tracer)
    failures = [f for p in passes for f in p.failures]
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    if args.trace:
        metrics, notes = per_layer(passes, args.workload)
        units = layers.UNITS
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
        write(path, {"workload": args.workload, "seed": args.seed,
                     "passes": len(passes)}, tracer.spans)
        notes.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        rss = peak_rss_mb()
        metrics, notes = end_to_end(passes, measure_setup(args.workload, args.seed), rss)
        units = END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value!s:>24} {units[name]}")
    correct, attempted, failed = outcome(passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, then one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
