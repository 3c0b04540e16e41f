"""Benchmark of the Typer/Tectorwise reproduction, one workload per process.

    python3 perfbench/run.py --workload sim-tables --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

A run imports everything first, then times the workload's set-up (the
median of ``SETUP_REPS`` repetitions plus any one-time part), then runs
whole passes until ``--seconds`` have passed, and at least ``MIN_PASSES``.
Results are compared with references outside the timed region; a wrong
result or an exception counts as a failed op and the run goes on.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self times and counts recorded by ``spans.ReproTracer``
around the calls into each ``repro`` module. The trace itself is
written to ``perfbench/out/``.

A fixed pure-Python kernel is timed at the start and the end of every
run and printed as a diagnostic of host speed. It scales no metric.

The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
# a pass can take longer than --seconds; two passes give every run a
# median of more than one sample and something to compare passes with
MIN_PASSES = 2
SPARK_MASTER = "local[4]"


def host_probe(reps: int = 5, n: int = 1_000_000) -> float:
    """Median seconds of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than twenty samples."""
    s = sorted(samples)
    n = len(s)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(s, n=1000, method="inclusive")
            return f"p{p:g}", q[round(p * 10) - 1]
    return "max", s[-1]


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout only, and keep every
    file Spark writes inside ``perfbench/out``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not from {SRC}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    # every JVM Spark starts, the launcher included: no hsperfdata in /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_MASTER"] = SPARK_MASTER
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(OUT / 'spark-warehouse'))}",
        "pyspark-shell",
    ])


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def run_op(op):
    """Run one op; returns (seconds, result, error text or None)."""
    t0 = perf_counter()
    try:
        out = op.fn()
    except Exception:
        return perf_counter() - t0, None, traceback.format_exc()
    return perf_counter() - t0, out, None


class Pass:
    def __init__(self, seconds, engine_s, engine_tuples):
        self.seconds = seconds
        self.engine_s = engine_s
        self.engine_tuples = engine_tuples

    def mtuples(self, engine: str) -> float:
        if not self.engine_s[engine]:
            return 0.0  # every op of this engine failed at once
        return self.engine_tuples[engine] / self.engine_s[engine] / 1e6


class Bench:
    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, traced: bool, measured: bool = True) -> Pass:
        wl = self.wl
        ops = wl.ops()
        results = []
        gc.collect()
        with root_span(self.tracer if traced else None, "pass") as root:
            wl.clock.reset()
            wl.begin_pass()
            t0 = perf_counter()
            for op in ops:
                dt, out, err = run_op(op)
                if op.engine is not None:
                    wl.clock.add(op.engine, dt, op.tuples)
                results.append((op, out, err))
            seconds = perf_counter() - t0
        counts = wl.end_pass()
        if root is not None:
            for name, n in counts.items():
                root.counts[name] += n
        if measured:
            for op, out, err in results:
                self.attempted += 1
                if err is None:
                    err = wl.check(op, out)
                if err is not None:
                    self.failed += 1
                    self.errors.append(f"{op.label}: {err}")
                    print(f"[perfbench] FAILED {op.label}: {err}", file=sys.stderr)
        return Pass(seconds, dict(wl.clock.seconds), dict(wl.clock.tuples))


def root_span(tracer, name: str):
    """A traced root span with the layers wrapped, or nothing untraced."""
    return tracer.root(name) if tracer is not None else contextlib.nullcontext()


def run_workload(args, specs) -> dict:
    wl_cls = workloads.WORKLOADS[args.workload]
    tracer = spans.ReproTracer() if args.trace else None
    wl = wl_cls(args.seed, tracer)
    probe_start = host_probe()
    bench = Bench(wl, tracer)

    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            wl.clear()  # so that peak RSS covers a single set-up
            gc.collect()
            with root_span(tracer, "setup"):
                t0 = perf_counter()
                wl.setup()
                setup_times.append(perf_counter() - t0)
        t0 = perf_counter()
        with root_span(tracer, "setup.once"):
            wl.setup_once()
            if wl.WARMUP_PASS:
                bench.run_pass(traced=False, measured=False)
        once_s = perf_counter() - t0
        setup_s = statistics.median(setup_times) + once_s

        plain: list[Pass] = []
        traced: list[Pass] = []
        t_start = perf_counter()
        while True:
            want_traced = bool(tracer) and len(traced) < len(plain)
            (traced if want_traced else plain).append(bench.run_pass(want_traced))
            done = perf_counter() - t_start >= args.seconds and len(plain) >= MIN_PASSES
            if done and (not tracer or traced):
                break
    finally:
        wl.close()
    probe_end = host_probe()

    plain_s = [p.seconds for p in plain]
    tail_label, tail_s = tail(plain_s)
    diag = {
        "workload": args.workload, "seed": args.seed,
        "host_probe_s": {"start": probe_start, "end": probe_end},
        "setup_reps_s": setup_times, "setup_once_s": once_s,
        "pass_s": plain_s, "passes": len(plain_s),
        "pass_s_tail": f"{tail_label} of {len(plain_s)} passes",
        "errors": bench.errors[:10],
    }
    if tracer:
        diag["traced_pass_s"] = [p.seconds for p in traced]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(path))
        diag["trace_file"] = str(path.relative_to(ROOT))
        values, diag["trace_check"] = tracer.per_layer(plain, traced, wl.cycles)
        specs_used = specs["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "pass_s_p50": statistics.median(plain_s),
            "pass_s_tail": tail_s,
            "typer_mtuples_per_s": statistics.median(p.mtuples("typer") for p in plain),
            "tw_mtuples_per_s": statistics.median(p.mtuples("tectorwise") for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs_used = specs["end_to_end"]
    missing = set(specs_used) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs_used.items()}
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:40s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"diagnostics": diag}))
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def run_all(args, specs) -> int:
    """Run every workload in a fresh process and print their results."""
    status = 0
    for name in specs["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    specs = metric_specs()
    if args.workload is None:
        return run_all(args, specs)
    if args.workload not in specs["workloads"]:
        ap.error(f"unknown workload {args.workload}; one of {specs['workloads']}")
    result = run_workload(args, specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    bootstrap()
    import spans  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
