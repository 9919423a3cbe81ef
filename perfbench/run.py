"""End-to-end benchmark of the repro-dynamo toolkit.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload census-cold --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``census-cold``,
``complement-dfs``, ``corpus`` and ``scale-free``, all single-process
(``processes=0``) and closed-loop.  Each run imports the program from
``src/`` in this fresh interpreter.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over fresh interpreters of process start to ready:
import plus input preparation), ``wall_s`` (median pass time over
``--seconds`` of passes, all at the same inputs) and ``peak_rss_mb``.
Both times are rescaled to a fixed host speed by a reference loop
run just before and after each interval (``hostspeed.py``); the raw
times are printed beside them.  The run pins itself and its children
to one CPU and to one math-library thread.  ``--trace 1`` repeats
rounds of four identical passes (plain, traced, telemetry ``basic``,
telemetry ``detailed``) and reports the per-layer split from
benchmark-side spans (``tracing.py``), the tracing and telemetry
overheads, and the plan-cache hit rate from the telemetry stream;
traced spans are written to ``.perfbench-out/`` at exit.

Every pass is checked (``oracle.py``, ``pinned.json``).  Human-readable
lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.  ``--smoke`` shrinks every workload
for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
#: math-library thread pools, held to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODES = ("off", "traced", "basic", "detailed")

Metrics = Dict[str, Tuple[float, str]]


def measure_setup(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line,
    and the host-speed references around them."""
    from hostspeed import reference_s

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    samples, references = [], [reference_s()]
    for _ in range(2 if args.smoke else SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup child failed: {line!r}")
        samples.append(elapsed)
        references.append(reference_s())
    return samples, references


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU with one math thread,
    so a pass is neither migrated nor split across CPUs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name in THREAD_VARS:
        os.environ[name] = "1"


def plain_run(args: argparse.Namespace, wl: Any, log: List[str]) -> Tuple[Metrics, int, List[str]]:
    from hostspeed import rescale, reference_s

    setup, setup_refs = measure_setup(args)
    attempted, failures = wl.check_once()
    walls, kept = [], []
    references = [reference_s()]
    start = perf_counter()
    while not walls or perf_counter() - start < args.seconds:
        gc.collect()
        wall, out = wl.run_pass()
        references.append(reference_s())
        checked, failed = wl.check(out)
        attempted += checked
        failures += failed
        walls.append(wall)
        kept.append(wl.keep(out))
        del out
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, raw, refs in (("setup_s", setup, setup_refs), ("wall_s", walls, references)):
        log.append(f"{name} raw samples: {' '.join(f'{v:.4f}' for v in raw)}")
        log.append(f"{name} references: {' '.join(f'{v:.4f}' for v in refs)}")
        log.append(f"{name} raw median = {statistics.median(raw):.6g} s")
    for name, value, unit, note in wl.details(kept):
        log.append(f"{name} = {value:.6g} {unit} ({note})")
    return {
        "setup_s": (statistics.median(rescale(setup, setup_refs)), "s"),
        "wall_s": (statistics.median(rescale(walls, references)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, attempted, failures


def traced_run(
    args: argparse.Namespace, wl: Any, import_s: float, work: Path, log: List[str]
) -> Tuple[Metrics, int, List[str]]:
    """A warm-up pass under ``detailed`` telemetry (its plan-cache hit
    rate is the one a fresh process sees), then rounds of one pass per
    mode.  Every pass runs the same inputs and must give the same output."""
    from repro import obs
    from repro.obs.report import summarize_stream

    from tracing import METRIC_UNITS, Tracer

    tracer = Tracer()
    attempted, failures = wl.check_once()
    walls: Dict[str, List[float]] = {mode: [] for mode in MODES}
    layers: List[Dict[str, float]] = []
    reference = ""

    def run_mode(mode: str, stream: Path) -> float:
        nonlocal attempted, reference
        telemetry = mode in ("basic", "detailed")
        if mode == "traced":
            tracer.install()
        gc.collect()
        try:
            with obs.telemetry_session(
                stream if telemetry else None,
                level=mode if telemetry else obs.DEFAULT_LEVEL,
                command="perfbench",
            ):
                wall, out = wl.run_pass()
        finally:
            if mode == "traced":
                tracer.uninstall()
        checked, failed = wl.check(out)
        attempted += checked
        failures.extend(failed)
        fingerprint = wl.fingerprint(out)
        if not reference:
            reference = fingerprint
        else:
            attempted += 1
            if fingerprint != reference:
                failures.append(f"{mode} pass output differs from the warm-up pass")
        return wall

    warm_stream = work / "telemetry-warmup.jsonl"
    run_mode("detailed", warm_stream)
    hit_rate = summarize_stream(warm_stream)["plan_cache"]["hit_rate"]
    start = perf_counter()
    try:
        while not layers or perf_counter() - start < args.seconds:
            tracer.trace = len(layers)
            for mode in MODES:
                walls[mode].append(run_mode(mode, work / f"telemetry-{mode}.jsonl"))
            layers.append(tracer.pass_metrics(tracer.trace, walls["traced"][-1]))
    finally:
        tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    counts = [n for n in layers[0] if METRIC_UNITS[n] == "count"]
    for later in layers[1:]:
        attempted += 1
        if any(later[n] != layers[0][n] for n in counts):
            failures.append("per-layer counts differ between identical traced passes")
    off = statistics.median(walls["off"])
    metrics: Metrics = {}
    for name in layers[0]:
        value = (
            layers[0][name] if name in counts
            else statistics.median(layer[name] for layer in layers)
        )
        metrics[name] = (value, METRIC_UNITS[name])
    metrics.update({
        "startup.import_s": (import_s, "s"),
        "workload.trace_overhead": (statistics.median(walls["traced"]) / off, "ratio"),
        "obs.overhead_basic": (statistics.median(walls["basic"]) / off, "ratio"),
        "obs.overhead_detailed": (statistics.median(walls["detailed"]) / off, "ratio"),
        "engine.plans.hit_rate": (0.0 if hit_rate is None else hit_rate, "ratio"),
    })
    for mode in MODES:
        log.append(f"{mode} wall_s samples: {' '.join(f'{w:.4f}' for w in walls[mode])}")
    return metrics, attempted, failures


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Every workload, each in its own fresh interpreter; the last line
    folds their results into one object with workload-prefixed metrics."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        t0 = perf_counter()
        workload.import_modules()
        import_s = perf_counter() - t0
        wl = workload(ROOT, work, args.seed, args.smoke)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        import numpy

        log = [
            f"workload {args.workload} seed {args.seed} trace {args.trace}"
            f"{' smoke' if args.smoke else ''}; python {platform.python_version()},"
            f" numpy {numpy.__version__}, cpus {os.cpu_count()},"
            f" pinned to cpu {min(os.sched_getaffinity(0))}"
        ]
        if args.trace:
            metrics, attempted, failures = traced_run(args, wl, import_s, work, log)
        else:
            metrics, attempted, failures = plain_run(args, wl, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in log:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} checks failed)")
    for message in failures[:20]:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
