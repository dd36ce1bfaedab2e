"""descnet benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-news --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics. The lines before it give every metric under the workload's
own name, with its unit and sample count, and the run's environment. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS to one thread before numpy loads: one thread is faster on these
# small matrices, and the run then uses no more threads than cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_program():
    """Put the checkout's own descnet first on the path; refuse any other copy."""
    if not (SRC / "descnet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no descnet sources at {SRC}; run from the root of a descnet checkout")
    sys.path.insert(0, str(SRC))
    import descnet

    if Path(descnet.__file__).resolve().parent != (SRC / "descnet").resolve():
        raise SystemExit(f"bench: imported descnet from {descnet.__file__}, not from {SRC}")


def calibration_ms() -> float:
    """Median time of a fixed numpy kernel, to show machine speed drift beside each run."""
    import numpy as np

    rng = np.random.default_rng(0)
    weights = (0.1 * rng.standard_normal((64, 64))).astype(np.float32)
    x0 = rng.standard_normal((32, 64)).astype(np.float32)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = x0
        for _ in range(400):
            x = np.tanh(x @ weights)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    except OSError:
        pass
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object that the last output line prints."""
    from tracing import Tracer, coverage, layer_metrics
    from workloads import WORKLOADS, Run

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    env = environment()
    env["calibration_start_ms"] = calibration_ms()
    tracer = Tracer() if trace else None
    run = Run(seconds, tracer, tiny, workdir, seed)
    try:
        outcome = WORKLOADS[name](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["calibration_end_ms"] = calibration_ms()
    print("env " + json.dumps(env, sort_keys=True))

    if trace:
        values = layer_metrics(tracer.spans, outcome.primary_kind)
        traced, untraced = outcome.latency_traced, outcome.latency_untraced
        values["trace.overhead_frac"] = float(statistics.median(traced) / statistics.median(untraced) - 1.0)
        values["trace.coverage_frac"] = coverage(tracer.spans)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"trace {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        for m, entry in metrics.items():
            print(f"layer {m} = {entry['value']!r} {entry['unit']}")
    else:
        rss = peak_rss_mb()
        error_rate = run.failed / run.attempted if run.attempted else 0.0
        for m in outcome.named:
            print(f"metric {m.name} = {m.value!r} {m.unit} (n={m.n})")
        print(f"metric peak_rss_mb = {rss!r} MB (n=1)")
        print(f"metric error_rate = {error_rate!r} 1 (n={run.attempted})")
        metrics = {key: {"value": m.value, "unit": m.unit} for key, m in outcome.end_to_end.items()}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    for failure in run.failures:
        print(f"check failed: {failure}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-news", "extract-wide", "serve-short"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    # Turn a termination request into SystemExit so the run's temporary files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
