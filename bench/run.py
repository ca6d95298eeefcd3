"""Benchmark for relangle: one workload, one fresh interpreter, one JSON result.

    python3 bench/run.py --workload mc --seed 1 --seconds 30 --trace 0

The run repeats its workload's fixed job list in passes, closed loop with one
client, until ``--seconds`` have elapsed.  Before each pass every
``lru_cache`` in the package is cleared, so a pass starts cold and warms up
as it goes.  Outputs are checked after each pass, outside the timed region.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics.  The last line of stdout is the result; the line
before it records the environment and run details.  See bench/README.md.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
MIN_SETUP_PROBES = 5
# wall_s is given at the machine speed where the calibration loop takes
# CALIBRATION_REFERENCE_S, about its time on a quiet 2-vCPU Xeon VM.
CALIBRATION_STEPS = 1200
CALIBRATION_REFERENCE_S = 0.1
SETUP_PROBE_CODE = "import numpy, relangle; print('ready', flush=True)"


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (exit code 2, no result)."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc", "estimate", "curve", "dense"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout, with BLAS threads capped first."""
    if not (SRC / "relangle" / "__init__.py").is_file():
        raise BenchmarkError(f"no relangle package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import relangle

    if Path(relangle.__file__).resolve().parent != SRC / "relangle":
        raise BenchmarkError(f"imported relangle from {relangle.__file__}, not from {SRC}")


def _probe_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until numpy and relangle are imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE_CODE], cwd=ROOT, env=_probe_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchmarkError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def calibration_seconds() -> float:
    """Time one fixed loop of small numpy operations that never calls relangle.

    The loop is shaped like the package's own work: a Hermitian
    eigensystem, a phase rotation, a kron and an einsum on a few-dimensional
    space, and some log-gamma terms.  It runs right before each untraced
    pass, so it sees the same stretch of machine speed as that pass.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        a = rng.random((6, 6)) + 1j * rng.random((6, 6))
        w, v = np.linalg.eigh(a + a.conj().T)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        psi = np.kron(u[:, 0], u[:, 1])
        rho = np.outer(psi, psi.conj())
        # the value is discarded; only the time of the loop counts
        float(np.einsum("ij,ji->", rho, rho).real) + sum(math.lgamma(k + 1) for k in range(10))
    return time.perf_counter() - start


def clear_caches() -> None:
    """Empty every lru_cache in the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "relangle" or name.startswith("relangle."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once, closed loop; time the loop, then check the outputs."""
    clear_caches()
    gc.collect()
    outputs = []
    if tracer is not None:
        tracer.reset()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            try:
                outputs.append(job.run())
            except Exception as exc:  # a failing job is counted, the run goes on
                outputs.append(exc)
        wall = time.perf_counter() - start
    failures = []
    for job, output in zip(jobs, outputs):
        reason = f"raised {output!r}" if isinstance(output, Exception) else job.check(output)
        if reason is not None:
            failures.append(f"{job.key}: {reason}")
    record = {"wall": wall, "failures": failures}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans
    return record


def run_passes(jobs, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` have elapsed.

    Each untraced pass follows a calibration loop, and in untraced runs a
    set-up probe, so both see the same machine conditions as the pass.
    Traced runs alternate untraced and traced passes.  Returns (untraced,
    traced, setup times).
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    untraced, traced, setup_times = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is None:
            setup_times.append(measure_setup())
        calibration = calibration_seconds()
        untraced.append(run_pass(jobs))
        untraced[-1]["calibration"] = calibration
        if tracer is not None:
            traced.append(run_pass(jobs, tracer))
            if len(traced) > 1:  # only the first traced pass's spans are written out
                del traced[-1]["spans"]
        if time.perf_counter() - start >= seconds:
            break
    while tracer is None and len(setup_times) < MIN_SETUP_PROBES:
        setup_times.append(measure_setup())
    return untraced, traced, setup_times


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """SHA-256 over the package sources; identifies the commit under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "relangle").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_cap": NPROC,
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_sha256": _source_digest(),
    }


def _median_wall(records: list[dict]) -> float:
    return statistics.median(r["wall"] for r in records)


def calibrated_wall(untraced: list[dict]) -> float:
    """Median pass time, each pass scaled by the calibration loop timed just
    before it, in seconds at the reference speed of that loop."""
    return statistics.median(
        r["wall"] * CALIBRATION_REFERENCE_S / r["calibration"] for r in untraced)


def _median_pass(records: list[dict]) -> dict:
    """The pass whose time is the median (the lower one for an even count)."""
    ordered = sorted(records, key=lambda r: r["wall"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end_metrics(untraced, setup_times) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (calibrated_wall(untraced), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer_metrics(untraced, traced, trials: int) -> tuple[dict, dict]:
    chosen = _median_pass(traced)
    metrics = dict(chosen["layers"])
    metrics["sim.trials_per_s"] = (trials / calibrated_wall(untraced), "1/s")
    metrics["trace.wall_s"] = (chosen["wall"], "s")
    metrics["trace.overhead_frac"] = (_median_wall(traced) / _median_wall(untraced) - 1.0, "frac")
    counts = [
        {k: v for k, (v, unit) in r["layers"].items() if unit == "count"} for r in traced
    ]
    self_sum = sum(v for k, (v, unit) in chosen["layers"].items() if k.endswith(".self_s"))
    detail = {
        "counts_repeat_across_passes": all(c == counts[0] for c in counts),
        "self_s_sum": self_sum,
        "self_s_sum_within_wall": self_sum <= chosen["wall"],
    }
    return metrics, detail


def _write_spans(args, record) -> str:
    from spans import span_table

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(span_table(record["spans"]), handle, separators=(",", ":"))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        load_program()
        from workloads import make_jobs

        jobs = make_jobs(args.workload, args.seed)
        untraced, traced, setup_times = run_passes(jobs, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    records = untraced + traced
    attempted = len(jobs) * len(records)
    failures = [f for r in records for f in r["failures"]]
    detail = {
        "jobs_per_pass": len(jobs),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_wall_s": [r["wall"] for r in untraced],
        "calibration_s": [r["calibration"] for r in untraced],
        "setup_probes_s": setup_times,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        metrics, trace_detail = per_layer_metrics(
            untraced, traced, sum(job.trials for job in jobs))
        detail.update(trace_detail)
        detail["traced_pass_wall_s"] = [r["wall"] for r in traced]
        detail["spans_file"] = _write_spans(args, traced[0])
    else:
        metrics = end_to_end_metrics(untraced, setup_times)
    print(json.dumps({"env": environment(args), "detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
