"""crtoptim benchmark: time to a checked design on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload seq-local --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of that checkout. One client runs
operations back to back (a closed loop) for ``--seconds``; every output is
then checked against an independent dense re-evaluation and a reference
value. The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). A traced run alternates traced and untraced operations,
so the tracing overhead is measured under the same conditions.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("seq-local", "robust-local", "cp-weights-cli")
# One BLAS thread: the kernels are 7x7 to 600x600 and a second thread only
# adds contention on a two-core machine.
BLAS_THREADS = "1"
# Set-up is measured this many times per run, in fresh interpreters.
SETUP_REPEATS = 5
# Every run completes at least this many operations, whatever --seconds says.
MIN_OPS = 2
TAIL_BEYOND = 10
# Seconds of each SpeedProbe chunk at the reference speed (the fast state
# of a 2-core x86-64 machine, Python 3.11, numpy 2.4), and how often the
# probe times it.
PYTHON_CHUNK_REF_S = 29e-6
NUMPY_CHUNK_REF_S = 90e-6
SAMPLE_EVERY_S = 0.01


class Record(NamedTuple):
    index: int
    raw: float       # wall seconds
    scaled: float    # seconds at the reference speed
    output: Any      # the operation's output, or the exception it raised
    traced: bool


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem size; tiny is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print the seconds it took and exit")
    return p.parse_args(argv)


def _bootstrap():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # one CPU for the work and the SpeedProbe thread that samples its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = ROOT / "src"
    if not (src / "crtoptim" / "__init__.py").is_file():
        sys.exit(f"error: no crtoptim sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))


def _python_chunk() -> float:
    """Seconds taken by a fixed bit of pure-Python work."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - started


def _numpy_chunk():
    """A timer of four 7x7 ``eigh`` + ``solve`` pairs, the shape of one
    criterion evaluation; needs numpy, so it serves after set-up."""
    import numpy as np
    mats = [a @ a.T + np.eye(7) for a in np.random.default_rng(0).standard_normal((4, 7, 7))]
    vec = np.arange(7.0)

    def chunk() -> float:
        started = time.perf_counter()
        for m in mats:
            np.linalg.eigh(m)
            np.linalg.solve(m, vec)
        return time.perf_counter() - started
    return chunk


class SpeedProbe:
    """Samples the speed of the CPU this process runs on while work runs.

    The machine's speed drifts by up to 1.8x, switching within a second
    (another tenant; CPU time equals wall time and steal is ~0). While the
    probe is active a thread times ``chunk`` every SAMPLE_EVERY_S, which
    costs the work under measurement about 1%. ``scaled`` turns a wall
    interval into the seconds it would take at the reference speed, at
    which ``chunk`` takes ``ref_s``. The process is pinned to one CPU (see
    ``_bootstrap``), so the thread samples the CPU the work runs on.

    Measured over two minutes of repeated identical operations, scaling cut
    the spread of 15-operation medians from 53% to 4% (cluster-period
    weights) and from 57% to 8% (sequence search). The numpy chunk tracks
    the drift better than the pure-Python one (12% and 11%), which is
    still used for set-up because set-up imports numpy. The chunks use no
    crtoptim code, so a faster library moves scaled and raw times alike.
    """

    def __init__(self, chunk, ref_s: float):
        self._chunk = chunk
        self._ref_s = ref_s
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._sample_once()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample_once()

    def _sample_once(self):
        self._samples.append((time.perf_counter(), self._chunk()))

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample_once()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed: wall time times the mean
        speed ratio sampled inside the interval (the nearest sample when
        the interval holds none)."""
        times = [t for t, _ in self._samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        window = [c for _, c in self._samples[lo:hi]]
        if not window:
            near = min(self._samples, key=lambda s: abs(s[0] - end))
            window = [near[1]]
        return (end - start) * statistics.fmean(self._ref_s / c for c in window)


def _work_dir(args) -> Path:
    return OUT_DIR / f"{args.workload}-{os.getpid()}"


def _setup(args):
    """Import the library and build the workload; returns the workload and
    the seconds that took, raw and scaled to the reference speed."""
    with SpeedProbe(_python_chunk, PYTHON_CHUNK_REF_S) as probe:
        started = time.perf_counter()
        import workloads
        workload = workloads.build(args.workload, args.seed, args.size, _work_dir(args))
        ended = time.perf_counter()
    return workload, ended - started, probe.scaled(started, ended)


def _probe_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = done.stdout.split()
    return float(raw), float(scaled)


def _tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _bytes_under(path) -> int:
    if not isinstance(path, Path) or not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} with {BLAS_THREADS} thread(s), "
            f"os.cpu_count() {os.cpu_count()}")


def _loop(workload, seconds, tracer):
    """Closed loop: run operations until ``seconds`` have passed. Returns
    per-operation (index, raw seconds, scaled seconds, output or exception,
    traced)."""
    spans = []
    with SpeedProbe(_numpy_chunk(), NUMPY_CHUNK_REF_S) as probe:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_OPS or time.perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 0
            began = time.perf_counter()
            try:
                if traced:
                    with tracer.installed(i):
                        output = workload.operation(i)
                else:
                    output = workload.operation(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            spans.append((i, began, time.perf_counter(), output, traced))
            i += 1
    records = [Record(i, end - began, probe.scaled(began, end), output, traced)
               for i, began, end, output, traced in spans]
    return records


def _check(workload, records):
    good = [r for r in records if not isinstance(r.output, Exception)]
    checks = workload.check_all([r.output for r in good])
    failed = len(records) - len(good) + sum(not c.ok for c in checks)
    for r in records:
        if isinstance(r.output, Exception):
            print(f"# operation {r.index} raised {r.output!r}")
    for r, c in zip(good, checks):
        for problem in c.problems:
            print(f"# operation {r.index}: {problem}")
    efficiency = min((c.efficiency for c in checks if c.ok), default=0.0)
    return failed, efficiency


def main(argv=None) -> int:
    args = _parse_args(argv)
    _bootstrap()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.setup_only:
            _, raw, scaled = _setup(args)
            print(repr(raw), repr(scaled))
            return 0
        return _run(args)
    finally:
        shutil.rmtree(_work_dir(args), ignore_errors=True)


def _run(args) -> int:
    tracer = None
    if args.trace:
        import workloads
        from spans import SETUP_OP, Tracer
        tracer = Tracer(workloads.TRACE_POINTS)
        with tracer.installed(SETUP_OP):
            workload, *setup = _setup(args)
    else:
        workload, *setup = _setup(args)
    print(f"# {_environment()}")

    loop_started = time.perf_counter()
    records = _loop(workload, args.seconds, tracer)
    elapsed = time.perf_counter() - loop_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = _bytes_under(records[0].output)
    failed, efficiency = _check(workload, records)
    attempted = len(records)
    scaled = [r.scaled for r in records]

    if args.trace:
        from spans import LAYER_UNITS, layer_metrics
        traced = [r.scaled for r in records if r.traced]
        untraced = [r.scaled for r in records if not r.traced]
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        values = layer_metrics(tracer, [r.index for r in records if r.traced], 0,
                               workload.size.restarts, bytes_written, overhead)
        units = LAYER_UNITS
        scale = statistics.median(r.scaled / r.raw for r in records)
        for name, unit in units.items():
            if unit in ("s", "us"):
                values[name] *= scale
    else:
        setups = [setup] + [_probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        tail, tail_pct = _tail(scaled)
        print(f"# {args.workload}: {attempted} operations in {elapsed:.3f} s, "
              f"raw median {statistics.median(r.raw for r in records):.4f} s; "
              f"solve_s.tail is p{tail_pct:.1f} of {attempted} samples; "
              f"failed_frac {failed / attempted}; raw set-up "
              + " ".join(f"{raw:.4f}" for raw, _ in setups))
        values = {
            "solve_s.p50": statistics.median(scaled),
            "solve_s.tail": tail,
            "solves_per_s": attempted / math.fsum(scaled),
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb": peak_rss_mb,
            "design_efficiency": efficiency,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"solve_s.p50": "s", "solve_s.tail": "s", "solves_per_s": "1/s",
                 "setup_s": "s", "peak_rss_mb": "MB", "design_efficiency": "ratio",
                 "ok_frac": "ratio"}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
