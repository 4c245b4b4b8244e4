"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload phy_batch_8k --seed 0 --seconds 25 --trace 0

Workloads are described in ``BENCHMARK.json`` and ``workloads.py``.  One
process, one thread, BLAS threads capped at the number of usable CPUs.

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs operations in a closed loop for ``--seconds`` and
reports the end-to-end metrics, with times scaled to a reference machine
speed (``speed.py``).  ``--trace 1`` runs each operation twice,
plain and with every layer's public entry point wrapped in a span
(``spans.py``), and reports the per-layer metrics, the tracing overhead and
the trace coverage.

Every operation's outputs are checked.  For the default seed the first
operations' outcomes are hashed and compared with ``digests.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw per-run samples, a machine
and provenance stamp, and (traced) the spans are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

#: Every operation past this many multiples of ``--seconds`` is skipped, so
#: a run whose operations keep failing still ends.
HARD_STOP = 2.0

#: Bounds of the trace coverage check: the self times of all spans must
#: account for this share of the traced wall time.
COVERAGE_RANGE = (0.97, 1.0 + 1e-6)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPUs; must run before numpy loads."""
    cap = usable_cpus()
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


# ----------------------------------------------------------------- measuring


def safe_op(workload, n: int):
    """Operation ``n``; one that raises is a failed operation, not a crash."""
    from workloads import OpResult

    t0 = perf_counter()
    try:
        return workload.run_op(n)
    except Exception:
        return OpResult(perf_counter() - t0, 0.0, [], f"{n}:raised",
                        [f"operation {n} raised:\n{traceback.format_exc()}"], t0)


def closed_loop(step, seconds: float, min_latency_samples: int = 0) -> float:
    """Call ``step(n)`` for ``n = 0, 1, ...`` for about ``seconds``; returns the wall time.

    ``step`` returns how many latency samples it took.  The loop stops
    before a step that would end past ``seconds`` (judged by the mean step
    so far), once at least ``min_latency_samples`` samples are in.
    """
    n = n_latencies = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if n and (
            elapsed >= HARD_STOP * seconds
            or (n_latencies >= min_latency_samples and elapsed + elapsed / n > seconds)
        ):
            return elapsed
        n_latencies += step(n)
        n += 1


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: The tail latency reported, and the latency samples a run needs so that
#: at least ten lie beyond it.
TAIL_Q = 0.90
MIN_LATENCY_SAMPLES = round(10 / (1 - TAIL_Q))


def outcome_digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def check_digest(name: str, seed: int, records: list[str], n_ops: int, table: dict):
    """``(digest, problem)``; ``problem`` is None unless a recorded digest differs.

    Only the default seed has recorded digests, and only the first
    ``n_ops`` operations are hashed, so run length does not matter.
    """
    if seed != table.get("seed") or len(records) < n_ops:
        return None, None
    digest = outcome_digest(records[:n_ops])
    expected = table.get("workloads", {}).get(name)
    if expected is not None and expected != digest:
        return digest, f"{name}: outcome digest {digest[:16]} differs from recorded {expected[:16]}"
    return digest, None


# ------------------------------------------------------------------- stamps


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Hash of the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args, blas_threads: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable_cpus(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- runs


def problems_of(results) -> list[str]:
    return [p for r in results for p in r.problems]


def run_plain(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set-ups, then the closed loop; timings are scaled to reference speed."""
    from speed import SpeedMeter

    meter = SpeedMeter()
    workload.meter = meter
    meter.sample()
    setups = []
    for _ in range(workload.setup_reps):
        meter.maybe_sample()
        t0 = perf_counter()
        workload.setup(seed)
        setups.append((t0, perf_counter() - t0))
    meter.sample()
    gc.collect()
    results = []

    def step(n: int) -> int:
        meter.maybe_sample()
        results.append(safe_op(workload, n))
        return len(results[-1].latencies_s)

    with workload.probes():
        wall = closed_loop(step, seconds, MIN_LATENCY_SAMPLES)
    meter.sample()
    # Set-up work (building objects, warm-up packets) is interpreter-bound
    # in every workload, so it scales fully with the kernel.
    setup_s = [d * meter.factor(t0, t0 + d) for t0, d in setups]
    sensitivity = workload.speed_sensitivity
    factors = [meter.factor(r.start_s, r.start_s + r.wall_s, sensitivity) for r in results]
    latencies = [
        x * meter.factor(t, t + x, sensitivity)
        for r in results
        for x, t in zip(r.latencies_s, r.latency_starts_s or [r.start_s] * len(r.latencies_s))
    ]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "work_per_s": (sum(r.work for r in results)
                       / sum(r.wall_s * f for r, f in zip(results, factors)), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, TAIL_Q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": setup_s,
        "setup_raw_s": [d for _, d in setups],
        "measured_wall_s": wall,
        "ops": [{"wall_s": r.wall_s, "factor": f, "work": r.work, "latencies": len(r.latencies_s)}
                for r, f in zip(results, factors)],
        "latencies_s": latencies,
        "speed_samples": meter.samples,
    }
    return {"results": results, "final": workload.final_problems(), "metrics": metrics}, raw


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Each operation twice, plain and traced, in alternating order.

    Pairing the same inputs back to back keeps drift in machine speed out
    of the tracing overhead.
    """
    from repro.utils.opcache import get_global_opcache
    from spans import SpanRecorder, fleet_patches, layer_metrics, patched, phy_patches

    workload.setup(seed)
    gc.collect()
    rec = SpanRecorder()
    patches = phy_patches(rec) + fleet_patches(rec)
    cache = get_global_opcache()
    plain, traced = [], []
    totals = {"wall": 0.0, "hits": 0, "misses": 0}

    def traced_op(n: int) -> None:
        hits, misses = cache.hits, cache.misses
        t0 = perf_counter()
        with patched(patches):
            rec.request = n
            root = rec.open("bench.op")
            try:
                traced.append(safe_op(workload, n))
            finally:
                rec.close(root)
        totals["wall"] += perf_counter() - t0
        totals["hits"] += cache.hits - hits
        totals["misses"] += cache.misses - misses

    def step(n: int) -> int:
        if n % 2:
            traced_op(n)
        plain.append(safe_op(workload, n))
        if not n % 2:
            traced_op(n)
        return 0

    with workload.probes():
        closed_loop(step, seconds)
    final = workload.final_problems()
    for n, (a, b) in enumerate(zip(plain, traced)):
        if a.record != b.record:
            final.append(f"operation {n}: traced outcome differs from the untraced one")
    traced_wall = totals["wall"]
    overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0
    coverage = rec.coverage(traced_wall)
    self_times = rec.self_times()
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1] or min(self_times) < -1e-6:
        final.append(f"trace coverage {coverage:.4f} outside {COVERAGE_RANGE} "
                     f"or a negative self time ({min(self_times):.3g} s)")
    metrics = layer_metrics(rec, len(traced), (totals["hits"], totals["misses"]))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.self_coverage"] = (coverage, "ratio")
    shares = {name: t / traced_wall for name, t in rec.self_by_name().items()}
    raw = {
        "ops": len(plain),
        "untraced_op_wall_s": sum(r.wall_s for r in plain),
        "traced_op_wall_s": sum(r.wall_s for r in traced),
        "traced_wall_s": traced_wall,
        "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "spans": rec.to_json(),
    }
    return {"results": plain + traced, "final": final, "metrics": metrics}, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run = run_traced if args.trace else run_plain
    outcome, raw = run(workload, args.seed, args.seconds)

    results = outcome["results"]
    problems = problems_of(results) + outcome["final"]
    table = json.loads(DIGESTS.read_text())
    digest, digest_problem = check_digest(
        args.workload, args.seed, [r.record for r in results], workload.digest_ops, table
    )
    if digest_problem:
        problems.append(digest_problem)
    attempted = len(results)
    failed = min(attempted, sum(1 for r in results if r.problems) + len(outcome["final"])
                 + bool(digest_problem))

    OUT_DIR.mkdir(exist_ok=True)
    raw_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw_path.write_text(json.dumps({
        "stamp": stamp(args, blas_threads),
        "digest": digest,
        "problems": problems,
        "metrics": outcome["metrics"],
        **raw,
    }))
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    if args.trace:
        top = list(raw["self_share"].items())[:12]
        print("self-time share of traced wall:", file=sys.stderr)
        for name, share in top:
            print(f"  {share:7.2%}  {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
