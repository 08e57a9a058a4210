"""Run one valuegeom benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmarks/run.py --workload game-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` sends the same kind of requests through the span tracer and
reports the per-layer metrics instead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (revision, interpreter,
cores, seeds, request count, reportable percentile).

Every workload is a closed loop with one client: the next request is sent
only after the previous one completes. Each input is generated just before
its request, outside the timed interval, and every output is checked
against the golden digests before the run reports ``correct``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / f"_work-{os.getpid()}"

#: Fresh interpreters started per set-up measurement; the median is reported.
SETUP_REPS = 21
#: The highest percentile reported must leave at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Failures echoed to standard error before the rest are only counted.
SHOWN_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout():
    """Import ``valuegeom`` from this checkout's ``src/`` and nowhere else."""
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the package's internal assert cross-checks")
    init = SRC / "valuegeom" / "__init__.py"
    if not init.is_file():
        fail(f"no valuegeom package at {init}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import valuegeom

    if Path(valuegeom.__file__).resolve() != init.resolve():
        fail(f"valuegeom imported from {valuegeom.__file__}, not from {init}")
    return valuegeom


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONOPTIMIZE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_op") or name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_per_op"):
        return "bytes"
    if "_bits_" in name:
        return "bits"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


# -- children ---------------------------------------------------------------


def time_children(argv: list[str], env: dict[str, str], reps: int = SETUP_REPS) -> list[tuple[float, str]]:
    """Wall seconds and stderr of ``reps`` fresh interpreters, after one untimed warm-up.

    The warm-up writes the checkout's bytecode caches, as an installed copy has.
    """
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    out = []
    for _ in range(reps):
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=60)
        out.append((perf_counter() - t0, proc.stderr))
    return out


def valuegeom_import_ms(importtime_stderr: str) -> float:
    """Sum of the self times ``-X importtime`` reports for valuegeom modules."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        self_us = parts[0].split(":", 1)[1].strip()
        name = parts[2].strip()
        if self_us.isdigit() and (name == "valuegeom" or name.startswith("valuegeom.")):
            total_us += int(self_us)
    return total_us / 1000


def check_child_import(env: dict[str, str]) -> None:
    proc = subprocess.run([sys.executable, "-c", "import valuegeom; print(valuegeom.__file__)"],
                          env=env, capture_output=True, text=True, timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or Path(where).resolve() != (SRC / "valuegeom" / "__init__.py").resolve():
        fail(f"child interpreters import valuegeom from {where or proc.stderr.strip()!r}, not from {SRC}")


# -- serving ----------------------------------------------------------------


def clear_caches(caches: list) -> None:
    for cache in caches:
        cache.cache_clear()


class CacheStats:
    """Hits and misses of the ``combinatorics`` lru caches, summed over traced requests only."""

    def __init__(self, caches: list):
        self.caches = caches
        self.counted = [c for c in caches if getattr(c, "__module__", "") == "valuegeom.combinatorics"]
        self.hits = self.misses = 0
        self._last = (0, 0)

    def _read(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self.counted]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def begin(self, cold: bool) -> None:
        if cold:
            clear_caches(self.caches)
        self._last = self._read()

    def end(self) -> None:
        hits, misses = self._read()
        self.hits += hits - self._last[0]
        self.misses += misses - self._last[1]

    def ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class Pass:
    """Latencies (ns) of the requests one pass sent, and how many failed."""

    latencies: list[int] = field(default_factory=list)
    busy_ns: int = 0
    failed: int = 0
    exhausted: bool = False


def _failure(wl, req, result, error, golden: list[str]) -> str | None:
    if error is not None:
        return f"{type(error).__name__}: {error}"
    if wl.name == "cli" and result[0] != 0:
        return f"exit code {result[0]}"
    got = wl.output_digest(req, result)
    if got != golden[req.index]:
        return f"output digest {got} != golden {golden[req.index]}"
    if not wl.efficiency_ok(req, result):
        return "payoffs do not sum to the grand worth"
    return None


@contextlib.contextmanager
def input_files(req):
    """Write the request's input files into the work directory for the duration of the request."""
    for name, text in req.files.items():
        (WORKDIR / name).write_text(text, encoding="utf-8")
    try:
        yield
    finally:
        for name in req.files:
            (WORKDIR / name).unlink(missing_ok=True)


def _send(wl, req, golden: list[str], out: Pass, in_process: bool, caches: list,
          tracer=None, stats: CacheStats | None = None) -> None:
    """Send one request, time it, and check its output against the golden digest."""
    result = error = None
    with input_files(req):
        gc.collect()
        if stats is not None:
            stats.begin(wl.cold)
        elif wl.cold:
            clear_caches(caches)
        root = tracer.begin_request() if tracer is not None else None
        t0 = perf_counter_ns()
        try:
            result = wl.execute(req, WORKDIR, in_process)
        except Exception as exc:  # a failing request is counted, not fatal
            error = exc
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.end_request(root)
        if stats is not None:
            stats.end()
    out.latencies.append(t1 - t0)
    out.busy_ns += t1 - t0
    problem = _failure(wl, req, result, error, golden)
    if problem is not None:
        out.failed += 1
        if out.failed <= SHOWN_FAILURES:
            print(f"failed: {wl.name} request {req.index} ({req.kind}): {problem}", file=sys.stderr)


def serve(wl, seed: int, budget_ns: float, golden: list[str], caches: list, in_process: bool,
          tracer=None, stats: CacheStats | None = None) -> tuple[Pass, Pass]:
    """Send requests one at a time until ``budget_ns`` of request time is spent.

    Each request's input is built, and the garbage collector run, just before
    the request is timed, so the serving process holds one input at a time.
    With a tracer, each batch is sent traced and then replayed untraced, so
    the second pass prices the tracer on the same inputs under the same
    conditions.
    """
    out, replay = Pass(), Pass()
    WORKDIR.mkdir(exist_ok=True)
    for chunk in wl.batches(seed):
        sent = []
        for i in chunk:
            if out.busy_ns >= budget_ns:
                break
            req = wl.build(i)
            if tracer is None:
                _send(wl, req, golden, out, in_process, caches)
                continue
            tracer.install()
            try:
                _send(wl, req, golden, out, in_process, caches, tracer, stats)
            finally:
                tracer.restore()
            sent.append(req)
        for req in sent:
            _send(wl, req, golden, replay, in_process, caches)
        if out.busy_ns >= budget_ns:
            return out, replay
    out.exhausted = True
    return out, replay


# -- metrics ----------------------------------------------------------------


def reportable_percentile(count: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least TAIL_SAMPLES samples beyond it."""
    best = None
    for per_mille in (500, 900, 990, 999):
        if count * (1000 - per_mille) >= TAIL_SAMPLES * 1000:
            best = per_mille / 10
    return best


def end_to_end_metrics(p: Pass, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    lat_ms = [x / 1e6 for x in p.latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "success_frac": 1 - p.failed / len(lat_ms),
        "peak_rss_mb": peak_rss_mb,
    }


def run_untraced(wl, seed: int, seconds: int, golden: list[str], caches: list, env: dict[str, str]):
    setup = time_children([sys.executable, "-c", f"import {wl.entry_module}"], env)
    p, _ = serve(wl, seed, seconds * 1e9, golden, caches, in_process=False)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = end_to_end_metrics(p, statistics.median(t for t, _ in setup), peak_mb)
    return p, metrics, p.failed


def run_traced(wl, seed: int, seconds: int, golden: list[str], caches: list, env: dict[str, str], package):
    """Half the budget in traced requests, each batch replayed untraced to price the tracer."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer(package)
    stats = CacheStats(caches)
    traced, replay = serve(wl, seed, seconds * 1e9 / 2, golden, caches, True, tracer, stats)
    ops = len(traced.latencies)
    metrics = layer_metrics(tracer.summary(), tracer.counters, tracer.maxima, ops)
    metrics["combinatorics.cache_hit_ratio"] = stats.ratio()
    metrics["setup.interpreter_ms"] = 1000 * statistics.median(
        t for t, _ in time_children([sys.executable, "-c", "pass"], env))
    metrics["setup.import_ms"] = statistics.median(
        valuegeom_import_ms(err)
        for _, err in time_children([sys.executable, "-X", "importtime", "-c", f"import {wl.entry_module}"], env))
    metrics["trace.overhead_frac"] = traced.busy_ns / replay.busy_ns - 1
    metrics["trace.wall_ms_per_op"] = traced.busy_ns / 1e6 / ops
    return traced, metrics, traced.failed + replay.failed


# -- record -----------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout's own ``.git``, read directly (no parent repository is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so a record names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "valuegeom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(wl, args, p: Pass, package, failed: int) -> dict:
    count = len(p.latencies)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "universe": f"{wl.size} requests drawn from random.Random('{wl.name}/<kind or index>'), golden/{wl.name}.txt",
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "valuegeom_file": package.__file__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "requests": count,
        "busy_s": p.busy_ns / 1e9,
        "universe_exhausted": p.exhausted,
        "reportable_percentile": reportable_percentile(count),
        "failed_frac": failed / count if count else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["game-dense", "game-wide", "closed-form", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    package = import_checkout()
    import workloads
    from tracer import valuegeom_modules

    wl = workloads.get(args.workload)
    try:
        golden = workloads.load_golden(wl.name)
    except OSError as exc:
        fail(f"golden digests missing: {exc}")
    if len(golden) != wl.size:
        fail(f"golden/{wl.name}.txt has {len(golden)} digests, the universe has {wl.size}")
    env = child_env()
    wl.env = env
    check_child_import(env)
    if args.trace:
        valuegeom_modules(package)  # the tracer wraps every module, so import them all first
    caches = workloads.package_caches()

    try:
        if args.trace:
            p, metrics, failed = run_traced(wl, args.seed, args.seconds, golden, caches, env, package)
            units = {name: layer_unit(name) for name in metrics}
        else:
            p, metrics, failed = run_untraced(wl, args.seed, args.seconds, golden, caches, env)
            units = END_TO_END
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:>48}  {value:.6g} {units[name]}")
    print(json.dumps({"record": run_record(wl, args, p, package, failed)}, sort_keys=True))
    attempted = len(p.latencies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
