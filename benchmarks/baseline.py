"""Re-take the ROADMAP baseline table: median and quartiles over repeats.

    python3 benchmarks/baseline.py

Each row is timed ``REPS`` times (``SLOW_REPS`` for the n=16 rows) after one
untimed warm-up; "cold" rows clear the lru caches before every repeat. CLI
rows time a fresh ``python -m valuegeom`` process each.
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run

REPS = 11
SLOW_REPS = 5


def _quartiles(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"{med * 1000:9.1f} ms   [{q1 * 1000:.1f}, {q3 * 1000:.1f}]   x{len(times)}"


def _time(fn, reps: int, before=None) -> list[float]:
    if before:
        before()
    fn()
    out = []
    for _ in range(reps):
        if before:
            before()
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return out


def main() -> None:
    vg = run.import_checkout()
    import workloads
    from valuegeom.verification import run_all_checks

    caches = workloads.package_caches()

    def cold():
        run.clear_caches(caches)

    games = {n: vg.game_from_json(workloads.dense_game(random.Random(f"baseline/{n}"), n)[0]) for n in (12, 14, 16)}
    rows = []
    for n in (12, 14, 16):
        rows.append((f"dividends, dense n={n}", lambda n=n: vg.dividends(games[n]), None, n))
    for n in (12, 14, 16):
        so = vg.named_profile("so", n)
        rows.append((f"evaluate(so), dense n={n}", lambda n=n, so=so: vg.evaluate(so, games[n]), None, n))
    rows += [
        ("banzhaf_oracle, n=12", lambda: vg.banzhaf_oracle(games[12]), None, 12),
        ("solidarity_oracle, n=12", lambda: vg.solidarity_oracle(games[12]), None, 12),
        ("projection_report(so), n=30, cold", lambda: vg.projection_report(vg.named_profile("so", 30)), cold, 0),
        ("trend_table(bz,esd,so, 2..30), cold", lambda: vg.trend_table(["bz", "esd", "so"], 2, 30), cold, 0),
        ("trend_table(bz,esd,so, 2..30), warm", lambda: vg.trend_table(["bz", "esd", "so"], 2, 30), None, 0),
        ("run_all_checks (cold)", run_all_checks, cold, 0),
    ]
    for label, fn, before, n in rows:
        print(f"{label:<42}{_quartiles(_time(fn, SLOW_REPS if n == 16 else REPS, before))}")

    env = run.child_env()
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        files = {}
        for n in (12, 16):
            text = workloads.dense_game(random.Random(f"baseline/{n}"), n)[0]
            files[n] = Path(tmp) / f"game{n}.json"
            files[n].write_text(text)
        commands = [
            ("--help", ["--help"], REPS),
            ("tabulate --n 20", ["tabulate", "--n", "20"], REPS),
            ("trends --n 2 --max-n 30", ["trends", "--n", "2", "--max-n", "30"], REPS),
            ("verify", ["verify"], REPS),
            ("eval --value so, dense n=12", ["eval", "--game", str(files[12]), "--value", "so"], REPS),
            ("eval --value so, dense n=16", ["eval", "--game", str(files[16]), "--value", "so"], SLOW_REPS),
        ]
        for label, argv, reps in commands:
            times = [t for t, _ in run.time_children([sys.executable, "-m", "valuegeom", *argv], env, reps)]
            print(f"{'CLI ' + label:<42}{_quartiles(times)}")


if __name__ == "__main__":
    main()
