"""Capture the golden output digests of a workload's whole request universe.

    python3 benchmarks/capture_golden.py closed-form [game-dense ...]

Writes ``benchmarks/golden/<workload>.txt``: a header line, then one digest
per universe index. Goldens pin the outputs of the commit they were captured
at; recapture only when the universe itself changes, and only from that
commit. A request that raises, exits non-zero or breaks efficiency aborts the
capture, because a workload must not contain failing requests.
"""

from __future__ import annotations

import shutil
import sys

import run


def capture(name: str) -> None:
    package = run.import_checkout()
    import workloads

    wl = workloads.get(name)
    wl.env = run.child_env()
    caches = workloads.package_caches()
    digests = []
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        for i in range(wl.size):
            req = wl.build(i)
            with run.input_files(req):
                if wl.cold:
                    run.clear_caches(caches)
                out = wl.execute(req, run.WORKDIR, in_process=False)
            if wl.name == "cli" and out[0] != 0:
                raise SystemExit(f"{name} request {i} exited {out[0]}")
            if not wl.efficiency_ok(req, out):
                raise SystemExit(f"{name} request {i} is not efficient")
            digests.append(wl.output_digest(req, out))
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    header = f"# {name}: {wl.size} output digests, captured from src_sha256={run.source_digest()}"
    path = workloads.golden_path(name)
    path.write_text("\n".join([header, *digests]) + "\n", encoding="ascii")
    print(f"{path}: {len(digests)} digests ({package.__file__})")


if __name__ == "__main__":
    for workload in sys.argv[1:] or ["game-dense", "game-wide", "closed-form", "cli"]:
        capture(workload)
