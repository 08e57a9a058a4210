"""The four benchmark workloads: request universes, generators and executors.

Each workload owns a fixed universe of requests. ``golden/<name>.txt``
holds, on its ``i``-th digest line, the digest of request ``i``'s output as
computed by the commit that defined the benchmark, so a later, faster path
must return the very same numbers. A run's seed picks which requests it sends
and in what order; it never changes what request ``i`` is.

The universe is cut into strata (player count, request kind, value token, or
a band of a kind's cost rank, depending on the workload). A run cycles
through the strata in a fixed order and, in each, takes the next request of a
seeded permutation. Every seed therefore sends the same mix of kinds and
sizes and differs only in the inputs, which keeps run-to-run spread low
without fixing the inputs.

Requests of the game workloads are built from their own ``random.Random``
seeded by ``(workload, i)``, so a game is generated only when it is sent.
The ``closed-form`` and ``cli`` universes are small tuples drawn up front
(see `stratified_universe`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from pathlib import Path

import valuegeom as vg

#: Value tokens drawn by the generators; ``f`` stands for a seeded ``f:p/q``.
TOKENS = ("sh", "ed", "bz", "esd", "so", "f")
#: Tokens whose value distributes exactly the grand worth (``f:*`` too).
EFFICIENT = ("sh", "ed", "esd", "so")
#: Fit directions; ``ed`` and any ``f:*`` are collinear, so ``f`` is left out.
DIRECTIONS = ("ed", "bz", "esd", "so")

SMALL_WORTHS = tuple(f"{p}/{q}" for p in range(-9, 10) for q in range(1, 10))
SMALL_RATIONALS = tuple(Fraction(p, q) for p in range(-9, 10) for q in range(1, 10))
WIDE = 10**12

#: Each child command gets this long before it is killed and counted as failed.
CHILD_TIMEOUT_S = 120


@dataclass
class Request:
    """One request: its universe index, kind, parameters and generated inputs."""

    index: int
    kind: str
    params: tuple
    grand: Fraction | None = None
    files: dict[str, str] = field(default_factory=dict)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _canon(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(_canon, x)) + ")"
    return repr(x)


def _token(rng: random.Random, q_max: int, kind: str | None = None) -> str:
    """A value token (drawn unless ``kind`` is given); ``f:p/q`` mixes run from -3 to 3."""
    if kind is None:
        kind = rng.choice(TOKENS)
    if kind != "f":
        return kind
    q = rng.randint(1, q_max)
    eps = Fraction(rng.randint(-3 * q, 3 * q), q)
    return f"f:{eps.numerator}" if eps.denominator == 1 else f"f:{eps.numerator}/{eps.denominator}"


def _distinct_tokens(rng: random.Random, k: int, q_max: int) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < k:
        tok = _token(rng, q_max)
        if tok not in out:
            out.append(tok)
    return tuple(out)


def is_efficient_token(token: str) -> bool:
    return token in EFFICIENT or token.startswith("f:")


@lru_cache(maxsize=None)
def _player_lists(n: int) -> tuple[str, ...]:
    return tuple(json.dumps([i for i in range(n) if m >> i & 1]) for m in range(1, 1 << n))


def _game_text(n: int, masks_and_worths) -> str:
    lists = _player_lists(n)
    body = ",".join(f'{{"players":{lists[m - 1]},"worth":"{w}"}}' for m, w in masks_and_worths)
    return f'{{"n":{n},"coalitions":[{body}]}}'


def dense_game(rng: random.Random, n: int) -> tuple[str, Fraction]:
    """Every coalition listed, worths p/q with |p| <= 9 and q <= 9; returns (JSON, grand worth)."""
    worths = rng.choices(SMALL_WORTHS, k=(1 << n) - 1)
    return _game_text(n, zip(range(1, 1 << n), worths)), Fraction(worths[-1])


def wide_game(rng: random.Random, n: int) -> tuple[str, Fraction]:
    """Only coalitions of size <= 2 listed, numerators and denominators up to 10^12."""
    masks = [m for m in range(1, 1 << n) if m.bit_count() <= 2]
    worths = [f"{rng.randint(-WIDE, WIDE)}/{rng.randint(1, WIDE)}" for _ in masks]
    grand = Fraction(worths[-1]) if masks[-1] == (1 << n) - 1 else Fraction(0)
    return _game_text(n, zip(masks, worths)), grand


def seeded_map(rng: random.Random, n: int):
    """A general (non-symmetric) linear value map with small rational unanimity payoffs."""
    flat = rng.choices(SMALL_RATIONALS, k=n * ((1 << n) - 1))
    actions = tuple(tuple(flat[k : k + n]) for k in range(0, len(flat), n))
    return vg.GeneralLinearValueMap(n, actions)


def package_caches() -> list:
    """The lru caches of the imported ``valuegeom`` modules (all in ``combinatorics`` at this commit)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "valuegeom" or name.startswith("valuegeom."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and not any(obj is f for f in found):
                    found.append(obj)
    return found


class Workload:
    """A universe of requests plus how to build, send and check each one."""

    name = ""
    size = 0
    strata = 1
    batch = 16
    #: Clear the package's lru caches before every request (a CLI process starts cold).
    cold = False
    #: The module a fresh interpreter imports to measure set-up time.
    entry_module = "valuegeom"

    def build(self, i: int) -> Request:
        raise NotImplementedError

    def execute(self, req: Request, workdir: Path, in_process: bool = True):
        raise NotImplementedError

    def output_digest(self, req: Request, out) -> str:
        raise NotImplementedError

    def efficiency_ok(self, req: Request, out) -> bool:
        return True

    def schedule(self, seed: int):
        """Universe indices in the order a run with this seed sends them."""
        rng = random.Random(f"{self.name}/run/{seed}")
        perms = []
        for k in range(self.strata):
            members = list(range(k, self.size, self.strata))
            rng.shuffle(members)
            perms.append(members)
        for j in range(self.size // self.strata):
            for k in range(self.strata):
                yield perms[k][j]

    def batches(self, seed: int):
        it = self.schedule(seed)
        while chunk := list(islice(it, self.batch)):
            yield chunk


#: One cycle of game request slots: 6 ``apply`` and five evaluations of each token.
GAME_SLOTS = 36


def game_slot(slot: int) -> str:
    """``apply`` or the value token of a slot; each token gets 5 of the 30 evaluations."""
    if slot % 6 == 5:
        return "apply"
    return TOKENS[(slot - slot // 6) % len(TOKENS)]


class GameWorkload(Workload):
    """``game_from_json`` plus ``evaluate`` (5 of 6 requests) or ``GeneralLinearValueMap.apply``.

    Strata are (n, slot): n runs fastest, so every cycle prefix mixes sizes.
    """

    batch = 24
    player_counts: tuple[int, ...] = ()
    dense = True

    @property
    def strata(self) -> int:
        return GAME_SLOTS * len(self.player_counts)

    def build(self, i: int) -> Request:
        rng = random.Random(f"{self.name}/{i}")
        k = i % self.strata
        n = self.player_counts[k % len(self.player_counts)]
        op = game_slot(k // len(self.player_counts))
        text, grand = (dense_game if self.dense else wide_game)(rng, n)
        if op == "apply":
            return Request(i, "apply", (text, seeded_map(rng, n)), grand)
        return Request(i, "evaluate", (text, _token(rng, 9, op)), grand)

    def execute(self, req: Request, workdir: Path, in_process: bool = True):
        text, arg = req.params
        game = vg.game_from_json(text)
        if req.kind == "apply":
            return arg.apply(game)
        return vg.evaluate(vg.profile_for_token(arg, game.n), game)

    def output_digest(self, req: Request, out) -> str:
        return digest(_canon(out).encode())

    def efficiency_ok(self, req: Request, out) -> bool:
        if req.kind == "apply" or not is_efficient_token(req.params[1]):
            return True
        return sum(out, Fraction(0)) == req.grand


class GameDense(GameWorkload):
    name = "game-dense"
    size = 2520
    # n = 12 twice: with four equal sizes the median would fall in the gap
    # between the n = 11 and n = 12 latency clusters and jump between runs
    player_counts = (10, 11, 12, 12, 13)
    dense = True


class GameWide(GameWorkload):
    name = "game-wide"
    size = 2592
    player_counts = (9, 10, 11)
    dense = False


#: Draws tried for an unused argument set before a repeat is accepted.
REDRAWS = 200


def _draw(kind: str, rng: random.Random) -> tuple:
    """Arguments of one closed-form or CLI request of the given kind."""
    if kind == "tabulate":
        return (rng.randint(2, 20), rng.choice(("table", "json", "csv")))
    if kind in ("project", "strata"):
        return (rng.randint(2, 30), _token(rng, 20))
    if kind == "fit":
        return (rng.randint(4, 30), _token(rng, 20), tuple(rng.sample(DIRECTIONS, rng.randint(2, 3))))
    if kind in ("trend", "trends"):
        lo = rng.randint(2, 29)
        targets = _distinct_tokens(rng, rng.randint(1, 3), 20)
        fmt = (rng.choice(("csv", "json")),) if kind == "trends" else ()
        return (targets, lo, rng.randint(lo + 1, 30), *fmt)
    if kind == "eval":
        return (_token(rng, 9), rng.randint(3, 10))
    if kind == "basis-check":
        return (rng.randint(2, 5), rng.randint(0, 10**6))
    return ()


def _cost(kind: str, params: tuple) -> int:
    """A rough, deterministic cost rank used only to cut each kind into strata."""
    if kind in ("project", "strata"):
        n, tok = params
        return n * n if tok == "so" else n
    if kind == "fit":
        n, tok, dirs = params
        return n * len(dirs) * (n if "so" in (tok, *dirs) else 1)
    if kind in ("trend", "trends"):
        targets, lo, hi = params[:3]
        return sum(n * n if t == "so" else n for n in range(lo, hi + 1) for t in targets)
    if kind == "eval":
        return params[1]
    return params[0] if params else 0


def stratified_universe(name: str, kinds: tuple[str, ...], size: int, bins: int) -> list[tuple[str, tuple]]:
    """``size`` requests laid out so that index ``i`` belongs to stratum ``i % (len(kinds) * bins)``.

    Each kind's requests are drawn in one sequential pass, skipping repeats,
    then sorted by `_cost` and cut into ``bins`` equal strata, so every run
    sends the same share of cheap and expensive requests of each kind.

    A kind with few distinct argument sets (``verify`` has one, ``tabulate``
    57) repeats once they are used up; every CLI request is a fresh process
    with cold caches, so a repeat does the same work as the first. ``eval``
    requests differ by their per-index game file.
    """
    per_kind = size // len(kinds)
    per_bin = per_kind // bins
    strata = len(kinds) * bins
    members = {}
    for kind in kinds:
        rng = random.Random(f"{name}/{kind}")
        seen: set = set()
        drawn = []
        for _ in range(per_kind):
            for _ in range(REDRAWS):
                params = _draw(kind, rng)
                if params not in seen or kind == "eval":
                    break
            seen.add(params)
            drawn.append(params)
        members[kind] = sorted(drawn, key=lambda p, kind=kind: _cost(kind, p))
    universe: list[tuple[str, tuple]] = [("", ())] * size
    for k in range(strata):
        kind, b = kinds[k % len(kinds)], k // len(kinds)
        for j, params in enumerate(members[kind][b * per_bin:(b + 1) * per_bin]):
            universe[j * strata + k] = (kind, params)
    return universe


class ClosedForm(Workload):
    """Closed-form symmetric geometry only; no game-space work at all."""

    name = "closed-form"
    kinds = ("project", "strata", "fit", "trend")
    bins = 8
    size = 20000
    strata = len(kinds) * bins
    batch = 64
    cold = True

    def __init__(self):
        self._universe = None

    def build(self, i: int) -> Request:
        if self._universe is None:
            self._universe = stratified_universe(self.name, self.kinds, self.size, self.bins)
        kind, params = self._universe[i]
        return Request(i, kind, params)

    def execute(self, req: Request, workdir: Path, in_process: bool = True):
        p = req.params
        if req.kind == "project":
            n, tok = p
            return vg.projection_report(vg.profile_for_token(tok, n), tok)
        if req.kind == "strata":
            n, tok = p
            profile = vg.profile_for_token(tok, n)
            coords = vg.stratified_coords(profile)
            w = vg.weights(n)
            return coords, w, vg.weighted_moments(coords, w), vg.generalized_pythagoras(profile)
        if req.kind == "fit":
            n, tok, dirs = p
            return vg.gram_fit(vg.profile_for_token(tok, n), [vg.profile_for_token(d, n) for d in dirs], dirs)
        targets, lo, hi = p
        return vg.trend_table(list(targets), lo, hi)

    def output_digest(self, req: Request, out) -> str:
        if req.kind == "project":
            values = (out.eps_star, out.dist_sq, out.proj_sq, out.resid_sq, out.r2, out.at_shapley)
        elif req.kind == "strata":
            coords, w, m, b = out
            values = (coords.eps, coords.delta, coords.top_dev_sq, w.w, m.mean, m.second_moment, m.variance,
                      b.eff_terms, b.unif_terms, b.top_term, b.total)
        elif req.kind == "fit":
            values = (out.gram, out.gram_det, out.rhs, out.coeffs, out.proj_sq, out.dist_sq, out.r2_u)
        else:
            values = tuple((r.n, r.target, r.eps_star, r.r2, r.one_minus_r2) for r in out)
        return digest(_canon(values).encode())


def cli_argv(kind: str, params: tuple, game_file: str = "") -> tuple[str, ...]:
    if kind == "tabulate":
        n, fmt = params
        return (kind, "--n", str(n), "--format", fmt)
    if kind in ("project", "strata"):
        n, tok = params
        return (kind, "--n", str(n), "--target", tok)
    if kind == "fit":
        n, tok, dirs = params
        return (kind, "--n", str(n), "--target", tok, "--directions", ",".join(dirs))
    if kind == "trends":
        targets, lo, hi, fmt = params
        return (kind, "--target", ",".join(targets), "--n", str(lo), "--max-n", str(hi), "--format", fmt)
    if kind == "eval":
        return (kind, "--game", game_file, "--value", params[0])
    if kind == "basis-check":
        n, seed = params
        return (kind, "--n", str(n), "--seed", str(seed))
    return (kind,)


class Cli(Workload):
    """One ``python -m valuegeom`` child process per request, one at a time."""

    name = "cli"
    kinds = ("tabulate", "project", "strata", "fit", "trends", "eval", "basis-check", "verify")
    bins = 4
    size = 1600
    strata = len(kinds) * bins
    batch = 16
    cold = True
    entry_module = "valuegeom.cli"

    def __init__(self):
        self._universe = None
        self.env: dict[str, str] = {}

    def build(self, i: int) -> Request:
        if self._universe is None:
            self._universe = stratified_universe(self.name, self.kinds, self.size, self.bins)
        kind, params = self._universe[i]
        if kind != "eval":
            return Request(i, kind, cli_argv(kind, params))
        text, _ = dense_game(random.Random(f"{self.name}/{i}"), params[1])
        name = f"game-{i}.json"
        return Request(i, kind, cli_argv(kind, params, name), files={name: text})

    def argv(self, req: Request, workdir: Path) -> list[str]:
        return [str(workdir / a) if a in req.files else a for a in req.params]

    def execute(self, req: Request, workdir: Path, in_process: bool = True):
        argv = self.argv(req, workdir)
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["valuegeom.cli"].main(argv)
            return code, out.getvalue().encode("utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "valuegeom", *argv],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def output_digest(self, req: Request, out) -> str:
        code, stdout = out
        return digest(stdout + b"\0exit=" + str(code).encode())


WORKLOADS = {wl.name: wl for wl in (GameDense, GameWide, ClosedForm, Cli)}


def get(name: str) -> Workload:
    return WORKLOADS[name]()


def golden_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "golden" / f"{name}.txt"


def load_golden(name: str) -> list[str]:
    lines = golden_path(name).read_text(encoding="ascii").splitlines()
    return [line for line in lines if line and not line.startswith("#")]
