"""Seeded workload inputs for the stacksort benchmark.

Nothing here imports the package under test. Words are made with the
benchmark's own stack-sort and its own copies of the witness-family
definitions, so a change to ``perms`` or ``families`` cannot change what is
measured, and building the inputs never runs the kernel.

Every input is drawn from a fixed pool (``POOL_SEED``) whose expected CLI
output was recorded once in ``goldens/`` by ``record_goldens.py``; the run
seed picks which pool members go into a pass and in what order.

The random sorted words of the query workload are the one part the run seed
does not pick: their kernel cost is heavy-tailed (most take 2-4 ms, about
one in twenty takes 80-250 ms), so a per-seed draw would move ``wall_s`` by
more than any bound worth keeping. All pooled words run in every pass,
in seeded order.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")
POOL_SEED = 1809_04421
WORKLOADS = ("query", "sweep", "cache")

# query pools
RANDOM_SIZES = range(20, 41)
RANDOM_PER_SIZE = 3
FAMILY_BANDS = {
    "even": ((5, 12), (20, 30), (55, 65)),
    "one_mod4": ((5, 12), (20, 30), (55, 65)),
    "interleaved": ((4, 10), (14, 20), (28, 34)),
}
IDENTITY_N = 200
WORKED_EXAMPLES = ("3142567", "1243567")
SEED_VALUES = (27, 95, 119, 275)
# Targets whose construction is verified on words of length 110..130 and
# 135..155: a heavy band placed so that the query p90 falls inside it rather
# than in a gap between latency clusters. A pass draws 10 of each 11, so the
# seed changes the band's members but hardly its cost.
HEAVY_EVEN = range(110, 131, 2)
HEAVY_ONE_MOD4 = range(269, 310, 4)
HEAVY_PER_BAND = 10
VHC_POOL = 30
VHC_SIZES = (7, 8, 9)

# sweep
SPECTRUM_MAX_N = 8
CLASSIFY_LIMIT = 400
# The one unconstructed target below CLASSIFY_LIMIT that S_1..S_8 attain (in
# S_7); its scan stops early, so it is left out of the classify draw, which
# is meant to reach the proven-infertile and unknown-up-to verdicts.
# record_goldens.py checks that no other drawn target is found by the scan.
ATTAINED_BY_SCAN = frozenset({123})
# seeded classify targets per --max-n: p50 falls in the middle of the
# max-n 7 cluster and p90 in the middle of the max-n 8 one
CLASSIFY_DRAW = {6: 2, 7: 9, 8: 4}

# cache
CACHE_SIZES = range(8, 17)
CACHE_POOL = 3000
CACHE_FIXTURE = 2000
CACHE_HITS = 20
CACHE_MISSES = 8
CACHE_CLASSIFY = 4


@dataclass(frozen=True)
class Command:
    """One closed-loop request: a CLI argv, or the library ``audit`` call."""

    kind: str  # fertility | construct | vhc | spectrum | classify | audit
    argv: tuple[str, ...]
    rc: int
    stdout: str


@dataclass
class Inputs:
    workload: str
    seed: int
    commands: list[Command]
    fixture_path: str | None = None
    fixture_bytes: bytes = b""
    sizes: dict | None = None

    def restore_fixture(self) -> None:
        """Put the cache file back to its pristine seeded content."""
        if self.fixture_path is not None:
            with open(self.fixture_path, "wb") as fh:
                fh.write(self.fixture_bytes)


# ---- the benchmark's own combinatorics -------------------------------------

def stack_sort(word):
    stack, out = [], []
    for x in word:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    return tuple(out + stack[::-1])


def random_sorted(rng: random.Random, n: int) -> tuple[int, ...]:
    """A stack-sort image of a uniform random word: a random sorted word."""
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return stack_sort(word)


def even_word(m):
    return tuple(range(m, 0, -1)) + tuple(range(m + 1, 2 * m + 1))


def one_mod4_word(m):
    return (1,) + tuple(x + 1 for x in even_word(m))


def interleaved_word(m):
    word = []
    for t in range(1, m + 1):
        word += [m + t, t]
    return tuple(word) + (2 * m + 1, 2 * m + 2, 2 * m + 3)


def interleaved_value(m):
    return 5 * (m + 1) + 4 * math.comb(m + 1, 2)


FAMILY_WORDS = {"even": even_word, "one_mod4": one_mod4_word,
                "interleaved": interleaved_word}


def product_targets(limit: int = 2000) -> list[int]:
    """3-mod-4 values reached by multiplying a seed by a 1-mod-4 cofactor."""
    return sorted({s * c for s in SEED_VALUES for c in range(5, 42, 4) if s * c <= limit})


def unconstructed_targets(limit: int = CLASSIFY_LIMIT) -> list[int]:
    """f = 3 mod 4 below ``limit`` that no seed value divides.

    Seeds are 27, 95 and the interleaved values with m = 2 mod 4; any 3-mod-4
    multiple of a seed has a 1-mod-4 cofactor, so these are exactly the
    targets the product construction cannot reach.
    """
    seeds = [27, 95]
    m = 6
    while interleaved_value(m) < limit:
        seeds.append(interleaved_value(m))
        m += 4
    return [f for f in range(3, limit, 4) if all(f % s for s in seeds)]


def classify_targets() -> list[int]:
    """Unconstructed targets the seeded classify commands draw from."""
    return [f for f in unconstructed_targets() if f not in (3, 7) and f not in ATTAINED_BY_SCAN]


def text(word) -> str:
    """Spaced text of a word, as the CLI accepts and the cache stores it."""
    return " ".join(str(x) for x in word)


def compact(word) -> str:
    """The CLI's display form: digits run together when all are below 10."""
    return "".join(map(str, word)) if all(x <= 9 for x in word) else text(word)


# ---- pools -----------------------------------------------------------------

def query_pool() -> dict[str, list[tuple[str, ...]]]:
    """Every argv the query workload can draw, grouped by the slot it fills."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[tuple[str, ...]]] = {}
    pool["example"] = [("fertility", w) for w in WORKED_EXAMPLES]
    pool["identity"] = [("fertility", text(range(1, IDENTITY_N + 1)))]
    for family, bands in FAMILY_BANDS.items():
        for b, (lo, hi) in enumerate(bands):
            pool[f"{family}.{b}"] = [("fertility", text(FAMILY_WORDS[family](m)))
                                     for m in range(lo, hi + 1)]
    for n in RANDOM_SIZES:
        pool[f"random.{n}"] = [("fertility", text(random_sorted(rng, n)))
                               for _ in range(RANDOM_PER_SIZE)]
    pool["vhc"] = [("vhc", compact(random_sorted(rng, VHC_SIZES[i % len(VHC_SIZES)])), "--json")
                   for i in range(VHC_POOL)]
    pool["construct.even"] = [("construct", str(f)) for f in range(10, 31, 2)]
    pool["construct.one_mod4"] = [("construct", str(f)) for f in range(13, 62, 4)]
    pool["construct.seed"] = [("construct", str(f)) for f in SEED_VALUES]
    pool["construct.product"] = [("construct", str(f)) for f in product_targets()]
    pool["construct.none"] = [("construct", str(f)) for f in unconstructed_targets()]
    pool["construct.heavy_even"] = [("construct", str(f)) for f in HEAVY_EVEN]
    pool["construct.heavy_one_mod4"] = [("construct", str(f)) for f in HEAVY_ONE_MOD4]
    return pool


# slot -> how many of its pool members one pass draws
QUERY_MIX = {
    "example": 2, "identity": 1,
    **{f"{family}.{b}": 1 for family in FAMILY_BANDS for b in range(3)},
    **{f"random.{n}": RANDOM_PER_SIZE for n in RANDOM_SIZES},
    "vhc": 4,
    "construct.even": 8, "construct.one_mod4": 8, "construct.seed": 2,
    "construct.product": 4, "construct.none": 2,
    "construct.heavy_even": HEAVY_PER_BAND, "construct.heavy_one_mod4": HEAVY_PER_BAND,
}


def sweep_pool() -> list[tuple[str, ...]]:
    argvs = [("spectrum", str(n)) for n in range(1, SPECTRUM_MAX_N + 1)]
    argvs.append(("spectrum", str(SPECTRUM_MAX_N), "--jobs", "2"))
    for f in unconstructed_targets():
        argvs += [("classify", str(f), "--max-n", str(k)) for k in (6, 7, 8)]
    return argvs


def cache_pool() -> list[tuple[int, ...]]:
    """Distinct random sorted words, lengths cycling through CACHE_SIZES."""
    rng = random.Random(POOL_SEED)
    seen: set[tuple[int, ...]] = set()
    words = []
    sizes = list(CACHE_SIZES)
    while len(words) < CACHE_POOL:
        w = random_sorted(rng, sizes[len(words) % len(sizes)])
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


# ---- goldens ---------------------------------------------------------------

def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.jsonl")


def load_goldens(workload: str) -> dict:
    """argv tuple -> (rc, stdout) for query/sweep; word text -> value for cache."""
    table = {}
    with open(golden_path(workload), encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if workload == "cache":
                table[obj["perm"]] = int(obj["fertility"])
            else:
                table[tuple(obj["argv"])] = (obj["rc"], obj["stdout"])
    return table


def _cli(argv: tuple[str, ...], goldens: dict) -> Command:
    try:
        rc, out = goldens[argv]
    except KeyError:
        raise SystemExit(f"no golden for {' '.join(argv)[:80]}; "
                         "rerun record_goldens.py at the reference commit") from None
    return Command(argv[0], argv, rc, out)


# ---- per-seed inputs -------------------------------------------------------

def query_inputs(seed: int) -> Inputs:
    rng = random.Random(f"query:{seed}")
    pool = query_pool()
    goldens = load_goldens("query")
    commands = [_cli(argv, goldens)
                for slot, k in QUERY_MIX.items() for argv in rng.sample(pool[slot], k)]
    rng.shuffle(commands)
    return Inputs("query", seed, commands, sizes={
        "commands": len(commands), "identity_n": IDENTITY_N,
        "random_sorted_words": len(RANDOM_SIZES) * RANDOM_PER_SIZE,
        "random_n": [RANDOM_SIZES[0], RANDOM_SIZES[-1]]})


def sweep_inputs(seed: int) -> Inputs:
    rng = random.Random(f"sweep:{seed}")
    goldens = load_goldens("sweep")
    argvs = [("spectrum", str(n)) for n in range(1, SPECTRUM_MAX_N + 1)]
    argvs.append(("spectrum", str(SPECTRUM_MAX_N), "--jobs", "2"))
    argvs += [("classify", "3", "--max-n", "6"), ("classify", "7", "--max-n", "8")]
    draw = [k for k, count in CLASSIFY_DRAW.items() for _ in range(count)]
    targets = rng.sample(classify_targets(), len(draw))
    argvs += [("classify", str(f), "--max-n", str(k)) for f, k in zip(targets, draw)]
    commands = [_cli(argv, goldens) for argv in argvs]
    rng.shuffle(commands)
    return Inputs("sweep", seed, commands, sizes={"commands": len(commands),
                                                  "spectrum_max_n": SPECTRUM_MAX_N,
                                                  "classify_max_n": sorted(CLASSIFY_DRAW)})


def cache_inputs(seed: int, work_dir: str) -> Inputs:
    """Fixture of seeded sorted words plus hits, misses, classify and audit.

    Fixture values come from the goldens, not from the kernel. The expected
    audit count is the fixture size plus the misses that run before it.
    """
    rng = random.Random(f"cache:{seed}")
    values = load_goldens("cache")
    words = cache_pool()
    rng.shuffle(words)
    fixture, spare = words[:CACHE_FIXTURE], words[CACHE_FIXTURE:]
    path = os.path.join(work_dir, "cache-fixture.jsonl")
    body = "".join(json.dumps({"perm": text(w), "fertility": str(values[text(w)])},
                              separators=(",", ":")) + "\n" for w in fixture)
    first_with: dict[int, tuple[int, ...]] = {}
    for w in fixture:
        first_with.setdefault(values[text(w)], w)

    commands = []
    for w in rng.sample(fixture, CACHE_HITS) + rng.sample(spare, CACHE_MISSES):
        commands.append(Command("fertility", ("fertility", text(w), "--cache", path), 0,
                                f"{values[text(w)]}\n"))
    for f in rng.sample(sorted(first_with), CACHE_CLASSIFY):
        out = f"f {f}\nverdict fertile\nwitness {compact(first_with[f])}\nsearched_n 0\n"
        commands.append(Command("classify", ("classify", str(f), "--max-n", "9",
                                             "--cache", path), 0, out))
    commands.append(Command("audit", (path,), 0, ""))
    rng.shuffle(commands)
    spare_keys = {text(w) for w in spare}
    misses_before = 0
    for i, c in enumerate(commands):
        if c.kind == "audit":
            commands[i] = Command("audit", c.argv, 0, f"{CACHE_FIXTURE + misses_before}\n")
        elif c.kind == "fertility" and c.argv[1] in spare_keys:
            misses_before += 1
    inputs = Inputs("cache", seed, commands, path, body.encode("utf-8"),
                    sizes={"commands": len(commands), "fixture_records": CACHE_FIXTURE,
                           "fixture_bytes": len(body)})
    inputs.restore_fixture()
    return inputs


def build(workload: str, seed: int, work_dir: str) -> Inputs:
    if workload == "query":
        return query_inputs(seed)
    if workload == "sweep":
        return sweep_inputs(seed)
    if workload == "cache":
        return cache_inputs(seed, work_dir)
    raise ValueError(f"unknown workload {workload!r}")
