"""The benchmark's workloads: seeded streams of CLI requests.

A workload is an endless stream of *blocks*.  Each block is a list of
requests drawn from one fixed set of strata, so every block costs about
the same and a run that stops after whole blocks has a steady mix.  The
seed picks the values inside each stratum and the order inside each
block; the same seed always gives the same stream.

A request is a dict with the argv handed to ``pretzel_pi1.cli.main``,
the command name used by the oracle, and the expectation the oracle
checks the answer against.  No argv passes ``--jobs``.

Run as a script to print the provenance record (perfbench/provenance.json).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import oracle

# Sizing rule for the ladders.  The median and the tail latency are order
# statistics, so each must fall inside a group of near-equal requests, not
# on the edge between a cheap group and a dear one; then a slower or
# faster machine, which changes the number of blocks in a run, does not
# move them.  The tail percentile of a workload is fixed (TAIL_PERCENTILE),
# so the ladders are sized for p95: its rank falls in the middle of a
# group of equal requests in every block.

# knot_ladder: one s per rung, 25 rungs per block.  The seed draws s on
# the four lightest rungs and the order of the block; the other rungs are
# fixed, since the median (among s = 7..13) and the tail fall on them and
# a draw there would move those by more than the bound between seeds.
# s=28 is there three times: in a block of 50 requests the p95 rank (2.5
# from the top) is the middle of its three verify requests.
KNOT_RUNGS = ([(3, 4), (4, 5), (5, 6), (3, 6)] + [(s, s) for s in range(3, 12)]
              + [(s, s) for s in range(7, 12)] + [(13, 13), (17, 17), (22, 22)]
              + [(28, 28)] * 3 + [(34, 34)])

# slope_ladder, per stratum: the excess e = p - (4s+7)q, whose square sets
# the cost of k^e in nlo; the work q^2 * |longitude| of building
# longitude^q letter by letter, which sets the cost of h1 and surgery; the
# range of s; and how many slopes of the stratum a block holds.  In a
# block of 81 requests the p95 rank (4 from the top) is the middle of the
# four h1 and surgery requests of the dearest stratum, under its two nlo
# requests; s is fixed there, because the cost of c^p grows with s.
SLOPE_STRATA = [(20, 500, (3, 8), 8), (60, 4_000, (3, 8), 8), (200, 25_000, (3, 8), 5),
                (500, 170_000, (3, 8), 4), (1300, 1_100_000, (5, 5), 2)]
SLOPE_JITTER = 0.03


def _request(argv: list[str], command: str, **expect) -> dict:
    return {"argv": argv, "command": command, "expect": expect}


def _slope_arg(p: int, q: int) -> str:
    # "=" keeps argparse from reading a negative slope as an option
    return f"--slope={p}/{q}"


def _nlo(s: int, p: int, q: int) -> dict:
    return _request(["nlo", "--s", str(s), _slope_arg(p, q), "--format", "json"],
                    "nlo", s=s, p=p, q=q)


def _derive_pair(s: int, trace_file: str, check_abelian: bool = True) -> list[dict]:
    verify = ["verify", "trace", trace_file] + (["--check-abelian"] if check_abelian else [])
    return [
        _request(["derive", "--s", str(s), "--emit-trace", trace_file,
                  "--format", "json"], "derive", s=s, emit=trace_file),
        _request(verify + ["--format", "json"], "verify trace", file=trace_file),
    ]


def knot_ladder_block(rng: random.Random, workdir: str) -> list[dict]:
    trace_file = f"{workdir}/trace.json"
    values = [rng.randint(lo, hi) for lo, hi in KNOT_RUNGS]
    rng.shuffle(values)
    return [r for s in values for r in _derive_pair(s, trace_file)]


def _ladder_slope(rng: random.Random, excess: int, power_work: int,
                  s_range: tuple[int, int]) -> tuple[int, int, int]:
    s = rng.randint(*s_range)
    per_q = oracle.length(oracle.longitude(s))
    q = max(1, round((power_work * rng.uniform(1 - SLOPE_JITTER, 1 + SLOPE_JITTER) / per_q) ** 0.5))
    e = round(excess * rng.uniform(1 - SLOPE_JITTER, 1 + SLOPE_JITTER))
    p, q = oracle.coprime_slope((4 * s + 7) * q + e, q)
    return s, p, q


def slope_ladder_block(rng: random.Random, workdir: str) -> list[dict]:
    block = []
    for excess, power_work, s_range, count in SLOPE_STRATA:
        for _ in range(count):
            s, p, q = _ladder_slope(rng, excess, power_work, s_range)
            block.append(_nlo(s, p, q))
            block.append(_request(["h1", "--s", str(s), _slope_arg(p, q)], "h1", p=p))
            block.append(_request(["surgery", "--s", str(s), _slope_arg(p, q)],
                                  "surgery", s=s, p=p, q=q))
    rng.shuffle(block)
    return block


def _random_compact_word(rng: random.Random) -> tuple[str, list]:
    """A word over c and l in the compact grammar, where case marks the sign."""
    parts, syllables = [], []
    for _ in range(rng.randint(1, 12)):
        gen = rng.choice("cl")
        exp = rng.choice([-1, 1]) * rng.choice([1, 1, 2, 3, 5])
        base = gen if exp > 0 else gen.upper()
        parts.append(base if abs(exp) == 1 else f"{base}^{exp}")
        syllables.append((gen, exp))
    return "".join(parts), syllables


def _mix_slope(rng: random.Random, s: int, above: bool) -> tuple[int, int]:
    q = rng.randint(1, 4)
    bound = (4 * s + 7) * q
    p = bound + rng.randint(0, 30) if above else bound - rng.randint(1, 30)
    if not above and rng.random() < 0.25:
        p = -p
    return oracle.coprime_slope(p, q)


GOLDEN_REQUESTS = [
    _request(["gen", "--s", "3"], "gen", s=3),
    _request(["derive", "--s", "3", "--format", "json"], "derive", s=3),
    _nlo(3, 19, 1),
]


def session_mix_block(rng: random.Random, workdir: str) -> list[dict]:
    pres_file = f"{workdir}/filled.txt"
    trace_file = f"{workdir}/trace.json"
    s = [rng.randint(3, 12) for _ in range(7)]
    small_s = rng.randint(3, 5)
    text, syllables = _random_compact_word(rng)
    up = _mix_slope(rng, s[3], above=True)
    down = _mix_slope(rng, s[4], above=False)
    lemma = _mix_slope(rng, s[5], above=rng.random() < 0.5)
    filled = _mix_slope(rng, s[6], above=rng.random() < 0.5)
    block = [
        _request(["gen", "--s", str(s[0])], "gen", s=s[0]),
        _request(["parse", text, "--compact", "--format", "json"], "parse", text=text,
                 syllables=syllables),
        _request(["verify", "fact", "--s", str(s[1]), "--format", "json"],
                 "verify fact", what="fact"),
        _request(["verify", "lemma-k", _slope_arg(*lemma), "--format", "json"],
                 "verify lemma-k", what="lemma-k"),
        _request(["verify", "induction", "--s", str(s[2]), "--format", "json"],
                 "verify induction", what="induction"),
        _nlo(s[3], *up),
        _nlo(s[4], *down),
        _request(["h1", "--s", str(s[5]), _slope_arg(*lemma)], "h1", p=lemma[0]),
        rng.choice(GOLDEN_REQUESTS),
    ]
    rng.shuffle(block)
    # a reader request follows the request that wrote its file
    block += _derive_pair(small_s, trace_file, check_abelian=False)
    block += [
        _request(["surgery", "--s", str(s[6]), _slope_arg(*filled), "--emit", pres_file],
                 "surgery", s=s[6], p=filled[0], q=filled[1], emit=pres_file),
        _request(["abelianize", pres_file, "--format", "json"], "abelianize",
                 p=filled[0]),
    ]
    return block


BLOCKS = {
    "knot_ladder": knot_ladder_block,
    "slope_ladder": slope_ladder_block,
    "session_mix": session_mix_block,
}

# Fixed, small first request of each workload; part of set-up, not timed.
WARMUP = {
    "knot_ladder": lambda workdir: _derive_pair(3, f"{workdir}/trace.json"),
    "slope_ladder": lambda workdir: [_nlo(3, 19, 1)],
    "session_mix": lambda workdir: [GOLDEN_REQUESTS[0]],
}

# The tail latency each workload reports, fixed so that runs of different
# length (a faster program completes more blocks) report the same
# percentile.  Each keeps at least 10 requests beyond it in a 30 s run on
# the seed code: the ladders run 250 to 900 requests, the mix about 4000.
TAIL_PERCENTILE = {"knot_ladder": 95, "slope_ladder": 95, "session_mix": 99}

# Layers each workload exists to load; the traced run checks each is called.
STRESSED_LAYERS = {
    "knot_ladder": ["cli", "derivation", "presentations", "smith", "words", "knot"],
    "slope_ladder": ["cli", "orderability", "surgery", "words"],
    "session_mix": ["cli", "knot", "derivation", "presentations", "smith",
                    "surgery", "orderability", "words"],
}


def blocks(workload: str, seed: int, workdir: str):
    """The seeded, endless stream of request blocks of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    make = BLOCKS[workload]
    while True:
        yield make(rng, workdir)


def summary(requests: list[dict]) -> dict:
    """Input sizes of a request list: s range, largest |p| and q, per-command counts."""
    exps = [r["expect"] for r in requests]
    s_values = [e["s"] for e in exps if e.get("s")]
    p_values = [abs(e["p"]) for e in exps if "p" in e]
    q_values = [e["q"] for e in exps if "q" in e]
    return {
        "s_range": [min(s_values), max(s_values)] if s_values else None,
        "max_abs_p": max(p_values, default=None),
        "max_q": max(q_values, default=None),
        "requests": len(requests),
        "per_command": dict(sorted(Counter(r["command"] for r in requests).items())),
    }


TUNING_SEEDS = "1-10"
HOLDOUT_SEED = 104729  # never run while the benchmark was tuned; for checking later claims
SUMMARY_BLOCKS = 8


def provenance() -> dict:
    """Why each workload exists and what a seed feeds it; written to provenance.json."""
    doc = {
        "seed_argument": ("--seed N: each workload draws from random.Random(f'{workload}:{N}'); "
                          "the program receives only the generated argv lists"),
        "tuning_seeds": TUNING_SEEDS,
        "holdout_seed": HOLDOUT_SEED,
        "summary_blocks": SUMMARY_BLOCKS,
        "workloads": {},
    }
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in BLOCKS:
        entry = {"why": why[name], "stressed_layers": STRESSED_LAYERS[name],
                 "tail_percentile": TAIL_PERCENTILE[name]}
        for label, seed in (("seed_1", 1), ("holdout", HOLDOUT_SEED)):
            stream = blocks(name, seed, "WORKDIR")
            entry[label] = summary([r for _ in range(SUMMARY_BLOCKS) for r in next(stream)])
        doc["workloads"][name] = entry
    return doc


if __name__ == "__main__":
    print(json.dumps(provenance(), indent=2))
