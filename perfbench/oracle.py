"""Known answers for the benchmark, computed without the program under test.

Words are handled here as lists of syllables ``(generator, exponent)``
with a small free reducer of the benchmark's own, and the expected
relator, longitude and filling words are rendered from the paper's
closed formulas:

    relator    c l c l^-1 c^-1 l^-s c^-1 l^-1 c l c l^(s-1)
    longitude  c^-(2s-2) l c l^s c l^s c l c^-(2s+9)
    clasp      l c l^s c l^s c l

Each ``check_*`` function takes a request's expectation, its exit code
and its captured stdout, and returns ``None`` when the answer is right
or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path

Syllables = list[tuple[str, int]]


def reduce_syllables(syllables) -> Syllables:
    """Freely reduce a syllable sequence, merging equal neighbours."""
    out: Syllables = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return out


def word_power(syllables: Syllables, n: int) -> Syllables:
    """w^n for n >= 0, reduced, built in time linear in the output."""
    w = reduce_syllables(syllables)
    if n == 0 or not w:
        return []
    # split w = u * core * u^-1 with core cyclically reduced
    lo, hi = 0, len(w) - 1
    while lo < hi and w[lo][0] == w[hi][0] and w[lo][1] == -w[hi][1]:
        lo, hi = lo + 1, hi - 1
    head, core, tail = w[:lo], w[lo:hi + 1], w[hi + 1:]
    if len(core) >= 2 and core[0][0] == core[-1][0]:
        # the seam merges first and last syllable of the core
        inner = core[1:-1]
        seam = (core[0][0], core[0][1] + core[-1][1])
        body = [core[0]] + (inner + [seam]) * (n - 1) + inner + [core[-1]]
    else:
        body = core * n
    return reduce_syllables(head + body + tail)


def tokens(syllables: Syllables) -> str:
    w = reduce_syllables(syllables)
    if not w:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w)


def compact(syllables: Syllables) -> str:
    w = reduce_syllables(syllables)
    if not w:
        return "1"
    parts = []
    for g, e in w:
        base = g if e > 0 else g.upper()
        parts.append(base if abs(e) == 1 else f"{base}^{e}")
    return "".join(parts)


def length(syllables: Syllables) -> int:
    return sum(abs(e) for _, e in reduce_syllables(syllables))


def relator(s: int) -> Syllables:
    return reduce_syllables([("c", 1), ("l", 1), ("c", 1), ("l", -1), ("c", -1),
                             ("l", -s), ("c", -1), ("l", -1), ("c", 1), ("l", 1),
                             ("c", 1), ("l", s - 1)])


def longitude(s: int) -> Syllables:
    return reduce_syllables([("c", -(2 * s - 2)), ("l", 1), ("c", 1), ("l", s),
                             ("c", 1), ("l", s), ("c", 1), ("l", 1),
                             ("c", -(2 * s + 9))])


def clasp(s: int) -> Syllables:
    return [("l", 1), ("c", 1), ("l", s), ("c", 1), ("l", s), ("c", 1), ("l", 1)]


def filling(s: int, p: int, q: int) -> Syllables:
    """The filling relator c^p * longitude^q."""
    return reduce_syllables([("c", p)] + word_power(longitude(s), q))


def surgery_text(s: int, p: int, q: int) -> str:
    return (f"# surgery s={s} slope={p}/{q}\n"
            f"gens: c l\n"
            f"rel r_inf: {tokens(relator(s))}\n"
            f"rel fill: {tokens(filling(s, p, q))}\n")


def certifiable(s: int, p: int, q: int) -> bool:
    """The paper's criterion: q > 0 and p/q >= 4s+7."""
    return q > 0 and p >= (4 * s + 7) * q


def h1_invariants(p: int) -> list[int]:
    """Invariant factors of H1 of the filling, which is cyclic of order |p|."""
    if p == 0:
        return [0]
    return [abs(p)] if abs(p) > 1 else []


def coprime_slope(p: int, q: int) -> tuple[int, int]:
    """Nudge p upward until p/q is in lowest terms."""
    while gcd(abs(p), q) != 1:
        p += 1
    return p, q


# -- golden files shipped with the program's tests (read only) --------------

class Goldens:
    """The s=3 reference outputs under tests/data, loaded once."""

    def __init__(self, root: Path):
        data = root / "tests" / "data"
        self.gen_s3 = (data / "gen_s3.txt").read_text(encoding="utf-8")
        self.derive_s3 = _normalized(json.loads(
            (data / "derive_s3.json").read_text(encoding="utf-8")))
        self.nlo_s3_19_1 = _normalized(json.loads(
            (data / "nlo_s3_19_1.json").read_text(encoding="utf-8")))


def _normalized(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("version", None)
    doc.pop("engine_version", None)
    return doc


# -- answer checks -------------------------------------------------------

def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not one JSON document: {exc}"


def _want_exit(code: int, want: int):
    return None if code == want else f"exit code {code}, expected {want}"


def check_gen(exp: dict, code: int, out: str, goldens: Goldens):
    """Wirtinger presentation: 2s+6 arcs, 2s+6 conjugation relators, H1 = Z."""
    s = exp["s"]
    if (bad := _want_exit(code, 0)):
        return bad
    if s == 3:
        return None if out == goldens.gen_s3 else "gen s=3 differs from tests/data/gen_s3.txt"
    lines = out.splitlines()
    if not lines or lines[0] != f"# wirtinger s={s}":
        return "missing provenance line"
    if len(lines) < 2 or not lines[1].startswith("gens: "):
        return "missing gens line"
    gens = lines[1][len("gens: "):].split()
    rels = lines[2:]
    if len(gens) != 2 * s + 6 or len(rels) != 2 * s + 6:
        return f"expected {2 * s + 6} generators and relators"
    parent = {g: g for g in gens}

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for i, line in enumerate(rels, start=1):
        head, _, body = line.partition(": ")
        toks = body.split()
        if head != f"rel r{i}" or len(toks) != 4:
            return f"relator line {i} is not a crossing relator: {line!r}"
        x, y, z, y_inv = toks
        if y_inv != f"{y}^-1" or not z.endswith("^-1"):
            return f"relator r{i} is not of the form x y z^-1 y^-1"
        z = z[:-3]
        if not {x, y, z} <= parent.keys():
            return f"relator r{i} uses an undeclared generator"
        parent[find(x)] = find(z)
    if len({find(g) for g in gens}) != 1:
        return "arcs do not all abelianize to one meridian class"
    return None


def check_derive(exp: dict, code: int, out: str, goldens: Goldens):
    s = exp["s"]
    if (bad := _want_exit(code, 0)):
        return bad
    doc, bad = _json(out)
    if bad:
        return bad
    if s == 3 and _normalized(doc) != goldens.derive_s3:
        return "derive s=3 differs from tests/data/derive_s3.json"
    want = {
        "command": "derive", "s": s, "generators": ["c", "l"],
        "relator": {"label": "r_inf", "tokens": tokens(relator(s)),
                    "compact": compact(relator(s))},
        "longitude": {"tokens": tokens(longitude(s)), "compact": compact(longitude(s))},
        "replay": "PASS",
    }
    for key, value in want.items():
        if doc.get(key) != value:
            return f"derive field {key!r} is {doc.get(key)!r}, expected {value!r}"
    if not isinstance(doc.get("moves"), int) or doc["moves"] < 1:
        return "derive reports no moves"
    return None


def check_verify_trace(exp: dict, code: int, out: str, goldens: Goldens):
    if (bad := _want_exit(code, 0)):
        return bad
    doc, bad = _json(out)
    if bad:
        return bad
    if doc.get("passed") is not True:
        return f"trace replay failed: {doc.get('detail')}"
    if doc.get("file") != exp["file"]:
        return "verify trace names another file"
    if exp.get("moves") is not None and doc.get("moves") != exp["moves"]:
        return f"trace has {doc.get('moves')} moves, derive reported {exp['moves']}"
    return None


def check_verify(exp: dict, code: int, out: str, goldens: Goldens):
    """verify fact / lemma-k / induction: every check passes."""
    if (bad := _want_exit(code, 0)):
        return bad
    doc, bad = _json(out)
    if bad:
        return bad
    if doc.get("command") != f"verify {exp['what']}" or doc.get("passed") is not True:
        return f"verify {exp['what']} did not pass"
    if any(not c.get("ok") for c in doc.get("checks", [])):
        return f"verify {exp['what']} has a failing check"
    if exp["what"] == "induction":
        for part in ("R", "L"):
            if doc.get(part, {}).get("passed") is not True:
                return f"induction {part} did not pass"
    return None


def check_h1(exp: dict, code: int, out: str, goldens: Goldens):
    if (bad := _want_exit(code, 0)):
        return bad
    want = f"{abs(exp['p'])}\n"
    return None if out == want else f"h1 printed {out.strip()!r}, expected |p| = {abs(exp['p'])}"


def check_surgery(exp: dict, code: int, out: str, goldens: Goldens):
    """Filled presentation, on stdout or (with --emit) in the named file."""
    if (bad := _want_exit(code, 0)):
        return bad
    want = surgery_text(exp["s"], exp["p"], exp["q"])
    if exp.get("emit"):
        if out:
            return "surgery --emit wrote to stdout"
        try:
            got = Path(exp["emit"]).read_text(encoding="utf-8")
        except OSError as exc:
            return f"surgery --emit left no file: {exc}"
    else:
        got = out
    return None if got == want else "filled presentation differs from c^p * longitude^q"


def check_abelianize(exp: dict, code: int, out: str, goldens: Goldens):
    if (bad := _want_exit(code, 0)):
        return bad
    doc, bad = _json(out)
    if bad:
        return bad
    want = h1_invariants(exp["p"])
    got = doc.get("invariants")
    return None if got == want else f"invariants {got}, expected {want}"


def check_nlo(exp: dict, code: int, out: str, goldens: Goldens):
    s, p, q = exp["s"], exp["p"], exp["q"]
    doc, bad = _json(out)
    if bad:
        return bad
    if (s, p, q) == (3, 19, 1) and _normalized(doc) != goldens.nlo_s3_19_1:
        return "nlo 3 19/1 differs from tests/data/nlo_s3_19_1.json"
    params = doc.get("params", {})
    want = {"s": s, "p": p, "q": q, "slope_bound": 4 * s + 7,
            "relator": tokens(relator(s)), "longitude": tokens(longitude(s)),
            "clasp": tokens(clasp(s))}
    for key, value in want.items():
        if params.get(key) != value:
            return f"nlo params {key!r} is {params.get(key)!r}, expected {value!r}"
    if certifiable(s, p, q):
        if (bad := _want_exit(code, 0)):
            return bad
        if doc.get("verdict") != "not_left_orderable" or doc.get("replay") != "OK":
            return f"nlo {s} {p}/{q}: no replayed certificate"
    else:
        if (bad := _want_exit(code, 3)):
            return bad
        if doc.get("verdict") != "inconclusive" or "replay" in doc:
            return f"nlo {s} {p}/{q}: expected an honest inconclusive"
    return None


def check_parse(exp: dict, code: int, out: str, goldens: Goldens):
    if (bad := _want_exit(code, 0)):
        return bad
    doc, bad = _json(out)
    if bad:
        return bad
    w = exp["syllables"]
    want = {"input": exp["text"], "tokens": tokens(w), "compact": compact(w),
            "length": length(w)}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"parse field {key!r} is {doc.get(key)!r}, expected {value!r}"
    return None


CHECKS = {
    "gen": check_gen,
    "derive": check_derive,
    "verify trace": check_verify_trace,
    "verify fact": check_verify,
    "verify lemma-k": check_verify,
    "verify induction": check_verify,
    "h1": check_h1,
    "surgery": check_surgery,
    "abelianize": check_abelianize,
    "nlo": check_nlo,
    "parse": check_parse,
}
