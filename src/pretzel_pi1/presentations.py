"""Finitely presented groups, elementary moves and machine-checked traces.

A presentation keeps an ordered generator list and labeled reduced
relators.  Moves are the sound elementary steps the simplification
pipeline is scripted in; every move checks its own side condition, so a
replayed trace is a proof that the endpoints present isomorphic groups.

Relator equality is up to free reduction only; rotations and inversions
are explicit moves, which keeps replay deterministic.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from . import smith
from .report import PresentationError, Report, _bool, _decoded, _int, _list, _text
from .words import Word, is_generator_name, parse_word, rotation_witness, splice


class SideConditionViolated(Exception):
    """A Tietze move whose syntactic side condition fails on this input."""

    def __init__(self, move, reason: str):
        super().__init__(f"{type(move).__name__}: {reason}")


def _require(move, ok: bool, reason: str) -> None:
    """Raise reason as the move's side condition violation unless ok."""
    if not ok:
        raise SideConditionViolated(move, reason)


def _checked(move, compute, *args):
    """compute(*args), with a failed relator lookup or solve raised as the move's
    side condition violation."""
    try:
        return compute(*args)
    except (KeyError, PresentationError) as exc:
        raise SideConditionViolated(move, str(exc)) from exc


def _inserted(move, word: Word, steps, p: Presentation, own: Optional[str] = None) -> Word:
    """word with the insertions steps performed in turn, none citing the relator own."""
    for step in steps:
        _require(move, step.relator != own,
                 "a rewrite cannot be justified by the relator it rewrites")
        word = _checked(move, step.perform, word, p)
    return word


@dataclass
class Delta:
    """What a move changes: the words it sets by label (a new label goes last),
    the labels it drops, a label it renames as (old, new), and the generators
    and longitude after it if it changes them; the longitude is not compared."""
    words: Optional[dict] = field(default_factory=dict)
    dropped: tuple[str, ...] = ()
    renamed: Optional[tuple[str, str]] = None
    generators: Optional[tuple[str, ...]] = None
    longitude: Optional[Word] = field(default=None, compare=False)

    def apply_to(self, table: dict) -> dict:
        """A copy of table, a dict by relator label in relator order, with the
        labels this delta renames and drops renamed and dropped and its words set."""
        old, new = self.renamed or (None, None)
        out = dict(table) if old is None else {new if label == old else label: value
                                               for label, value in table.items()}
        for label in self.dropped:
            out.pop(label, None)
        out.update(self.words)
        return out


@dataclass(frozen=True, eq=False)
class Presentation:
    """A presentation; the constructor checks every generator and relator.

    Alongside the fields it keeps each relator's word by label, in relator
    order.  A move builds its result with `moved`, which checks only what
    the move's Delta names and carries the rest over.
    """
    generators: tuple[str, ...]
    relators: tuple[tuple[str, Word], ...]
    provenance: Optional[str] = None
    _words: dict = field(init=False, repr=False)  # label -> word
    _generator_set: frozenset = field(init=False, repr=False)  # the generators, as a set

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not is_generator_name(g):
                raise PresentationError(f"bad generator name: {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator: {g!r}")
            seen.add(g)
        declared = frozenset(seen)
        words: dict[str, Word] = {}
        for label, word in self.relators:
            if self._new_label(label) in words:
                raise PresentationError(f"duplicate relator label: {label!r}")
            self._declared(label, word, declared)
            words[label] = word
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_generator_set", declared)

    @staticmethod
    def _new_label(label: str) -> str:
        if not label or any(ch.isspace() for ch in label) or ":" in label:
            raise PresentationError(f"bad relator label: {label!r}")
        return label

    @staticmethod
    def _declared(label: str, word: Word, declared: frozenset) -> None:
        """Check that relator label, word, uses declared generators only."""
        undeclared = word.generators() - declared
        if undeclared:
            raise PresentationError(
                f"relator {label} uses undeclared generators {sorted(undeclared)}")

    def moved(self, delta: Delta) -> "Presentation":
        """The presentation delta makes of this one, or this one itself when
        delta changes only the longitude.  Only what delta names is checked:
        the words it sets, the label it renames to, and that no relator it
        keeps uses a generator it removes.  A move checks the generators it
        adds itself."""
        if not (delta.words or delta.dropped or delta.renamed or delta.generators is not None):
            return self
        generators = self.generators if delta.generators is None else delta.generators
        declared = self._generator_set if delta.generators is None else frozenset(generators)
        if delta.renamed is not None and self._new_label(delta.renamed[1]) in self._words:
            raise PresentationError(f"duplicate relator label: {delta.renamed[1]!r}")
        for label, word in delta.words.items():
            self._declared(label if label in self._words else self._new_label(label),
                           word, declared)
        words = delta.apply_to(self._words)
        if delta.generators is not None:
            removed = self._generator_set - declared
            for label, word in words.items():
                if not removed.isdisjoint(word.generators()):
                    self._declared(label, word, declared)
        new = object.__new__(Presentation)
        object.__setattr__(new, "generators", generators)
        object.__setattr__(new, "relators", tuple(words.items()))
        object.__setattr__(new, "provenance", self.provenance)
        object.__setattr__(new, "_words", words)
        object.__setattr__(new, "_generator_set", declared)
        return new

    # equality ignores relator order but not generator order
    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self._words == other._words)

    def labels(self) -> list[str]:
        return [label for label, _ in self.relators]

    def relator(self, label: str) -> Word:
        word = self._words.get(label)
        if word is None:
            raise KeyError(f"no relator labeled {label!r}")
        return word

    def inverse(self, label: str) -> Word:
        """~relator(label), built once: a move makes a new presentation."""
        done = self.__dict__.setdefault("_inverses", {})  # label -> inverted relator
        return done[label] if label in done else done.setdefault(label, ~self.relator(label))

    def has_relator(self, label: str) -> bool:
        return label in self._words

    def labels_with(self, gen: str) -> set[str]:
        """The labels of the relators in which gen occurs."""
        return {label for label, word in self._words.items() if gen in word.generators()}

    def abelian_invariants(self) -> tuple[int, ...]:
        return smith.sparse_invariants(_rows(self).values(), len(self.generators))

    # -- text format ----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        if self.provenance:
            lines.append(f"# {self.provenance}")
        lines.append("gens: " + " ".join(self.generators))
        for label, word in self.relators:
            lines.append(f"rel {label}: {word.tokens()}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Presentation":
        generators: tuple[str, ...] = ()
        relators: list[tuple[str, Word]] = []
        saw_gens = False
        for n, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("gens:"):
                generators = tuple(line[len("gens:"):].split())
                saw_gens = True
            elif line.startswith("rel "):
                head, _, body = line[len("rel "):].partition(":")
                relators.append((head.strip(), _decoded(f"line {n}", parse_word, body.strip())))
            else:
                raise PresentationError(f"line {n}: unparseable line: {raw!r}")
        if not saw_gens:
            raise PresentationError("missing 'gens:' line")
        return Presentation(generators, tuple(relators))


def solve_for(word: Word, gen: str) -> Word:
    """Solve relator == 1 for its unique occurrence of gen."""
    runs = word.syllables()
    count = sum(abs(exp) for name, exp in runs if name == gen)
    if count != 1:
        raise PresentationError(f"generator {gen!r} occurs {count} times, need exactly 1")
    k = next(k for k, (name, _) in enumerate(runs) if name == gen)
    i, sign = sum(abs(exp) for _, exp in runs[:k]), runs[k][1]
    vu = splice(word[i + 1:], word[:i])
    return ~vu if sign > 0 else vu


# -- exponent rows ----------------------------------------------------------
#
# The abelian image of a word is its exponent row {generator name: exponent
# sum}, zeros left out.  Keyed by name, a row keeps its meaning when a move
# adds or removes a generator.

def exponent_row(word: Word) -> dict[str, int]:
    row: dict[str, int] = {}
    for name, exp in word.syllables():
        row[name] = row.get(name, 0) + exp
    return {name: e for name, e in row.items() if e}


def _rows(p: Presentation) -> dict[str, dict[str, int]]:
    """The exponent rows of p's relators, by label in relator order."""
    return {label: exponent_row(word) for label, word in p.relators}


def row_plus(row: Optional[dict], other: Optional[dict], k: int) -> Optional[dict]:
    """row + k * other, zeros left out; None if either is None."""
    if row is None or other is None:
        return None
    out = dict(row)
    for name, e in other.items():
        out[name] = out.get(name, 0) + k * e
    return {name: e for name, e in out.items() if e}


# -- moves ----------------------------------------------------------------

@dataclass(frozen=True)
class Insertion:
    """Insert a conjugated relator (or its inverse) and freely reduce."""
    relator: str
    inverted: bool
    conjugator: Word
    position: int

    def perform(self, word: Word, p: Presentation) -> Word:
        r = p.inverse(self.relator) if self.inverted else p.relator(self.relator)
        if not 0 <= self.position <= len(word):
            raise PresentationError(f"insertion position {self.position} out of range")
        return splice(word[:self.position], self.conjugator, r, ~self.conjugator,
                      word[self.position:])


@dataclass(frozen=True)
class Move:
    """A Tietze move.  delta(p, longitude) checks the move's side condition
    and returns the Delta it makes, with the longitude if it changes it.
    shadow(p, rows) is that Delta in exponent rows, read off rows, those of
    p by label; a row or words of None match nothing.  No shadow changes H1:
    it adds to a row a multiple of another row that stays, eliminates a
    generator with a +-1 pivot, adds one with a +-1 in its one row, drops an
    empty or a duplicate row, or negates, keeps or relabels a row."""
    macro: Optional[str] = field(default=None, kw_only=True)


@dataclass(frozen=True)
class AddGenerator(Move):
    gen: str
    definition: Word
    label: str

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        _require(self, is_generator_name(self.gen), f"bad generator name {self.gen!r}")
        _require(self, self.gen not in p.generators, f"generator {self.gen!r} already present")
        _require(self, not p.has_relator(self.label), f"label {self.label!r} already present")
        _require(self, self.definition.generators() <= p._generator_set,
                 "definition uses undeclared generators")
        return Delta({self.label: splice(Word.generator(self.gen), ~self.definition)},
                     generators=p.generators + (self.gen,))

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        row = row_plus({self.gen: 1}, exponent_row(self.definition), -1)
        fresh = self.gen not in p.generators and self.label not in rows
        return Delta({self.label: row if fresh and row.get(self.gen) in (1, -1) else None},
                     generators=p.generators + (self.gen,))


@dataclass(frozen=True)
class RemoveGenerator(Move):
    gen: str
    via: str

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        replacement = _checked(self, lambda: solve_for(p.relator(self.via), self.gen))
        targets = p.labels_with(self.gen) - {self.via}
        return Delta({label: word.substitute(self.gen, replacement)
                      for label, word in p.relators if label in targets}, (self.via,),
                     generators=tuple(g for g in p.generators if g != self.gen),
                     longitude=longitude and longitude.substitute(self.gen, replacement))

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        rewritten = SubstituteEverywhere(self.gen, Word(), self.via).shadow(p, rows).words
        return Delta(rewritten, (self.via,),
                     generators=tuple(g for g in p.generators if g != self.gen))


@dataclass(frozen=True)
class SubstituteEverywhere(Move):
    """Rewrite gen to an equal word inside chosen relators.

    The justifying relator must pin gen down (single occurrence solving
    to exactly `by`); it is never rewritten itself.  only_in=None means
    every other relator.
    """
    gen: str
    by: Word
    justified_by: str
    only_in: Optional[tuple[str, ...]] = None

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        solved = _checked(self, lambda: solve_for(p.relator(self.justified_by), self.gen))
        _require(self, solved == self.by,
                 f"justifying relator solves {self.gen!r} to {solved}, not {self.by}")
        missing = set(self.only_in or ()) - set(p.labels())
        _require(self, not missing, f"no relator labeled {sorted(missing)}")
        _require(self, self.justified_by not in (self.only_in or ()),
                 "cannot rewrite the justifying relator")
        targets = self._targets(p)
        return Delta({label: word.substitute(self.gen, self.by)
                      for label, word in p.relators if label in targets})

    def _targets(self, p: Presentation) -> set[str]:
        targets = p.labels_with(self.gen) - {self.justified_by}
        return targets if self.only_in is None else targets & set(self.only_in)

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        """The target rows with gen eliminated by a +-1 pivot in the justifying row."""
        pivot = rows.get(self.justified_by, {})
        sigma = pivot.get(self.gen)
        return Delta(None if sigma not in (1, -1) else {
            label: row_plus(rows[label], pivot, -rows[label].get(self.gen, 0) * sigma)
            for label in self._targets(p)})


@dataclass(frozen=True)
class AddRelator(Move):
    label: str
    word: Word
    derivation: tuple[Insertion, ...]

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        _require(self, not p.has_relator(self.label), f"label {self.label!r} already present")
        _require(self, self.word.generators() <= p._generator_set,
                 "relator uses undeclared generators")
        derived = _inserted(self, Word(), self.derivation, p)
        _require(self, derived == self.word, f"derivation yields {derived}, declared {self.word}")
        return Delta({self.label: self.word})

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        # a rewrite of the empty relator under a new label
        fresh = {**rows, self.label: None if self.label in rows else {}}
        return RewriteRelator(self.label, self.derivation).shadow(p, fresh)


@dataclass(frozen=True)
class RewriteRelator(Move):
    """Replace a relator by the result of justified insertions into it.

    Steps may only cite other relators: self-insertion is not invertible
    (it can silently double the relator), so it is rejected.
    """
    label: str
    steps: tuple[Insertion, ...]

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        word = _checked(self, p.relator, self.label)
        return Delta({self.label: _inserted(self, word, self.steps, p, self.label)})

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        row = rows.get(self.label)
        for step in self.steps:
            cited = rows.get(step.relator) if step.relator != self.label else None
            row = row_plus(row, cited, -1 if step.inverted else 1)
        return Delta({self.label: row})


@dataclass(frozen=True)
class RemoveRelator(Move):
    """Drop a relator that is trivial or duplicates another one."""
    label: str
    duplicate_of: Optional[str] = None

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        word = _checked(self, p.relator, self.label)
        if self.duplicate_of is None:
            _require(self, word == Word(), f"{self.label} is not the empty relator")
        else:
            _require(self, self.duplicate_of != self.label, "relator cannot duplicate itself")
            _require(self, _checked(self, p.relator, self.duplicate_of) == word,
                     f"{self.label} and {self.duplicate_of} differ")
        return Delta(dropped=(self.label,))

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        row = rows.get(self.label)
        duplicate = self.duplicate_of != self.label and rows.get(self.duplicate_of) == row
        return Delta(None if row is None or row and not duplicate else {}, (self.label,))


@dataclass(frozen=True)
class RotateRelator(Move):
    label: str
    k: int

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        word = _checked(self, p.relator, self.label)
        return Delta({self.label: word.rotated(self.k)})

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        return Delta({self.label: rows.get(self.label)})


@dataclass(frozen=True)
class InvertRelator(Move):
    label: str

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        return Delta({self.label: ~_checked(self, p.relator, self.label)})

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        return Delta({self.label: row_plus({}, rows.get(self.label), -1)})


@dataclass(frozen=True)
class RelabelRelator(Move):
    old: str
    new: str

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        _require(self, p.has_relator(self.old), f"no relator labeled {self.old!r}")
        _require(self, not p.has_relator(self.new), f"label {self.new!r} already present")
        return Delta(renamed=(self.old, self.new))

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        return Delta(renamed=(self.old, self.new))  # moved checks that new is free


@dataclass(frozen=True)
class RewriteLongitude(Move):
    """Rewrite the tracked longitude by insertions, as RewriteRelator
    rewrites a relator.

    The v1 form, with steps None, states the whole new word and the relator
    that justifies it: the new word must differ from the current longitude
    by a single conjugate of that relator, checked via rotation_witness.
    """
    steps: Optional[tuple[Insertion, ...]] = None
    new_word: Optional[Word] = None
    via: Optional[str] = None

    def delta(self, p: Presentation, longitude: Optional[Word]) -> Delta:
        _require(self, longitude is not None, "no longitude is being tracked")
        if self.steps is not None:
            _require(self, self.new_word is None, "a rewrite states steps or a new word, not both")
            return Delta(longitude=_inserted(self, longitude, self.steps, p))
        _require(self, p.has_relator(self.via), f"no relator labeled {self.via!r}")
        diff = splice(~self.new_word, longitude)
        _require(self, rotation_witness(diff, p.relator(self.via).cyclic_reduce()[0]) is not None,
                 "rewrite is not a single consequence of the cited relator")
        return Delta(longitude=self.new_word)

    def shadow(self, p: Presentation, rows: dict) -> Delta:
        return Delta()


# -- traces ---------------------------------------------------------------

@dataclass(frozen=True)
class DerivationTrace:
    start: Presentation
    moves: tuple[Move, ...]
    end: Presentation
    longitude_start: Optional[Word] = None
    longitude_end: Optional[Word] = None


def apply_move(p: Presentation, move: Move,
               longitude: Optional[Word] = None) -> tuple[Presentation, Delta]:
    """The presentation move makes of p, and its Delta, with the longitude after it."""
    delta = move.delta(p, longitude)
    if delta.longitude is None:
        delta.longitude = longitude
    return p.moved(delta), delta


def _moved_rows(move: Move, p: Presentation, delta: Delta, rows: dict) -> Optional[dict]:
    """rows, the exponent rows of p by label, moved by delta, if delta read
    in rows is the abelian shadow of move; else None."""
    shadow = move.shadow(p, rows)
    if shadow != Delta({label: exponent_row(word) for label, word in delta.words.items()},
                       delta.dropped, delta.renamed, delta.generators):
        return None
    return shadow.apply_to(rows)


class Replay:
    """A trace replayed one move at a time: the current presentation and
    longitude, the Report so far and, with check_abelian, the invariants
    and the exponent rows by label."""

    def __init__(self, start: Presentation, longitude: Optional[Word] = None,
                 check_abelian: bool = False):
        self.presentation, self.longitude = start, longitude
        self.report = Report("trace replay")
        self.invariants = start.abelian_invariants() if check_abelian else None
        self.rows = _rows(start) if check_abelian else None

    def step(self, move: Move) -> bool:
        """Apply and check the next move; False once a move fails, after which
        the replay must not be stepped on."""
        # every move stepped so far passed, and each added one check
        report, p, i = self.report, self.presentation, len(self.report.checks)
        name = f"move {i} {type(move).__name__}" + (f" [{move.macro}]" if move.macro else "")
        try:
            q, delta = apply_move(p, move, self.longitude)
        except (SideConditionViolated, PresentationError, KeyError) as exc:
            return report.add(name, False, str(exc), i, f"move {i} failed")
        self.presentation, self.longitude = q, delta.longitude
        if self.longitude is not None and not self.longitude.generators() <= q._generator_set:
            return report.add(name, False, "longitude uses a generator absent from the "
                              "presentation", i, f"move {i} broke the longitude")
        # the same presentation, or rows that match the shadow, keep H1; else recompute it
        now = self.invariants
        if self.rows is not None and q is not p:
            self.rows = _moved_rows(move, p, delta, self.rows)
            if self.rows is None:
                now, self.rows = q.abelian_invariants(), _rows(q)
        return report.add(name, now == self.invariants, f"abelian invariants changed "
                          f"{self.invariants} -> {now}", i, f"move {i} changed the abelianization")

    def finish(self, end: Presentation, longitude_end: Optional[Word]) -> Report:
        """Check the end presentation and, if given, the end longitude."""
        self.report.add("end presentation", self.presentation == end, "does not match",
                        detail="end presentation does not match")
        if longitude_end is not None:
            self.report.add("end longitude", self.longitude == longitude_end, "does not match",
                            detail="end longitude does not match")
        return self.report


def replay_trace(trace: DerivationTrace, check_abelian: bool = False) -> Report:
    """Replay every move; PASS iff all side conditions hold and the end matches.

    There is one check per move replayed, up to the first that fails, then
    one for the end presentation and one for the end longitude, if tracked.
    """
    replay = Replay(trace.start, trace.longitude_start, check_abelian)
    if all(replay.step(move) for move in trace.moves):
        replay.finish(trace.end, trace.longitude_end)
    return replay.report


# -- JSON serialization -----------------------------------------------------

TRACE_SCHEMA_VERSION = 2  # v2: a RewriteLongitude may state its steps; v1 is still read


def _insertion_json(ins: Insertion) -> dict:
    return {"rel": ins.relator, "inv": ins.inverted,
            "conj": ins.conjugator.tokens(), "at": ins.position}


def _insertion_from_json(data: dict) -> Insertion:
    return Insertion(_text(data["rel"]), _bool(data["inv"]),
                     parse_word(data["conj"]), _int(data["at"]))


# kind -> move class; the JSON of a move is its dataclass fields
MOVE_KINDS = {cls.__name__: cls for cls in Move.__subclasses__()}

# decoders by field annotation, a string under `from __future__ import annotations`
_FIELD_FROM_JSON = {
    "str": _text,
    "Optional[str]": lambda text: None if text is None else _text(text),
    "Word": parse_word,
    "int": _int,
    "tuple[Insertion, ...]": lambda steps: tuple(_insertion_from_json(s) for s in _list(steps)),
    "Optional[tuple[str, ...]]": lambda labels: (None if labels is None
                                                 else tuple(map(_text, _list(labels)))),
}


# A RewriteLongitude's JSON holds every field of one form, none of them null:
# its steps (from v2 on) or, as every v1 one does, its new word and the
# relator that justifies it; and it may hold a macro.
_LONGITUDE_FIELDS = {"steps": _FIELD_FROM_JSON["tuple[Insertion, ...]"],
                     "new_word": parse_word, "via": _text,
                     "macro": _FIELD_FROM_JSON["Optional[str]"]}


def _field_json(value):
    if isinstance(value, Word):
        return value.tokens()
    if isinstance(value, Insertion):
        return _insertion_json(value)
    if isinstance(value, tuple):
        return [_field_json(v) for v in value]
    return value


def move_to_json(move: Move) -> dict:
    data: dict = {"kind": type(move).__name__}
    if move.macro:
        data["macro"] = move.macro
    for f in fields(move):
        value = getattr(move, f.name)
        # a RewriteLongitude leaves out the fields of the form it does not use
        if f.name != "macro" and (value is not None or not isinstance(move, RewriteLongitude)):
            data[f.name] = _field_json(value)
    return data


def _field_decoders(cls, data: dict, version: int) -> dict:
    """{name: decoder} for each field of cls that data must hold, and each
    optional one it holds, in field order."""
    if cls is RewriteLongitude:
        form = ("steps",) if version > 1 and "steps" in data else ("new_word", "via")
        return {name: _LONGITUDE_FIELDS[name] for name in (*form, "macro")
                if name in form or name in data}
    return {f.name: _FIELD_FROM_JSON[f.type] for f in fields(cls)
            if f.name in data or f.default is MISSING}


def move_from_json(data: dict, version: int = TRACE_SCHEMA_VERSION) -> Move:
    """Decode a move of a trace of schema version."""
    cls = MOVE_KINDS.get(data["kind"])
    if cls is None:
        raise PresentationError(f"unknown move kind {data['kind']!r}")
    values = {}
    for name, decode in _field_decoders(cls, data, version).items():
        try:
            values[name] = decode(data[name])
        except (TypeError, ValueError) as exc:
            raise PresentationError(f"field {name!r}: {exc}") from exc
    return cls(**values)


def presentation_to_json(p: Presentation) -> dict:
    return {"generators": list(p.generators),
            "relators": [{"label": lab, "word": w.tokens()} for lab, w in p.relators],
            "provenance": p.provenance}


def presentation_from_json(data: dict) -> Presentation:
    return Presentation(tuple(map(_text, _list(data["generators"]))),
                        tuple((_text(r["label"]), parse_word(r["word"]))
                              for r in _list(data["relators"])),
                        data.get("provenance"))


def trace_to_json(trace: DerivationTrace) -> dict:
    return {"v": TRACE_SCHEMA_VERSION,
            "start": presentation_to_json(trace.start),
            "moves": [move_to_json(m) for m in trace.moves],
            "end": presentation_to_json(trace.end),
            "longitude_start": _field_json(trace.longitude_start),
            "longitude_end": _field_json(trace.longitude_end)}


def trace_from_json(data: dict) -> DerivationTrace:
    """Decode a trace; a missing or mistyped field raises PresentationError naming it."""
    if not isinstance(data, dict):
        raise PresentationError(f"a trace is a JSON object, not a {type(data).__name__}")
    version = data.get("v")
    if type(version) is not int or version not in (1, TRACE_SCHEMA_VERSION):
        raise PresentationError(f"unsupported trace schema version {version!r}")
    for key, kind in (("start", dict), ("moves", list), ("end", dict)):
        if not isinstance(data.get(key), kind):
            raise PresentationError(f"trace field {key!r} is missing or not a {kind.__name__}")
    lon_start = data.get("longitude_start")
    lon_end = data.get("longitude_end")
    return DerivationTrace(
        _decoded("start", presentation_from_json, data["start"]),
        tuple(_decoded(f"move {i}", move_from_json, m, version)
              for i, m in enumerate(data["moves"])),
        _decoded("end", presentation_from_json, data["end"]),
        None if lon_start is None else _decoded("longitude_start", parse_word, lon_start),
        None if lon_end is None else _decoded("longitude_end", parse_word, lon_end))
