"""Finitely presented groups, elementary moves and machine-checked traces.

A presentation keeps an ordered generator list and labeled reduced
relators.  Moves are the sound elementary steps the simplification
pipeline is scripted in; every move checks its own side condition, so a
replayed trace is a proof that the endpoints present isomorphic groups.

Relator equality is up to free reduction only; rotations and inversions
are explicit moves, which keeps replay deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from . import smith
from .words import Word, is_generator_name, parse_word, rotation_witness, splice


class PresentationError(ValueError):
    pass


class SideConditionViolated(Exception):
    """A Tietze move whose syntactic side condition fails on this input."""

    def __init__(self, move, reason: str):
        self.move = move
        self.reason = reason
        super().__init__(f"{type(move).__name__}: {reason}")


def _checked(move, compute, *args):
    """compute(*args), with a failed relator lookup or solve raised as the move's
    side condition violation."""
    try:
        return compute(*args)
    except (KeyError, PresentationError) as exc:
        raise SideConditionViolated(move, str(exc)) from exc


@dataclass(frozen=True, eq=False)
class Presentation:
    """A presentation; the constructor checks every generator and relator.

    Alongside the fields it keeps, by label, each relator's word and its
    generator set.  A move builds its result with `_moved`, which checks
    only the relators that are new or rewritten and carries the rest over.
    """
    generators: tuple[str, ...]
    relators: tuple[tuple[str, Word], ...]
    provenance: Optional[str] = None
    _words: dict = field(init=False, repr=False)  # label -> word
    _uses: dict = field(init=False, repr=False)   # label -> set of its generators

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not is_generator_name(g):
                raise PresentationError(f"bad generator name: {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator: {g!r}")
            seen.add(g)
        self._index(None)

    def _index(self, parent: Optional["Presentation"]) -> None:
        """Index the relators by label.  A relator that parent holds as the
        same word object under the same label keeps its generator set;
        every other relator is checked."""
        declared = set(self.generators)
        words: dict[str, Word] = {}
        uses: dict[str, set[str]] = {}
        for label, word in self.relators:
            if parent is not None and parent._words.get(label) is word:
                used = parent._uses[label]
            else:
                if not label or any(ch.isspace() for ch in label) or ":" in label:
                    raise PresentationError(f"bad relator label: {label!r}")
                used = word.generators()
            if label in words:
                raise PresentationError(f"duplicate relator label: {label!r}")
            undeclared = used - declared
            if undeclared:
                raise PresentationError(
                    f"relator {label} uses undeclared generators {sorted(undeclared)}")
            words[label] = word
            uses[label] = used
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_uses", uses)

    def _moved(self, relators: tuple[tuple[str, Word], ...],
               generators: Optional[tuple[str, ...]] = None) -> "Presentation":
        """The presentation a move makes of this one.  Generators a move adds
        are checked by the move itself."""
        new = object.__new__(Presentation)
        object.__setattr__(new, "generators",
                           self.generators if generators is None else generators)
        object.__setattr__(new, "relators", relators)
        object.__setattr__(new, "provenance", self.provenance)
        new._index(self)
        return new

    # equality ignores relator order but not generator order
    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self._words == other._words)

    def __hash__(self) -> int:
        return hash((self.generators, frozenset(self.relators)))

    def labels(self) -> list[str]:
        return [label for label, _ in self.relators]

    def relator(self, label: str) -> Word:
        word = self._words.get(label)
        if word is None:
            raise KeyError(f"no relator labeled {label!r}")
        return word

    def has_relator(self, label: str) -> bool:
        return label in self._words

    def labels_with(self, gen: str) -> set[str]:
        """The labels of the relators in which gen occurs."""
        return {label for label, used in self._uses.items() if gen in used}

    def replace(self, **changes) -> "Presentation":
        data = {"generators": self.generators, "relators": self.relators,
                "provenance": self.provenance}
        data.update(changes)
        return Presentation(**data)

    def with_relator(self, label: str, word: Word) -> "Presentation":
        """The word under label replaced, every other relator kept in place."""
        return self._moved(tuple((lab, word if lab == label else w)
                                 for lab, w in self.relators))

    # -- abelianization ----------------------------------------------

    def exponent_rows(self, *words: Word) -> list[smith.Row]:
        """One sparse row {generator index: exponent sum}, zeros left out, per
        relator and then per extra word."""
        index = {g: j for j, g in enumerate(self.generators)}
        rows = []
        for word in [w for _, w in self.relators] + list(words):
            row: smith.Row = {}
            for name, e in _exponent_sums(word).items():
                j = index.get(name)
                if j is None:
                    raise PresentationError(f"word uses undeclared generator {name!r}")
                if e:
                    row[j] = e
            rows.append(row)
        return rows

    def abelian_invariants(self) -> tuple[int, ...]:
        return smith.sparse_invariants(self.exponent_rows(), len(self.generators))

    def null_homologous(self, word: Word) -> bool:
        """Whether word is 0 in H1, that is whether adding it as a relator
        leaves the invariant factors unchanged.  This is exact: a finitely
        generated abelian group G has G/<w> isomorphic to G only when w = 0."""
        rows = self.exponent_rows(word)
        n = len(self.generators)
        return smith.sparse_invariants(rows, n) == smith.sparse_invariants(rows[:-1], n)

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
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("gens:"):
                generators = tuple(line[len("gens:"):].split())
                saw_gens = True
            elif line.startswith("rel "):
                head, _, body = line[len("rel "):].partition(":")
                relators.append((head.strip(), parse_word(body.strip())))
            else:
                raise PresentationError(f"unparseable line: {raw!r}")
        if not saw_gens:
            raise PresentationError("missing 'gens:' line")
        return Presentation(generators, tuple(relators))


def _exponent_sums(word: Word) -> dict[str, int]:
    """{generator name: exponent sum} over the generators word uses, zeros kept."""
    sums: dict[str, int] = {}
    for (name, sign), count in Counter(word.letters).items():
        sums[name] = sums.get(name, 0) + sign * count
    return sums


def solve_for(word: Word, gen: str) -> Word:
    """Solve relator == 1 for its unique occurrence of gen."""
    hits = [i for i, (name, _) in enumerate(word.letters) if name == gen]
    if len(hits) != 1:
        raise PresentationError(
            f"generator {gen!r} occurs {len(hits)} times, need exactly 1")
    i = hits[0]
    vu = splice(word[i + 1:], word[:i])
    return ~vu if word.letters[i][1] > 0 else vu


# -- moves ----------------------------------------------------------------

@dataclass(frozen=True)
class Insertion:
    """Insert a conjugated relator (or its inverse) and freely reduce."""
    relator: str
    inverted: bool
    conjugator: Word
    position: int

    def perform(self, word: Word, p: Presentation) -> Word:
        r = p.relator(self.relator)
        if self.inverted:
            r = ~r
        if not 0 <= self.position <= len(word):
            raise PresentationError(f"insertion position {self.position} out of range")
        return splice(word[:self.position], self.conjugator, r, ~self.conjugator,
                      word[self.position:])


@dataclass(frozen=True)
class AddGenerator:
    gen: str
    definition: Word
    label: str
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        if not is_generator_name(self.gen):
            raise SideConditionViolated(self, f"bad generator name {self.gen!r}")
        if self.gen in p.generators:
            raise SideConditionViolated(self, f"generator {self.gen!r} already present")
        if p.has_relator(self.label):
            raise SideConditionViolated(self, f"label {self.label!r} already present")
        if self.definition.generators() - set(p.generators):
            raise SideConditionViolated(self, "definition uses undeclared generators")
        relator = Word.generator(self.gen) * ~self.definition
        return p._moved(p.relators + ((self.label, relator),), p.generators + (self.gen,))


@dataclass(frozen=True)
class RemoveGenerator:
    gen: str
    via: str
    macro: Optional[str] = None

    def solved(self, p: Presentation) -> Word:
        return _checked(self, lambda: solve_for(p.relator(self.via), self.gen))

    def apply(self, p: Presentation, replacement: Optional[Word] = None) -> Presentation:
        """Eliminate gen; replacement, when given, is self.solved(p)."""
        if self.gen not in p.generators:
            raise SideConditionViolated(self, f"no generator {self.gen!r}")
        if replacement is None:
            replacement = self.solved(p)
        targets = p.labels_with(self.gen)
        relators = tuple((lab, w.substitute(self.gen, replacement) if lab in targets else w)
                         for lab, w in p.relators if lab != self.via)
        return p._moved(relators, tuple(g for g in p.generators if g != self.gen))


@dataclass(frozen=True)
class SubstituteEverywhere:
    """Rewrite gen to an equal word inside chosen relators.

    The justifying relator must pin gen down (single occurrence solving
    to exactly `by`); it is never rewritten itself.  only_in=None means
    every other relator.
    """
    gen: str
    by: Word
    justified_by: str
    only_in: Optional[tuple[str, ...]] = None
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        solved = _checked(self, lambda: solve_for(p.relator(self.justified_by), self.gen))
        if solved != self.by:
            raise SideConditionViolated(
                self, f"justifying relator solves {self.gen!r} to {solved}, not {self.by}")
        if self.only_in is None:
            targets = {lab for lab, _ in p.relators} - {self.justified_by}
        else:
            targets = set(self.only_in)
            missing = targets - {lab for lab, _ in p.relators}
            if missing:
                raise SideConditionViolated(self, f"no relator labeled {sorted(missing)}")
            if self.justified_by in targets:
                raise SideConditionViolated(self, "cannot rewrite the justifying relator")
        targets &= p.labels_with(self.gen)
        return p._moved(tuple((lab, w.substitute(self.gen, self.by) if lab in targets else w)
                              for lab, w in p.relators))


@dataclass(frozen=True)
class AddRelator:
    label: str
    word: Word
    derivation: tuple[Insertion, ...]
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        if p.has_relator(self.label):
            raise SideConditionViolated(self, f"label {self.label!r} already present")
        if self.word.generators() - set(p.generators):
            raise SideConditionViolated(self, "relator uses undeclared generators")
        derived = Word()
        for step in self.derivation:
            derived = _checked(self, step.perform, derived, p)
        if derived != self.word:
            raise SideConditionViolated(
                self, f"derivation yields {derived}, declared {self.word}")
        return p._moved(p.relators + ((self.label, self.word),))


@dataclass(frozen=True)
class RewriteRelator:
    """Replace a relator by the result of justified insertions into it.

    Steps may only cite other relators: self-insertion is not invertible
    (it can silently double the relator), so it is rejected.
    """
    label: str
    steps: tuple[Insertion, ...]
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        word = _checked(self, p.relator, self.label)
        for step in self.steps:
            if step.relator == self.label:
                raise SideConditionViolated(
                    self, "a rewrite cannot be justified by the relator it rewrites")
            word = _checked(self, step.perform, word, p)
        return p.with_relator(self.label, word)


@dataclass(frozen=True)
class RemoveRelator:
    """Drop a relator that is trivial or duplicates another one."""
    label: str
    duplicate_of: Optional[str] = None
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        word = _checked(self, p.relator, self.label)
        if self.duplicate_of is None:
            if word != Word():
                raise SideConditionViolated(self, f"{self.label} is not the empty relator")
        else:
            if self.duplicate_of == self.label:
                raise SideConditionViolated(self, "relator cannot duplicate itself")
            if _checked(self, p.relator, self.duplicate_of) != word:
                raise SideConditionViolated(
                    self, f"{self.label} and {self.duplicate_of} differ")
        return p._moved(tuple((lab, w) for lab, w in p.relators if lab != self.label))


@dataclass(frozen=True)
class RotateRelator:
    label: str
    k: int
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        return p.with_relator(self.label, _checked(self, p.relator, self.label).rotated(self.k))


@dataclass(frozen=True)
class InvertRelator:
    label: str
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        return p.with_relator(self.label, ~_checked(self, p.relator, self.label))


@dataclass(frozen=True)
class RelabelRelator:
    old: str
    new: str
    macro: Optional[str] = None

    def apply(self, p: Presentation) -> Presentation:
        if not p.has_relator(self.old):
            raise SideConditionViolated(self, f"no relator labeled {self.old!r}")
        if p.has_relator(self.new):
            raise SideConditionViolated(self, f"label {self.new!r} already present")
        return p._moved(tuple((self.new if lab == self.old else lab, w)
                              for lab, w in p.relators))


@dataclass(frozen=True)
class RewriteLongitude:
    """Rewrite the tracked longitude to a word equal modulo one relator.

    The new word must differ from the current longitude by a single
    conjugate of the cited relator, checked via rotation_witness.
    """
    new_word: Word
    via: str
    macro: Optional[str] = None


Move = (AddGenerator | RemoveGenerator | SubstituteEverywhere | AddRelator
        | RewriteRelator | RemoveRelator | RotateRelator | InvertRelator
        | RelabelRelator | RewriteLongitude)

RELATOR_DELTAS = {
    AddGenerator: 1, RemoveGenerator: -1, AddRelator: 1, RemoveRelator: -1,
    SubstituteEverywhere: 0, RewriteRelator: 0, RotateRelator: 0,
    InvertRelator: 0, RelabelRelator: 0, RewriteLongitude: 0,
}


# -- traces ---------------------------------------------------------------

@dataclass(frozen=True)
class DerivationTrace:
    start: Presentation
    moves: tuple[Move, ...]
    end: Presentation
    longitude_start: Optional[Word] = None
    longitude_end: Optional[Word] = None


@dataclass(frozen=True)
class Check:
    """One named check of a Report; a failing check says why."""
    name: str
    ok: bool
    reason: str = ""
    index: Optional[int] = None  # the move or step the check is located at

    def __str__(self) -> str:
        return self.name + (f": {self.reason}" if self.reason else "")


@dataclass
class Report:
    """What every checker returns: its checks in order and one verdict."""
    label: str
    checks: list[Check] = field(default_factory=list)
    detail: str = ""  # the failure in one line, from checkers that summarize it

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, name: str, ok: bool, reason: str = "", index: Optional[int] = None) -> bool:
        """Record a check; the reason is kept only when it fails."""
        self.checks.append(Check(name, ok, "" if ok else reason, index))
        return ok

    def first_failure(self) -> Optional[Check]:
        return next((check for check in self.checks if not check.ok), None)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines += [f"  {'ok  ' if check.ok else 'FAIL'} {check}" for check in self.checks]
        lines.append(("PASS" if self.ok else "FAIL")
                     + (f" -- {self.detail}" if self.detail else ""))
        return "\n".join(lines)


def apply_move(p: Presentation, move: Move,
               longitude: Optional[Word] = None) -> tuple[Presentation, Optional[Word]]:
    """Apply one move, transporting the tracked longitude alongside."""
    if isinstance(move, RewriteLongitude):
        if longitude is None:
            raise SideConditionViolated(move, "no longitude is being tracked")
        if not p.has_relator(move.via):
            raise SideConditionViolated(move, f"no relator labeled {move.via!r}")
        diff = splice(~move.new_word, longitude)
        if rotation_witness(diff, p.relator(move.via).cyclic_reduce()[0]) is None:
            raise SideConditionViolated(
                move, "rewrite is not a single consequence of the cited relator")
        return p, move.new_word
    if isinstance(move, RemoveGenerator) and longitude is not None:
        replacement = move.solved(p)
        return move.apply(p, replacement), longitude.substitute(move.gen, replacement)
    return move.apply(p), longitude


# -- the abelian shadow of a move ------------------------------------------------
#
# Rows here are keyed by generator name, {name: nonzero exponent sum}, so a
# row keeps its meaning when a move adds or removes a generator.

def _row(word: Word) -> dict[str, int]:
    return {name: e for name, e in _exponent_sums(word).items() if e}


def _rows(p: Presentation) -> dict[str, dict[str, int]]:
    return {label: _row(word) for label, word in p.relators}


def _plus(row: dict[str, int], other: dict[str, int], k: int) -> dict[str, int]:
    """row + k * other, zeros left out."""
    out = dict(row)
    for name, e in other.items():
        total = out.get(name, 0) + k * e
        if total:
            out[name] = total
        else:
            out.pop(name, None)
    return out


def _abelian_shadow(move: Move, p: Presentation, q: Presentation,
                    rows: dict[str, dict[str, int]]) -> Optional[dict[str, dict[str, int]]]:
    """The exponent rows of q by label, if they are rows (the rows of p)
    moved by the abelian shadow of move; else None.  Each shadow changes the
    relation matrix without changing H1: it adds to a row a multiple of
    another row that stays, eliminates a generator with a +-1 pivot, adds a
    generator with a +-1 in its one row, drops an empty or a duplicate row,
    or negates, keeps or relabels a row.  Only the rows of relators that q
    holds as a new word object are computed.  None also covers a missing
    label, a non-unit pivot and an unexpected generator list."""
    gens, dropped, added = set(p.generators), set(), set()

    def keeps(label: str, old: dict[str, int], new: dict[str, int]) -> bool:
        return new == old

    if isinstance(move, (RemoveGenerator, SubstituteEverywhere)):
        g = move.gen
        via = move.via if isinstance(move, RemoveGenerator) else move.justified_by
        pivot = rows.get(via, {})
        sigma = pivot.get(g)
        if sigma not in (1, -1):
            return None
        removes = isinstance(move, RemoveGenerator)
        if removes:
            gens, dropped = gens - {g}, {via}

        def keeps(label, old, new):
            if new is old:  # a relator the move left alone
                return g not in old or not removes
            if g not in old or label == via:
                return new == old
            return new == _plus(old, pivot, -old[g] * sigma)
    elif isinstance(move, AddGenerator):
        if move.gen in gens or move.label in rows:
            return None
        gens, added = gens | {move.gen}, {move.label}

        def keeps(label, old, new):
            return new.get(move.gen) in (1, -1) if label == move.label else new == old
    elif isinstance(move, (AddRelator, RewriteRelator)):
        if isinstance(move, AddRelator):
            steps, row, added = move.derivation, {}, {move.label}
            if move.label in rows:
                return None
        else:
            steps, row = move.steps, rows.get(move.label)
            if row is None:
                return None
        for step in steps:
            cited = rows.get(step.relator)
            if cited is None or step.relator == move.label:
                return None
            row = _plus(row, cited, -1 if step.inverted else 1)

        def keeps(label, old, new):
            return new == (row if label == move.label else old)
    elif isinstance(move, RemoveRelator):
        row = rows.get(move.label)
        if row is None or row and (move.duplicate_of == move.label
                                   or rows.get(move.duplicate_of) != row):
            return None
        dropped = {move.label}
    elif isinstance(move, InvertRelator):
        if move.label not in rows:
            return None

        def keeps(label, old, new):
            return new == ({name: -e for name, e in old.items()} if label == move.label else old)
    elif isinstance(move, RelabelRelator):
        if move.old not in rows or move.new in rows:
            return None
        dropped, added = {move.old}, {move.new}

        def keeps(label, old, new):
            return new == (rows[move.old] if label == move.new else old)
    elif not (isinstance(move, RotateRelator) and move.label in rows):
        return None
    if len(q.generators) != len(gens) or set(q.generators) != gens:
        return None
    moved = {}
    for label, word in q.relators:
        old = rows.get(label)
        if old is None and label not in added:
            return None
        new = old if old is not None and p._words.get(label) is word else _row(word)
        if not keeps(label, old, new):
            return None
        moved[label] = new
    if moved.keys() != (rows.keys() - dropped) | added:
        return None
    return moved


class Replay:
    """A trace replayed one move at a time: the current presentation and
    longitude, the Report so far and, with check_abelian, the invariants
    and the exponent rows by label."""

    def __init__(self, start: Presentation, longitude: Optional[Word] = None,
                 check_abelian: bool = False):
        self.presentation = start
        self.longitude = longitude
        self.report = Report("trace replay")
        self.check_abelian = check_abelian
        self.invariants = start.abelian_invariants() if check_abelian else None
        self.rows = _rows(start) if check_abelian else None

    def step(self, move: Move) -> bool:
        """Apply and check the next move; False once a move fails, after which
        the replay must not be stepped on."""
        # every move stepped so far passed, and each added one check
        report, p, i = self.report, self.presentation, len(self.report.checks)
        name = f"move {i} {type(move).__name__}" + (f" [{move.macro}]" if move.macro else "")
        try:
            self.presentation, self.longitude = apply_move(p, move, self.longitude)
        except (SideConditionViolated, PresentationError, KeyError) as exc:
            report.add(name, False, str(exc), i)
            report.detail = f"move {i} failed"
            return False
        if self.longitude is not None and \
                self.longitude.generators() - set(self.presentation.generators):
            report.add(name, False, "longitude uses a generator absent from the presentation", i)
            report.detail = f"move {i} broke the longitude"
            return False
        # a move that returns the same presentation, or whose rows match its
        # abelian shadow, keeps the invariants; any other is checked afresh
        now = self.invariants
        if self.check_abelian and self.presentation is not p:
            self.rows = _abelian_shadow(move, p, self.presentation, self.rows)
            if self.rows is None:
                now = self.presentation.abelian_invariants()
                self.rows = _rows(self.presentation)
        if not report.add(name, now == self.invariants,
                          f"abelian invariants changed {self.invariants} -> {now}", i):
            report.detail = f"move {i} changed the abelianization"
            return False
        return True

    def finish(self, end: Presentation, longitude_end: Optional[Word]) -> Report:
        """Check the end presentation and, if given, the end longitude."""
        report = self.report
        if not report.add("end presentation", self.presentation == end, "does not match"):
            report.detail = "end presentation does not match"
        if longitude_end is not None and not report.add(
                "end longitude", self.longitude == longitude_end, "does not match"):
            report.detail = "end longitude does not match"
        return report


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

TRACE_SCHEMA_VERSION = 1


def _insertion_json(ins: Insertion) -> dict:
    return {"rel": ins.relator, "inv": ins.inverted,
            "conj": ins.conjugator.tokens(), "at": ins.position}


def _insertion_from_json(data: dict) -> Insertion:
    return Insertion(_text(data["rel"]), bool(data["inv"]),
                     parse_word(data["conj"]), int(data["at"]))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


# kind -> move class; the JSON of a move is its dataclass fields
MOVE_KINDS = {cls.__name__: cls for cls in Move.__args__}

# decoders by field annotation, a string under `from __future__ import annotations`
_FIELD_FROM_JSON = {
    "str": _text,
    "Optional[str]": lambda text: None if text is None else _text(text),
    "Word": parse_word,
    "int": int,
    "tuple[Insertion, ...]": lambda steps: tuple(_insertion_from_json(s) for s in _list(steps)),
    "Optional[tuple[str, ...]]": lambda labels: (None if labels is None
                                                 else tuple(map(_text, _list(labels)))),
}


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
        if f.name != "macro":
            data[f.name] = _field_json(getattr(move, f.name))
    return data


def move_from_json(data: dict) -> Move:
    cls = MOVE_KINDS.get(data["kind"])
    if cls is None:
        raise PresentationError(f"unknown move kind {data['kind']!r}")
    values = {}
    for f in fields(cls):
        if f.name in data or f.default is MISSING:
            try:
                values[f.name] = _FIELD_FROM_JSON[f.type](data[f.name])
            except (TypeError, ValueError) as exc:
                raise PresentationError(f"field {f.name!r}: {exc}") from exc
    return cls(**values)


def presentation_to_json(p: Presentation) -> dict:
    return {"generators": list(p.generators),
            "relators": [{"label": lab, "word": w.tokens()} for lab, w in p.relators],
            "provenance": p.provenance}


def presentation_from_json(data: dict) -> Presentation:
    return Presentation(tuple(data["generators"]),
                        tuple((r["label"], parse_word(r["word"]))
                              for r in data["relators"]),
                        data.get("provenance"))


def trace_to_json(trace: DerivationTrace) -> dict:
    return {"v": TRACE_SCHEMA_VERSION,
            "start": presentation_to_json(trace.start),
            "moves": [move_to_json(m) for m in trace.moves],
            "end": presentation_to_json(trace.end),
            "longitude_start": _field_json(trace.longitude_start),
            "longitude_end": _field_json(trace.longitude_end)}


def _decoded(where: str, decode, value):
    try:
        return decode(value)
    except KeyError as exc:
        raise PresentationError(f"{where} has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PresentationError(f"{where}: {exc}") from exc


def trace_from_json(data: dict) -> DerivationTrace:
    """Decode a trace; a missing or mistyped field raises PresentationError naming it."""
    if not isinstance(data, dict):
        raise PresentationError(f"a trace is a JSON object, not a {type(data).__name__}")
    if data.get("v") != TRACE_SCHEMA_VERSION:
        raise PresentationError(f"unsupported trace schema version {data.get('v')!r}")
    for key, kind in (("start", dict), ("moves", list), ("end", dict)):
        if not isinstance(data.get(key), kind):
            raise PresentationError(f"trace field {key!r} is missing or not a {kind.__name__}")
    lon_start = data.get("longitude_start")
    lon_end = data.get("longitude_end")
    return DerivationTrace(
        _decoded("start", presentation_from_json, data["start"]),
        tuple(_decoded(f"move {i}", move_from_json, m)
              for i, m in enumerate(data["moves"])),
        _decoded("end", presentation_from_json, data["end"]),
        _decoded("longitude_start", parse_word, lon_start) if lon_start else None,
        _decoded("longitude_end", parse_word, lon_end) if lon_end else None)
