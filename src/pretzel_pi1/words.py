"""Exact arithmetic on words in a free group.

A Word is an immutable, freely reduced sequence of signed letters over
named generators.  Generator names match ``[a-z][a-z0-9]*``, so ``c``,
``l`` and ``f12`` are all valid.  Every public operation returns reduced
words, so equality of words is plain equality of their letter sequences.

Two interchangeable text forms are supported:

* tokenized: whitespace separated tokens ``name`` or ``name^k`` with a
  nonzero integer ``k``; an uppercase first letter marks an inverse
  (``F1`` is the inverse of ``f1``).
* compact (single-letter alphabets only): ``clcLCL^-3CLclcl^2`` style,
  lowercase for a generator, uppercase for its inverse, ``^k`` for runs.

The empty word prints as ``1`` in both forms.
"""

from __future__ import annotations

import functools
import re
import struct
import sys
from operator import itemgetter
from typing import Iterable, Optional

GENERATOR_RE = re.compile(r"[a-z][a-z0-9]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z][a-z0-9]*)(?:\^(-?\d+))?\Z")
_COMPACT_RE = re.compile(r"([A-Za-z])(?:\^(-?\d+))?")

Letter = tuple[str, int]


class WordError(ValueError):
    """Malformed word text or invalid generator name."""


# A tuple of n letters needs n pointers and a header in sys.maxsize bytes; the largest
# power of two below sys.maxsize // pointer size always fits: 2^59 on 64-bit builds.
_MAX_RUN = 1 << ((sys.maxsize // struct.calcsize("P")).bit_length() - 1)


def _run(exp: int) -> int:
    """The letter count of a run of exponent exp, if a tuple can hold it."""
    if abs(exp) > _MAX_RUN:
        raise WordError(f"exponent {exp} is too large: a run has at most {_MAX_RUN} letters")
    return abs(exp)


def is_generator_name(name: str) -> bool:
    return bool(GENERATOR_RE.match(name))


def _reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = [("", 0)]  # a bottom that no letter cancels
    for letter in letters:
        top = stack[-1]
        if top[1] == -letter[1] and top[0] == letter[0]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack[1:])


def _splice_letters(pieces: Iterable[tuple[Letter, ...]]) -> tuple[Letter, ...]:
    """Concatenate reduced letter tuples, cancelling only at the seams: a
    seam cancels until one side runs out or two letters do not cancel."""
    out: list[Letter] = []
    for letters in pieces:
        k, n = 0, len(letters)
        while out and k < n and out[-1][0] == letters[k][0] and out[-1][1] == -letters[k][1]:
            out.pop()
            k += 1
        out.extend(letters[k:] if k else letters)
    return tuple(out)


class Word:
    """A freely reduced word; the universal currency of the toolkit.  Only this
    module reads the letter tuple; others use len, slices, views and splice."""

    __slots__ = ("letters", "_generators")  # _generators: filled by generators()

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce_letters(letters))

    @classmethod
    def _reduced(cls, letters: tuple[Letter, ...]) -> "Word":
        """A word from a letter tuple the caller knows to be freely reduced."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def generator(name: str, sign: int = 1) -> "Word":
        if not is_generator_name(name):
            raise WordError(f"invalid generator name: {name!r}")
        if sign not in (1, -1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
        return Word(((name, sign),))

    @staticmethod
    def from_syllables(syllables: Iterable[tuple[str, int]]) -> "Word":
        """The product of the runs name^exp; each run is reduced, so they are
        spliced, reduced only at the seams."""
        return Word._reduced(_splice_letters(((name, 1 if exp > 0 else -1),) * _run(exp)
                                             for name, exp in syllables))

    # -- basic protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    __iter__ = None  # not iterable, and no fallback to __getitem__(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __invert__(self) -> "Word":
        return Word._reduced(tuple((name, -sign) for name, sign in reversed(self.letters)))

    def __getitem__(self, span: slice) -> "Word":
        """The letters of a slice as a word.  A subword of a reduced word is
        reduced, so nothing is reduced again; steps other than 1 are refused."""
        if not isinstance(span, slice) or span.step not in (None, 1):
            raise TypeError("a word is sliced with step 1 only")
        return Word._reduced(self.letters[span])

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else ~self
        out = base
        for _ in range(abs(n) - 1):
            out = Word(out.letters + base.letters)
        return out

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        return self.tokens()

    # -- views ---------------------------------------------------------

    def syllables(self) -> list[tuple[str, int]]:
        """Run-length view: maximal runs as (generator, signed exponent)."""
        runs: list[tuple[str, int]] = []
        for name, sign in self.letters:
            if runs and runs[-1][0] == name:
                runs[-1] = (name, runs[-1][1] + sign)
            else:
                runs.append((name, sign))
        return runs

    def generators(self) -> frozenset[str]:
        """The names the word uses, found on the first call and kept."""
        try:
            return self._generators
        except AttributeError:
            names = frozenset(map(itemgetter(0), self.letters))
            object.__setattr__(self, "_generators", names)
            return names

    # -- rendering -----------------------------------------------------

    def tokens(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.syllables():
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)

    def compact(self) -> str:
        """Single-letter rendering: case marks sign, ``^k`` marks runs."""
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.syllables():
            if len(name) != 1:
                raise WordError(f"compact form needs single-letter names, got {name!r}")
            base = name if exp > 0 else name.upper()
            parts.append(base if abs(exp) == 1 else f"{base}^{exp}")
        return "".join(parts)

    # -- operations ------------------------------------------------------

    def substitute(self, name: str, replacement: "Word") -> "Word":
        """Replace every signed occurrence of ``name`` by ``replacement``,
        reducing only at the seams around each replaced letter."""
        letters = self.letters
        hits = [i for i, (gen, _) in enumerate(letters) if gen == name]
        if not hits:
            return self
        forward, backward = replacement.letters, (~replacement).letters
        pieces = []
        start = 0
        for i in hits:
            pieces += (letters[start:i], forward if letters[i][1] > 0 else backward)
            start = i + 1
        pieces.append(letters[start:])
        return Word._reduced(_splice_letters(pieces))

    def rotated(self, k: int) -> "Word":
        """Left rotation by k letters, reduced (a conjugate of self).  Both
        slices are reduced, so only the seam where the ends meet can cancel."""
        k %= len(self.letters) or 1
        return splice(self[k:], self[:k])

    def cyclic_reduce(self) -> tuple["CyclicWord", "Word"]:
        """Split off the conjugator: self == splice(conj, core.word, ~conj)."""
        letters, n = self.letters, len(self.letters)
        k = 0  # matching outer pairs
        while n - 2 * k >= 2 and letters[k][0] == letters[n - 1 - k][0] \
                and letters[k][1] == -letters[n - 1 - k][1]:
            k += 1
        return CyclicWord(self[k:n - k]), self[:k]

    def find(self, pattern: "Word", start: int = 0) -> int:
        """Index of the first occurrence of pattern's letters, or -1."""
        pat = pattern.letters
        if not pat:
            return start if start <= len(self.letters) else -1
        for i in range(start, len(self.letters) - len(pat) + 1):
            if self.letters[i:i + len(pat)] == pat:
                return i
        return -1


class CyclicWord:
    """A cyclically reduced word considered up to rotation."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        letters = word.letters
        if letters and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
            raise WordError(f"not cyclically reduced: {word}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return f"CyclicWord({str(self.word)!r})"

    def __str__(self) -> str:
        return str(self.word)

    def rotation_of(self, other: Word) -> Optional[int]:
        """k such that self.word rotated left by k equals other, else None.

        A rotation of a cyclically reduced word is reduced, so it is the
        slice of the doubled letters at k, compared without building a word.
        """
        letters, target = self.word.letters, other.letters
        n = len(letters)
        if len(target) != n:
            return None
        if n == 0:
            return 0
        doubled = letters + letters
        for k in range(n):
            if doubled[k] == target[0] and doubled[k:k + n] == target:
                return k
        return None


def splice(*pieces: Word) -> Word:
    """The product of the words, reduced only at the seams between them."""
    return Word._reduced(_splice_letters(piece.letters for piece in pieces))


def rotation_witness(w: Word, relator: CyclicWord) -> Optional[dict]:
    """Witness that w is conjugate to a rotation of relator or its inverse.

    Sufficient (not necessary) for w to die in any group carrying the
    relator.  Returns {"inverted", "rotation", "conjugator"} or None.
    """
    core, conj = w.cyclic_reduce()
    if len(core) == 0 or len(core) != len(relator):
        return None
    k = relator.rotation_of(core.word)
    if k is not None:
        return {"inverted": False, "rotation": k, "conjugator": conj}
    k = CyclicWord(~relator.word).rotation_of(core.word)
    if k is not None:
        return {"inverted": True, "rotation": k, "conjugator": conj}
    return None


def palindrome_rotation(cyclic: CyclicWord) -> Optional[int]:
    """Smallest k with rotate-left-by-k equal to the letter reversal.

    Reversal reverses letter order only; each letter keeps its own sign,
    so the reversal of a cyclically reduced word is reduced.  Returns None
    when no rotation matches.
    """
    return cyclic.rotation_of(Word._reduced(cyclic.word.letters[::-1]))


# -- parsing -------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _token(token: str) -> tuple[str, int, int]:
    """The (name, sign, count) a token stands for.  Memoized: trace text
    repeats a few hundred tokens; a malformed token raises on every call."""
    m = _TOKEN_RE.match(token)
    if m is None:
        raise WordError(f"bad word token: {token!r}")
    name, exp_text = m.groups()
    upper = name[0].isupper()
    base = name[0].lower() + name[1:]
    if not is_generator_name(base):
        raise WordError(f"bad generator name in token: {token!r}")
    if exp_text is None:
        exp = -1 if upper else 1
    else:
        exp = int(exp_text)
        if exp == 0:
            raise WordError(f"zero exponent in token: {token!r}")
        if upper and exp > 0:
            raise WordError(f"ambiguous token {token!r}: uppercase with positive exponent")
    return base, 1 if exp > 0 else -1, _run(exp)


def _parse_token(token: str) -> tuple[Letter, ...]:
    """The run of equal letters a token stands for, a reduced letter tuple."""
    name, sign, count = _token(token)
    return ((name, sign),) * count


def parse_compact(text: str) -> Word:
    """Parse the compact single-letter form."""
    if text == "1":
        return Word()
    runs: list[tuple[Letter, ...]] = []
    pos = 0
    while pos < len(text):
        m = _COMPACT_RE.match(text, pos)
        if m is None:
            raise WordError(f"bad compact word at offset {pos}: {text!r}")
        runs.append(_parse_token(m.group(0)))
        pos = m.end()
    return Word._reduced(_splice_letters(runs))


def parse_word(text: str, compact: Optional[bool] = None) -> Word:
    """Parse either text form of a word.

    With compact=None the form is inferred: whitespace means tokenized,
    otherwise a string that parses as a single token is one token and
    anything else is treated as compact.
    """
    if not isinstance(text, str):
        raise WordError(f"word text must be a string, got {text!r}")
    text = text.strip()
    if not text:
        raise WordError("empty word text (the empty word is written '1')")
    if text == "1":
        return Word()
    if compact is True:
        return parse_compact(text)
    if any(ch.isspace() for ch in text):
        return Word._reduced(_splice_letters(map(_parse_token, text.split())))
    if compact is False or _TOKEN_RE.match(text):
        return Word._reduced(_parse_token(text))
    return parse_compact(text)

