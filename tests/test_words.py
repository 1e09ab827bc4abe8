import pytest
from hypothesis import example, given, settings, strategies as st

from pretzel_pi1.presentations import Insertion, Presentation, solve_for
from pretzel_pi1.words import (
    CyclicWord,
    Word,
    WordError,
    _reduce_letters,
    _token,
    palindrome_rotation,
    parse_compact,
    parse_word,
    parse_word as W,
    splice,
)

names = st.sampled_from(["a", "b", "c", "d", "e"])
letters = st.tuples(names, st.sampled_from([1, -1]))
words = st.lists(letters, max_size=30).map(Word)


def test_reduce_cancels_inverse_pair():
    assert W("c C") == Word()
    assert str(W("c C")) == "1"


def test_reduce_cascades():
    assert W("c l C c L") == W("c")


def test_reduce_keeps_reduced_word():
    relator = W("clcLCLLLCLclcll")
    assert Word(relator.letters) == relator
    assert len(relator) == 15


def test_invert_examples():
    assert ~Word() == Word()
    assert ~W("c l") == W("L C")
    lprime3 = W("c^-4 l c l^3 c l^3 c l c^-15")
    assert ~lprime3 == W("c^15 L C L^-3 C L^-3 C L c^4")


def test_mul_and_pow():
    assert splice(W("c"), W("C l")) == W("l")
    assert W("c l") ** 2 == W("c l c l")
    assert W("c") ** -3 == W("c^-3")
    assert W("c l") ** 0 == Word()


def test_cyclic_reduce():
    core, conj = W("c l C").cyclic_reduce()
    assert core.word == W("l")
    assert conj == W("c")
    core2, conj2 = W("c l").cyclic_reduce()
    assert core2.word == W("c l") and conj2 == Word()
    # conjugation identity
    w = W("c l C c L C")
    core3, conj3 = w.cyclic_reduce()
    assert splice(conj3, core3.word, ~conj3) == w


def test_step12_relator_rotates_to_final_form():
    # the pre-rotation relator and the final relator agree cyclically
    g12 = W("c L^-3 C L c l c l^2 c l c L c^-2")
    final = W("clcLCL^-3CLclcl^2")
    core, _ = g12.cyclic_reduce()
    assert CyclicWord(final).rotation_of(core.word) is not None


def test_substitute_reproduces_r1_and_r2():
    r1 = W("f0 A").substitute("f0", W("F1 f2 f1"))
    assert r1 == W("F1 f2 f1 A")
    r2 = r1.substitute("f1", W("F2 f3 f2"))
    assert r2 == W("F2 F3 f2 f3 f2 A")


def test_substitute_identity():
    w = W("c l C l")
    assert w.substitute("l", W("l")) == w


def exponent_sum(word, name):
    """The oracle: the signed count of name's letters in word."""
    return sum(sign for gen, sign in word.letters if gen == name)


def test_exponent_sums_on_relator_and_longitude():
    for s in range(3, 13):
        relator = splice(W("c l c L C"), W("l") ** -s, W("C L c l c"), W("l") ** (s - 1))
        assert exponent_sum(relator, "c") == 2
        assert exponent_sum(relator, "l") == -1
        longitude = splice(W("c") ** -(2 * s - 2), W("l c"), W("l") ** s, W("c"),
                           W("l") ** s, W("c l"), W("c") ** -(2 * s + 9))
        assert exponent_sum(longitude, "c") == -4 * s - 4
        assert exponent_sum(longitude, "l") == 2 * s + 2
    assert exponent_sum(Word(), "g") == 0


def test_palindrome_rotation_examples():
    rel3 = CyclicWord(W("clcLCLLLCLclcll"))
    assert palindrome_rotation(rel3) == 13
    assert palindrome_rotation(CyclicWord(W("c l C L"))) is None
    assert palindrome_rotation(CyclicWord(W("c"))) == 0


def test_parse_tokenized_and_compact_agree():
    assert W("c l c L C L^-3 C L c l c l^2") == W("clcLCL^-3CLclcl^2")
    assert parse_compact("clcLCLLLCLclcll") == W("clcLCL^-3CLclcl^2")
    assert parse_word("1") == Word()
    assert parse_word("f12^-2") == Word((("f12", -1), ("f12", -1)))
    assert parse_word("F1") == Word((("f1", -1),))


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("c^0")
    with pytest.raises(WordError):
        parse_word("L^2")  # uppercase with positive exponent is ambiguous
    with pytest.raises(WordError):
        parse_word("3c")
    with pytest.raises(WordError):
        parse_compact("f12")


def test_rendering_round_trips():
    w = W("c^-4 l c l^3 c l^3 c l c^-15")
    assert parse_word(w.tokens()) == w
    assert parse_word(w.compact()) == w
    assert W("clcLCL^-3CLclcl^2").compact() == "clcLCL^-3CLclcl^2"
    assert Word().tokens() == "1" and Word().compact() == "1"


def test_compact_requires_single_letter_names():
    with pytest.raises(WordError):
        W("f1 a").compact()


@given(words)
def test_reduce_idempotent(w):
    assert Word(w.letters) == w


@given(words)
def test_word_times_inverse_is_trivial(w):
    assert splice(w, ~w) == Word()
    assert splice(~w, w) == Word()


@given(words)
def test_invert_is_involution(w):
    assert ~~w == w


@given(words, st.integers(min_value=0, max_value=5))
def test_negative_powers_are_inverse_powers(w, n):
    assert w ** -n == ~(w ** n)
    assert splice(w ** n, w ** -n) == Word()


@given(words, words, names)
def test_exponent_sum_additive(u, v, g):
    assert exponent_sum(splice(u, v), g) == exponent_sum(u, g) + exponent_sum(v, g)


@given(st.lists(letters, max_size=30), names, words)
def test_substitute_commutes_with_reduction(raw, g, r):
    unreduced = list(raw)
    # substitute on the raw sequence, then reduce
    direct = []
    inv = ~r
    for name, sign in unreduced:
        if name == g:
            direct.extend(r.letters if sign > 0 else inv.letters)
        else:
            direct.append((name, sign))
    assert Word(direct) == Word(unreduced).substitute(g, r)


@given(words)
def test_parse_round_trips_random_words(w):
    assert parse_word(w.tokens()) == w
    assert parse_word(w.compact(), compact=True) == w
    assert parse_compact(w.compact()) == w


def test_auto_detection_prefers_the_token_reading():
    # "ab" is a valid generator name, so without whitespace or case cues the
    # tokenized reading wins; the compact flag forces the other one
    assert parse_word("ab") == Word((("ab", 1),))
    assert parse_word("ab", compact=True) == W("a b")
    # any uppercase or exponent disambiguates on its own
    assert parse_word("aB") == Word((("a", 1), ("b", -1)))


# -- the token memo -------------------------------------------------------------

# well-formed tokens over a few names, and strings that are not tokens
tokens = st.one_of(
    st.builds(lambda name, exp: name if exp is None else f"{name}^{exp}",
              st.sampled_from(["a", "A", "b", "B", "f12", "F12"]),
              st.one_of(st.none(), st.integers(-4, 4))),
    st.text(alphabet="aB1^-0x9", min_size=1, max_size=4))


def parse_unmemoized(text):
    """The tokenized grammar token by token, without the memo."""
    if text == "1":
        return Word()
    letters = []
    for token in text.split():
        name, sign, count = _token.__wrapped__(token)
        letters += [(name, sign)] * count
    return Word(letters)


def outcome(parse, text):
    try:
        return parse(text)
    except WordError as exc:
        return str(exc)


@given(st.lists(tokens, min_size=1, max_size=8))
def test_parse_word_matches_the_unmemoized_parser(parts):
    text = " ".join(parts)
    expected = outcome(parse_unmemoized, text)
    assert outcome(lambda t: parse_word(t, compact=False), text) == expected
    if len(parts) > 1:
        assert outcome(parse_word, text) == expected


def test_a_malformed_token_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(WordError, match="zero exponent"):
            parse_word("a c^0")
        with pytest.raises(WordError, match="ambiguous"):
            parse_word("L^2")


def test_the_token_memo_holds_counts_not_letters():
    assert len(parse_word("c^1000000")) == 1000000
    hits = _token.cache_info().hits
    assert _token("c^1000000") == ("c", 1, 1000000)
    assert _token.cache_info().hits == hits + 1
    assert _token("C^-7") == ("c", -1, 7) and _token("F12") == ("f12", -1, 1)


@given(words)
def test_cyclic_reduce_invariants(w):
    core, conj = w.cyclic_reduce()
    assert splice(conj, core.word, ~conj) == w
    letters = core.word.letters
    if letters:
        assert not (letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1])


# -- the paths that skip or localize reduction, against the letter reducer ----
#
# Three generators make seams cancel often.  _reduce_letters is the oracle:
# each path must give what reducing the whole raw letter sequence gives.

names3 = st.sampled_from(["a", "b", "c"])
letter3 = st.tuples(names3, st.sampled_from([1, -1]))
raw3 = st.lists(letter3, max_size=24)
words3 = raw3.map(Word)
cyclic3 = words3.map(lambda w: w.cyclic_reduce()[0])


def inverse_letters(letters):
    return tuple((name, -sign) for name, sign in reversed(letters))


def is_reduced(w):
    return _reduce_letters(w.letters) == w.letters


def rotation_by_rotating(cyclic, other):
    """The rotate-and-compare loop that rotation_of replaced."""
    if len(other) != len(cyclic.word):
        return None
    for k in range(max(1, len(cyclic.word))):
        if cyclic.word.rotated(k) == other:
            return k
    return None


def reference_reduce(letters):
    """The plain stack reducer that _reduce_letters, the oracle above, must
    agree with: it builds a new tuple per letter and has no bottom letter."""
    stack: list[tuple[str, int]] = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


# Long runs of one letter, nested u U cancellations and plain letters, cut at 200.
raw_pieces = st.one_of(
    st.builds(lambda letter, n: [letter] * n, letter3, st.integers(1, 40)),
    raw3.map(lambda raw: raw + list(inverse_letters(raw))),
    raw3)
raw_long = st.lists(raw_pieces, max_size=12).map(lambda pieces: sum(pieces, [])[:200])


@example([("a", 1)] * 30 + [("b", 1), ("b", -1)] + [("a", -1)] * 30)
@given(raw_long)
def test_reducer_matches_the_reference(raw):
    assert _reduce_letters(raw) == reference_reduce(raw)


@example(W("a b A c^5"))
@given(raw_long.map(Word))
def test_reducing_a_reduced_tuple_keeps_its_letter_objects(w):
    out = _reduce_letters(w.letters)
    assert out == w.letters and all(a is b for a, b in zip(out, w.letters))


@given(words3, st.data())
def test_rotated_matches_the_reference(w, data):
    n = len(w)
    k = data.draw(st.integers(min_value=-2 * n, max_value=2 * n))
    i = k % (n or 1)
    assert w.rotated(k).letters == reference_reduce(w.letters[i:] + w.letters[:i])
    assert Word().rotated(k) == Word()


@given(st.lists(words3, max_size=5))
def test_splice_matches_the_reducer(pieces):
    joined = splice(*pieces)
    assert joined.letters == _reduce_letters(sum((w.letters for w in pieces), ()))


@given(words3, names3, words3)
def test_substitute_matches_the_reducer(w, g, r):
    raw = []
    for name, sign in w.letters:
        raw.extend((r.letters if sign > 0 else inverse_letters(r.letters)) if name == g
                   else [(name, sign)])
    out = w.substitute(g, r)
    assert out.letters == _reduce_letters(raw)
    assert g in r.generators() or g not in out.generators()


@given(words3, words3, words3, st.booleans(), st.data())
def test_insertion_matches_the_reducer(w, r, conj, inverted, data):
    p = Presentation(("a", "b", "c"), (("r", r),))
    pos = data.draw(st.integers(min_value=0, max_value=len(w)))
    inserted = inverse_letters(r.letters) if inverted else r.letters
    raw = w.letters[:pos] + conj.letters + inserted + inverse_letters(conj.letters) + w.letters[pos:]
    assert Insertion("r", inverted, conj, pos).perform(w, p).letters == _reduce_letters(raw)


@given(words3)
def test_invert_and_cyclic_reduce_build_reduced_words(w):
    inv = ~w
    assert inv.letters == _reduce_letters(inverse_letters(w.letters)) and is_reduced(inv)
    core, conj = w.cyclic_reduce()
    assert is_reduced(core.word) and is_reduced(conj)
    assert _reduce_letters(conj.letters + core.word.letters + inverse_letters(conj.letters)) \
        == w.letters


@given(raw3, raw3, names3, st.sampled_from([1, -1]))
def test_solve_for_matches_the_reducer(u_raw, v_raw, g, sign):
    u = [(name, s) for name, s in u_raw if name != g]
    v = [(name, s) for name, s in v_raw if name != g]
    relator = Word(u + [(g, sign)] + v)  # the one g cannot cancel
    i = next(j for j, (name, _) in enumerate(relator.letters) if name == g)
    before, after = relator.letters[:i], relator.letters[i + 1:]
    expected = (inverse_letters(before) + inverse_letters(after) if sign > 0
                else after + before)
    solved = solve_for(relator, g)
    assert solved.letters == _reduce_letters(expected) and is_reduced(solved)


def palindrome_by_rotating(cyclic):
    """The rotate-and-compare loop that palindrome_rotation replaced."""
    letters = cyclic.word.letters
    n = len(letters)
    if n == 0:
        return 0
    rev = tuple(reversed(letters))
    for k in range(n):
        if letters[k:] + letters[:k] == rev:
            return k
    return None


@st.composite
def cyclic_words(draw):
    """Cyclic words over 2 or 3 letters; half are rotations of a palindrome,
    whose cyclic core stays a palindrome, so they have a palindromic rotation."""
    letter = st.tuples(st.sampled_from(draw(st.sampled_from([("a", "b"), ("a", "b", "c")]))),
                       st.sampled_from([1, -1]))
    raw = draw(st.lists(letter, max_size=16))
    if draw(st.booleans()):
        raw = raw + draw(st.lists(letter, max_size=1)) + raw[::-1]
    core = Word(raw).cyclic_reduce()[0].word
    return CyclicWord(core.rotated(draw(st.integers(0, max(0, len(core) - 1)))))


@settings(max_examples=300)
@example(CyclicWord(Word()))
@example(CyclicWord(W("a b A B")))
@given(cyclic_words())
def test_palindrome_rotation_matches_rotating(cyclic):
    assert palindrome_rotation(cyclic) == palindrome_by_rotating(cyclic)


@given(cyclic3, st.data())
def test_rotation_of_matches_rotating(cyclic, data):
    letters = cyclic.word.letters
    k = data.draw(st.integers(min_value=0, max_value=max(0, len(letters) - 1)))
    candidates = [Word(letters[k:] + letters[:k]), ~cyclic.word, data.draw(words3)]
    for other in candidates:
        assert cyclic.rotation_of(other) == rotation_by_rotating(cyclic, other)
    inverse = CyclicWord(~cyclic.word)
    for other in candidates:
        assert inverse.rotation_of(other) == rotation_by_rotating(inverse, other)


def test_slices_keep_step_one():
    w = W("a b A")
    assert w[1:] == W("b A") and w[:0] == Word()
    with pytest.raises(TypeError):
        w[::2]
    with pytest.raises(TypeError):
        w[0]


# -- runs spliced, against the letter reducer -----------------------------------

syllables3 = st.lists(st.tuples(names3, st.integers(-3, 3)), max_size=10)


def run_letters(syllables):
    """The letters of the runs name^exp one by one, unreduced."""
    return [(name, 1 if exp > 0 else -1) for name, exp in syllables for _ in range(abs(exp))]


def tokenized(syllables):
    return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in syllables)


def compact(syllables):
    return "".join(name if exp == 1 else name.upper() if exp == -1 else f"{name}^{exp}"
                   for name, exp in syllables)


@given(syllables3)
def test_from_syllables_matches_the_reducer(syllables):
    assert Word.from_syllables(syllables).letters == _reduce_letters(run_letters(syllables))


@given(syllables3.filter(bool))
def test_parsers_match_the_reducer(syllables):
    expected = _reduce_letters(run_letters(syllables))
    parses = (lambda: parse_word(tokenized(syllables), compact=False),
              lambda: parse_word(compact(syllables), compact=True),
              lambda: parse_compact(compact(syllables)))
    for parse in parses:
        if any(exp == 0 for _, exp in syllables):
            with pytest.raises(WordError, match="zero exponent"):
                parse()
        else:
            assert parse().letters == expected


def test_runs_cancel_across_their_seams():
    s = 5
    assert Word.from_syllables([("l", s), ("l", -1)]) == Word.from_syllables([("l", s - 1)])
    assert Word.from_syllables([("c", 1), ("l", 2), ("c", 0), ("l", -2), ("c", -1)]) == Word()
    assert Word.from_syllables([]) == Word() == Word.from_syllables([("c", 0)])
    assert parse_word("c C") == Word() == parse_compact("cC")
    assert parse_word("c^2 c^-3") == W("C") == parse_compact("c^2c^-3")
    assert parse_word("a c l^2 L^-1 l^-1 C A") == Word()
