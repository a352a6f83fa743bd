"""Words, rewriting moves, normal forms, and the equivalence-class oracle."""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
from functools import lru_cache

import pytest

from cactuskit import (
    BudgetExceeded,
    IndexOutOfRange,
    InvalidPair,
    NormalForm,
    RelationKind,
    SpecMismatch,
    Word,
    affine,
    cactus,
    classify,
    conjugate_nested,
    equal,
    free_reduce,
    generators,
    identity,
    is_normal,
    normalize,
    oracle_closure,
    parse_word,
    random_word,
)
from cactuskit.core import (
    _REL_DISJOINT,
    _REL_FIRST,
    _REL_SECOND,
    Family,
    Generator,
    GroupSpec,
    interval_of,
    presentation,
)
from cactuskit import rewriting
from cactuskit.cayley import ball
from cactuskit.rewriting import _geodesic, _successors_all


def w(spec, text):
    return parse_word(spec, text)


# ---------------------------------------------------------------------------
# word plumbing
# ---------------------------------------------------------------------------


def test_parse_and_text_round_trip():
    spec = affine(4)
    for text in ("1,2", "1,2;3,4", "4,1;2,3;1,4", "e", ""):
        word = w(spec, text)
        want = text if text not in ("", "e") else "e"
        assert word.text() == want
        assert parse_word(spec, word.text()).pairs() == word.pairs()


def test_identity_word():
    e = identity(affine(3))
    assert len(e) == 0
    assert e.text() == "e"
    assert e == w(affine(3), "")
    assert normalize(e).text() == "e"


def test_from_pairs_and_pairs():
    spec = cactus(4)
    word = Word.from_pairs(spec, [(1, 2), (2, 4)])
    assert word.pairs() == ((1, 2), (2, 4))
    assert len(word) == 2


def test_word_spec_consistency():
    g = generators(affine(3))[0]
    with pytest.raises(SpecMismatch):
        Word(affine(4), (g,))


def test_equal_but_distinct_spec_object_works_alike():
    """A spec equal to the presentation's, but another object, passes every check."""
    canon = presentation(affine(4)).spec
    fresh = GroupSpec(Family.AFFINE, 4)
    assert fresh == canon and fresh is not canon
    word = Word.from_pairs(fresh, [(3, 4), (1, 2), (1, 3), (2, 4), (4, 1), (1, 2)])
    assert all(g.spec is fresh for g in word.letters)
    same = parse_word(fresh, word.text())
    assert same.spec is canon and all(g.spec is canon for g in same.letters)
    assert word == same and hash(word) == hash(same)
    assert presentation(fresh).ids(word.letters) == presentation(canon).ids(same.letters)
    nf = normalize(word)
    assert nf.spec is canon and all(g.spec is canon for g in nf.letters)
    assert nf.letters == normalize(same).letters
    assert equal(word, same) and equal(same, word)
    # every word the module builds is on the presentation's own spec object
    assert random_word(fresh, 5, 1).spec is canon
    assert all(x.spec is canon for x in oracle_closure(word))


def test_one_element_from_every_edge():
    """parse_word on the canonical spelling and on other spellings,
    Word(spec, letters) and Word.from_pairs on a fresh equal spec build one
    word: equal, hashed alike, with the same ids and the same answers."""
    spec = presentation(affine(4)).spec
    fresh = GroupSpec(Family.AFFINE, 4)
    words = [
        parse_word(spec, "1,2;2,3"),
        parse_word(spec, "01,2;2,3"),
        parse_word(spec, " 1,2 ;2,3"),
        Word(spec, (Generator(1, 2, spec), Generator(2, 3, spec))),
        Word.from_pairs(fresh, [(1, 2), (2, 3)]),
    ]
    ref = words[0]
    other = w(spec, "2,3;4,1;1,2")
    for x in words:
        assert x == ref and hash(x) == hash(ref)
        assert x.ids == ref.ids and x.pairs() == ((1, 2), (2, 3))
        assert [(g.p, g.q) for g in x.letters] == [(1, 2), (2, 3)]
        assert x.text() == "1,2;2,3"
        assert normalize(x) == normalize(ref)
        assert normalize(x).text() == normalize(ref).text()
        assert is_normal(x) == is_normal(ref)
        assert equal(x, other) == equal(ref, other)
        for y in words:
            assert equal(x, y)
    # the malformed spellings keep their error classes
    for bad in ("1,2;;2,3", "1,1", "1,2,3", "a,b"):
        with pytest.raises(InvalidPair):
            parse_word(spec, bad)
    with pytest.raises(InvalidPair):
        parse_word(cactus(4), "2,1")
    with pytest.raises(IndexOutOfRange):
        parse_word(spec, "5,1")
    with pytest.raises(SpecMismatch):
        Word(spec, (Generator(1, 2, spec), generators(affine(3))[0]))


# (spec, text, ids or (exception class, message)), as first recorded
_PARSE_PINNED = [
    (cactus(3), "1,2;2,3;1,3;1,2", (0, 2, 1, 0)),
    (affine(3), "3,1;1,3;2,1;3,2", (4, 1, 2, 5)),
    (cactus(9), "1,9;8,9;2,7;1,2", (7, 35, 12, 0)),
    (affine(9), "9,1;1,9;5,4;2,3", (64, 7, 35, 9)),
    (cactus(10), "1,10;9,10;2,3", (8, 44, 9)),
    (affine(17), "17,1;1,17;5,12;12,5", (256, 15, 74, 180)),
    (affine(4), "e", ()),
    (affine(4), "", ()),
    (affine(4), "  4,1;2,3\n", (9, 4)),
    (affine(4), " 1,2", (0,)),
    (affine(4), "01,2", (0,)),
    (affine(4), "1,2;", (InvalidPair, "expected 'p,q', got ''")),
    (affine(4), ";1,2", (InvalidPair, "expected 'p,q', got ''")),
    (affine(4), "1,,2", (InvalidPair, "expected 'p,q', got '1,,2'")),
    (cactus(4), "2,1", (InvalidPair, "cactus generators need p < q, got (2,1)")),
    (cactus(4), "1,2;2,1", (InvalidPair, "cactus generators need p < q, got (2,1)")),
    (affine(9), "7,7", (InvalidPair, "generator indices must differ")),
    (cactus(5), "7,7", (IndexOutOfRange, "indices (7,7) outside 1..5")),
    (affine(4), "0,1", (IndexOutOfRange, "indices (0,1) outside 1..4")),
    (cactus(4), "1,4;1,0", (IndexOutOfRange, "indices (1,0) outside 1..4")),
    (affine(4), "１,２", (0,)),  # fullwidth digits: int() reads them
    (affine(4), "1,2;x,3", (InvalidPair, "expected integers in 'x,3'")),
    (affine(4), "1,2; ,3", (InvalidPair, "expected integers in ' ,3'")),
    (affine(4), "1,2; 2,3", (0, 4)),
    # the canonical length, framed wrongly
    (affine(4), "1;2,2,3", (InvalidPair, "expected 'p,q', got '1'")),
    (affine(4), "1,2,3;4", (InvalidPair, "expected 'p,q', got '1,2,3'")),
    (affine(4), "1,2;3;4", (InvalidPair, "expected 'p,q', got '3'")),
    (affine(4), "1,2;3,4,", (InvalidPair, "expected 'p,q', got '3,4,'")),
    (cactus(4), "3,3;1,2", (InvalidPair, "generator indices must differ")),
    # four U+0000 in a frame's place: the codecs map each pair of them to byte 0
    (affine(4), "\0\0\0\x001,2", (InvalidPair, r"expected integers in '\x00\x00\x00\x001,2'")),
    (affine(4), "1,2;\0\0\0\x002,3", (InvalidPair, r"expected integers in '\x00\x00\x00\x002,3'")),
]


@pytest.mark.parametrize("spec, text, want", _PARSE_PINNED)
def test_parse_word_is_pinned(spec, text, want):
    """parse_word's ids, or its error class and message, on canonical words
    at n = 3, 9, 10 and 17 and on other and malformed spellings."""
    if want and isinstance(want[0], type):
        with pytest.raises(want[0]) as err:
            parse_word(spec, text)
        assert type(err.value) is want[0] and str(err.value) == want[1]
    else:
        assert parse_word(spec, text).ids == want


def test_words_pickle_and_copy_onto_the_cached_presentation():
    """A word keeps its presentation; a pickled or deep-copied word is an
    equal word of the same class, on the presentation cached for its spec."""
    for spec in (affine(4), cactus(5)):
        x = random_word(spec, 9, 3)
        for word in (x, normalize(x), Word(spec, x.letters)):
            for dup in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word), copy.copy(word)):
                assert type(dup) is type(word) and dup == word and hash(dup) == hash(word)
                assert dup._pres is presentation(spec) and dup.text() == word.text()
                assert normalize(dup) == normalize(word) and equal(dup, word)


def test_letter_of_another_spec_is_rejected():
    """The identity test is only a fast path: a foreign letter still fails both checks."""
    pres = presentation(affine(4))
    # (1, 2) is also a pair of AJ_4, so only the spec check can catch these
    for g in (generators(affine(3))[0], Generator(1, 2, cactus(4))):
        with pytest.raises(SpecMismatch):
            Word(pres.spec, (g,))
        with pytest.raises(SpecMismatch):
            Word(pres.spec, (pres.gens[0], g))
        with pytest.raises(SpecMismatch):
            pres.ids([pres.gens[0], g])
        with pytest.raises(SpecMismatch):
            pres.id_of(g)
    with pytest.raises(SpecMismatch):
        equal(w(affine(4), "1,2"), w(affine(3), "1,2"))


# ---------------------------------------------------------------------------
# free reduction
# ---------------------------------------------------------------------------


def test_free_reduce_adjacent_involution():
    spec = affine(3)
    assert free_reduce(w(spec, "1,2;1,2")).text() == "e"
    assert free_reduce(w(spec, "1,3;1,2;1,2;2,3")).text() == "1,3;2,3"


def test_free_reduce_cascades():
    spec = affine(3)
    assert free_reduce(w(spec, "1,2;2,3;2,3;1,2")).text() == "e"


def test_free_reduce_keeps_separated_repeats():
    spec = affine(3)
    assert free_reduce(w(spec, "1,2;2,3;1,2")).text() == "1,2;2,3;1,2"


# ---------------------------------------------------------------------------
# the move inventory
# ---------------------------------------------------------------------------


def moves(word):
    """The length-2 relation moves on a word, from rewriting._successors_all.

    One (kind, position, result, raises) per move: position is the first
    letter the move changes; kind follows from the pair there: "cancel",
    "swap" (disjoint), "flip-left" (the right letter contains the left one,
    so the longer interval moves left) or "flip-right"; raises means the
    result is kappa-shortlex smaller, i.e. the move is a rule of R_2.
    """
    pres = presentation(word.spec)
    ids = tuple(pres.ids(word.letters))
    kind_of = {_REL_DISJOINT: "swap", _REL_FIRST: "flip-right", _REL_SECOND: "flip-left"}

    def order_key(u):
        return (len(u), [pres.kappa[x] for x in u])

    out = []
    for res in _successors_all(ids, pres):
        i = next(k for k in range(len(ids)) if res[k : k + 1] != ids[k : k + 1])
        a, b = ids[i], ids[i + 1]
        kind = "cancel" if a == b else kind_of[pres.rel[a * pres.G + b]]
        out.append((kind, i, Word(word.spec, pres.letters(res)), order_key(res) < order_key(ids)))
    return out


def test_moves_on_involution_pair():
    spec = affine(3)
    ((kind, position, result, raises),) = moves(w(spec, "1,2;1,2"))
    assert kind == "cancel"
    assert position == 0
    assert result.text() == "e"
    assert raises


def test_moves_on_disjoint_pair():
    spec = affine(5)
    ((kind, _, result, raises),) = moves(w(spec, "3,4;1,2"))
    assert kind == "swap"
    assert result.text() == "1,2;3,4"
    assert raises
    # and the swap back is the non-raising direction
    ((kind, _, back, raises),) = moves(result)
    assert kind == "swap"
    assert back.text() == "3,4;1,2"
    assert not raises


def test_moves_on_nested_pair():
    spec = affine(3)
    ((kind, _, result, raises),) = moves(w(spec, "1,3;1,2"))
    assert kind == "flip-right"
    assert result.text() == "2,3;1,3"
    assert not raises
    ((kind, _, result, raises),) = moves(w(spec, "1,2;1,3"))
    assert kind == "flip-left"
    assert result.text() == "1,3;2,3"
    assert raises
    # each flip is undone by the flip in the other direction
    assert [m[2].text() for m in moves(w(spec, "2,3;1,3"))] == ["1,3;1,2"]
    assert [m[2].text() for m in moves(w(spec, "1,3;2,3"))] == ["1,2;1,3"]


def test_moves_every_result_is_same_element():
    """Each listed move rewrites to a word equal in the group."""
    spec = affine(4)
    for seed in range(8):
        word = random_word(spec, 5, seed)
        cls = oracle_closure(word)
        for _, _, result, _ in moves(word):
            assert result in cls


def test_no_moves_on_short_words():
    spec = affine(3)
    assert moves(identity(spec)) == []
    assert moves(w(spec, "1,2")) == []


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_returns_normal_form():
    spec = affine(3)
    nf = normalize(w(spec, "1,2;1,3"))
    assert isinstance(nf, NormalForm)
    assert isinstance(nf, Word)
    assert is_normal(nf)
    # certified and plain words with the same letters are the same value
    assert nf == w(spec, nf.text())
    assert hash(nf) == hash(w(spec, nf.text()))


def test_normalize_pinned_examples():
    # inner-past-outer flip plus a commuting swap land in one canonical order
    assert normalize(w(affine(4), "1,2;3,4;1,4")).text() == "1,4;1,2;3,4"
    # nested flip: the outer interval moves to the front
    assert normalize(w(affine(3), "1,2;1,3")).text() == "1,3;2,3"
    # involution collapses
    assert normalize(w(affine(3), "2,3;1,2;1,2;2,3")).text() == "e"
    # disjoint letters sort by priority: longer interval first
    assert normalize(w(affine(5), "1,2;3,5")).text() == "3,5;1,2"
    # equal length, then smaller start index first
    assert normalize(w(affine(5), "3,4;1,2")).text() == "1,2;3,4"


def test_normalize_idempotent_and_sound():
    spec = affine(4)
    for seed in range(12):
        word = random_word(spec, 6, seed)
        nf = normalize(word)
        assert normalize(nf).pairs() == nf.pairs()
        assert is_normal(nf)
        assert len(nf) <= len(word)
        # soundness: the fixpoint lies in the length-capped class of the input
        assert nf in oracle_closure(word)


def test_is_normal():
    spec = affine(5)
    assert is_normal(w(spec, "1,2;3,4"))
    assert not is_normal(w(spec, "3,4;1,2"))
    assert not is_normal(w(spec, "1,2;1,2"))
    assert is_normal(identity(spec))


def test_equal_basic():
    spec = affine(3)
    assert equal(w(spec, "1,2;1,3"), w(spec, "1,3;2,3"))
    assert equal(w(spec, "1,2;1,2"), identity(spec))
    assert not equal(w(spec, "1,2"), w(spec, "2,3"))
    # the shared last letter is cut; the rest reduces to e
    assert equal(w(spec, "1,2;1,2;1,3"), w(spec, "1,3"))
    assert equal(w(spec, "1,3"), w(spec, "1,2;1,2;1,3"))
    assert equal(w(spec, "1,3;1,2;1,2"), w(spec, "1,3"))
    assert not equal(w(spec, "1,2;2,3;3,1;1,2"), w(spec, "1,2;1,2"))
    with pytest.raises(SpecMismatch):
        equal(w(affine(3), "1,2"), w(cactus(3), "1,2"))
    with pytest.raises(SpecMismatch):  # an odd total is still two groups
        equal(w(affine(3), "1,2"), w(cactus(3), "1,2;2,3"))


def test_equal_answers_an_odd_total_without_reducing():
    """Every relator has even length, so an odd |u| + |v| is False at once:
    the descent table is left at the empty word's state.  u against itself
    leaves it there too, the two sharing every letter; u against g g u h h,
    whose first and last letters differ from u's, must fill it."""
    for spec in (affine(4), cactus(5)):
        pres = presentation(spec)
        u, v = random_word(spec, 9, 1), random_word(spec, 12, 2)
        pres.reset_states()
        assert not equal(u, v) and not equal(v, u)
        assert not equal(u, identity(spec)) and not equal(identity(spec), u)
        assert equal(u, u)
        assert pres.state_of == {0: pres.root} and pres.root == [None] * pres.G + [-1, 0], spec
        g, h = (u.ids[0] + 1) % pres.G, (u.ids[-1] + 1) % pres.G
        assert equal(u, Word._of(pres, (g, g) + u.ids + (h, h))) and len(pres.state_of) > 1


# ---------------------------------------------------------------------------
# the equivalence-class oracle
# ---------------------------------------------------------------------------


def test_closure_of_identity_and_single_letters():
    spec = affine(3)
    assert oracle_closure(identity(spec)) == frozenset({identity(spec)})
    word = w(spec, "1,2")
    assert oracle_closure(word) == frozenset({word})


def test_closure_of_cancelling_pair():
    spec = affine(3)
    cls = {u.text() for u in oracle_closure(w(spec, "1,2;1,2"))}
    assert cls == {"1,2;1,2", "e"}


def test_closure_of_commuting_pair():
    spec = affine(5)
    cls = {u.text() for u in oracle_closure(w(spec, "1,2;3,4"))}
    assert cls == {"1,2;3,4", "3,4;1,2"}


def test_closure_budget():
    spec = affine(4)
    word = w(spec, "3,4;1,2;1,3")
    with pytest.raises(BudgetExceeded):
        oracle_closure(word, budget=2)
    assert len(oracle_closure(word, budget=3)) == 3


# ---------------------------------------------------------------------------
# normal forms against the relation-move closure
# ---------------------------------------------------------------------------


def least_shortest(cls):
    """The kappa-shortlex-least shortest word of a set of words."""
    pres = presentation(next(iter(cls)).spec)
    short = min(map(len, cls))
    return min(
        (x for x in cls if len(x) == short),
        key=lambda x: [pres.kappa[i] for i in pres.ids(x.letters)],
    )


def test_sinks_of_identity():
    """The identity is the one normal form of every word that cancels away."""
    spec = affine(3)
    e = identity(spec)
    pres = presentation(spec)
    assert normalize(e) == e and is_normal(e) and equal(e, e)
    assert oracle_closure(e) == frozenset({e})
    assert _geodesic(pres, []) == ([], [pres.root])  # the empty word has no descent
    for g in generators(spec):
        gg = Word(spec, (g, g))
        assert normalize(gg) == e and not is_normal(gg)
        assert equal(gg, e) and equal(e, gg)
        assert normalize(Word(spec, (g,))).letters == (g,)


def test_small_affine_group_is_strategy_independent():
    """Every word of the degree-3 affine group up to length 3 normalizes to the
    least shortest word of its relation-move class, as every member does."""
    spec = affine(3)
    gens = generators(spec)
    for length in range(4):
        for combo in itertools.product(gens, repeat=length):
            cls = oracle_closure(Word(spec, combo))
            assert {normalize(x) for x in cls} == {least_shortest(cls)}


def test_priority_rewriting_is_not_confluent_at_degree_four():
    """The frozen minimal witness: one degree-4 word with two length-2 fixpoints.

    The presentation's length-2 priority moves alone stick it at two distinct
    sinks of the same group element, so those moves are not confluent.  The
    descent normal form is the least word of the class, ``1,2;3,4;1,3``, and
    the whole length-capped class shares it.
    """
    for spec in (cactus(4), affine(4)):
        word = w(spec, "3,4;1,2;1,3")
        # sinks of the length-2 raising moves alone, from _successors_all
        seen, todo, priority_sinks = {word}, [word], set()
        while todo:
            u = todo.pop()
            raised = [result for _, _, result, raises in moves(u) if raises]
            if not raised:
                priority_sinks.add(u.text())
            for r in raised:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        assert priority_sinks == {"1,2;3,4;1,3", "3,4;1,3;2,3"}
        assert normalize(word).text() == "1,2;3,4;1,3"
        assert is_normal(w(spec, "1,2;3,4;1,3"))
        assert not is_normal(w(spec, "3,4;1,3;2,3"))
        # the full length-capped class: input plus the two length-2 sinks ...
        cls = oracle_closure(word)
        assert {u.text() for u in cls} == {"3,4;1,2;1,3", "1,2;3,4;1,3", "3,4;1,3;2,3"}
        # ... and it now shares one normal form
        assert {normalize(u).text() for u in cls} == {"1,2;3,4;1,3"}


# ---------------------------------------------------------------------------
# the descent engine
# ---------------------------------------------------------------------------


def test_normalize_ignores_what_ran_before():
    """normalize(w) is a pure function of w, whatever the state table held."""
    spec = affine(4)
    words = [random_word(spec, length, seed) for length in (2, 3, 4, 7) for seed in range(6)]
    presentation(spec).reset_states()
    short_first = [normalize(x).text() for x in words]
    presentation(spec).reset_states()
    long_first = [normalize(x).text() for x in reversed(words)][::-1]
    assert short_first == long_first
    for x, nf in zip(words, short_first):
        assert normalize(w(spec, nf)).text() == nf
        assert is_normal(w(spec, nf))


def _spans_square(pres, a, b):
    return a != b and pres.rel[a * pres.G + b] != 0


@pytest.mark.parametrize("spec", [affine(3), cactus(4), affine(4), cactus(5)])
def test_completion_resolves_every_critical_pair(spec):
    """Every critical pair of the length-2 relation moves is resolved by the descent.

    A critical pair is a word of length 3 on which moves at positions 0 and 1
    overlap: both results, and the word itself, reduce to one normal form,
    which is kappa-shortlex no larger than any of them, and equal() pairs
    them up.
    """
    pres = presentation(spec)
    kappa = pres.kappa

    def order_key(u):
        return (len(u), [kappa[x] for x in u])

    pairs = 0
    for ids in itertools.product(range(pres.G), repeat=3):
        results = list(_successors_all(ids, pres))
        firsts = {next(k for k in range(3) if r[k : k + 1] != ids[k : k + 1]) for r in results}
        if firsts != {0, 1}:
            continue
        word = Word(spec, pres.letters(ids))
        nf = normalize(word)
        nf_ids = tuple(pres.ids(nf.letters))
        for r in results:
            other = Word(spec, pres.letters(r))
            assert normalize(other) == nf, (word.text(), other.text())
            assert equal(word, other) and equal(other, word)
            assert order_key(nf_ids) <= order_key(r)
        pairs += 1
    assert pairs > 0


def test_completions_nest():
    """The normal forms nest: every prefix and every suffix of a normal form
    is normal, so normal forms of length k + 1 are normal forms of length k
    extended by one letter, and their counts are the spheres of ball()."""
    for spec, top in ((affine(3), 6), (cactus(4), 7), (affine(4), 4), (cactus(5), 4)):
        pres = presentation(spec)
        layer, spheres, texts = [()], [1], {"e"}
        for _ in range(top):
            layer = [
                u + (g,)
                for u in layer
                for g in range(pres.G)
                if is_normal(Word(spec, pres.letters(u + (g,))))
            ]
            spheres.append(len(layer))
            for u in layer:
                assert is_normal(Word(spec, pres.letters(u[1:])))
                texts.add(Word(spec, pres.letters(u)).text())
        b = ball(spec, top)
        assert spheres == b.sphere_sizes(), spec
        assert texts == {b.text(vid) for vid in range(len(b))}
        if (spec.family.value, spec.degree) == ("cactus", 4):
            # perfbench/gen.py J4_EXACT_SPHERES
            assert spheres == [1, 6, 20, 55, 145, 380, 995, 2605]
        if (spec.family.value, spec.degree) == ("affine", 4):
            # the AJ_4 spheres of ROADMAP item 1
            assert spheres == [1, 12, 102, 812, 6402]


@lru_cache(maxsize=None)
def _conj_table(spec):
    """conj[a*G + b]: conjugate_nested(a, b) as an id when a contains b, else
    -1; made from Generator objects, apart from the presentation's par."""
    pres = presentation(spec)
    return [
        pres.id_of(conjugate_nested(ga, gb))
        if ga is not gb and classify(ga, gb) is RelationKind.FIRST_CONTAINS_SECOND else -1
        for ga in pres.gens for gb in pres.gens
    ]


def _naive_geodesic(ids, pres):
    """Leftmost reduction by plain relation moves (test reference).

    Scan the word left to right; carry each letter left, one relation move
    at a time, while it spans a square with the letter before it; if it meets
    an equal letter the two cancel, and the scan starts again.
    """
    G, rel, conj = pres.G, pres.rel, _conj_table(pres.spec)
    w = list(ids)
    j = 1
    while j < len(w):
        v, k = list(w), j
        while k > 0:
            a, b = v[k - 1], v[k]
            if a == b:
                del v[k - 1 : k + 1]
                break
            r = rel[a * G + b]
            if r == _REL_DISJOINT:
                v[k - 1], v[k] = b, a
            elif r == _REL_FIRST:
                v[k - 1], v[k] = conj[a * G + b], a
            elif r == _REL_SECOND:
                v[k - 1], v[k] = b, conj[b * G + a]
            else:
                break
            k -= 1
        if len(v) < len(w):
            w, j = v, 1
        else:
            j += 1
    return w


def _naive_normal_form(ids, pres):
    """The kappa-least letter that shortens the word from the left, taken
    off one at a time, with lengths from _naive_geodesic (test reference)."""
    by_kappa = sorted(range(pres.G), key=pres.kappa.__getitem__)
    cur, out = _naive_geodesic(ids, pres), []
    while cur:
        for g in by_kappa:
            shorter = _naive_geodesic([g] + cur, pres)
            if len(shorter) < len(cur):
                out.append(g)
                cur = shorter
                break
        else:
            raise AssertionError("a nonempty geodesic with no left descent")
    return out


@pytest.mark.parametrize("spec", [affine(3), affine(4), cactus(5), affine(5), cactus(6)])
def test_normalize_ids_matches_naive_leftmost_reduction(spec):
    """The mask-driven descent normalizes exactly as a plain reducer that
    applies relation moves one at a time and keeps no masks and no memo.

    Every word of length 3, and random words of lengths 0 to 24.
    """
    pres = presentation(spec)
    rng = random.Random(7)
    words = [list(ids) for ids in itertools.product(range(pres.G), repeat=3)]
    words += [pres.ids(random_word(spec, rng.randrange(25), seed).letters) for seed in range(30)]
    for ids in words:
        word = Word(spec, pres.letters(ids))
        want = _naive_normal_form(ids, pres)
        nf = normalize(word)
        assert pres.ids(nf.letters) == want, (spec, word.text())
        assert len(_naive_geodesic(ids, pres)) == len(nf)
        assert len(_geodesic(pres, ids)[0]) == len(nf)


def _carry_lengths(pres, ids):
    """How far each cancel of normalize(ids) carries g's hyperplane: 0 for a
    pop, j for a carry across j letters.  Replays the reduction of the
    reversed word and the peel letter by letter, each step on a fresh
    _geodesic of the word so far (test reference)."""
    G, par = pres.G, pres.par

    def carry(w, g):
        j, a = len(w) - 1, g
        while w[j] != a:
            a = par[w[j] * G + a]
            j -= 1
        return len(w) - 1 - j

    out, w = [], []
    for g in ids[::-1]:
        if _geodesic(pres, w)[1][-1][G + 1] & pres.bit[g]:
            out.append(carry(w, g))
        w = _geodesic(pres, w + [g])[0]
    while w:
        g = _geodesic(pres, w)[1][-1][G]
        out.append(carry(w, g))
        w = _geodesic(pres, w + [g])[0]
    return out


# Normalize requests of word-problem seed 1 (perfbench/gen.py), one pair per
# group: the first word cancels by pops and carries of one and two letters
# (at least one of each) while reduced and peeled, the second carries three
# letters or more at least once.
_CARRY_WORDS = {
    affine(3): ("1,2;1,3;2,3;1,2;3,1;3,2;2,3;3,2", "1,3;3,2;3,1;1,2;1,3;2,1;3,2;1,2"),
    affine(4): ("4,2;4,3;2,4;2,3;4,2;4,3;2,4;2,1", "2,4;2,4;1,2;1,4;3,1;3,2;4,1;1,2"),
    cactus(5): ("1,3;2,4;1,5;1,3;1,3;1,4;1,3;2,3", "1,2;2,3;3,5;2,4;3,5;3,4;2,5;2,3"),
    affine(5): ("4,5;5,2;3,2;5,1;5,3;2,3;1,3;1,4", "2,3;5,4;4,1;3,2;2,5;2,5;2,1;3,1"),
    cactus(6): ("3,6;2,3;3,4;4,5;2,3;1,5;1,5;1,3", "4,5;3,6;4,5;1,6;2,5;1,3;1,5;2,6"),
}


@pytest.mark.parametrize("spec", list(_CARRY_WORDS), ids=lambda s: f"{s.family.value}-{s.degree}")
def test_one_letter_carries_run_inline(spec, monkeypatch):
    """Carries of at most two letters run inline: _geodesic and _normal_ids
    take pops and carries of one and two letters without _cancel, and call
    it for a carry of three letters or more; both words normalize as the
    plain reducer does."""
    pres = presentation(spec)
    short, longer = (parse_word(spec, text) for text in _CARRY_WORDS[spec])
    assert set(_carry_lengths(pres, list(short.ids))) == {0, 1, 2}
    assert max(_carry_lengths(pres, list(longer.ids))) >= 3
    calls = []
    real = rewriting._cancel

    def recorder(pres, w, states, g, n):
        calls.append(g)
        real(pres, w, states, g, n)

    monkeypatch.setattr(rewriting, "_cancel", recorder)
    assert list(normalize(short).ids) == _naive_normal_form(list(short.ids), pres)
    assert calls == []
    assert list(normalize(longer).ids) == _naive_normal_form(list(longer.ids), pres)
    assert calls


def test_geodesic_returns_whole_lists():
    """_geodesic works on buffers of the input's length with an end index;
    what it returns is cut to the geodesic w and its len(w) + 1 prefix rows,
    states[k] the row reached from the root through w[:k], with no letter
    cancelling on the way, and w as long as the normal form."""
    rng = random.Random(24)
    for spec in _CARRY_WORDS:
        pres = presentation(spec)
        G = pres.G
        for length in [0, 1, 2, 3, *(rng.randrange(201) for _ in range(16)), 200]:
            ids = [rng.randrange(G) for _ in range(length)]
            w, states = _geodesic(pres, ids)
            assert len(states) == len(w) + 1, (spec, ids)
            s = pres.root
            assert states[0] is s
            for k, g in enumerate(w, 1):
                s = s[g]
                assert type(s) is list and states[k] is s, (spec, ids, k)
            assert len(w) == len(normalize(Word._of(pres, ids))), (spec, ids)


def _arc_reversals(pres):
    """Each generator's image in S_n, the reversal of its arc, as a tuple
    indexed 0..n (slot 0 unused)."""
    n, out = pres.spec.degree, []
    for g in pres.gens:
        members = interval_of(g).members
        perm = list(range(n + 1))
        for x, y in zip(members, reversed(members)):
            perm[x] = y
        out.append(perm)
    return out


def _image(perms, ids):
    cur = list(range(len(perms[0])))
    for g in ids:
        cur = list(map(perms[g].__getitem__, cur))
    return cur


_LONG_WORD_SPECS = [affine(3), affine(4), affine(5), cactus(5), cactus(6), affine(7), cactus(9)]


@pytest.mark.parametrize("spec", _LONG_WORD_SPECS, ids=lambda s: f"{s.family.value}-{s.degree}")
def test_long_normal_forms_keep_the_symmetric_group_image(spec):
    """An invariant the descent never reads: sending each generator to the
    reversal of its arc maps both families onto S_n, so a normal form has
    its word's image.  On 40 seeded 512-letter words also the length parity,
    and w followed by w reversed normalizes to e."""
    pres = presentation(spec)
    perms = _arc_reversals(pres)
    for seed in range(40):
        word = random_word(spec, 512, seed)
        nf = normalize(word)
        assert _image(perms, nf.ids) == _image(perms, word.ids), (spec, seed)
        assert (len(word) - len(nf)) % 2 == 0 and len(nf) <= len(word)
        assert normalize(Word._of(pres, word.ids + word.ids[::-1])).ids == ()


def test_a_changed_letter_fails_the_symmetric_group_image():
    """The image check sees a normal form with one letter replaced by one
    whose arc reversal differs."""
    for spec in (affine(4), cactus(6)):
        pres = presentation(spec)
        perms = _arc_reversals(pres)
        word = random_word(spec, 512, 0)
        ids = list(normalize(word).ids)
        at = len(ids) // 2
        ids[at] = next(h for h in range(pres.G) if perms[h] != perms[ids[at]])
        assert _image(perms, ids) != _image(perms, word.ids), spec


def test_reset_states_frees_its_rows_without_the_cycle_collector():
    """Rows step to one another in cycles; reset_states clears the rows it
    drops, so with the collector off none is left for it to find."""
    gc.collect()
    gc.disable()
    try:
        for spec in (affine(3), affine(4)):
            pres = presentation(spec)
            for seed in range(50):
                normalize(random_word(spec, 40, seed))
            assert len(pres.state_of) > 1
            pres.reset_states()
            assert gc.collect() == 0, spec
            assert pres.state_of == {0: pres.root} and pres.root == [None] * pres.G + [-1, 0]
    finally:
        gc.enable()


def _cliques(pres):
    """Every set of letters that pairwise span squares, as descent masks."""
    out = []

    def grow(mask, members, start):
        out.append(mask)
        for g in pres.by_rank[start:]:
            if all(_spans_square(pres, g, h) for h in members):
                grow(mask | pres.bit[g], members + [g], pres.by_rank.index(g) + 1)

    grow(0, [], 0)
    return set(out)


def _members(pres, mask):
    return [g for g in range(pres.G) if mask & pres.bit[g]]


def _slots(pres):
    """Each row's letter slots, a filled one written as its target row's mask."""
    G = pres.G
    return {mask: [t[G + 1] if t else t for t in row[:G]] for mask, row in pres.state_of.items()}


def test_sinks_memo_is_bounded():
    """The descent state table has one row per clique: every row's mask is a
    clique of the link at e, so however many words run the table holds at
    most cliques + 1 rows (_cliques counts the empty mask, the root's, among
    its cliques).  Every filled slot is the _up of its source, and a slot is
    a cancel, (), exactly when its letter is in the mask; resetting the
    table changes no answer, and the presentation cache keeps a fixed number
    of specs."""
    assert presentation.cache_info().maxsize == 32
    for spec in (cactus(5), affine(4)):
        pres = presentation(spec)
        G, bit, par = pres.G, pres.bit, pres.par
        cliques = _cliques(pres)
        words = [random_word(spec, length, seed) for length in (3, 8, 20, 40) for seed in range(25)]
        want = [normalize(x) for x in words]
        pres.reset_states()
        assert pres.state_of == {0: pres.root} and pres.root == [None] * G + [-1, 0]
        for x, nf in zip(words, want):
            assert normalize(x) == nf
            assert equal(x, nf)
        rows = pres.state_of
        assert 1 < len(rows) <= len(cliques)
        assert set(rows) <= cliques
        reached = set()
        for mask, row in rows.items():
            assert len(row) == G + 2 and row[G + 1] == mask
            members = _members(pres, mask)
            assert row[G] == (min(members, key=pres.kappa.__getitem__) if mask else -1)
            for g in range(G):
                t = row[g]
                if mask & bit[g]:
                    assert t == ()  # g cancels
                    continue
                assert t is None or type(t) is list
                if t is not None:  # the mask of w g: g, and each h of w's mask carried across g
                    up = bit[g]
                    for h in members:
                        if par[g * G + h] >= 0:
                            up |= bit[par[g * G + h]]
                    assert t is rows[up]
                    reached.add(up)
        assert reached == set(rows) - {0}  # each made by the step that filled it


def test_sinks_memo_is_kept_per_rule_set():
    """Each group keeps its own state table: filling one never touches
    another, and an equal spec object shares its presentation's table."""
    c4, a4 = presentation(cactus(4)), presentation(affine(4))
    assert c4.state_of is not a4.state_of and c4.root is not a4.root
    c4.reset_states()
    a4.reset_states()
    normalize(w(cactus(4), "3,4;1,2;1,3;2,4"))
    assert len(c4.state_of) > 1 and any(c4.root[: c4.G])
    assert a4.state_of == {0: a4.root} and a4.root == [None] * a4.G + [-1, 0]
    assert all(mask < (1 << c4.G) for mask in c4.state_of)
    normalize(w(affine(4), "3,4;1,2;4,1;2,4"))
    assert len(a4.state_of) > 1
    fresh = GroupSpec(Family.CACTUS, 4)
    assert presentation(fresh) is c4
    before = _slots(c4)
    normalize(w(fresh, "3,4;1,2;1,3;2,4"))
    assert _slots(c4) == before  # the same steps, already filled


def test_state_table_is_shared_by_threads():
    """Threads that make new rows at once get the one-thread answers, and
    the table stays one row per mask: every filled slot holds the row that
    state_of publishes for its mask."""
    spec = affine(5)
    pres = presentation(spec)
    G = pres.G
    words = [random_word(spec, 40, seed) for seed in range(40)]
    want = [normalize(x).text() for x in words]

    def work(k):
        order = words[k * 10 :] + words[: k * 10]
        results[k] = [normalize(x).text() for x in order]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):  # each round makes every row afresh
            pres.reset_states()
            results = [None] * 4
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for k in range(4):
                assert results[k] == want[k * 10 :] + want[: k * 10]
            rows = pres.state_of
            assert all(len(row) == G + 2 and row[G + 1] == mask for mask, row in rows.items())
            assert all(t is rows[t[G + 1]] for row in rows.values() for t in row[:G] if t)
    finally:
        sys.setswitchinterval(old)


def test_random_word_is_reproducible():
    spec = affine(4)
    w1 = random_word(spec, 7, 42)
    w2 = random_word(spec, 7, 42)
    assert w1.pairs() == w2.pairs()
    assert len(w1) == 7
    assert all(g.spec == spec for g in w1.letters)
    assert random_word(spec, 7, 43).pairs() != w1.pairs()


# ---------------------------------------------------------------------------
# pinned answers
# ---------------------------------------------------------------------------


def _relator(gens, rng):
    """One defining relator: g g, a b a b (disjoint) or a b a conj(a, b) (nested)."""
    a, b = rng.choice(gens), rng.choice(gens)
    kind = classify(a, b) if a != b else None
    if kind is RelationKind.DISJOINT:
        return [a, b, a, b]
    if kind is RelationKind.FIRST_CONTAINS_SECOND:
        return [a, b, a, conjugate_nested(a, b)]
    if kind is RelationKind.SECOND_CONTAINS_FIRST:
        return [b, a, b, conjugate_nested(b, a)]
    return [a, a]


def _word_problem_answers(spec) -> str:
    """normalize and equal answers on seeded words of lengths 8-128: random
    pairs, relator-inserted pairs (equal), one letter more (odd), a middle
    swapped for its normal form (equal) or for random letters."""
    pres, gens = presentation(spec), generators(spec)
    rng = random.Random(f"pin {spec.family.value} {spec.degree}")
    lines = []
    for length in (8, 16, 32, 64, 128):
        for seed in range(4):
            u = random_word(spec, length, seed)
            v = random_word(spec, length, seed + 100)
            letters = list(u.letters)
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(letters))
                letters[at:at] = _relator(gens, rng)
            longer = Word(spec, letters)
            letters.insert(rng.randint(0, len(letters)), rng.choice(gens))
            odd = Word(spec, letters)
            i = rng.randint(0, length)
            j = rng.randint(i, length)
            mid = Word._of(pres, u.ids[:i] + normalize(Word._of(pres, u.ids[i:j])).ids + u.ids[j:])
            other = Word._of(pres, u.ids[:i] + v.ids[i:j] + u.ids[j:])
            lines.append(normalize(u).text())
            lines.append(normalize(longer).text())
            lines.append(" ".join(str(int(equal(*pair))) for pair in (
                (u, v), (u, longer), (longer, u), (u, odd), (u, mid), (mid, u),
                (u, other), (other, u), (u, u), (longer, mid),
            )))
    return "\n".join(lines)


_PINNED = {
    affine(3): "58e56455f674ff5893e56f013b35e97053db31b0b4ad1376e477fb6c60c0794e",
    affine(4): "6a8df0139176f5dfabaf43ce7e41091b323d4c657d51177c539492932e1bf52b",
    cactus(5): "50ec7494d6e912afc19e52172dbc84639596332261bf7b2afa4704830f000083",
    affine(5): "6f6edf96efb61c4deae3b0f1f8766de4bd9e2c585f2e681dc010941de378b4fc",
    cactus(6): "873cf450c4e98cd7f665646b99e314076e0f22dd01f4cf0f7a245ad81f3f3d3e",
}


@pytest.mark.parametrize("spec", list(_PINNED), ids=lambda s: f"{s.family.value}-{s.degree}")
def test_word_problem_answers_are_pinned(spec):
    """The sha256 of every answer on the seeded words, as first recorded:
    a change of engine must keep every normal form and every equal answer."""
    digest = hashlib.sha256(_word_problem_answers(spec).encode()).hexdigest()
    assert digest == _PINNED[spec], spec
