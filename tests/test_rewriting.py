"""Words, rewriting moves, normal forms, and the equivalence-class oracle."""

import itertools
import random

import pytest

from cactuskit import (
    BudgetExceeded,
    NormalForm,
    SpecMismatch,
    Word,
    affine,
    cactus,
    equal,
    free_reduce,
    generators,
    identity,
    is_normal,
    normalization_sinks,
    normalize,
    oracle_closure,
    parse_word,
    random_word,
)
from cactuskit import rewriting
from cactuskit.core import (
    _REL_DISJOINT,
    _REL_FIRST,
    _REL_SECOND,
    Family,
    Generator,
    GroupSpec,
    presentation,
)
from cactuskit.rewriting import (
    COMPLETION_LENGTH,
    _SINKS_CACHE,
    _normalize_ids,
    _successors_all,
    _word_engine,
    engine,
)


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
    assert all(x.spec is canon for x in normalization_sinks(word))


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
    with pytest.raises(SpecMismatch):
        equal(w(affine(3), "1,2"), w(cactus(3), "1,2"))


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
# strategy independence and its failure
# ---------------------------------------------------------------------------


def test_sinks_of_identity():
    assert normalization_sinks(identity(affine(3))) == frozenset({identity(affine(3))})


def test_small_affine_group_is_strategy_independent():
    """Every rewriting strategy agrees on the degree-3 affine group, length <= 3."""
    spec = affine(3)
    gens = generators(spec)
    for length in range(4):
        for combo in itertools.product(gens, repeat=length):
            word = Word(spec, combo)
            assert normalization_sinks(word) == frozenset({normalize(word)})


def test_priority_rewriting_is_not_confluent_at_degree_four():
    """The frozen minimal witness: one degree-4 word with two length-2 fixpoints.

    The presentation's length-2 priority moves alone stick it at two distinct
    sinks of the same group element, so those moves are not confluent.  The
    completed engine resolves it through the length-3 rule
    ``3,4;1,3;2,3 -> 1,2;3,4;1,3``: every strategy now ends at one normal
    form, which the whole length-capped class shares.
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
        # the completed rewriting system has one fixpoint, and normalize finds it
        sinks = normalization_sinks(word)
        assert {s.text() for s in sinks} == {"1,2;3,4;1,3"}
        assert normalize(word).text() == "1,2;3,4;1,3"
        assert is_normal(w(spec, "1,2;3,4;1,3"))
        assert not is_normal(w(spec, "3,4;1,3;2,3"))
        # the full length-capped class: input plus the two length-2 sinks ...
        cls = oracle_closure(word)
        assert {u.text() for u in cls} == {"3,4;1,2;1,3", "1,2;3,4;1,3", "3,4;1,3;2,3"}
        # ... and it now shares one normal form
        assert {normalize(u).text() for u in cls} == {"1,2;3,4;1,3"}


# ---------------------------------------------------------------------------
# the completed rewriting engine
# ---------------------------------------------------------------------------


def _reduce_naively(word, rules):
    """Leftmost-start rewriting by a plain scan of the rule dict (test reference)."""
    word = tuple(word)
    longest = max(map(len, rules))
    while True:
        for i in range(len(word)):
            for j in range(i + 2, min(i + longest, len(word)) + 1):
                rhs = rules.get(word[i:j])
                if rhs is not None:
                    word = word[:i] + rhs + word[j:]
                    break
            else:
                continue
            break
        else:
            return word


@pytest.mark.parametrize("spec", [affine(3), cactus(4), affine(4), cactus(5)])
def test_completion_resolves_every_critical_pair(spec):
    """R_4 is reduced, kappa-shortlex decreasing, and locally confluent to length 4."""
    eng = engine(spec, COMPLETION_LENGTH)
    rules, kappa = eng.rules, eng.pres.kappa

    def order_key(u):
        return (len(u), [kappa[x] for x in u])

    pairs = 0
    for lhs, rhs in rules.items():
        assert 2 <= len(lhs) <= COMPLETION_LENGTH
        assert order_key(rhs) < order_key(lhs)
        assert _reduce_naively(rhs, rules) == rhs
        for other in rules:
            # reduced: no left side contains another
            assert other == lhs or all(
                lhs[i : i + len(other)] != other for i in range(len(lhs) - len(other) + 1)
            )
            for o in range(1, min(len(lhs), len(other))):
                if lhs[-o:] == other[:o] and len(lhs) + len(other) - o <= COMPLETION_LENGTH:
                    left = rhs + other[o:]
                    right = lhs[:-o] + rules[other]
                    assert _reduce_naively(left, rules) == _reduce_naively(right, rules)
                    pairs += 1
    assert pairs > 0


def test_completions_nest():
    """The rules of R_L with left sides of length <= L' are exactly R_L'."""
    counts = {}
    for spec, top in ((affine(3), 6), (cactus(4), 8), (affine(4), 6), (cactus(5), 6)):
        full = engine(spec, top).rules
        for length in range(2, top + 1):
            part = {lhs: rhs for lhs, rhs in full.items() if len(lhs) <= length}
            assert part == engine(spec, length).rules, (spec, length)
            counts[spec.family.value, spec.degree, length] = len(part)
    # AJ_3's completion is its 12 length-2 rules at every length: a complete system
    assert {counts["affine", 3, k] for k in range(2, 7)} == {12}
    # J_4 has a finite complete system of 21 rules
    assert counts["cactus", 4, 7] == counts["cactus", 4, 8] == 21
    assert [counts["affine", 4, k] for k in range(2, 7)] == [42, 48, 66, 132, 356]
    assert len(engine(affine(5), 4).rules) == 326


def test_normalize_ignores_what_ran_before():
    """normalize(w) is a pure function of w, whichever engines were built first."""
    spec = affine(4)
    words = [random_word(spec, length, seed) for length in (2, 3, 4, 7) for seed in range(6)]
    engine.cache_clear()
    short_first = [normalize(x).text() for x in words]
    engine.cache_clear()
    long_first = [normalize(x).text() for x in reversed(words)][::-1]
    assert short_first == long_first
    for x, nf in zip(words, short_first):
        assert normalize(w(spec, nf)).text() == nf
        assert is_normal(w(spec, nf))


@pytest.mark.parametrize("spec", [affine(3), affine(4), cactus(5), affine(5), cactus(6)])
def test_normalize_ids_matches_naive_leftmost_reduction(spec):
    """The table-driven scan rewrites exactly as a plain leftmost-redex reducer.

    In a reduced system the redex that ends leftmost is also the one that
    starts leftmost, so both strategies rewrite the same redex at every step
    and must give the same word, inside the certified scope and beyond it.
    Every left side of R_4 is tried alone and behind a random prefix, and
    random words of lengths 0 to 64.
    """
    eng4 = engine(spec, COMPLETION_LENGTH)
    rng = random.Random(7)
    prefixes = [random_word(spec, k % 5, k).letters for k in range(len(eng4.rules))]
    for lhs, prefix in zip(eng4.rules, prefixes):
        for ids in (list(lhs), eng4.pres.ids(prefix) + list(lhs)):
            want = _reduce_naively(ids, eng4.rules)
            assert tuple(_normalize_ids(list(ids), eng4)) == want, (spec, ids)
    for seed in range(40):
        length = rng.randrange(65)
        word = random_word(spec, length, seed)
        eng = _word_engine(spec, length)
        ids = eng.pres.ids(word.letters)
        got = _normalize_ids(list(ids), eng)
        assert tuple(got) == _reduce_naively(ids, eng.rules), (spec, word.text())
        assert eng.pres.letters(got) == normalize(word).letters


def test_sinks_memo_is_bounded(monkeypatch):
    """A memo past _SINKS_MEMO_MAX entries is cleared; the answers do not change."""
    spec = cactus(5)
    words = [random_word(spec, length, seed) for length in (3, 4, 5, 6) for seed in range(12)]
    want = [normalization_sinks(x) for x in words]
    monkeypatch.setattr(rewriting, "_SINKS_MEMO_MAX", 40)
    _SINKS_CACHE.clear()
    sizes = []
    for x, sinks in zip(words, want):
        assert normalization_sinks(x) == sinks
        assert all(len(memo) <= 40 for memo in _SINKS_CACHE.values())
        sizes.append(len(_SINKS_CACHE[spec, min(len(x), COMPLETION_LENGTH)]))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the cap was reached


def test_sinks_memo_is_kept_per_rule_set():
    """A memo filled under R_3 never answers for R_4, nor the other way round."""
    spec = cactus(4)
    normalization_sinks(w(spec, "3,4;1,2;1,3"))
    normalization_sinks(w(spec, "3,4;1,2;1,3;2,4"))
    assert (spec, 3) in _SINKS_CACHE and (spec, 4) in _SINKS_CACHE
    assert all(len(ids) <= 3 for ids in _SINKS_CACHE[spec, 3])
    assert any(len(ids) == 4 for ids in _SINKS_CACHE[spec, 4])


def test_random_word_is_reproducible():
    spec = affine(4)
    w1 = random_word(spec, 7, 42)
    w2 = random_word(spec, 7, 42)
    assert w1.pairs() == w2.pairs()
    assert len(w1) == 7
    assert all(g.spec == spec for g in w1.letters)
    assert random_word(spec, 7, 43).pairs() != w1.pairs()
