"""Property tests: the export/import round trip, the word text syntax, the
word problem with its parity check and its cut of shared ends, and squares
against a brute-force search."""

import json
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphs import brute_force_cycles, brute_force_wedges

from cactuskit import (
    RelationKind,
    Word,
    affine,
    ball,
    cactus,
    classify,
    conjugate_nested,
    equal,
    export,
    generators,
    import_ball,
    normalize,
    parse_generator,
    parse_word,
    squares,
)
from cactuskit.core import presentation
from cactuskit.rewriting import _geodesic
from cactuskit.verify import check_no_shared_consecutive_edges, check_squares_embedded

FAMILIES = {"affine": affine, "cactus": cactus}


@lru_cache(maxsize=None)
def _ball(family: str, n: int, radius: int):
    return ball(FAMILIES[family](n), radius)


def _graph(b) -> dict:
    """Each vertex key with its depth and its set of (label, neighbour key)."""
    return {
        key: (b.depth(key), {(g.text(), nb) for g, nb in b.neighbors(key)})
        for key in b.vertices()
    }


@settings(max_examples=40, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(2, 5),
    radius=st.integers(0, 3),
)
def test_import_of_export_is_the_identity(family, n, radius):
    b = _ball(family, n, radius)
    b2 = import_ball(json.loads(export(b)))
    assert (b2.spec, b2.radius, len(b2)) == (b.spec, b.radius, len(b))
    assert _graph(b2) == _graph(b)


@st.composite
def words(draw):
    spec = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](draw(st.integers(2, 9)))
    letters = draw(st.lists(st.sampled_from(generators(spec)), max_size=16))
    return Word(spec, tuple(letters))


@settings(max_examples=200, deadline=None, database=None)
@given(w=words())
def test_parse_word_inverts_text(w):
    assert parse_word(w.spec, w.text()) == w


def _parse_reference(spec, text):
    """One parse_generator call per part of the stripped text."""
    text = text.strip()
    if text in ("", "e"):
        return Word(spec, ())
    return Word(spec, [parse_generator(spec, part) for part in text.split(";")])


def _outcome(parse, spec, text):
    try:
        return parse(spec, text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_parse_word_agrees_with_a_per_part_reference(data):
    """On canonical words and on one-character mutations of them (a letter
    replaced, inserted or deleted), parse_word gives the reference's word, or
    its exception class and message."""
    spec = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))](data.draw(st.integers(2, 12)))
    gens = generators(spec)
    text = ";".join(g.text() for g in data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=12)))
    edit = data.draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit != "none":
        at = data.draw(st.integers(0, len(text) - (edit != "insert")))
        char = data.draw(st.sampled_from("0123456789,; ex+-\n１٣"))
        text = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]
    assert _outcome(parse_word, spec, text) == _outcome(_parse_reference, spec, text), text


@settings(max_examples=200, deadline=None, database=None)
@given(w=words())
def test_normalize_is_idempotent_short_and_keeps_parity(w):
    nf = normalize(w)
    assert normalize(nf) == nf
    assert len(nf) <= len(w) and (len(w) - len(nf)) % 2 == 0


@st.composite
def relator(draw, spec):
    """One defining relator: g g, a b a b (disjoint) or a b a conj(a, b) (nested)."""
    a, b = draw(st.sampled_from(generators(spec))), draw(st.sampled_from(generators(spec)))
    kind = classify(a, b) if a != b else None
    if kind is RelationKind.DISJOINT:
        return (a, b, a, b)
    if kind is RelationKind.FIRST_CONTAINS_SECOND:
        return (a, b, a, conjugate_nested(a, b))
    if kind is RelationKind.SECOND_CONTAINS_FIRST:
        return (b, a, b, conjugate_nested(b, a))
    return (a, a)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), w=words())
def test_inserting_a_relator_keeps_the_element(data, w):
    at = data.draw(st.integers(0, len(w)))
    r = data.draw(relator(w.spec))
    longer = Word(w.spec, w.letters[:at] + r + w.letters[at:])
    assert equal(w, longer) and equal(longer, w)
    assert normalize(longer) == normalize(w)


_PARITY_SPECS = (affine(3), affine(4), cactus(5), affine(5), cactus(6))


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_equal_is_the_reduction_whatever_the_parity(data):
    """equal(u, v) answers what reducing u v^-1 answers: its parity check
    skips only reductions that cannot end empty.  v is a random word, or u
    with a relator inserted (equal), and then maybe one more letter (odd)."""
    spec = data.draw(st.sampled_from(_PARITY_SPECS))
    gens = st.sampled_from(generators(spec))
    u = Word(spec, data.draw(st.lists(gens, max_size=20)))
    if data.draw(st.booleans()):
        v = Word(spec, data.draw(st.lists(gens, max_size=20)))
    else:
        at = data.draw(st.integers(0, len(u)))
        v = list(u.letters[:at] + data.draw(relator(spec)) + u.letters[at:])
        if data.draw(st.booleans()):
            v.insert(data.draw(st.integers(0, len(v))), data.draw(gens))
        v = Word(spec, v)
    assert equal(u, v) == (not _geodesic(presentation(spec), u.ids + v.ids[::-1])[0])


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_equal_cuts_the_shared_prefix_and_suffix(data):
    """equal(p x q, p y q) answers what reducing all of u v^-1 answers, and
    what equal(x, y) answers.  y is random, empty, x itself (u == v) or x
    with a relator inserted (equal); x or y may start with p's last letter
    or end with q's first, so the shared ends reach into the middle."""
    spec = data.draw(st.sampled_from(_PARITY_SPECS))
    gens = st.sampled_from(generators(spec))
    p, x, q = (data.draw(st.lists(gens, max_size=size)) for size in (8, 10, 8))
    kind = data.draw(st.sampled_from(["random", "empty", "same", "relator"]))
    if kind == "random":
        y = data.draw(st.lists(gens, max_size=10))
    elif kind == "empty":
        y = []
    elif kind == "same":
        y = list(x)
    else:
        at = data.draw(st.integers(0, len(x)))
        y = x[:at] + list(data.draw(relator(spec))) + x[at:]
    if data.draw(st.booleans()):
        x, y = y, x
    for middle in (x, y):
        if p and data.draw(st.booleans()):
            middle.insert(0, p[-1])
        if q and data.draw(st.booleans()):
            middle.append(q[0])
    u, v = Word(spec, p + x + q), Word(spec, p + y + q)
    answer = equal(u, v)
    assert answer == (not _geodesic(presentation(spec), u.ids + v.ids[::-1])[0])
    assert answer == equal(Word(spec, x), Word(spec, y)) == equal(v, u)


_AJ3_TEXTS = [g.text() for g in generators(affine(3))]
_AJ3_WORDS = ["e", *_AJ3_TEXTS, *(f"{a};{b}" for a in _AJ3_TEXTS for b in _AJ3_TEXTS)]


@st.composite
def multigraphs(draw):
    """A small labelled multigraph in the export schema over AJ_3's words of
    length <= 2: vertices listed in any order, a cycle through up to four
    of them, edges between random vertex pairs with random labels (so
    doubled edges and two edges with one label at a vertex occur), and at
    most one self-loop."""
    words = draw(st.lists(st.sampled_from(_AJ3_WORDS), min_size=2, max_size=6, unique=True))
    labels = st.sampled_from(_AJ3_TEXTS)
    ring = draw(st.permutations(words))[:4]
    links = st.sampled_from([(u, v) for u in words for v in words if u != v])
    edges = [(link, draw(labels)) for link in zip(ring, ring[1:] + ring[:1])]
    edges += draw(st.lists(st.tuples(links, labels), max_size=6))
    loops = draw(st.lists(st.tuples(st.sampled_from(words), labels), max_size=1))
    return {
        "spec": {"family": "affine", "n": 3},
        "radius": 2,
        "vertices": [{"word": w, "depth": 0 if w == "e" else w.count(";") + 1} for w in words],
        "edges": [{"from": u, "to": v, "generator": g} for (u, v), g in edges]
        + [{"from": u, "to": u, "generator": g} for u, g in loops],
    }


@settings(max_examples=200, deadline=None, database=None)
@given(g=multigraphs())
def test_squares_match_brute_force_on_multigraphs(g):
    b = import_ball(g)
    cycles = brute_force_cycles(b)
    sqs = squares(b)
    assert [s.cycle for s in sqs] == cycles
    assert all(s.cycle == tuple(map(b.key, s.vids)) for s in sqs)
    wedges = brute_force_wedges(cycles)
    embedded, edges = check_squares_embedded(b), check_no_shared_consecutive_edges(b)
    assert (embedded.items_checked, embedded.failure_count) == (
        len(cycles), sum(len(set(c)) < 4 for c in cycles))
    assert (edges.items_checked, edges.failure_count) == (
        len(wedges), sum(n > 1 for n in wedges.values()))
