"""Generators, cyclic intervals, relation classification, and reflections."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cactuskit
from cactuskit import (
    BudgetExceeded,
    CyclicInterval,
    Family,
    Generator,
    GroupSpec,
    IndexOutOfRange,
    InvalidPair,
    NotNested,
    OutOfInterval,
    RelationKind,
    SpecMismatch,
    affine,
    cactus,
    classify,
    conjugate_nested,
    generators,
    interval_of,
    make_generator,
    parse_generator,
    s_reflect,
)
from cactuskit.core import Presentation, _arc_contains, _wrap, presentation


# ---------------------------------------------------------------------------
# specs and generators
# ---------------------------------------------------------------------------


def test_spec_constructors():
    a = affine(5)
    assert a.family is Family.AFFINE
    assert a.degree == 5
    assert a.n == 5
    c = cactus(4)
    assert c.family is Family.CACTUS
    assert c.degree == 4
    assert affine(5) == GroupSpec(Family.AFFINE, 5)
    assert affine(5) != cactus(5)


def test_spec_hash_finds_one_presentation():
    """Equal specs hash alike and share one cached Presentation, through a
    pickle or a deepcopy too; the two families at one degree stay two keys,
    and the hash does not depend on PYTHONHASHSEED."""
    for make in (affine, cactus):
        spec, again = make(5), make(5)
        assert spec is not again and hash(spec) == hash(again)
        pres = presentation(spec)
        assert presentation(again) is pres
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and hash(copied) == hash(spec)
            assert presentation(copied) is pres
    assert hash(affine(5)) != hash(cactus(5))
    assert presentation(affine(5)) is not presentation(cactus(5))
    assert presentation(affine(5)).G == 20 and presentation(cactus(5)).G == 10
    code = "from cactuskit import affine, cactus; print(hash(affine(5)), hash(cactus(5)))"
    src = str(Path(cactuskit.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout.split()
        assert out == [str(hash(affine(5))), str(hash(cactus(5)))]


def test_degree_must_be_at_least_two():
    with pytest.raises(IndexOutOfRange):
        affine(1)
    with pytest.raises(IndexOutOfRange):
        cactus(0)


def test_generator_counts():
    # n(n-1)/2 for the plain family, n(n-1) for the affine one
    for n in range(2, 9):
        assert len(generators(cactus(n))) == cactus(n).generator_count == n * (n - 1) // 2
        assert len(generators(affine(n))) == affine(n).generator_count == n * (n - 1)


def test_a_degree_past_the_packed_ids_is_refused_before_any_table():
    """A ball packs each generator id in 16 bits, so G >= 65,536 is refused
    from n alone, before generators() or a table is made.  The largest
    degrees that pass are AJ_256 (G = 65,280) and J_362 (G = 65,341)."""
    for spec, G in ((affine(257), 65_792), (cactus(363), 65_703)):
        with pytest.raises(BudgetExceeded, match=f" has {G} generators; the tables hold fewer "
                                                 "than 65536"):
            Presentation(spec)
    assert affine(256).generator_count == 65_280 and cactus(362).generator_count == 65_341


def test_generator_listing_order():
    texts = [g.text() for g in generators(affine(3))]
    assert texts == ["1,2", "1,3", "2,1", "2,3", "3,1", "3,2"]
    texts = [g.text() for g in generators(cactus(3))]
    assert texts == ["1,2", "1,3", "2,3"]


def test_generator_validation():
    with pytest.raises(IndexOutOfRange):
        make_generator(affine(3), 0, 2)
    with pytest.raises(IndexOutOfRange):
        make_generator(affine(3), 1, 4)
    with pytest.raises(InvalidPair):
        make_generator(affine(3), 2, 2)
    # decreasing pairs name generators only in the affine family
    with pytest.raises(InvalidPair):
        make_generator(cactus(4), 3, 1)
    g = make_generator(affine(4), 3, 1)
    assert (g.p, g.q) == (3, 1)


def test_parse_generator():
    g = parse_generator(affine(5), "2,4")
    assert (g.p, g.q) == (2, 4)
    assert g == make_generator(affine(5), 2, 4)
    assert parse_generator(affine(5), "2,4").text() == "2,4"
    with pytest.raises(InvalidPair):
        parse_generator(affine(5), "2")
    with pytest.raises(InvalidPair):
        parse_generator(affine(5), "2,4,6")
    with pytest.raises(InvalidPair):
        parse_generator(affine(5), "a,b")


# ---------------------------------------------------------------------------
# cyclic intervals
# ---------------------------------------------------------------------------


def test_interval_members_plain():
    iv = CyclicInterval.of(2, 4, 5)
    assert iv.members == (2, 3, 4)
    assert len(iv) == 3
    assert 3 in iv and 5 not in iv


def test_interval_members_wrapping():
    iv = CyclicInterval.of(4, 2, 5)
    assert iv.members == (4, 5, 1, 2)
    assert len(iv) == 4
    assert 5 in iv and 1 in iv and 3 not in iv


def test_interval_of_generator():
    g = make_generator(affine(4), 3, 2)
    iv = interval_of(g)
    assert iv.members == (3, 4, 1, 2)
    assert (iv.p, iv.q, iv.degree) == (3, 2, 4)


def test_interval_rejects_degenerate():
    with pytest.raises(InvalidPair):
        CyclicInterval.of(2, 2, 5)
    with pytest.raises(InvalidPair):
        CyclicInterval.of(0, 2, 5)


def test_full_circle_arcs_share_member_set():
    # same member set, different arcs: the traversal order disambiguates
    a = CyclicInterval.of(1, 3, 3)
    b = CyclicInterval.of(2, 1, 3)
    assert set(a.members) == set(b.members) == {1, 2, 3}
    assert a.members != b.members


# ---------------------------------------------------------------------------
# relation classification
# ---------------------------------------------------------------------------


def test_classify_affine3_table():
    """Full ordered-pair classification for the smallest affine group."""
    spec = affine(3)
    g = {t: parse_generator(spec, t) for t in ("1,2", "1,3", "2,1", "2,3", "3,1", "3,2")}
    F = RelationKind.FIRST_CONTAINS_SECOND
    S = RelationKind.SECOND_CONTAINS_FIRST
    N = RelationKind.NONE
    expected = {
        ("1,2", "1,3"): S, ("1,2", "2,1"): N, ("1,2", "2,3"): N,
        ("1,2", "3,1"): N, ("1,2", "3,2"): S,
        ("1,3", "1,2"): F, ("1,3", "2,1"): N, ("1,3", "2,3"): F,
        ("1,3", "3,1"): N, ("1,3", "3,2"): N,
        ("2,1", "1,2"): N, ("2,1", "1,3"): N, ("2,1", "2,3"): F,
        ("2,1", "3,1"): F, ("2,1", "3,2"): N,
        ("2,3", "1,2"): N, ("2,3", "1,3"): S, ("2,3", "2,1"): S,
        ("2,3", "3,1"): N, ("2,3", "3,2"): N,
        ("3,1", "1,2"): N, ("3,1", "1,3"): N, ("3,1", "2,1"): S,
        ("3,1", "2,3"): N, ("3,1", "3,2"): S,
        ("3,2", "1,2"): F, ("3,2", "1,3"): N, ("3,2", "2,1"): N,
        ("3,2", "2,3"): N, ("3,2", "3,1"): F,
    }
    for (t1, t2), want in expected.items():
        assert classify(g[t1], g[t2]) is want, (t1, t2)


def test_classify_disjoint_and_symmetry():
    spec = affine(5)
    a = parse_generator(spec, "1,2")
    b = parse_generator(spec, "3,4")
    assert classify(a, b) is RelationKind.DISJOINT
    assert classify(b, a) is RelationKind.DISJOINT
    # wrapping arc disjoint from a middle arc
    c = parse_generator(spec, "5,1")
    d = parse_generator(spec, "2,4")
    assert classify(c, d) is RelationKind.DISJOINT


def test_classify_mirror_property():
    """Swapping arguments swaps the two containment verdicts."""
    spec = affine(4)
    mirror = {
        RelationKind.NONE: RelationKind.NONE,
        RelationKind.DISJOINT: RelationKind.DISJOINT,
        RelationKind.FIRST_CONTAINS_SECOND: RelationKind.SECOND_CONTAINS_FIRST,
        RelationKind.SECOND_CONTAINS_FIRST: RelationKind.FIRST_CONTAINS_SECOND,
    }
    gens = generators(spec)
    for g1 in gens:
        for g2 in gens:
            if g1 == g2:
                continue
            assert classify(g2, g1) is mirror[classify(g1, g2)]


def test_classify_containment_needs_strictness():
    # equal-cardinality distinct arcs never contain each other
    spec = affine(4)
    a = parse_generator(spec, "1,4")  # all four strands, starting at 1
    b = parse_generator(spec, "2,1")  # all four strands, starting at 2
    assert classify(a, b) is RelationKind.NONE


def test_classify_errors():
    with pytest.raises(SpecMismatch):
        classify(parse_generator(affine(3), "1,2"), parse_generator(affine(4), "1,2"))
    g = parse_generator(affine(3), "1,2")
    with pytest.raises(InvalidPair):
        classify(g, g)


def kappa(g):
    """The priority of a generator, (-|interval|, p, q), from its interval."""
    return (-len(interval_of(g)), g.p, g.q)


@pytest.mark.parametrize("family", (cactus, affine))
@pytest.mark.parametrize("n", range(2, 9))
def test_relation_tables_match_classify(family, n):
    """Presentation builds par from ints, as G rows of G; every ordered pair
    agrees with classify and conjugate_nested on Generator objects: par[a][b]
    is the image of b nested in a, b itself for a disjoint pair or one where
    b contains a, and -1 when the pair spans no square (a == b included), so
    par >= 0 is exactly classify's relatedness."""
    pres = presentation(family(n))
    gens, G = pres.gens, pres.G
    assert len(pres.par) == G and all(len(row) == G for row in pres.par)
    for a, ga in enumerate(gens):
        assert pres.par[a][a] == -1
        for b, gb in enumerate(gens):
            if a == b:
                continue
            kind = classify(ga, gb)
            want = b
            if kind is RelationKind.FIRST_CONTAINS_SECOND:
                want = pres.id_of(conjugate_nested(ga, gb))
            elif kind is RelationKind.NONE:
                want = -1
            assert pres.par[a][b] == want, (ga, gb, kind)


def pair_loop_par(pres):
    """par as one loop over every ordered pair of generator ids, each row
    whole: a member bitmask per interval, containment by _arc_contains,
    and the image of b nested in a as its mirror (p + q - q_b, p + q - p_b)."""
    n = pres.spec.degree
    members = [interval_of(g).members for g in pres.gens]
    card = [len(m) for m in members]
    mask = [sum(1 << r for r in m) for m in members]
    par = []
    for a, (pa, qa) in enumerate(pres.pairs):
        ma, ca, row = mask[a], card[a], [-1] * pres.G
        for b, (pb, qb) in enumerate(pres.pairs):
            if not ma & mask[b] or card[b] > ca and _arc_contains(pb, qb, pa, qa, n):
                row[b] = b
            elif ca > card[b] and _arc_contains(pa, qa, pb, qb, n):
                row[b] = pres.gid[(_wrap(pa + qa - qb, n), _wrap(pa + qa - pb, n))]
        par.append(row)
    return par


@pytest.mark.parametrize("family", (cactus, affine))
@pytest.mark.parametrize("n", range(2, 10))
def test_rows_made_on_read_match_the_pair_loop(family, n):
    """A new presentation has read no row of par.  Each row is made on its
    first read, whatever the order the rows are read in, equals the pair
    loop's row, and from then on is a plain list in par's slot; a reference
    to the row taken before that read reads the same entries, as does a row
    read after its presentation is freed.  card is each interval's member
    count."""
    want = pair_loop_par(presentation(family(n)))
    G = len(want)
    for order in (range(G - 1, -1, -1), random.Random(n).sample(range(G), G)):
        pres = Presentation(family(n))
        assert pres.card == [len(interval_of(g)) for g in pres.gens]
        held = list(pres.par)
        assert not any(type(row) is list for row in held)
        for a in order:
            assert [held[a][b] for b in range(G)] == want[a]
            assert type(pres.par[a]) is list and pres.par[a] == want[a]
            assert len(held[a]) == G and list(held[a]) == want[a] and held[a][1:] == want[a][1:]
        assert pres.par == want
    orphan = Presentation(family(n)).par  # its presentation is freed at once
    assert [list(orphan[a]) for a in range(G)] == want


@pytest.mark.parametrize("family", (cactus, affine))
@pytest.mark.parametrize("n", range(2, 10))
def test_rank_inverts_the_kappa_order(family, n):
    """rank[g] is g's place in the kappa order: the generators sorted on
    kappa, read through rank, give 0, 1, ..., G - 1."""
    pres = presentation(family(n))
    by_kappa = sorted(range(pres.G), key=lambda g: kappa(pres.gens[g]))
    assert [pres.rank[g] for g in by_kappa] == list(range(pres.G))


# ---------------------------------------------------------------------------
# interval reflections
# ---------------------------------------------------------------------------


def test_s_reflect_plain_interval():
    # [2,4] in degree 5: 2 <-> 4, 3 fixed
    assert s_reflect(2, 4, 2, 5) == 4
    assert s_reflect(2, 4, 3, 5) == 3
    assert s_reflect(2, 4, 4, 5) == 2


def test_s_reflect_wrapping_interval():
    # [4,2] in degree 5 traverses 4,5,1,2; reflection reverses that walk
    assert s_reflect(4, 2, 4, 5) == 2
    assert s_reflect(4, 2, 5, 5) == 1
    assert s_reflect(4, 2, 1, 5) == 5
    assert s_reflect(4, 2, 2, 5) == 4


def test_s_reflect_is_an_involution():
    for n in (3, 4, 5, 6):
        for g in generators(affine(n)):
            iv = interval_of(g)
            for r in iv.members:
                image = s_reflect(g.p, g.q, r, n)
                assert image in iv
                assert s_reflect(g.p, g.q, image, n) == r
            # endpoints swap
            assert s_reflect(g.p, g.q, g.p, n) == g.q
            assert s_reflect(g.p, g.q, g.q, n) == g.p


def test_s_reflect_errors():
    with pytest.raises(IndexOutOfRange):
        s_reflect(2, 4, 0, 5)
    with pytest.raises(IndexOutOfRange):
        s_reflect(2, 4, 6, 5)
    with pytest.raises(OutOfInterval):
        s_reflect(2, 4, 5, 5)
    with pytest.raises(OutOfInterval):
        s_reflect(4, 2, 3, 5)


# ---------------------------------------------------------------------------
# nested conjugation
# ---------------------------------------------------------------------------


def test_conjugate_nested_plain():
    spec = cactus(5)
    outer = parse_generator(spec, "1,5")
    inner = parse_generator(spec, "2,3")
    assert conjugate_nested(outer, inner) == parse_generator(spec, "3,4")


def test_conjugate_nested_affine():
    spec = affine(3)
    outer = parse_generator(spec, "1,3")
    inner = parse_generator(spec, "1,2")
    assert conjugate_nested(outer, inner) == parse_generator(spec, "2,3")


def test_conjugate_nested_wrapping():
    spec = affine(4)
    outer = parse_generator(spec, "3,2")  # strands 3,4,1,2
    inner = parse_generator(spec, "4,2")  # strands 4,1,2
    assert conjugate_nested(outer, inner) == parse_generator(spec, "3,1")


def test_conjugate_nested_is_an_involution_on_inners():
    """Reflecting twice inside one outer arc restores the inner generator."""
    for spec in (cactus(5), affine(4), affine(5)):
        gens = generators(spec)
        seen = 0
        for outer in gens:
            for inner in gens:
                if inner == outer:
                    continue
                if classify(outer, inner) is not RelationKind.FIRST_CONTAINS_SECOND:
                    continue
                seen += 1
                conj = conjugate_nested(outer, inner)
                assert classify(outer, conj) is RelationKind.FIRST_CONTAINS_SECOND
                assert conjugate_nested(outer, conj) == inner
        assert seen > 0


def test_conjugate_nested_rejects_unrelated():
    spec = cactus(4)
    with pytest.raises(NotNested):
        conjugate_nested(parse_generator(spec, "1,3"), parse_generator(spec, "2,4"))
    with pytest.raises(NotNested):
        conjugate_nested(parse_generator(spec, "1,2"), parse_generator(spec, "1,3"))
    with pytest.raises(SpecMismatch):
        conjugate_nested(parse_generator(affine(4), "1,3"), parse_generator(affine(5), "1,2"))


def test_generator_is_hashable_and_frozen():
    g = make_generator(affine(3), 1, 2)
    assert g in {make_generator(affine(3), 1, 2)}
    with pytest.raises(Exception):
        g.p = 2
