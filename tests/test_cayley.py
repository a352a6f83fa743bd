"""Cayley-ball construction, metric queries, squares, and serialization."""

import gc
import hashlib
import json
import math
import weakref
from collections import OrderedDict
from types import MappingProxyType

import pytest

from graphs import (
    brute_force_cycles,
    brute_force_wedges,
    doubled_edge_graph,
    many_medians_graph,
    missing_cube_corner_graph,
    missing_spoke_graph,
    one_way_entries,
    open_face_graph,
    phantom_eighth_corner_graph,
    reference_distances,
    self_loop_graph,
    shared_wedge_graph,
)

from cactuskit import (
    BudgetExceeded,
    ClosureViolation,
    IndexOutOfRange,
    InvalidPair,
    MalformedInput,
    PreconditionViolated,
    SpecMismatch,
    VertexNotInBall,
    Word,
    affine,
    ball,
    cactus,
    export,
    export_obj,
    import_ball,
    normalize,
    oracle_closure,
    parse_word,
    random_word,
    squares,
)
from cactuskit import cayley
from cactuskit.cayley import _key, sphere_sizes
from cactuskit.core import Family, GroupSpec, Presentation, interval_of, presentation
from cactuskit.rewriting import _up
from cactuskit.verify import check_no_shared_consecutive_edges, check_squares_embedded


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def test_sphere_sizes_affine_3(aj3_r4):
    assert aj3_r4.sphere_sizes() == [1, 6, 24, 90, 336]
    assert len(aj3_r4) == 457


def test_sphere_sizes_other_specs():
    assert ball(cactus(3), 6).sphere_sizes() == [1, 3, 4, 4, 4, 4, 4]
    # exact counts: a BFS keyed by the least word of each length-capped
    # relation class (oracle_closure) gives the same lists
    assert ball(cactus(4), 4).sphere_sizes() == [1, 6, 20, 55, 145]
    assert ball(cactus(5), 3).sphere_sizes() == [1, 10, 60, 305]
    assert ball(affine(4), 3).sphere_sizes() == [1, 12, 102, 812]
    assert ball(affine(5), 3).sphere_sizes() == [1, 20, 290, 3940]


def test_exact_spheres_past_radius_three():
    """Sphere goldens from counts that share no code with the package:
    perfbench/gen.py's J4_EXACT_SPHERES and J5_EXACT_SPHERES, and the AJ_4
    radius-6 list of ROADMAP item 1, which criterion 4 checks on its ball.
    The ball and the growth series both give them."""
    j4 = ball(cactus(4), 7)
    assert j4.sphere_sizes() == sphere_sizes(cactus(4), 7) == [1, 6, 20, 55, 145, 380, 995, 2605]
    j5 = ball(cactus(5), 6)
    assert j5.sphere_sizes() == sphere_sizes(cactus(5), 6) == [1, 10, 60, 305, 1481, 7116, 34115]
    assert one_way_entries(j4) == one_way_entries(j5) == 0


def _walked_sphere_sizes(pres, radius):
    """The sphere sizes counted over the word problem's descent states: the
    audit reference for par and the descent automaton, sharing nothing with
    the growth series of sphere_sizes.

    A vertex v != e at distance r+1 has exactly |t| parents at distance r,
    one per letter of its right descent set t, and the state of u*g depends
    only on u's state s and g (rewriting._up).  So, with c_r[s] the number
    of vertices at distance r in state s,

        c_{r+1}[t] = (sum_s c_r[s] * #{g not in s : row_s[g] = row_t}) / |t|,

    the counts keyed on the masks, each read off its row's slot G + 1.

    Each division must be exact; one that is not means the tables break the
    CAT(0) theorem, and raises ClosureViolation.  The last sphere needs only
    each |t|, which is 1 + #{h in s spanning a square with g} because
    par[g] is one-to-one on those h and never gives g: its sums are divided
    per size, and no state is numbered for it.  A mask is a set of
    generator ids, bit g for letter g.
    """
    G, par, row_of = pres.G, pres.par, pres.state_of

    def exact(count, size):
        q, rem = divmod(count, size)
        if rem:
            raise ClosureViolation(f"sphere {len(sizes)} of {pres.spec}: {count} parent edges "
                                   f"into {size}-letter descent sets do not divide by {size}")
        return q

    sizes, cur = [1], {0: 1}  # cur: mask -> vertices, or size -> vertices at the last sphere
    for r in range(1, radius + 1):
        got = {}
        if r < radius:
            for m, c in cur.items():
                s = row_of[m]
                for g, t in enumerate(s[:G]):
                    if t or t is None and (t := _up(pres, s, g)):
                        t = t[G + 1]
                        got[t] = got.get(t, 0) + c
            cur = {t: exact(c, t.bit_count()) for t, c in got.items()}
        else:
            span = [sum(1 << b for b, h in enumerate(par[g]) if h >= 0) for g in range(G)]
            for m, c in cur.items():
                ks = [(m & sp).bit_count() + 1 for g, sp in enumerate(span) if not m >> g & 1]
                for k in set(ks):
                    got[k] = got.get(k, 0) + c * ks.count(k)
            cur = {k: exact(c, k) for k, c in got.items()}
        sizes.append(sum(cur.values()))
    return sizes


def test_counted_spheres_match_the_ball():
    """sphere_sizes counts what ball() builds, and what the descent-state walk
    counts, wherever the suite builds a ball past radius 1 (J_4 r7, J_5 r6 and
    AJ_4 r6 are checked above and in criterion 4)."""
    for spec, radius in ((affine(3), 7), (affine(5), 4), (cactus(6), 5),
                         (affine(17), 2), (cactus(24), 2)):
        want = ball(spec, radius).sphere_sizes()
        assert sphere_sizes(spec, radius) == want, (spec, radius)
        assert _walked_sphere_sizes(presentation(spec), radius) == want, (spec, radius)


def _clique_counts(pres):
    """The cliques of the link at e by size, enumerated over par >= 0."""
    G, par = pres.G, pres.par
    related = [sum(1 << b for b in range(G) if par[a][b] >= 0) for a in range(G)]
    counts = [0] * (pres.spec.degree + 1)

    def grow(size, candidates):
        counts[size] += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            grow(size + 1, candidates & related[low.bit_length() - 1])

    grow(0, (1 << G) - 1)
    return counts


def test_link_faces_count_the_cliques_of_par():
    """The interval DP reads only the family and n; its face numbers equal a
    clique count over the tables, to degree n, where both give 0 (no clique
    has n letters), and cut at a lower degree they are a prefix."""
    assert cayley._link_faces(cactus(4), 3) == [1, 6, 10, 5]
    assert cayley._link_faces(affine(4), 3) == [1, 12, 30, 20]
    assert cayley._link_faces(affine(3), 2) == [1, 6, 6]
    for spec in (*map(cactus, range(3, 9)), *map(affine, range(3, 8))):
        n, want = spec.degree, _clique_counts(presentation(spec))
        assert want[-1] == 0 and cayley._link_faces(spec, n) == want, spec
        assert cayley._link_faces(spec, 2) == want[:3], spec


def test_spheres_follow_the_closed_forms():
    """To radius 8 for n = 3..30, the coefficients of (1+x)^(n-1) / D(x), with
    D = sum_k (-1)^k N(n-1, k+1) x^k (N the Narayana numbers) for J_n and
    D = sum_k (-1)^k C(n-1, k)^2 x^k for AJ_n."""
    for n in range(3, 31):
        m = n - 1
        narayana = [(-1) ** k * math.comb(m, k + 1) * math.comb(m, k) // m for k in range(m)]
        for spec, den in ((cactus(n), narayana),
                          (affine(n), [(-1) ** k * math.comb(m, k) ** 2 for k in range(n)])):
            want = []
            for r in range(9):
                want.append(math.comb(m, r) - sum(den[k] * want[r - k]
                                                  for k in range(1, min(r, len(den) - 1) + 1)))
            assert sphere_sizes(spec, 8, max_vertices=10**100) == want, spec


def test_sphere_sizes_build_no_tables():
    """The series reads only the family and n: J_24 r3 (8,108,650 vertices)
    calls no presentation, and AJ_300 is refused from its generator count,
    with presentation()'s message, before anything is built."""
    before = presentation.cache_info()
    assert sphere_sizes(cactus(24), 3, 10**9) == [1, 276, 50600, 8108650]
    with pytest.raises(BudgetExceeded) as exc:
        sphere_sizes(affine(300), 1, 10**9)
    assert str(exc.value) == ("affine n = 300 has 89700 generators; "
                              "the tables hold fewer than 65536")
    assert presentation.cache_info() == before


def test_counted_spheres_follow_the_growth_series():
    """To radius 40, against (1+x)^2/(1-4x+x^2) for AJ_3 and
    (1+x)^3/(1-9x+9x^2-x^3) for AJ_4 (ROADMAP item 2(b)): past the
    numerator's degree these are c_r = 4c_{r-1} - c_{r-2} and
    c_r = 9c_{r-1} - 9c_{r-2} + c_{r-3}."""
    aj3 = sphere_sizes(affine(3), 40, max_vertices=10**60)
    aj4 = sphere_sizes(affine(4), 40, max_vertices=10**60)
    assert aj3[:3] == [1, 6, 24] and aj4[:4] == [1, 12, 102, 812]
    assert all(aj3[r] == 4 * aj3[r - 1] - aj3[r - 2] for r in range(3, 41))
    assert all(aj4[r] == 9 * aj4[r - 1] - 9 * aj4[r - 2] + aj4[r - 3] for r in range(4, 41))


def test_sphere_count_budget_and_validation():
    """ball()'s rules and messages: J_4 r4 has 227 vertices."""
    assert sum(sphere_sizes(cactus(4), 4, max_vertices=227)) == 227
    with pytest.raises(BudgetExceeded) as exc:
        sphere_sizes(cactus(4), 4, max_vertices=226)
    with pytest.raises(BudgetExceeded) as want:
        ball(cactus(4), 4, max_vertices=226)
    assert str(exc.value) == str(want.value) == f"ball({cactus(4)}, 4) exceeded 226 vertices"
    assert sphere_sizes(affine(3), 0, max_vertices=1) == [1]
    for radius, budget in ((-1, 10), (0, 0), (0, -5)):
        with pytest.raises(PreconditionViolated) as exc:
            sphere_sizes(affine(3), radius, max_vertices=budget)
        with pytest.raises(PreconditionViolated) as want:
            ball(affine(3), radius, max_vertices=budget)
        assert str(exc.value) == str(want.value)


def test_a_budget_below_sphere_one_builds_no_tables():
    """Sphere 1 holds all G generators, so 1 + G past the budget fails at
    once, with the message the count would give, and builds no presentation:
    AJ_40 (G = 1,560) would first fill 2.4M-entry tables."""
    for count in (ball, sphere_sizes):
        before = presentation.cache_info().misses
        with pytest.raises(BudgetExceeded) as exc:
            count(affine(40), 1, max_vertices=10)
        assert str(exc.value) == f"ball({affine(40)}, 1) exceeded 10 vertices"
        assert presentation.cache_info().misses == before
    for spec, G in ((cactus(5), 10), (affine(4), 12)):  # at 1 + G the count runs
        assert sphere_sizes(spec, 1, max_vertices=1 + G) == [1, G]
        assert ball(spec, 1, max_vertices=1 + G).sphere_sizes() == [1, G]
        for count in (ball, sphere_sizes):
            with pytest.raises(BudgetExceeded, match=f"exceeded {G} vertices"):
                count(spec, 2, max_vertices=G)
    assert sphere_sizes(affine(40), 0, max_vertices=1) == [1]


def test_a_doctored_transition_breaks_the_sphere_count():
    """Send the empty word's first letter to a two-letter descent state, on
    a private copy of the tables: sphere 1 then has one parent edge into a
    state whose vertices need two, and the walk refuses to divide.  The
    series reads no table and is unmoved."""
    pres = Presentation(affine(3))
    assert _walked_sphere_sizes(pres, 3) == [1, 6, 24, 90]
    pres.root[0] = next(row for mask, row in pres.state_of.items() if mask.bit_count() == 2)
    with pytest.raises(ClosureViolation, match="do not divide by 2"):
        _walked_sphere_sizes(pres, 2)
    assert presentation(affine(3)).root[0] is not pres.root[0]
    assert sphere_sizes(affine(3), 3) == [1, 6, 24, 90]


def test_square_images_are_one_to_one():
    """The walk's last sphere reads |t| as 1 + the letters of s that span a
    square with g: that needs par[g] to be one-to-one on those letters and
    never to give g."""
    for spec in (*map(cactus, range(3, 10)), *map(affine, range(3, 9)), cactus(24), affine(17)):
        pres = presentation(spec)
        for g in range(pres.G):
            images = [h for h in pres.par[g] if h >= 0]
            assert len(set(images)) == len(images) and g not in images, (spec, g)


def test_sphere_count_numbers_no_state_for_the_last_sphere():
    """Only the walk's inner spheres need numbered states: after walking
    J_24 to radius 2 the table holds the empty word's row and the 276
    one-letter ones."""
    pres = presentation(cactus(24))
    pres.reset_states()
    assert _walked_sphere_sizes(pres, 2) == [1, 276, 50600]
    assert len(pres.state_of) == 277
    rows = pres.state_of.items()
    assert all(row[pres.G + 1] == mask and mask.bit_count() <= 1 for mask, row in rows)


def _reference_ball(spec, radius):
    """Each vertex's word with its depth and its set of (gid, neighbour word),
    from a BFS that keys every word by the kappa-shortlex-least shortest word
    of its relation-move class (oracle_closure); no normal forms involved."""
    pres = presentation(spec)
    kappa = [(-len(interval_of(g)), g.p, g.q) for g in pres.gens]

    def vertex(ids):
        cls = oracle_closure(Word(pres.spec, pres.letters(ids)))
        short = min(map(len, cls))
        return min(
            (tuple(pres.ids(x.letters)) for x in cls if len(x) == short),
            key=lambda u: [kappa[i] for i in u],
        )

    graph = {(): (0, set())}
    frontier = [()]
    for d in range(radius + 1):
        nxt = []
        for u in frontier:
            for g in range(pres.G):
                v = vertex(u + (g,))
                if len(v) <= radius:
                    if v not in graph:
                        graph[v] = (d + 1, set())
                        nxt.append(v)
                    graph[u][1].add((g, v))
        frontier = nxt
    return graph


def test_ball_matches_closure_reference():
    """Key for key, depth for depth and edge for edge.  AJ_4 stops at radius 3:
    the reference takes about 4 s at radius 4."""
    for spec, radius in ((cactus(4), 6), (affine(4), 3)):
        b = ball(spec, radius)
        ids = [tuple(presentation(spec).ids(b.word(b.key(v)).letters)) for v in range(len(b))]
        got = {
            ids[v]: (b.depth_at(v), {(g, ids[nb]) for nb, g in b.adj_entries(v)})
            for v in range(len(b))
        }
        assert got == _reference_ball(spec, radius), (spec, radius)


def _insertion_reference(spec, radius):
    """ball()'s arrays from a plain BFS: u's neighbour along g is
    normalize(u's word + g), and a vertex is numbered when first found, by
    parent and then by generator id.  A vertex inside the radius gets a row of
    G entries by generator id; one at the radius gets its edges, all to the
    sphere below, in generator order."""
    pres = presentation(spec)
    G = pres.G
    words, depth, rows = [()], [0], []
    vid = {(): 0}
    while len(rows) < len(words) and depth[len(rows)] < radius:
        u = len(rows)
        row = []
        for g in range(G):
            w = normalize(Word(pres.spec, pres.letters(words[u] + (g,)))).ids
            if w not in vid:
                vid[w] = len(words)
                words.append(w)
                depth.append(depth[u] + 1)
            row.append(vid[w] << 16 | g)
        rows.append(row)
    inner = len(rows)
    outer = [[] for _ in range(len(words) - inner)]
    for p, row in enumerate(rows):
        for e in row:
            if e >> 16 >= inner:
                outer[(e >> 16) - inner].append(p << 16 | e & 0xFFFF)
    adj, off = [], [0]
    for entries in rows + [sorted(r, key=lambda e: e & 0xFFFF) for r in outer]:
        adj += entries
        off.append(len(adj))
    return [_key(w) for w in words], depth, adj, off


def test_ball_matches_insertion_reference():
    """Array for array: vertex numbering, keys, depths and the order of every
    vertex's entries.  J_24 (G = 276, keys with code points past 255) has
    vertices with two parents at radius 2.  Radii 0 and 1 and AJ_2's spheres
    of two vertices each are the sphere loop's edge cases.  The budget is
    exact: one vertex short of the ball raises, with the ball's own size
    passing."""
    for spec, radius in (
        (affine(3), 6), (cactus(4), 6), (affine(4), 4), (cactus(5), 4), (cactus(6), 3),
        (cactus(24), 2), (affine(3), 0), (affine(3), 1), (affine(2), 30), (cactus(24), 1),
    ):
        b = ball(spec, radius)
        keys, depth, adj, off = _insertion_reference(spec, radius)
        assert b._keys == keys, (spec, radius)
        assert b._index == {k: v for v, k in enumerate(keys)}, (spec, radius)
        assert list(b._depth) == depth, (spec, radius)
        assert list(b._adj) == adj, (spec, radius)
        assert list(b._off) == off, (spec, radius)
        assert len(ball(spec, radius, max_vertices=len(b))) == len(b)
        if len(b) > 1:
            with pytest.raises(BudgetExceeded) as exc:
                ball(spec, radius, max_vertices=len(b) - 1)
            assert str(exc.value) == f"ball({spec}, {radius}) exceeded {len(b) - 1} vertices"


def test_ball_arrays_are_pinned():
    """The ball's own arrays, byte for byte: keys in vid order, adj, off and
    depth.  The export sorts its rows, so its byte pins cannot see a change
    of discovery order or row layout; these digests can."""
    pins = {
        (affine(3), 6): "53236288f85df87ccce468eb158cfe54f3a13f7f6f43ae8433ec0069270754fa",
        (affine(4), 4): "113fb9744542a3fc57afab5dfb8bb4e0c857fe733d786d29ac7c22c90438c49e",
        (cactus(5), 4): "28f392501be906aea1678e1364b47319ee00220921823aba764d2bd5e44047f6",
        (cactus(6), 3): "b0b9ebaea97a307f6090ba35440b25ca6de16115c170e44580fea682ae3bbd6e",
    }
    for (spec, radius), want in pins.items():
        b = ball(spec, radius)
        text = "\n".join([
            " ".join(",".join(str(ord(c)) for c in key) for key in b._keys),
            ",".join(map(str, b._adj)),
            ",".join(map(str, b._off)),
            ",".join(map(str, b._depth)),
        ])
        assert hashlib.sha256(text.encode()).hexdigest() == want, (spec, radius)


def test_ball_leaves_the_descent_table_alone():
    """A ball reads its down letters off its own rows: building one numbers
    no descent state, and the word problem answers as before."""
    for spec, radius in ((affine(4), 4), (cactus(24), 2)):
        pres = presentation(spec)
        words = [random_word(spec, 8, seed) for seed in range(20)]
        want = [normalize(x) for x in words]
        pres.reset_states()
        ball(spec, radius)
        assert pres.state_of == {0: pres.root}, spec
        assert pres.root == [None] * pres.G + [-1, 0], spec
        assert [normalize(x) for x in words] == want, spec


def test_radius_zero_and_validation():
    b = ball(affine(3), 0)
    assert len(b) == 1
    assert b.key(0) == ()
    with pytest.raises(PreconditionViolated):
        ball(affine(3), -1)


def test_vertex_budget():
    with pytest.raises(BudgetExceeded):
        ball(affine(3), 3, max_vertices=10)
    for budget in (0, -5):
        with pytest.raises(PreconditionViolated):
            ball(affine(3), 0, max_vertices=budget)
    assert len(ball(affine(3), 0, max_vertices=1)) == 1
    # the budget is exact: 31 vertices fit a budget of 31, not of 30
    assert len(ball(affine(3), 2, max_vertices=31)) == 31
    with pytest.raises(BudgetExceeded, match=r"exceeded 30 vertices$"):
        ball(affine(3), 2, max_vertices=30)


# ---------------------------------------------------------------------------
# vertex plumbing
# ---------------------------------------------------------------------------


def test_vid_key_word_round_trip(aj3_r2):
    b = aj3_r2
    for vid in range(len(b)):
        key = b.key(vid)
        assert b.vid(key) == vid
        word = b.word(key)
        assert word.pairs() == key
        # stored keys are normal forms
        assert normalize(word).pairs() == key
        assert b.text(vid) == word.text()
    assert b.text(0) == "e"


def test_key_is_one_code_point_per_letter():
    """A key is the str of its generator ids as code points, at every G, so
    keys sort like their id lists, also across 255."""
    for ids in ([0, 7, 29], [0, 255, 256, 299], []):
        assert list(map(ord, _key(ids))) == ids
    assert _key([17]) < _key([256]) and _key([255]) < _key([256, 0]) < _key([256, 1])
    lists = [[], [0], [0, 300], [17], [17, 256], [255, 2], [256], [256, 0], [299, 17]]
    assert sorted(lists[::-1], key=_key) == sorted(lists) == lists


def test_vertices_iteration_depth_monotone(aj3_r3):
    depths = [len(k) for k in aj3_r3.vertices()]
    assert depths == sorted(depths)
    assert depths[0] == 0


def test_contains_and_missing_vertices(aj3_r2):
    b = aj3_r2
    assert () in b
    assert ((1, 2),) in b
    assert ((1, 3), (2, 3)) in b
    assert ((1, 2), (2, 1), (1, 3)) not in b  # a depth-3 normal form, outside r=2
    assert "nonsense" not in b
    with pytest.raises(VertexNotInBall):
        b.vid(((1, 2), (2, 1), (1, 3)))
    with pytest.raises(InvalidPair):
        b.vid(((0, 9),))


def test_depth_lookup(aj3_r2):
    b = aj3_r2
    assert b.depth(()) == 0
    assert b.depth(((1, 2),)) == 1
    assert b.depth_at(b.vid(((1, 3), (2, 3)))) == 2


def test_word_accepts_word_objects(aj3_r2):
    w = parse_word(affine(3), "1,2")
    assert aj3_r2.vid(w) == aj3_r2.vid(((1, 2),))
    fresh = Word.from_pairs(GroupSpec(Family.AFFINE, 3), [(1, 3), (2, 3)])
    assert aj3_r2.vid(fresh) == aj3_r2.vid(((1, 3), (2, 3)))
    assert aj3_r2.word(fresh) == fresh and fresh in aj3_r2
    with pytest.raises(SpecMismatch):  # (1, 2) is also a pair of AJ_4
        aj3_r2.vid(parse_word(affine(4), "1,2"))


def test_word_names_only_vertices_of_the_ball(aj3_r2):
    """word() maps a key through vid(), so a spelling that is not the
    vertex's normal form, or a key past the radius, raises VertexNotInBall."""
    assert aj3_r2.word(((1, 3), (2, 3))).text() == "1,3;2,3"
    for key in (((1, 2), (1, 3)), ((1, 2),) * 3):  # the first spells 1,3;2,3
        with pytest.raises(VertexNotInBall):
            aj3_r2.word(key)


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


def test_identity_neighbors(aj3_r2):
    nbs = aj3_r2.neighbors(())
    assert len(nbs) == 6
    assert {g.text() for g, _ in nbs} == {"1,2", "1,3", "2,1", "2,3", "3,1", "3,2"}
    for g, key in nbs:
        assert key == ((g.p, g.q),)


def test_step_follows_and_reports_missing(aj3_r2):
    b = aj3_r2
    vid = b.vid(((1, 3), (2, 3)))  # a boundary vertex at depth 2
    present = {}
    for nb, gid in b.adj_entries(vid):
        present[gid] = nb
    for gid in range(6):
        got = b.step(vid, gid)
        if gid in present:
            assert got == present[gid]
        else:
            assert got == -1
    assert len(present) < 6  # some neighbors fall outside the radius


def test_adjacency_is_symmetric(aj3_r3):
    """Every entry u -g-> v has its reverse v -g-> u, on every ball the suite
    builds: these, the sphere goldens' and criterion 4's.  Rows list their
    entries in generator-id order."""
    b = aj3_r3
    for u in range(len(b)):
        for nb, gid in b.adj_entries(u):
            assert (u, gid) in {(x, g) for x, g in b.adj_entries(nb)}
    built = [(fam, n, r) for fam in (affine, cactus) for n in (2, 3, 4, 5) for r in range(4)]
    built += [(affine, 3, r) for r in (4, 5, 6)] + [(cactus, 3, 6)]
    built += [(cactus, 4, r) for r in (4, 5, 6)] + [(cactus, 5, 5)]
    for fam, n, r in built:
        b = ball(fam(n), r)
        assert one_way_entries(b) == 0, (fam, n, r)
        for v in range(len(b)):
            gids = [g for _, g in b.adj_entries(v)]
            assert gids == sorted(gids), (fam, n, r, v)


def test_edges_connect_consecutive_depths(aj3_r3, j4_r3):
    """Relators all have even length, so the graph is bipartite by depth."""
    for b in (aj3_r3, j4_r3):
        for u in range(len(b)):
            assert sum(1 for _ in b.adj_entries(u)) > 0
            for nb, _ in b.adj_entries(u):
                assert abs(b.depth_at(u) - b.depth_at(nb)) == 1


# ---------------------------------------------------------------------------
# the in-ball metric
# ---------------------------------------------------------------------------


def test_distance_values_and_trust(aj3_r2):
    b = aj3_r2
    e = ()
    far = ((1, 3), (2, 3))
    assert b.distance(e, e) == (0, True)
    assert b.distance(e, far) == (2, True)
    d = b.distance(((1, 2),), ((2, 3),))
    assert d.length == 2
    assert d.trusted  # 1 + 1 <= radius
    d = b.distance(far, ((2, 1), (3, 1)))
    assert not d.trusted  # 2 + 2 > radius: a shortcut could exist outside


def test_distances_from_matches_depth(aj3_r3):
    b = aj3_r3
    dist = b.distances_from(0)
    assert all(dist[v] == b.depth_at(v) for v in range(len(b)))


def test_distances_from_matches_reference_bfs(aj3_r4, aj4_r3):
    balls = [aj3_r4, import_ball(export_obj(aj4_r3))] + [
        import_ball(make()) for make in (
            shared_wedge_graph, doubled_edge_graph, many_medians_graph,
            missing_cube_corner_graph, missing_spoke_graph, open_face_graph,
            phantom_eighth_corner_graph,
        )
    ]
    for b in balls:
        by_depth = {}
        for v in range(len(b)):
            by_depth.setdefault(b.depth_at(v), []).append(v)
        # the first and the last vertex of each depth
        for src in sorted({v for vs in by_depth.values() for v in (vs[0], vs[-1])}):
            for limit in range(-1, b.radius + 2):
                want = reference_distances(b, src, limit)
                assert list(b.distances_from(src, limit)) == want, (b.spec, src, limit)
                # the spheres are the reference's distance classes
                classes = [[] for _ in range(max(want) + 1)]
                for v, d in enumerate(want):
                    if d >= 0:
                        classes[d].append(v)
                got = [sorted(sphere) for sphere in b.spheres_from(src, limit)]
                assert got == classes, (b.spec, src, limit)


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------


def test_square_counts(aj3_r2, aj3_r3, aj4_r3):
    assert len(squares(aj3_r2)) == 6
    assert len(squares(aj3_r3)) == 30
    assert len(squares(aj4_r3)) == 330
    assert len(squares(ball(cactus(3), 3))) == 4


def _aj17_square_graph() -> dict:
    """The one square e, 2,3, 2,3;17,1, 17,1 of AJ_17 (272 generators).

    The id of 17,1 (256) is past 255, so its key's code point is too.
    """
    return {
        "spec": {"family": "affine", "n": 17},
        "radius": 2,
        "vertices": [
            {"word": "e", "depth": 0},
            {"word": "2,3", "depth": 1},
            {"word": "17,1", "depth": 1},
            {"word": "2,3;17,1", "depth": 2},
        ],
        "edges": [
            {"from": "e", "to": "2,3", "generator": "2,3"},
            {"from": "e", "to": "17,1", "generator": "17,1"},
            {"from": "2,3", "to": "2,3;17,1", "generator": "17,1"},
            {"from": "17,1", "to": "2,3;17,1", "generator": "2,3"},
        ],
    }


def test_squares_have_canonical_cycles(aj3_r2):
    wide = import_ball(_aj17_square_graph())
    for b in (aj3_r2, wide):
        for s in squares(b):
            assert len(s.cycle) == 4
            smallest = min(s.cycle)
            assert s.cycle[0] == smallest
            # oriented toward the smaller neighbor of the smallest corner
            assert s.cycle[1] <= s.cycle[3]
    (sq,) = squares(wide)
    assert sq.cycle == ((), ((2, 3),), ((2, 3), (17, 1)), ((17, 1),))
    assert sq.cycle[1] == ((2, 3),)


def test_squares_match_brute_force_cycles(aj3_r3, j4_r3):
    doubled = import_ball(doubled_edge_graph())
    # the exact J_4 balls: 607 and 1,602 vertices are the sums of the exact
    # J_4 spheres (perfbench/gen.py J4_EXACT_SPHERES), every edge stored both ways
    j4_r5, j4_r6 = ball(cactus(4), 5), ball(cactus(4), 6)
    assert (len(j4_r5), one_way_entries(j4_r5)) == (607, 0)
    assert (len(j4_r6), one_way_entries(j4_r6)) == (1602, 0)
    for b in (aj3_r3, j4_r3, doubled, j4_r5, j4_r6):
        sqs = squares(b)
        assert [s.cycle for s in sqs] == brute_force_cycles(b)
        assert all(s.cycle == tuple(map(b.key, s.vids)) for s in sqs)
    assert len(brute_force_cycles(doubled)) == 1
    assert len(brute_force_cycles(j4_r5)) == 450
    assert len(brute_force_cycles(j4_r6)) == 1210


def test_squares_keep_self_loop_cycles():
    """Degenerate cycles through self-loops are listed, as the reference lists them."""
    b = import_ball(self_loop_graph())
    sqs = squares(b)
    assert [s.cycle for s in sqs] == brute_force_cycles(b)
    assert [s.vids for s in sqs] == [(0, 0, 0, 0), (0, 0, 1, 1)]


def test_square_checks_count_brute_force_cycles():
    """Both square checks' item and failure counts, made from the reference."""
    b = ball(cactus(4), 6)
    assert one_way_entries(b) == 0
    cycles = brute_force_cycles(b)
    wedges = brute_force_wedges(cycles)
    embedded = check_squares_embedded(b)
    assert embedded.items_checked == len(cycles)
    assert embedded.failure_count == sum(len(set(c)) != 4 for c in cycles)
    edges = check_no_shared_consecutive_edges(b)
    assert edges.items_checked == len(wedges) == 4840
    assert edges.failure_count == sum(m > 1 for m in wedges.values()) == 0


def test_squares_at_identity(aj3_r2):
    through_e = [s for s in squares(aj3_r2) if () in s.cycle]
    assert len(through_e) == 6


def test_no_squares_in_tiny_ball():
    assert squares(ball(affine(3), 1)) == ()


def test_squares_are_values_that_outlive_their_ball():
    """A ball keeps its squares, and a square holds no reference back to the
    ball: with the cyclic collector off, dropping the ball frees it, and its
    squares still spell their corners and compare by value."""
    sqs = squares(ball(affine(3), 3))
    b = ball(affine(3), 3)
    want = [(s.cycle, s.vids) for s in squares(b)]
    ref = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert ref() is None
    finally:
        gc.enable()
    assert [(s.cycle, s.vids) for s in sqs] == want
    assert squares(ball(affine(3), 3)) == sqs
    assert len(set(sqs) | set(squares(ball(affine(3), 3)))) == len(sqs) == 30


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_export_schema(aj3_r2):
    obj = export_obj(aj3_r2)
    assert obj["spec"] == {"family": "affine", "n": 3}
    assert obj["radius"] == 2
    assert len(obj["vertices"]) == 31
    assert obj["vertices"][0] == {"word": "e", "depth": 0}
    words = [r["word"] for r in obj["vertices"]]
    assert words == sorted(words, key=lambda t: (0 if t == "e" else t.count(";") + 1, t))
    for rec in obj["edges"]:
        assert set(rec) == {"from", "to", "generator"}
    # undirected simple graph: each edge appears exactly once
    seen = {frozenset((r["from"], r["to"])) for r in obj["edges"]}
    assert len(seen) == len(obj["edges"])


def test_export_bytes_deterministic(aj3_r2):
    blob = export(aj3_r2, "json")
    assert blob == export(aj3_r2, "json")
    parsed = json.loads(blob)
    assert parsed == json.loads(json.dumps(export_obj(aj3_r2), sort_keys=True))
    with pytest.raises(InvalidPair):
        export(aj3_r2, "yaml")


def _json_reference(b) -> bytes:
    return (
        json.dumps(export_obj(b), indent=1, sort_keys=True, ensure_ascii=True) + "\n"
    ).encode()


@pytest.mark.parametrize("family", (affine, cactus))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_export_json_matches_json_dumps(family, n):
    for radius in range(4):
        b = ball(family(n), radius)
        assert export(b, "json") == _json_reference(b)
        if radius == 0:  # no edges
            assert b'\n "edges": [],\n' in export(b, "json")


def test_export_json_matches_json_dumps_beyond_the_builder():
    """Also past 255 generators, where keys hold code points past 255:
    J_24 has 276 generators and AJ_17 has 272."""
    graphs = (shared_wedge_graph, doubled_edge_graph, missing_cube_corner_graph, _aj17_square_graph)
    for b in (ball(cactus(4), 6), ball(cactus(24), 1), *(import_ball(g()) for g in graphs)):
        assert export(b, "json") == _json_reference(b)


def test_export_keeps_two_byte_words():
    """Past 255 generators each word is read off a key with code points
    past 255: the export gives back the imported graph's own records."""
    g = _aj17_square_graph()
    out = export_obj(import_ball(g))
    records = lambda recs: sorted(tuple(sorted(r.items())) for r in recs)  # noqa: E731
    assert records(out["vertices"]) == records(g["vertices"])
    assert records(out["edges"]) == records(g["edges"])


def test_export_lists_self_loops():
    """A self-loop is stored twice in its vertex's row and exported once:
    JSON, DOT and export_obj list edge_count() edges, and export, import and
    export again gives the same bytes.  Honest balls have no loops."""
    loop = {
        "spec": {"family": "affine", "n": 3},
        "radius": 1,
        "vertices": [{"word": "e", "depth": 0}, {"word": "1,2", "depth": 1}],
        "edges": [
            {"from": "e", "to": "1,2", "generator": "1,2"},
            {"from": "1,2", "to": "1,2", "generator": "1,3"},
        ],
    }
    loops = {
        **loop,
        "edges": [
            {"from": "e", "to": "e", "generator": "1,2"},
            {"from": "e", "to": "e", "generator": "1,2"},
            {"from": "e", "to": "e", "generator": "1,3"},
            {"from": "1,2", "to": "1,2", "generator": "2,3"},
            {"from": "e", "to": "1,2", "generator": "1,2"},
        ],
    }
    for g in (loop, loops):
        b = import_ball(g)
        assert b.edge_count() == len(g["edges"])
        assert len(export_obj(b)["edges"]) == b.edge_count()
        assert export(b, "json") == _json_reference(b)
        assert len(json.loads(export(b, "json"))["edges"]) == b.edge_count()
        assert export(b, "dot").count(b" -- ") == b.edge_count()
        again = import_ball(json.loads(export(b, "json")))
        assert export(again, "json") == export(b, "json")
        assert export(again, "dot") == export(b, "dot")
    assert export_obj(import_ball(loop))["edges"] == [
        {"from": "1,2", "to": "1,2", "generator": "1,3"},
        {"from": "e", "to": "1,2", "generator": "1,2"},
    ]


def test_export_dot(aj3_r2):
    text = export(aj3_r2, "dot").decode()
    assert text.startswith('graph "affine_3_r2" {')
    assert text.rstrip().endswith("}")
    assert '"e" [depth=0];' in text
    assert '"e" -- "1,2" [label="1,2"];' in text


def test_import_round_trip(aj3_r3):
    b2 = import_ball(export_obj(aj3_r3))
    assert len(b2) == len(aj3_r3)
    assert b2.spec == aj3_r3.spec
    assert b2.radius == aj3_r3.radius
    assert b2.sphere_sizes() == aj3_r3.sphere_sizes()
    # same adjacency, possibly renumbered: compare by key
    for vid in range(len(b2)):
        key = b2.key(vid)
        want = {(g.text(), k) for g, k in aj3_r3.neighbors(key)}
        got = {(g.text(), k) for g, k in b2.neighbors(key)}
        assert got == want
    assert len(squares(b2)) == len(squares(aj3_r3))


def test_import_rejects_bad_input(aj3_r2):
    obj = export_obj(aj3_r2)
    dup = dict(obj, vertices=obj["vertices"] + [obj["vertices"][1]])
    with pytest.raises(InvalidPair):
        import_ball(dup)
    dangling = dict(
        obj,
        edges=obj["edges"] + [{"from": "e", "to": "1,3;2,3;1,2", "generator": "1,2"}],
    )
    with pytest.raises(VertexNotInBall):
        import_ball(dangling)
    for bad in (
        dict(obj, spec={"family": "affine"}),
        dict(obj, spec={"family": "plain", "n": 3}),
        dict(obj, radius=-1, vertices=[], edges=[]),
        dict(obj, vertices=[{"word": "e"}]),
        dict(obj, vertices=5),
        dict(obj, radius="2"),
        dict(obj, vertices=[{"word": "e", "depth": 3}]),
        dict(obj, edges=[{"from": "e", "to": "1,2", "generator": 12}]),
        [obj],
    ):
        with pytest.raises(MalformedInput):
            import_ball(bad)
    for bad_edge in (
        {"from": "e", "to": "1,2", "generator": "1,1"},
        {"from": "e", "to": "1,2", "generator": "1;2"},
        {"from": "e", "to": "1,2;x", "generator": "1,2"},
        {"from": "2,2", "to": "1,2", "generator": "1,2"},
    ):
        with pytest.raises(InvalidPair):
            import_ball(dict(obj, edges=[bad_edge]))
    with pytest.raises(IndexOutOfRange):
        import_ball(dict(obj, edges=[{"from": "e", "to": "1,2", "generator": "4,1"}]))
    # a record is a dict (a subclass will do) whose fields have the schema's
    # types, on the canonical-spelling path too
    for bad in (
        dict(obj, vertices=[MappingProxyType(obj["vertices"][0])]),
        dict(obj, vertices=[{"word": "e", "depth": True}]),
        dict(obj, edges=[MappingProxyType(obj["edges"][0])]),
        dict(obj, edges=[{**obj["edges"][0], "from": [obj["edges"][0]["from"]]}]),
    ):
        with pytest.raises(MalformedInput):
            import_ball(bad)
    ordered = dict(obj, vertices=[OrderedDict(r) for r in obj["vertices"]],
                   edges=[OrderedDict(r) for r in obj["edges"]])
    assert export(import_ball(ordered)) == export(aj3_r2)


def test_import_reads_other_spellings(aj3_r2):
    """Edge endpoints and generators need not be spelled as the vertex records are."""
    obj = export_obj(aj3_r2)
    respelled = [
        {
            "from": "" if r["from"] == "e" else r["from"],
            "to": r["to"].replace("1,", "01,"),
            "generator": " " + r["generator"],
        }
        for r in obj["edges"]
    ]
    assert respelled != obj["edges"]
    b = import_ball(dict(obj, edges=respelled))
    assert export(b) == export(aj3_r2)
