"""Disk embedding of the degree-3 affine ball and its metric diagnostics.

The square tiling underlying these tests has six squares around every
vertex, so the numbers are rigid: edge length 2*arccosh(sqrt(2)), corner
angle pi/3, diagonal arccosh(5).  Corner angles and distances are recomputed
here from raw Moebius arithmetic, independent of the module's own frame
propagation.
"""

import cmath
import math
from bisect import bisect_right
from itertools import accumulate, combinations
from random import Random

import pytest

from graphs import (
    coincident_points_graph,
    cut_vertex_graph,
    doubled_edge_graph,
    many_medians_graph,
    missing_cube_corner_graph,
    missing_spoke_graph,
    open_face_graph,
    phantom_eighth_corner_graph,
    reference_distances,
    self_loop_graph,
    shared_wedge_graph,
)

from cactuskit import (
    ClosureViolation,
    Embedding,
    FourPointDelta,
    HPoint,
    NotAJ3,
    PreconditionViolated,
    QIFit,
    TooSmall,
    affine,
    ball,
    cactus,
    embed_ball,
    export_obj,
    four_point_delta,
    hyperbolic_distance,
    import_ball,
    parse_word,
    qi_fit,
    render_svg,
    squares,
    tiling_edge_length,
)
from cactuskit.hyperbolic import _trusted_metric

EDGE = 1.7627471740390868  # frozen output of tiling_edge_length()


def angle_at(e, corner, nb1, nb2):
    """Hyperbolic angle at `corner` between the geodesics toward nb1 and nb2."""
    c = e.point(corner).z
    w1 = (e.point(nb1).z - c) / (1 - c.conjugate() * e.point(nb1).z)
    w2 = (e.point(nb2).z - c) / (1 - c.conjugate() * e.point(nb2).z)
    a = abs(cmath.phase(w1 / w2))
    return min(a, 2 * math.pi - a)


def edge_set(b):
    return [(u, nb) for u in range(len(b)) for nb, _ in b.adj_entries(u) if u < nb]


# ---------------------------------------------------------------------------
# points and the metric
# ---------------------------------------------------------------------------


def test_hpoint_validation():
    p = HPoint(0.3, -0.4)
    assert p.z == complex(0.3, -0.4)
    with pytest.raises(ValueError):
        HPoint(1.0, 0.0)
    with pytest.raises(ValueError):
        HPoint(0.8, 0.7)


def test_distance_axioms():
    o = HPoint(0.0, 0.0)
    p = HPoint(0.5, 0.1)
    q = HPoint(-0.2, 0.6)
    assert hyperbolic_distance(p, p) == 0.0
    assert hyperbolic_distance(p, q) == hyperbolic_distance(q, p)
    assert hyperbolic_distance(p, q) <= hyperbolic_distance(p, o) + hyperbolic_distance(o, q)


def test_distance_along_a_diameter():
    # the point at Euclidean radius tanh(t/2) lies at hyperbolic distance t
    for t in (0.5, 1.0, 2.0):
        p = HPoint(math.tanh(t / 2), 0.0)
        assert abs(hyperbolic_distance(HPoint(0.0, 0.0), p) - t) < 1e-12


# ---------------------------------------------------------------------------
# the edge length of the tiling
# ---------------------------------------------------------------------------


def test_edge_length_frozen_value():
    assert tiling_edge_length() == EDGE


def test_edge_length_closed_form():
    # half the edge subtends cosh = sqrt(2) in the face's right triangle,
    # so the full edge satisfies cosh = 3 and equals 2*arccosh(sqrt(2))
    a = tiling_edge_length()
    assert abs(a - 2 * math.acosh(math.sqrt(2.0))) < 1e-12
    assert abs(math.cosh(a) - 3.0) < 1e-12
    assert abs(math.cosh(a / 2) * math.sin(math.pi / 6) - math.cos(math.pi / 4)) < 1e-12


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embedding_rejects_other_groups():
    with pytest.raises(NotAJ3):
        embed_ball(ball(affine(4), 1))
    with pytest.raises(NotAJ3):
        embed_ball(ball(cactus(3), 1))


def test_embedding_rejects_a_relabelled_edge():
    """Negative control for the closure check: relabel the edge 1,2 -- 1,2;2,1
    from 2,1 to 3,1 in the radius-3 ball, and two paths place 1,2;2,1;3,1
    2.292 apart."""
    obj = export_obj(ball(affine(3), 3))
    (rec,) = [r for r in obj["edges"] if (r["from"], r["to"]) == ("1,2", "1,2;2,1")]
    assert rec["generator"] == "2,1"
    rec["generator"] = "3,1"
    with pytest.raises(ClosureViolation, match=r"^vertex '1,2;2,1;3,1' placed 2\.292e\+00 apart"):
        embed_ball(import_ball(obj))


def test_embedding_names_an_unreachable_vertex_by_its_word():
    """An imported ball need not connect every vertex to e: with every edge
    at 2,1 dropped, no parent places 2,1, and the error names its word."""
    with pytest.raises(ClosureViolation, match=r"^vertex '2,1' reached before any parent"):
        embed_ball(import_ball(cut_vertex_graph()))


def test_first_ring_geometry():
    e = embed_ball(ball(affine(3), 1))
    assert len(e.points) == 7
    assert e.edge_length == tiling_edge_length()
    assert e.point(()).z == 0
    ring_radius = math.tanh(e.edge_length / 2)
    order = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))
    for k, pq in enumerate(order):
        z = e.point((pq,)).z
        assert abs(abs(z) - ring_radius) < 1e-12
        want = cmath.rect(ring_radius, k * math.pi / 3)
        assert abs(z - want) < 1e-12


def test_embedding_is_deterministic(aj3_r3):
    e1 = embed_ball(aj3_r3)
    e2 = embed_ball(aj3_r3)
    assert e1.points == e2.points


def test_all_edges_have_tiling_length(disk_r3):
    e = disk_r3
    b = e.ball
    for u, v in edge_set(b):
        d = hyperbolic_distance(e.point(b.key(u)), e.point(b.key(v)))
        assert abs(d - e.edge_length) < 1e-9


def test_square_corner_angles(disk_r3):
    e = disk_r3
    sqs = squares(e.ball)
    assert len(sqs) == 30
    for s in sqs:
        c = s.cycle
        for k in range(4):
            a = angle_at(e, c[k], c[(k - 1) % 4], c[(k + 1) % 4])
            assert abs(a - math.pi / 3) < 1e-9


def test_square_diagonals(disk_r3):
    # law of cosines with sides cosh = 3 and the pi/3 corner: cosh(diag) = 5
    e = disk_r3
    want = math.acosh(5.0)
    for s in squares(e.ball):
        c = s.cycle
        for i in (0, 1):
            d = hyperbolic_distance(e.point(c[i]), e.point(c[i + 2]))
            assert abs(d - want) < 1e-9


def test_six_squares_close_around_interior_vertices(disk_r3):
    e = disk_r3
    b = e.ball
    at_vertex = {}
    for s in squares(b):
        for k in range(4):
            at_vertex.setdefault(s.cycle[k], []).append(
                (s.cycle[(k - 1) % 4], s.cycle[(k + 1) % 4])
            )
    surrounded = [key for key, wedges in at_vertex.items() if len(wedges) == 6]
    assert () in surrounded
    for key in surrounded:
        total = sum(angle_at(e, key, n1, n2) for n1, n2 in at_vertex[key])
        assert abs(total - 2 * math.pi) < 1e-8


def test_embedding_is_injective(disk_r3):
    e = disk_r3
    pts = [HPoint(z.real, z.imag) for z in e.points]
    min_d = min(
        hyperbolic_distance(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    # distinct group elements keep at least a full edge apart here
    assert abs(min_d - e.edge_length) < 1e-9
    assert min_d > e.edge_length / 2


# ---------------------------------------------------------------------------
# metric comparison constants
# ---------------------------------------------------------------------------


def test_qi_fit_frozen_values(disk_r3, disk_r4):
    f = qi_fit(disk_r3)
    assert isinstance(f, QIFit)
    assert f == (1.762747174039093, 0.0, 279, 0.0)
    f4 = qi_fit(disk_r4)
    assert f4.lam == 1.7627471740391119
    assert f4.pair_count == 1431
    assert f4.c == 0.0 and f4.max_violation == 0.0


def test_qi_fit_counts_every_trusted_pair(disk_r3, disk_r4):
    for e in (disk_r3, disk_r4, embed_ball(ball(affine(3), 5))):
        b = e.ball
        depth = [b.depth_at(v) for v in range(len(b))]
        brute = sum(du + dv <= b.radius for du, dv in combinations(depth, 2))
        assert qi_fit(e).pair_count == brute


def _reference_qi_fit(e):
    """qi_fit with atanh and the ratio taken per pair: each u is paired with
    the larger vids of depth <= radius - depth(u), the distance read from
    u's core row, or from v's when u is not core."""
    b, points, radius = e.ball, e.points, e.ball.radius
    depth = [b.depth_at(v) for v in range(len(b))]
    table = {v: b.distances_from(v, radius) for v, d in enumerate(depth) if d <= radius // 2}
    by_depth = [[v for v, dv in enumerate(depth) if dv == d] for d in range(radius + 1)]
    lam, pairs = 1.0, 0
    for u, du in enumerate(depth):
        zu = points[u]
        for bucket in by_depth[:radius - du + 1]:
            for v in bucket[bisect_right(bucket, u):]:
                d_g = table[u][v] if u in table else table[v][u]
                zv = points[v]
                d_h = 2.0 * math.atanh(abs(zu - zv) / abs(1.0 - zu.conjugate() * zv))
                ratio = d_h / d_g if d_h > d_g else d_g / d_h if d_h else math.inf
                if ratio > lam:
                    lam = ratio
                pairs += 1
    return QIFit(lam, 0.0, pairs, 0.0)


def _embedding_of(obj, e):
    """import_ball(obj) with each vertex at e's point for its key: obj may
    list its vertices in any order, or lack edges embed_ball would need."""
    b = import_ball(obj)
    return Embedding(b, [e.point(b.key(v)).z for v in range(len(b))], e.edge_length)


def test_qi_fit_matches_the_per_pair_reference(disk_r4):
    """The same float lam and pair count as taking atanh per pair: on AJ_3
    balls, on a shuffled import (vids out of depth order, so some u are not
    core and read v's row), and with one vertex cut off (rows read -1)."""
    for radius in (3, 4, 5, 6):
        e = embed_ball(ball(affine(3), radius))
        assert qi_fit(e) == _reference_qi_fit(e), radius
    obj = export_obj(disk_r4.ball)
    Random(4).shuffle(obj["vertices"])
    shuffled = _embedding_of(obj, disk_r4)
    depth = [shuffled.ball.depth_at(v) for v in range(len(shuffled.ball))]
    assert any(depth[u] > 2 and depth[u] + depth[v] <= 4
               for u in range(len(depth)) for v in range(u + 1, len(depth)))
    assert qi_fit(shuffled) == _reference_qi_fit(shuffled)
    cut = "1,2;2,3"  # a vertex of depth 2: a core row of -1s, and -1 in others
    obj = export_obj(disk_r4.ball)
    obj["edges"] = [r for r in obj["edges"] if cut not in (r["from"], r["to"])]
    cut_off = _embedding_of(obj, disk_r4)
    assert -1 in cut_off.ball.distances_from(0, 4)
    assert qi_fit(cut_off) == _reference_qi_fit(cut_off)


def test_trusted_rows_are_the_ball_distances(disk_r4):
    """The trusted sweeps' BFS rows, run on one list copy of the ball's rows,
    are distances_from(v, radius) and the reference search for every core
    vertex: on built AJ_3 balls, on the doctored graphs (lifted to radius 3
    where they are smaller, which only loosens their depth bound), and on
    an AJ_3 ball with one vertex cut off, where rows read -1 and qi_fit
    still counts every trusted pair."""
    balls = [ball(affine(3), radius) for radius in (4, 5, 6)]
    for make in (shared_wedge_graph, doubled_edge_graph, self_loop_graph, many_medians_graph,
                 missing_cube_corner_graph, missing_spoke_graph, open_face_graph,
                 phantom_eighth_corner_graph):
        obj = make()
        balls.append(import_ball(dict(obj, radius=max(obj["radius"], 3))))
    obj = export_obj(disk_r4.ball)
    obj["edges"] = [r for r in obj["edges"] if "1,2;2,3" not in (r["from"], r["to"])]
    cut_off = _embedding_of(obj, disk_r4)
    balls.append(cut_off.ball)
    for b in balls:
        depth, core, table = _trusted_metric(b, "test sweep")
        assert depth == [b.depth_at(v) for v in range(len(b))]
        assert core == [v for v, d in enumerate(depth) if d <= b.radius // 2]
        assert list(table) == core
        for v in core:
            assert table[v] == b.distances_from(v, b.radius), (b.spec, v)
            assert table[v] == reference_distances(b, v, b.radius), (b.spec, v)
    depth, core, table = _trusted_metric(cut_off.ball, "test sweep")
    trusted = [(u, v) for u, v in combinations(range(len(depth)), 2)
               if depth[u] + depth[v] <= cut_off.ball.radius]
    read = [table[u][v] if u in table else table[v][u] for u, v in trusted]
    assert -1 in read  # qi_fit's -1 slot is used
    assert qi_fit(cut_off).pair_count == len(trusted)
    assert qi_fit(cut_off) == _reference_qi_fit(cut_off)


def test_qi_fit_of_two_vertices_on_one_point():
    """An embedding that puts two vertices on one disk point (d_H = 0 at
    d_G = 2) fits no finite lambda: lam is inf, as the per-pair reference
    reads it, and every trusted pair is still counted."""
    e = embed_ball(import_ball(coincident_points_graph()))
    b = e.ball
    u, v = (b.vid(parse_word(affine(3), text)) for text in ("1,3;2,3", "1,2;1,3"))
    assert e.points[u] == e.points[v]
    assert b.distances_from(u, b.radius)[v] == 2
    fit = qi_fit(e)
    assert fit.lam == math.inf
    assert fit == _reference_qi_fit(e)
    depth = [b.depth_at(w) for w in range(len(b))]
    assert fit.pair_count == sum(du + dw <= b.radius for du, dw in combinations(depth, 2))


def test_qi_fit_needs_room():
    with pytest.raises(TooSmall):
        qi_fit(embed_ball(ball(affine(3), 2)))


def test_four_point_delta_exhaustive(aj3_r3):
    d = four_point_delta(aj3_r3)
    assert isinstance(d, FourPointDelta)
    assert d == (1.0, 875, False)


def test_four_point_delta_sampled(aj3_r3):
    s1 = four_point_delta(aj3_r3, budget=500, seed=1)
    assert s1.sampled
    assert s1.quadruples == 500
    assert s1.delta <= 1.0
    assert four_point_delta(aj3_r3, budget=500, seed=1) == s1
    s2 = four_point_delta(aj3_r3, budget=500, seed=2)
    assert s2.quadruples == 500


def _reference_delta(b, budget=10**7, seed=0):
    """Max over every basepoint of the Gromov-product defect, over full BFS
    rows, with the quadruple space and the draws of four_point_delta.  A
    quadruple with a pair the ball does not connect is counted at defect 0."""
    depth = [b.depth_at(v) for v in range(len(b))]
    core = [v for v, d in enumerate(depth) if d <= b.radius // 2]
    rows = {v: b.distances_from(v) for v in core}

    def dist(u, v):
        return rows[u][v] if u in rows else rows[v][u]

    def defect2(w, x, y, z):
        a2 = dist(w, x) + dist(w, y) - dist(x, y)
        b2 = dist(w, x) + dist(w, z) - dist(x, z)
        c2 = dist(w, y) + dist(w, z) - dist(y, z)
        return sorted((a2, b2, c2))[1] - min(a2, b2, c2)

    def quad_defect2(q):
        if min(dist(u, v) for u, v in combinations(q, 2)) < 0:
            return 0
        w, x, y, z = q
        return max(defect2(w, x, y, z), defect2(x, w, y, z),
                   defect2(y, w, x, z), defect2(z, w, x, y))

    weights, pools, members = [math.comb(len(core), 4)], [core], [[]]
    for d in sorted({d for d in depth if d > b.radius // 2}):
        pool = [u for u in core if depth[u] <= b.radius - d]
        stratum = [v for v, dv in enumerate(depth) if dv == d]
        if math.comb(len(pool), 3) * len(stratum):
            weights.append(math.comb(len(pool), 3) * len(stratum))
            pools.append(pool)
            members.append(stratum)
    total = sum(weights)
    if total <= budget:
        quads = [*combinations(core, 4)] + [
            trio + (v,)
            for pool, stratum in zip(pools[1:], members[1:])
            for v in stratum
            for trio in combinations(pool, 3)
        ]
    else:
        rng, cum = Random(seed), list(accumulate(weights))
        quads = []
        for _ in range(budget):
            i = bisect_right(cum, rng.randrange(total))
            if i == 0:
                quads.append(tuple(rng.sample(core, 4)))
            else:
                v = members[i][rng.randrange(len(members[i]))]
                quads.append((*rng.sample(pools[i], 3), v))
    best2 = max(map(quad_defect2, quads), default=0)
    return FourPointDelta(best2 / 2.0, min(total, budget), total > budget)


def test_four_point_delta_matches_per_basepoint_reference(aj3_r3, aj3_r4, aj4_r3):
    """Also on an imported ball with a vertex cut off, whose rows read -1."""
    for b in (aj3_r3, aj3_r4, ball(cactus(4), 4), aj4_r3, import_ball(cut_vertex_graph())):
        full = four_point_delta(b)
        assert not full.sampled and full == _reference_delta(b)
        for budget, seed in ((100, 1), (1000, 7)):
            got = four_point_delta(b, budget=budget, seed=seed)
            assert got.sampled == (full.quadruples > budget)
            assert got == _reference_delta(b, budget, seed)


def test_four_point_delta_needs_room():
    with pytest.raises(TooSmall):
        four_point_delta(ball(affine(3), 2))


def test_four_point_delta_needs_a_positive_budget(aj3_r3):
    # no quadruple examined is no evidence: refuse rather than report 0.0
    for budget in (0, -5):
        with pytest.raises(PreconditionViolated):
            four_point_delta(aj3_r3, budget=budget)
    assert four_point_delta(aj3_r3, budget=1, seed=3).quadruples == 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_svg_structure(disk_r3):
    svg = render_svg(disk_r3)
    assert isinstance(svg, bytes)
    svg.decode("ascii")
    assert svg.startswith(b"<svg")
    assert svg.rstrip().endswith(b"</svg>")
    assert svg.count(b"<circle") == 1
    assert svg.count(b"<path") == 150  # one geodesic arc per edge
    assert render_svg(disk_r3) == svg


def test_svg_highlight(disk_r3):
    plain = render_svg(disk_r3)
    marked = render_svg(disk_r3, highlight=((), ((1, 3), (2, 3))))
    assert marked.count(b"<path") == plain.count(b"<path") + 1
    assert marked.count(b"<polyline") == 1
    assert marked != plain
