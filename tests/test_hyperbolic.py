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

from cactuskit import (
    ClosureViolation,
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
    qi_fit,
    render_svg,
    squares,
    tiling_edge_length,
)

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
    rows, with the quadruple space and the draws of four_point_delta."""
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
    for b in (aj3_r3, aj3_r4, ball(cactus(4), 4), aj4_r3):
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
