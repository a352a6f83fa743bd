"""Poincaré-disk embedding of the degree-3 affine ball as the {4,6} tiling.

The Cayley graph of the degree-3 affine group is 6-regular, every relation
pair spans a 4-cycle, and six squares surround every vertex.  That is the
combinatorics of the tessellation of the hyperbolic plane by regular
quadrilaterals with interior angle π/3 (six around each vertex, since
6 · π/3 = 2π).  This module realizes the correspondence numerically:

* ``tiling_edge_length`` gives the side length of the π/3-angled regular
  quadrilateral in closed form, the one metric constant of the tiling;
* ``embed_ball`` walks a ball breadth-first and assigns every vertex a disk
  coordinate, kept as one complex number per vid (``Embedding.points``;
  ``Embedding.point(key)`` reads it back as an ``HPoint``).  Each vertex
  carries a *frame*: a base direction plus an orientation sign telling in
  which rotational sense the six edge labels fan out at π/3 increments.
  The label order around a vertex is the cyclic sequence in which
  consecutive labels form a relation pair, so that each gap between
  neighbouring edges is one square.  Chirality follows the
  orientation character of the group's action on the plane: a full-circle
  generator is a half-turn about its edge midpoint (it swaps the two
  squares flanking that edge), so crossing such an edge keeps the
  rotational sense, while a two-element arc acts as a reflection (each
  flanking square maps to itself) and reverses it.

No step of the construction is fitted: once the identity's frame is fixed,
every other placement is forced.  A vertex reachable along several paths is
therefore placed several times, and ``embed_ball`` demands the placements
agree to 1e-6 — a strong numerical certificate that the graph really is the
1-skeleton of the tiling out to the built radius.

Distances use the standard disk metric.  ``qi_fit`` and ``four_point_delta``
measure, over a finite ball, how close the graph metric is to the plane's
and how thin its triangles are.  Both sweep only trusted pairs (depth sum
within the radius), read from BFS rows of the core (depth <= radius/2) that
stop at distance radius: a trusted pair u, v is joined through the identity
by a path of length depth(u) + depth(v) <= radius.  The four-point defect
needs no basepoint: twice it is (largest − middle) of the three
opposite-side distance sums of the quadruple.

The inner loops read each vertex's stored entries as one slice of the
ball's rows copied into lists once per call (``CayleyBall.lists``), so a
slice makes no int, and write the disk maths out in place: the two
isometries of ``embed_ball``, which reads each label's turn from a table
per orientation, places each step with ``cmath.rect`` and reads each new
frame's base with ``cmath.phase`` (the same libm cos, sin and atan2 as
``math``, so the same bits), and ``qi_fit``'s tanh-space distance, taken
through atanh only at each graph distance's extremes.  ``render_svg``
formats all canvas points in one call.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from random import Random
from typing import NamedTuple

from .cayley import CayleyBall, VertexKey, _bfs
from .core import (
    ClosureViolation,
    Family,
    NotAJ3,
    PreconditionViolated,
    TooSmall,
    presentation,
)

#: Edge labels in cyclic order around a vertex: consecutive entries (mod 6)
#: are exactly the relation pairs, one spanned square per gap.
_DIRECTIONS: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2),
)

_CLOSURE_TOL = 1e-6
# d(z, p) = 2 atanh(|z - p| / |1 - conj(z) p|) and tanh is increasing, so
# d(z, p) > _CLOSURE_TOL exactly when |z - p| > _CLOSURE_TANH |1 - conj(z) p|
_CLOSURE_TANH = math.tanh(_CLOSURE_TOL / 2.0)


@dataclass(frozen=True)
class HPoint:
    """A point of the open unit disk, carrying the hyperbolic metric."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x * self.x + self.y * self.y >= 1.0:
            raise ValueError(f"({self.x}, {self.y}) is not inside the unit disk")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _disk_distance(z1: complex, z2: complex) -> float:
    return 2.0 * math.atanh(abs(z1 - z2) / abs(1.0 - z1.conjugate() * z2))


def hyperbolic_distance(p1: HPoint, p2: HPoint) -> float:
    return _disk_distance(p1.z, p2.z)


def tiling_edge_length() -> float:
    """Side length of the regular quadrilateral with vertex angle π/3.

    The fundamental right triangle of the tiling joins a face center, an
    edge midpoint and a vertex; its angles are π/4 at the center (a quarter
    of the square), π/6 at the vertex (half the vertex angle) and a right
    angle at the midpoint, and the leg facing the center angle is half an
    edge.  The hyperbolic right-triangle relation cos(center angle) =
    cosh(opposite leg)·sin(vertex angle) pins the side:
    cosh(a/2)·sin(π/6) = cos(π/4), i.e. cosh(a/2) = √2 and cosh(a) = 3.
    A construct-one-square-and-measure-it cross-check lives in the tests.
    """
    return 2.0 * math.acosh(math.cos(math.pi / 4) / math.sin(math.pi / 6))


@dataclass(frozen=True, eq=False)
class Embedding:
    """A ball's vertices placed in the disk, identity at the origin.

    ``points[vid]`` is the disk coordinate of vertex ``vid``.
    """

    ball: CayleyBall
    points: list[complex]
    edge_length: float

    def point(self, key: VertexKey) -> HPoint:
        z = self.points[self.ball.vid(key)]
        return HPoint(z.real, z.imag)


def embed_ball(b: CayleyBall) -> Embedding:
    """Deterministic {4,6} placement of a degree-3 affine ball.

    The identity, which must be vertex 0 (as in every ball that ``ball``
    builds or ``export_obj`` writes; PreconditionViolated otherwise), sits
    at the origin with its six edges at angles k·π/3 in the fixed label
    order; every further vertex is forced by frame propagation, reading the
    vertices' rows as slices in vid order.  Raises ClosureViolation if two
    paths disagree about any position by more than 1e-6 (hyperbolic), which
    would mean the graph is not locally the tiling.  The test runs in tanh
    space: d(z, p) = 2 atanh(|z - p| / |1 - conj(z) p|) exceeds 1e-6
    exactly when |z - p| > tanh(5e-7) |1 - conj(z) p|, so no atanh is taken
    unless a placement fails.  Every turn is +0.0 or nonzero, so no angle
    is -0.0, the one input where ``cmath.rect`` differs from r·(cos, sin).
    """
    if b.spec.family is not Family.AFFINE or b.spec.degree != 3:
        raise NotAJ3(f"embedding is defined for the degree-3 affine group, got {b.spec}")
    first = b.text(0) if len(b) else None
    if first != "e":
        raise PreconditionViolated(f"the identity must be vertex 0 to sit at the origin, got {first!r}")
    pres = presentation(b.spec)
    # Orientation character of each generator's isometry: full-circle arcs
    # are half-turns (+1), two-element arcs are reflections (-1).
    eps = [1 if c == 3 else -1 for c in pres.card]

    a = tiling_edge_length()
    step_r = math.tanh(a / 2.0)  # euclidean radius of one edge from the origin
    third = math.pi / 3.0
    # each label's turn orient·k·π/3 from the base direction, by orientation
    turn = {1: [0.0] * pres.G, -1: [0.0] * pres.G}
    for k, pq in enumerate(_DIRECTIONS):
        for o, t in turn.items():
            t[pres.gid[pq]] = o * k * third

    n = len(b)
    pos: list[complex | None] = [None] * n
    base: list[float] = [0.0] * n
    orient: list[int] = [0] * n
    pos[0] = 0j
    orient[0] = 1

    adj, off = b.lists()
    rect, phase = cmath.rect, cmath.phase
    for vid in range(n):
        z_v = pos[vid]
        if z_v is None:  # an imported ball need not connect every vertex to e
            raise ClosureViolation(f"vertex {b.text(vid)!r} reached before any parent placed it")
        zc_v, base_v, o_v = z_v.conjugate(), base[vid], orient[vid]
        turn_v = turn[o_v]
        for e in adj[off[vid]:off[vid + 1]]:
            nb, gid = e >> 16, e & 0xFFFF
            w = rect(step_r, base_v + turn_v[gid])
            # the disk isometry sending 0 to z_v with no rotation there
            z_nb = (w + z_v) / (1.0 + zc_v * w)
            p = pos[nb]
            if p is None:
                pos[nb] = z_nb
                orient[nb] = o_nb = o_v * eps[gid]
                # z_v seen from z_nb: the isometry sending z_nb to 0
                back = (z_v - z_nb) / (1.0 - z_nb.conjugate() * z_v)
                base[nb] = phase(back) - turn[o_nb][gid]
            elif abs(z_nb - p) > _CLOSURE_TANH * abs(1.0 - z_nb.conjugate() * p):
                raise ClosureViolation(
                    f"vertex {b.text(nb)!r} placed {_disk_distance(z_nb, p):.3e} apart "
                    f"along different paths (tolerance {_CLOSURE_TOL:.0e})"
                )

    return Embedding(ball=b, points=pos, edge_length=a)


def _trusted_metric(b: CayleyBall, sweep: str) -> tuple[list[int], list[int], dict]:
    """(depth per vid, core, BFS row per core vid) for a trusted-pair sweep.

    The core is the vertices of depth <= radius/2.  A pair whose depths sum
    to <= radius (so its in-ball distance is the group distance) has at
    least one core endpoint, so the core rows hold every trusted distance.
    Rows stop at distance radius, which bounds every trusted distance.
    They come from the ball's one BFS loop, run on one list copy of its
    rows for the whole sweep.
    """
    if b.radius < 3:
        raise TooSmall(f"radius {b.radius} ball cannot support a {sweep}; need >= 3")
    depth = list(map(b.depth_at, range(len(b))))
    half = b.radius // 2
    core = [v for v, d in enumerate(depth) if d <= half]
    adj, off = b.lists()  # one copy for every row
    table = {}
    for v in core:
        table[v] = dist = [-1] * len(depth)
        _bfs(adj, off, v, b.radius, dist)
    return depth, core, table


class QIFit(NamedTuple):
    lam: float
    c: float
    pair_count: int
    max_violation: float


def qi_fit(e: Embedding) -> QIFit:
    """Best multiplicative constant relating graph and disk distances.

    Sweeps every vertex pair whose in-ball graph distance is trusted (depth
    sum within the radius) and returns the least lambda with
    d_G/lambda ≤ d_H ≤ lambda·d_G, additive constant 0.  max_violation is 0
    by construction — the constants are fitted, not asserted.  Each u is
    paired only with the larger vids of depth <= radius - depth(u).  For a
    fixed d_G the ratio max(d_H/d_G, d_G/d_H) is V-shaped in the tanh-space
    t = tanh(d_H/2), so only the least and largest t per d_G are taken
    through atanh.  A pair whose BFS row reads -1 (an imported ball that
    does not connect it) is counted but leaves lambda alone.  Two vertices
    on one disk point (d_H = 0 < d_G: an imported ball whose embedding is
    not injective) admit no finite lambda, so lam is then math.inf.
    """
    b = e.ball
    depth, _, table = _trusted_metric(b, "distance fit")
    points = e.points
    radius = b.radius
    by_depth = [[v for v, dv in enumerate(depth) if dv == d] for d in range(radius + 1)]
    # the least and largest t per graph distance; slot -1 (= radius + 1) for -1
    least, most = [1.0] * (radius + 2), [-1.0] * (radius + 2)
    pairs = 0
    for u, du in enumerate(depth):
        zu = points[u]
        zc = zu.conjugate()
        row = table.get(u)
        for bucket in by_depth[:radius - du + 1]:
            for v in bucket[bisect_right(bucket, u):]:
                d_g = row[v] if row is not None else table[v][u]
                zv = points[v]
                t = abs(zu - zv) / abs(1.0 - zc * zv)
                if t > most[d_g]:
                    most[d_g] = t
                if t < least[d_g]:
                    least[d_g] = t
                pairs += 1
    lam = 1.0
    for d_g in range(-1, radius + 1):
        if most[d_g] < 0.0:
            continue  # no pair at this distance
        for t in (least[d_g], most[d_g]):
            d_h = 2.0 * math.atanh(t)  # as _disk_distance
            ratio = d_h / d_g if d_h > d_g else d_g / d_h if d_h else math.inf
            if ratio > lam:
                lam = ratio
    return QIFit(lam=lam, c=0.0, pair_count=pairs, max_violation=0.0)


class FourPointDelta(NamedTuple):
    delta: float
    quadruples: int
    sampled: bool


def four_point_delta(b: CayleyBall, budget: int = 10**7, seed: int = 0) -> FourPointDelta:
    """Gromov-product defect over trusted vertex quadruples.

    For a basepoint w and points x, y, z with products (x·y)_w =
    (d(x,w)+d(y,w)−d(x,y))/2, the defect is (middle − smallest) of the three
    products; delta is the maximum defect over all quadruples all of whose
    six pairwise distances are trusted.  Exhaustive when the quadruple count
    fits the budget (at least 1), otherwise uniformly sampled with the fixed
    seed.

    The defect is the same at every basepoint w: twice each product is
    d(w,x)+d(w,y)+d(w,z) minus one of the opposite-side sums d(w,x)+d(y,z),
    d(w,y)+d(x,z), d(w,z)+d(x,y), so twice the defect is (largest − middle)
    of them.  Its six distances are read from the rows of the quadruple's
    first three corners, which are core in every stratum; those rows stop at
    the radius, which bounds each trusted distance (a path through e).  A
    quadruple with a pair whose row reads -1 (an imported ball that does not
    connect it) is counted but leaves delta alone.
    """
    if budget < 1:
        raise PreconditionViolated(f"budget must be >= 1, got {budget}")
    depth, core, table = _trusted_metric(b, "delta sweep")

    # A quadruple is trusted iff its two largest depths sum to <= radius.
    # Vertices of depth > radius/2 ("deep") therefore appear at most once
    # per quadruple, so every needed distance has a core endpoint.  The
    # trusted quadruples fall into strata: the core 4-subsets, and for each
    # deep depth d a core trio of depth <= radius - d plus one deep vertex
    # of depth d.
    weights = [math.comb(len(core), 4)]
    pools: list[list[int]] = [core]
    members: list[list[int]] = [[]]
    for d in sorted({d for d in depth if d > b.radius // 2}):
        pool = [u for u in core if depth[u] <= b.radius - d]
        stratum = [v for v, dv in enumerate(depth) if dv == d]
        w = math.comb(len(pool), 3) * len(stratum)
        if w > 0:
            weights.append(w)
            pools.append(pool)
            members.append(stratum)
    total = sum(weights)

    # quadruples as (core trio, fourth corners to pair it with)
    def exhaustive():
        for i, j, k in combinations(range(len(core)), 3):
            yield (core[i], core[j], core[k]), core[k + 1:]
        for pool, stratum in zip(pools[1:], members[1:]):
            for trio in combinations(pool, 3):
                yield trio, stratum

    if total <= budget:
        groups = exhaustive()
    else:
        # Uniform over the trusted space: a stratum by weight, then a member.
        rng = Random(seed)
        cum = list(accumulate(weights))

        def draw():
            i = bisect_right(cum, rng.randrange(total))
            if i == 0:
                return (q := rng.sample(core, 4))[:3], q[3:]
            v = members[i][rng.randrange(len(members[i]))]
            return rng.sample(pools[i], 3), (v,)

        groups = (draw() for _ in range(budget))
    best2 = 0
    for (w, x, y), fourths in groups:
        rw, rx, ry = table[w], table[x], table[y]
        dwx, dwy, dxy = rw[x], rw[y], rx[y]
        for z in fourths:
            s1, s2, s3 = dwx + ry[z], dwy + rx[z], dxy + rw[z]
            d2 = 2 * max(s1, s2, s3) + min(s1, s2, s3) - s1 - s2 - s3
            if d2 > best2 and min(dwx, dwy, dxy, rw[z], rx[z], ry[z]) >= 0:
                best2 = d2
    return FourPointDelta(
        delta=best2 / 2.0, quadruples=min(total, budget), sampled=total > budget
    )


# --- rendering ---------------------------------------------------------------

_SCALE = 500.0


def _canvas_xy(z: complex) -> tuple[float, float]:
    return (_SCALE + _SCALE * z.real, _SCALE - _SCALE * z.imag)


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def _arc_to(z1: complex, z2: complex, r1: float, r2: float, end: str) -> str:
    """SVG path command drawing the disk geodesic from z1 to z2, whose canvas
    point is `end` ("x y"); r1 and r2 are 1 + |z|² of z1 and z2."""
    cross = (z1.conjugate() * z2).imag
    if abs(cross) < 1e-9:  # through the origin: the geodesic is a diameter
        return f"L {end}"
    # Center c of the circle through z1, z2 orthogonal to the unit circle:
    # 2·(c·z) = 1 + |z|² for both points, a linear system in (cx, cy).
    det = 2.0 * (z1.real * z2.imag - z2.real * z1.imag)
    cx = (r1 * z2.imag - r2 * z1.imag) / det
    cy = (r2 * z1.real - r1 * z2.real) / det
    rad = _fmt(math.sqrt(cx * cx + cy * cy - 1.0) * _SCALE)
    # Sweep: canvas y points down, so the rotational sense flips.
    ccw = ((z1.real - cx) * (z2.imag - cy) - (z1.imag - cy) * (z2.real - cx)) > 0
    sweep = 0 if ccw else 1
    return f"A {rad} {rad} 0 0 {sweep} {end}"


def render_svg(
    e: Embedding,
    highlight: tuple[VertexKey, VertexKey] | None = None,
) -> bytes:
    """Deterministic SVG: boundary circle plus one geodesic arc per edge.

    Each vertex's canvas point is formatted once, and its 1 + |z|² (which
    every arc through it reads) is computed once.  With ``highlight=(u, v)``
    two additional paths are drawn: the graph geodesic from u to v as a
    polyline through the embedded vertices, and the single hyperbolic
    geodesic between the endpoints, so the two can be compared visually.
    """
    b = e.ball
    pts = e.points
    xy = ("%.3f %.3f\n" * len(pts) % tuple(chain.from_iterable(map(_canvas_xy, pts))))
    xy = xy.replace("-0.000", "0.000").splitlines()  # as _fmt
    lift = [1.0 + abs(z) ** 2 for z in pts]
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">',
        f'<circle cx="{_fmt(_SCALE)}" cy="{_fmt(_SCALE)}" r="{_fmt(_SCALE)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    adj, off = b.lists()
    for u in range(len(b)):
        zu, ru, head, top = pts[u], lift[u], f'<path d="M {xy[u]} ', u << 16 | 0xFFFF
        for x in sorted(adj[off[u]:off[u + 1]]):
            if x <= top:
                continue  # only the larger neighbours, in vid order
            nb = x >> 16
            lines.append(
                f'{head}{_arc_to(zu, pts[nb], ru, lift[nb], xy[nb])}" fill="none" '
                'stroke="#1a1a1a" stroke-width="1.5"/>'
            )
    if highlight is not None:
        u, v = highlight
        path_vids = _graph_geodesic(b, b.vid(u), b.vid(v))
        poly = " ".join([f"{_fmt(x)},{_fmt(y)}"
                         for x, y in map(_canvas_xy, map(pts.__getitem__, path_vids))])
        lines.append(
            f'<polyline points="{poly}" fill="none" stroke="#d62728" stroke-width="3"/>'
        )
        s, t = path_vids[0], path_vids[-1]
        lines.append(
            f'<path d="M {xy[s]} {_arc_to(pts[s], pts[t], lift[s], lift[t], xy[t])}" fill="none" '
            'stroke="#1f77b4" stroke-width="3" stroke-dasharray="8 4"/>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


def _graph_geodesic(b: CayleyBall, src: int, dst: int) -> list[int]:
    """One shortest in-ball path, deterministic (smallest-vid predecessor)."""
    dist = b.distances_from(src)
    if dist[dst] < 0:
        raise ValueError("endpoints are disconnected inside the ball")
    path = [dst]
    cur = dst
    while cur != src:
        best = -1
        for nb, _gid in b.adj_entries(cur):
            if dist[nb] == dist[cur] - 1 and (best < 0 or nb < best):
                best = nb
        cur = best
        path.append(cur)
    path.reverse()
    return path
