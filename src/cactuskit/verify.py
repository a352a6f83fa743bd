"""Mechanical checks of the local geometry of the Cayley complex.

The paper proves the square-complex of either group family CAT(0), so its
1-skeleton is a median graph (Chepoi, *Graphs of some CAT(0) complexes*,
2000); the machine-checkable shadow of that statement, at finite scale,
consists of:

* every 4-cycle in the ball is embedded (four distinct corners);
* two distinct squares never share two consecutive edges;
* every cycle of three squares around a vertex spans the 2-skeleton of a
  3-cube (the eighth corner and all 12 edges exist);
* every vertex triple has a unique median.

Every check walks only the ball's stored edges, so it works unchanged on
imported (possibly deliberately broken) graphs.  The square, edge and median
checks read nothing else; the cube check also reads which labels span squares
(par), and square-normal-forms the group's normal forms: each product of two
related generators normalizes to the expected word, found where its walk ends.

Alongside these sit the index-shift correspondences between the affine and
plain presentations: the maps phi (cyclic to plain, conjugating by a rotation
that puts the shift index first) and psi (its inverse), plus exhaustive
verification that they carry interval configurations back and forth.  Both
claims walk one stream of shifted triples: each configured label triple of
AJ_n with its shift index and its phi images, worked out once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations, product

from .core import (
    Family,
    Generator,
    GroupSpec,
    IndexOutOfRange,
    PreconditionViolated,
    RelationKind,
    WrongFamily,
    _wrap,
    affine,
    cactus,
    classify,
    conjugate_nested,
    generators,
    presentation,
)
from .cayley import CayleyBall, squares
from .rewriting import Word, normalize

WITNESS_CAP = 100


@dataclass
class VerificationReport:
    """Outcome of one mechanical check.

    `failures` keeps at most WITNESS_CAP witness records; `failure_count` is
    always the exact total.  `vacuous` marks a pass with nothing to check
    (e.g. no cube configurations exist in the group) -- technically a pass,
    but deliberately distinguishable from a verified one.
    """

    check_name: str
    spec: GroupSpec
    params: dict
    items_checked: int = 0
    failure_count: int = 0
    failures: list = field(default_factory=list)
    vacuous: bool = False

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def note_failure(self, witness: dict) -> None:
        self.failure_count += 1
        if len(self.failures) < WITNESS_CAP:
            self.failures.append(witness)

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": dict(self.params),
            "items_checked": self.items_checked,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
            "vacuous": self.vacuous,
            "passed": self.passed,
            "spec": {"family": self.spec.family.value, "n": self.spec.degree},
        }


# ---------------------------------------------------------------------------
# Squares: conditions on the 2-skeleton
# ---------------------------------------------------------------------------


def check_squares_embedded(b: CayleyBall) -> VerificationReport:
    """Every 4-cycle in the ball has four pairwise distinct corners."""
    sqs = squares(b)
    rep = VerificationReport("squares-embedded", b.spec, {"radius": b.radius}, len(sqs),
                             vacuous=not sqs)
    for s in sqs:
        if len(set(s.vids)) != 4:
            rep.note_failure({"cycle": [b.text(v) for v in s.vids],
                              "distinct_corners": len(set(s.vids))})
    return rep


def check_no_shared_consecutive_edges(b: CayleyBall) -> VerificationReport:
    """No two distinct squares share a length-2 path (two consecutive edges).

    Item space: every (corner, unordered pair of incident square-edges) that
    occurs in some square; each must belong to exactly one square.  Items are
    keyed on vids as (corner, smaller, larger neighbor); which squares hold
    an item is worked out only when some item occurs twice.
    """
    sqs = squares(b)
    wedges = [(c[k], a, z) if a < z else (c[k], z, a)  # four per square, in turn
              for c in (s.vids for s in sqs) for k in range(4)
              for a, z in ((c[k - 1], c[(k + 1) % 4]),)]
    items = len(set(wedges))
    rep = VerificationReport("no-shared-consecutive-edges", b.spec, {"radius": b.radius}, items,
                             vacuous=not sqs)
    if items < len(wedges):  # some item is in two squares: list each one's squares
        seen: dict[tuple[int, int, int], list[int]] = {}
        for i, w in enumerate(wedges):
            seen.setdefault(w, []).append(i >> 2)
        for (corner, _, _), members in seen.items():
            if len(members) > 1:
                rep.note_failure({
                    "corner": b.text(corner),
                    "squares": [[b.text(v) for v in sqs[m].vids] for m in members],
                })
    return rep


def _related_triples(spec: GroupSpec) -> list[tuple[int, int, int]]:
    """Unordered generator-id triples whose intervals are pairwise related (par >= 0)."""
    pres = presentation(spec)
    par = pres.par
    return [
        (a, b, c) for a, b, c in combinations(range(pres.G), 3)
        if par[a][b] >= 0 and par[a][c] >= 0 and par[b][c] >= 0
    ]


def check_cube_spans(b: CayleyBall) -> VerificationReport:
    """Every cycle of three squares at a vertex closes into a 3-cube skeleton.

    For each vertex v deep enough that the whole cube fits in the ball, and
    each triple of pairwise related edge labels, the check walks the cube:
    the three corners past v, the three face-closing corners (each reached by
    two routes that must agree), and the eighth corner -- expected at
    v * (the triple in ascending interval size), confirmed independently as
    the unique common graph-neighbor of the three face corners.
    """
    pres = presentation(b.spec)
    par, card, gens = pres.par, pres.card, pres.gens
    triples = _related_triples(b.spec)
    eligible = [v for v in range(len(b)) if b.depth_at(v) <= b.radius - 3]
    rep = VerificationReport("cube-spans", b.spec, {"radius": b.radius},
                             len(triples) * len(eligible), vacuous=not triples or not eligible)

    def defect(v: int, x: int, y: int, z: int) -> dict | None:
        """Why the cube at v on labels x, y, z does not span, or None."""
        corners = [b.step(v, g) for g in (x, y, z)]
        if min(corners) < 0:
            return {"reason": "adjacent corner missing"}
        fars = []
        for a, c in ((x, y), (x, z), (y, z)):
            # the corner opposite v on the face {a, c} by both routes: each
            # first letter, then the other's label across the face (par)
            r1, r2 = b.step(b.step(v, a), par[a][c]), b.step(b.step(v, c), par[c][a])
            if r1 < 0 or r1 != r2:
                return {"reason": "face does not close",
                        "pair": [gens[a].text(), gens[c].text()]}
            fars.append(r1)
        h = v
        for g in sorted((x, y, z), key=lambda g: (card[g], g)):
            h = b.step(h, g)
            if h < 0:
                return {"reason": "eighth corner missing"}
        # independent route: the eighth corner is the unique common
        # neighbor of the three face corners
        common = set.intersection(*({nb for nb, _ in b.adj_entries(f)} for f in fars))
        if common != {h}:
            return {"reason": "graph search disagrees with the expected eighth corner",
                    "expected": b.text(h),
                    "found": sorted(b.text(w) for w in common)}
        cube = [v, *corners, *fars, h]
        if len(set(cube)) != 8:
            return {"reason": "cube corners not distinct",
                    "corners": [b.text(w) for w in cube]}
        return None

    for v in eligible:
        for x, y, z in triples:
            bad = defect(v, x, y, z)
            if bad is not None:
                rep.note_failure({"vertex": b.text(v),
                                  "labels": [gens[g].text() for g in (x, y, z)], **bad})
    return rep


# ---------------------------------------------------------------------------
# Median property
# ---------------------------------------------------------------------------


def check_median(b: CayleyBall, test_depth: int) -> VerificationReport:
    """Unique-median check over all triples of vertices of depth <= test_depth.

    Requires 0 <= test_depth and 3 * test_depth <= radius.  Under that
    precondition every distance and every candidate median the check touches
    is certified: for sources at depth <= t, pairwise distances are at most
    2t, true geodesics between them stay within depth 3t, and any true median
    lies on such geodesics -- all inside the ball, so in-ball BFS sees the
    true metric.  Each source pair's interval is built once, then shared by
    every triple that holds the pair.
    """
    t = test_depth
    if t < 0:
        raise PreconditionViolated(f"test_depth must be >= 0, got {t}")
    if 3 * t > b.radius:
        raise PreconditionViolated(
            f"need 3*test_depth <= radius, got test_depth={t}, radius={b.radius}"
        )
    sources = [v for v in range(len(b)) if b.depth_at(v) <= t]
    cutoff = 2 * t

    # level sets per source out to 2t, always 2t + 1 of them, so l2[d12 - a] is in range
    levels_of: dict[int, list[set[int]]] = {}
    for s in sources:
        levels = list(map(set, b.spheres_from(s, cutoff)))
        levels_of[s] = levels + [set()] * (cutoff + 1 - len(levels))

    # the interval of each source pair, once: vertices at distance a from s1
    # and d12 - a from s2, where d12 is the distance from s1 to s2 (none if
    # s2 lies past 2t)
    between: dict[tuple[int, int], set[int]] = {}
    for s1, s2 in combinations_with_replacement(sources, 2):
        l1, l2 = levels_of[s1], levels_of[s2]
        d12 = next((d for d, level in enumerate(l1) if s2 in level), -1)
        between[s1, s2] = set().union(*(l1[a] & l2[d12 - a] for a in range(d12 + 1)))

    rep = VerificationReport("median", b.spec, {"radius": b.radius, "test_depth": t},
                             vacuous=not sources)
    for s1, s2, s3 in combinations_with_replacement(sources, 3):
        rep.items_checked += 1
        medians = between[s1, s2] & between[s1, s3] & between[s2, s3]
        if len(medians) != 1:
            rep.note_failure({
                "triple": [b.text(s) for s in (s1, s2, s3)],
                "median_count": len(medians),
                "medians": sorted(b.text(m) for m in medians)[:5],
            })
    return rep


# ---------------------------------------------------------------------------
# Index-shift correspondence between the two presentations
# ---------------------------------------------------------------------------


def phi_pair(i: int, pair: tuple[int, int], n: int) -> tuple[int, int]:
    """Index arithmetic of the cyclic-to-plain shift: both entries move by 1-i."""
    return _wrap(pair[0] - i + 1, n), _wrap(pair[1] - i + 1, n)


def psi_pair(i: int, pair: tuple[int, int], n: int) -> tuple[int, int]:
    """Inverse shift; psi_pair(i, phi_pair(i, pq)) == pq for all inputs."""
    return _wrap(pair[0] + i - 1, n), _wrap(pair[1] + i - 1, n)


def phi_map(i: int, g: Generator) -> Generator:
    """Shift an affine generator so index i lands at 1, as a plain generator.

    Total on index pairs (see phi_pair) but partial as a map into the plain
    cactus group: when the shifted pair comes out decreasing it names no
    generator and InvalidPair propagates.  On the nested/disjoint
    configurations this map is used for, the image is always valid.
    """
    if g.spec.family is not Family.AFFINE:
        raise WrongFamily("phi_map shifts affine generators")
    n = g.spec.degree
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"shift index {i} outside 1..{n}")
    p, q = phi_pair(i, (g.p, g.q), n)
    return Generator(p, q, cactus(n))


def psi_map(i: int, g: Generator) -> Generator:
    """Shift a plain generator back into the affine group (always valid)."""
    if g.spec.family is not Family.CACTUS:
        raise WrongFamily("psi_map lifts plain cactus generators")
    n = g.spec.degree
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"shift index {i} outside 1..{n}")
    p, q = psi_pair(i, (g.p, g.q), n)
    return Generator(p, q, affine(n))


def verify_phi_psi_roundtrip(n: int) -> VerificationReport:
    """psi after phi is the identity: on all index pairs, and on every affine
    generator whose phi image is a valid plain generator."""
    rep = VerificationReport("phi-psi-roundtrip", affine(n), {"n": n})
    for i, g in product(range(1, n + 1), generators(affine(n))):
        rep.items_checked += 1
        p1, q1 = phi_pair(i, (g.p, g.q), n)
        back = psi_pair(i, (p1, q1), n)
        if back != (g.p, g.q):
            rep.note_failure({"i": i, "pair": [g.p, g.q], "round_trip": list(back)})
        elif p1 < q1 and (img := psi_map(i, phi_map(i, g))) != g:
            rep.note_failure({"i": i, "pair": [g.p, g.q], "generator_round_trip": img.text()})
    return rep


def _plain_contains(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _plain_disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[1] < b[0] or b[1] < a[0]


# The four interval configurations a cube corner can realize, as constraints
# (label pair, relation kind) on the ordered label triple 1, 2, 3, where 1 is
# the label whose start index drives the shift.  _CONTAINS on (i, j): label
# i contains label j; _DISJOINT: the two are disjoint.
_CONTAINS, _DISJOINT = RelationKind.FIRST_CONTAINS_SECOND, RelationKind.DISJOINT
_CONFIGS = (
    ("chain", (((1, 2), _CONTAINS), ((2, 3), _CONTAINS))),
    ("nested-plus-disjoint", (((1, 2), _CONTAINS), ((1, 3), _DISJOINT))),
    ("common-outer",
     (((1, 2), _CONTAINS), ((1, 3), _CONTAINS), ((2, 3), _DISJOINT))),
    ("pairwise-disjoint",
     (((1, 2), _DISJOINT), ((1, 3), _DISJOINT), ((2, 3), _DISJOINT))),
)
# what each relation kind of a constraint says of the plain (shifted) pairs
_PLAIN_RELATIONS = {
    _CONTAINS: ("containment", _plain_contains),
    _DISJOINT: ("disjointness", _plain_disjoint),
}
_TRIPLE_PAIRS = ((1, 2), (1, 3), (2, 3))


def _configured_triples(n: int):
    """(name, constraints, label pairs, shift index i, phi_i images) for each
    ordered triple of distinct generators of AJ_n realizing a configuration of
    _CONFIGS; i is the first label's start.  Checks n >= 3 at the call, before
    any table is built, and then walks the triples lazily."""
    if n < 3:
        raise PreconditionViolated("configurations need n >= 3")
    pres = presentation(affine(n))
    G, par, gens, pairs = pres.G, pres.par, pres.gens, pres.pairs
    # each related pair's kind by classify (par >= 0), rows tabulated for this call only
    kind = [[classify(x, y) if h >= 0 else RelationKind.NONE for y, h in zip(gens, row)]
            for x, row in zip(gens, par)]
    # the configurations each kind triple (r12, r13, r23) realizes, read off _CONFIGS
    by_kinds: dict[tuple[RelationKind, ...], list] = {}
    for kinds in product(RelationKind, repeat=3):
        have = dict(zip(_TRIPLE_PAIRS, kinds))
        for name, constraints in _CONFIGS:
            if all(have[ij] is r for ij, r in constraints):
                by_kinds.setdefault(kinds, []).append((name, constraints))
    leads = {kinds[0] for kinds in by_kinds}  # the r12 kinds that some configuration allows

    def walk():
        for a, b in permutations(range(G), 2):
            r12, i = kind[a][b], pairs[a][0]
            if r12 not in leads:
                continue
            for c in range(G):
                if c != a and c != b:
                    for name, constraints in by_kinds.get(
                            (r12, kind[a][c], kind[b][c]), ()):
                        labels = pairs[a], pairs[b], pairs[c]
                        yield name, constraints, labels, i, [phi_pair(i, pq, n) for pq in labels]
    return walk()


def _witness(name: str, labels, i: int, **details) -> dict:
    """A claim failure's witness: the configured triple and its shift, then details."""
    return {"configuration": name, "tuple": [list(pq) for pq in labels], "shift": i, **details}


def verify_claim_phi(n: int) -> VerificationReport:
    """The shift by the leading start index turns cyclic configurations into
    plain (non-wrapping) ones.

    Exhaustive over all ordered triples of distinct generators realizing each
    of the four configurations; for each, asserts that the shifted index
    pairs are valid plain intervals in the stated relations.
    """
    triples = _configured_triples(n)
    rep = VerificationReport("claim-phi", affine(n), {"n": n})
    for name, constraints, labels, i, images in triples:
        rep.items_checked += 1

        def expect(cond: bool, what: str) -> None:
            if not cond:
                rep.note_failure(_witness(name, labels, i, images=[list(t) for t in images],
                                          violated=what))

        expect(images[0][0] == 1, "shifted outer interval starts at 1")
        expect(all(p < q for p, q in images), "images are increasing pairs")
        for (x, y), r in constraints:
            what, holds = _PLAIN_RELATIONS[r]
            expect(holds(images[x - 1], images[y - 1]), f"{what} of labels {x} and {y} transfers")
    return rep


def verify_claim_psi(n: int) -> VerificationReport:
    """The inverse shift carries the plain configurations back to the cyclic
    originals.

    For every image tuple produced as in verify_claim_phi, asserts that
    shifting back recovers the original index pairs exactly (hence the
    original cyclic configuration).  The doubly-wrapped ordering k < l < j < i
    is additionally checked against its closed-form shift values; the count
    of those instances is reported in params.
    """
    triples = _configured_triples(n)
    rep = VerificationReport("claim-psi", affine(n), {"n": n, "wrapped_ordering_instances": 0})
    for name, constraints, labels, i, images in triples:
        rep.items_checked += 1
        back = tuple(psi_pair(i, t, n) for t in images)
        if back != labels:
            rep.note_failure(_witness(name, labels, i, returned=[list(t) for t in back]))
            continue
        # the ordering where both arcs wrap: k < l < j < i with
        # [i,j] containing [k,l]; every shifted index gains n before reduction
        (_, j), (k, l), _ = labels
        if ((1, 2), _CONTAINS) in constraints and k < l < j < i:
            rep.params["wrapped_ordering_instances"] += 1
            (ip, jp), (kp, lp), _ = images
            ok = (
                ip == 1
                and jp == j - i + n + 1
                and kp == k - i + n + 1
                and lp == l - i + n + 1
                and kp < lp
                and _wrap(ip + i - 1, n) == i
                and _wrap(jp + i - 1, n) == j
                and _wrap(kp + i - 1, n) == k
                and _wrap(lp + i - 1, n) == l
            )
            if not ok:
                rep.note_failure(_witness(
                    name, labels, i, violated="closed-form values of the doubly-wrapped ordering"))
    return rep


# ---------------------------------------------------------------------------
# Normal forms of the squares at the identity
# ---------------------------------------------------------------------------


def check_square_normal_forms(b: CayleyBall) -> VerificationReport:
    """Each product x y of a related pair normalizes to the expected word, and
    its walk from e along the edges x then y ends at that vertex, at depth 2.

    For a nested pair the normal form leads with the outer generator (in both
    multiplication orders); for a disjoint pair it leads with the
    higher-priority generator -- longer interval first, then smaller start
    index (for equal lengths this is exactly smaller-start-first).
    """
    spec = b.spec
    rep = VerificationReport("square-normal-forms", spec, {"radius": b.radius},
                             vacuous=b.radius < 2)
    if b.radius < 2:
        return rep
    pres = presentation(spec)
    par, gens = pres.par, pres.gens
    e = b.vid(()) if () in b else -1
    for a, c in combinations(range(pres.G), 2):
        if par[a][c] < 0:
            continue
        rep.items_checked += 1
        ga, gc = gens[a], gens[c]
        k = classify(ga, gc)
        nf1 = normalize(Word(spec, (ga, gc)))
        nf2 = normalize(Word(spec, (gc, ga)))
        if k is _DISJOINT:
            want1 = want2 = (ga, gc) if pres.rank[a] < pres.rank[c] else (gc, ga)
        else:
            outer, inner = (ga, gc) if k is _CONTAINS else (gc, ga)
            want_oi = (outer, inner)
            want_io = (outer, conjugate_nested(outer, inner))
            want1 = want_oi if ga is outer else want_io
            want2 = want_oi if gc is outer else want_io
        for x, y, nf, want in ((a, c, nf1, want1), (c, a, nf2, want2)):
            product = [gens[x].text(), gens[y].text()]
            if nf.letters != want:
                rep.note_failure({"product": product, "normal_form": nf.text()})
            v = b.step(b.step(e, x), y)
            if v < 0 or b.depth_at(v) != 2 or b.key(v) != nf.pairs():
                rep.note_failure({"product": product, "normal_form": nf.text(),
                                  "reason": "its walk from e does not end there at depth 2"})
    return rep
