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

All checks treat the ball as a labeled graph, navigating purely along stored
edges, so they work unchanged on imported (possibly deliberately broken)
graphs without normal-form assumptions smoothing over the defects.

Alongside these sit the index-shift correspondences between the affine and
plain presentations: the maps phi (cyclic to plain, conjugating by a rotation
that puts the shift index first) and psi (its inverse), plus exhaustive
verification that they carry interval configurations back and forth.
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
    WrongFamily,
    _REL_DISJOINT,
    _REL_FIRST,
    _REL_NONE,
    _REL_SECOND,
    _wrap,
    affine,
    cactus,
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
    spec: GroupSpec | None
    params: dict
    items_checked: int
    failure_count: int
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
        d = {
            "check": self.check_name,
            "params": dict(self.params),
            "items_checked": self.items_checked,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
            "vacuous": self.vacuous,
            "passed": self.passed,
        }
        if self.spec is not None:
            d["spec"] = {"family": self.spec.family.value, "n": self.spec.degree}
        return d


# ---------------------------------------------------------------------------
# Squares: conditions on the 2-skeleton
# ---------------------------------------------------------------------------


def check_squares_embedded(b: CayleyBall) -> VerificationReport:
    """Every 4-cycle in the ball has four pairwise distinct corners."""
    sqs = squares(b)
    rep = VerificationReport(
        "squares-embedded", b.spec, {"radius": b.radius}, len(sqs), 0,
        vacuous=not sqs,
    )
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
    rep = VerificationReport(
        "no-shared-consecutive-edges", b.spec, {"radius": b.radius},
        items, 0, vacuous=not sqs,
    )
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
    """Unordered generator-id triples whose intervals are pairwise related."""
    pres = presentation(spec)
    G, rel = pres.G, pres.rel
    return [
        (a, b, c) for a, b, c in combinations(range(G), 3)
        if rel[a * G + b] and rel[a * G + c] and rel[b * G + c]
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
    G, par, card, gens = pres.G, pres.par, pres.card, pres.gens
    triples = _related_triples(b.spec)
    eligible = [v for v in range(len(b)) if b.depth_at(v) <= b.radius - 3]
    rep = VerificationReport(
        "cube-spans", b.spec, {"radius": b.radius},
        len(triples) * len(eligible), 0,
        vacuous=not triples or not eligible,
    )

    def two_step(v: int, a: int, c: int) -> int:
        w = b.step(v, a)
        return -1 if w < 0 else b.step(w, c)

    def far_corner(v: int, a: int, c: int) -> tuple[int, int]:
        """The corner opposite v on the face with labels {a, c}, both routes:
        each first letter, then the other's label across the face (par)."""
        return two_step(v, a, par[a * G + c]), two_step(v, c, par[c * G + a])

    def defect(v: int, x: int, y: int, z: int) -> dict | None:
        """Why the cube at v on labels x, y, z does not span, or None."""
        corners = [b.step(v, g) for g in (x, y, z)]
        if min(corners) < 0:
            return {"reason": "adjacent corner missing"}
        fars = []
        for a, c in ((x, y), (x, z), (y, z)):
            r1, r2 = far_corner(v, a, c)
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

    rep = VerificationReport(
        "median", b.spec, {"radius": b.radius, "test_depth": t},
        0, 0, vacuous=not sources,
    )
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
    rep = VerificationReport(
        "phi-psi-roundtrip", affine(n), {"n": n}, 0, 0
    )
    for i in range(1, n + 1):
        for g in generators(affine(n)):
            rep.items_checked += 1
            back = psi_pair(i, phi_pair(i, (g.p, g.q), n), n)
            if back != (g.p, g.q):
                rep.note_failure({"i": i, "pair": [g.p, g.q], "round_trip": list(back)})
                continue
            p1, q1 = phi_pair(i, (g.p, g.q), n)
            if p1 < q1:
                img = psi_map(i, phi_map(i, g))
                if img != g:
                    rep.note_failure({"i": i, "pair": [g.p, g.q],
                                      "generator_round_trip": img.text()})
    return rep


def _plain_contains(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _plain_disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[1] < b[0] or b[1] < a[0]


# The four interval configurations a cube corner can realize, as constraints
# (label pair, relation code) on the ordered label triple 1, 2, 3, where 1 is
# the label whose start index drives the shift.  _REL_FIRST on (i, j): label
# i contains label j; _REL_DISJOINT: the two are disjoint.
_CONFIGS = (
    ("chain", (((1, 2), _REL_FIRST), ((2, 3), _REL_FIRST))),
    ("nested-plus-disjoint", (((1, 2), _REL_FIRST), ((1, 3), _REL_DISJOINT))),
    ("common-outer",
     (((1, 2), _REL_FIRST), ((1, 3), _REL_FIRST), ((2, 3), _REL_DISJOINT))),
    ("pairwise-disjoint",
     (((1, 2), _REL_DISJOINT), ((1, 3), _REL_DISJOINT), ((2, 3), _REL_DISJOINT))),
)
# what each relation code of a constraint says of the plain (shifted) pairs
_PLAIN_RELATIONS = {
    _REL_FIRST: ("containment", _plain_contains),
    _REL_DISJOINT: ("disjointness", _plain_disjoint),
}
_TRIPLE_PAIRS = ((1, 2), (1, 3), (2, 3))


def _configured_triples(n: int):
    """(name, constraints, label pairs) for each ordered triple of distinct
    generators of AJ_n realizing a configuration of _CONFIGS."""
    pres = presentation(affine(n))
    G, rel, pairs = pres.G, pres.rel, pres.pairs
    # the configurations that the relation codes (r12, r13, r23) of a label
    # triple realize, read off _CONFIGS
    by_codes: dict[tuple[int, ...], list] = {}
    for codes in product((_REL_NONE, _REL_DISJOINT, _REL_FIRST, _REL_SECOND), repeat=3):
        have = dict(zip(_TRIPLE_PAIRS, codes))
        for name, constraints in _CONFIGS:
            if all(have[ij] == r for ij, r in constraints):
                by_codes.setdefault(codes, []).append((name, constraints))
    leads = {codes[0] for codes in by_codes}  # the r12 codes that some configuration allows
    for a, b in permutations(range(G), 2):
        r12 = rel[a * G + b]
        if r12 not in leads:
            continue
        for c in range(G):
            if c != a and c != b:
                for name, constraints in by_codes.get((r12, rel[a * G + c], rel[b * G + c]), ()):
                    yield name, constraints, (pairs[a], pairs[b], pairs[c])


def verify_claim_phi(n: int) -> VerificationReport:
    """The shift by the leading start index turns cyclic configurations into
    plain (non-wrapping) ones.

    Exhaustive over all ordered triples of distinct generators realizing each
    of the four configurations; for each, asserts that the shifted index
    pairs are valid plain intervals in the stated relations.
    """
    if n < 3:
        raise PreconditionViolated("configurations need n >= 3")
    rep = VerificationReport("claim-phi", affine(n), {"n": n}, 0, 0)
    for name, constraints, labels in _configured_triples(n):
        rep.items_checked += 1
        i = labels[0][0]
        images = [phi_pair(i, pq, n) for pq in labels]

        def expect(cond: bool, what: str) -> None:
            if not cond:
                rep.note_failure({
                    "configuration": name,
                    "tuple": [list(pq) for pq in labels],
                    "shift": i,
                    "images": [list(t) for t in images],
                    "violated": what,
                })

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
    if n < 3:
        raise PreconditionViolated("configurations need n >= 3")
    rep = VerificationReport(
        "claim-psi", affine(n), {"n": n, "wrapped_ordering_instances": 0}, 0, 0
    )
    for name, constraints, labels in _configured_triples(n):
        rep.items_checked += 1
        i = labels[0][0]
        images = [phi_pair(i, pq, n) for pq in labels]
        back = tuple(psi_pair(i, t, n) for t in images)
        if back != labels:
            rep.note_failure({
                "configuration": name,
                "tuple": [list(pq) for pq in labels],
                "shift": i,
                "returned": [list(t) for t in back],
            })
            continue
        # the ordering where both arcs wrap: k < l < j < i with
        # [i,j] containing [k,l]; every shifted index gains n before reduction
        j = labels[0][1]
        k, l = labels[1]
        if ((1, 2), _REL_FIRST) in constraints and k < l < j < i:
            rep.params["wrapped_ordering_instances"] += 1
            ip, jp = images[0]
            kp, lp = images[1]
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
                rep.note_failure({
                    "configuration": name,
                    "tuple": [list(pq) for pq in labels],
                    "shift": i,
                    "violated": "closed-form values of the doubly-wrapped ordering",
                })
    return rep


# ---------------------------------------------------------------------------
# Normal forms of the squares at the identity
# ---------------------------------------------------------------------------


def check_square_normal_forms(b: CayleyBall) -> VerificationReport:
    """The far corner of each square at the identity has the expected word.

    For a nested pair the normal form leads with the outer generator (in both
    multiplication orders); for a disjoint pair it leads with the
    higher-priority generator -- longer interval first, then smaller start
    index (for equal lengths this is exactly smaller-start-first).
    """
    spec = b.spec
    rep = VerificationReport(
        "square-normal-forms", spec, {"radius": b.radius}, 0, 0,
        vacuous=b.radius < 2,
    )
    if b.radius < 2:
        return rep
    pres = presentation(spec)
    G, rel = pres.G, pres.rel
    gens = pres.gens
    for a in range(G):
        for c in range(a + 1, G):
            k = rel[a * G + c]
            if not k:
                continue
            rep.items_checked += 1
            ga, gc = gens[a], gens[c]
            nf1 = normalize(Word(spec, (ga, gc)))
            nf2 = normalize(Word(spec, (gc, ga)))
            if k == _REL_DISJOINT:
                first = ga if pres.kappa[a] < pres.kappa[c] else gc
                second = gc if first is ga else ga
                want1 = want2 = (first, second)
            else:
                outer, inner = (ga, gc) if k == _REL_FIRST else (gc, ga)
                want_oi = (outer, inner)
                want_io = (outer, conjugate_nested(outer, inner))
                want1 = want_oi if ga is outer else want_io
                want2 = want_oi if gc is outer else want_io
            bad = []
            if nf1.letters != want1:
                bad.append([ga.text(), gc.text(), nf1.text()])
            if nf2.letters != want2:
                bad.append([gc.text(), ga.text(), nf2.text()])
            for order in bad:
                rep.note_failure({"product": order[:2], "normal_form": order[2]})
            # the far corner itself must sit in the ball at depth 2
            far = tuple((g.p, g.q) for g in nf1.letters)
            if far not in b:
                rep.note_failure({
                    "product": [ga.text(), gc.text()],
                    "reason": "far corner missing from the ball",
                })
    return rep
