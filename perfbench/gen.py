"""Seeded inputs and independent expectations for the benchmark.

Nothing here imports cactuskit: the generators, relators and reference
counts are worked out from the group presentation and the {4,6} tiling
directly, so an answer checked against them is checked against a
computation that does not share code with the program under test.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

# Word-problem mix: groups, word lengths and the request kinds.
WORD_SPECS = (("affine", 3), ("affine", 4), ("cactus", 5), ("affine", 5), ("cactus", 6))
WORD_LENGTHS = (8, 16, 32, 64, 128)
NORMALIZE, EQUAL_TRUE, EQUAL_FALSE = "normalize", "equal-true", "equal-false"

# Where the rewriting system is certified confluent (cactuskit.rewriting's
# module docstring): there `equal` is complete and `ball` is the exact Cayley
# ball.  Beyond it both are documented to fall short, in one direction only:
# `equal` may answer "false" for equal words, and `ball` may split one group
# element into several vertices, but never merges or loses one.
CERTIFIED_SCOPE = frozenset({("affine", 3)})

# Exact sphere sizes of J_4 (finite complete rewriting system) and J_5, and
# the exact vertex total of AJ_4 r6, where Knuth-Bendix completion and closure
# keying agree, from the comparison of independent counts in ROADMAP item 1.
J4_EXACT_SPHERES = (1, 6, 20, 55, 145, 380, 995, 2605)
J5_EXACT_SPHERES = (1, 10, 60, 305, 1481, 7116, 34115)
EXACT_BALL_VERTICES = {
    ("cactus", 4, 3): sum(J4_EXACT_SPHERES[:4]),
    ("cactus", 4, 4): sum(J4_EXACT_SPHERES[:5]),
    ("cactus", 4, 7): sum(J4_EXACT_SPHERES),
    ("cactus", 5, 3): sum(J5_EXACT_SPHERES[:4]),
    ("cactus", 5, 5): sum(J5_EXACT_SPHERES[:6]),
    ("cactus", 5, 6): sum(J5_EXACT_SPHERES),
    ("affine", 4, 6): 454_641,
}


def arc(p: int, q: int, n: int) -> tuple[int, ...]:
    """Strand indices from p forward to q, wrapping past n."""
    if p < q:
        return tuple(range(p, q + 1))
    return tuple(range(p, n + 1)) + tuple(range(1, q + 1))


@dataclass(frozen=True)
class Group:
    """Generators of J_n or AJ_n with the pairs that carry a defining relation."""

    family: str
    n: int
    gens: tuple[tuple[int, int], ...]
    disjoint: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    # (outer, inner, image): outer * inner = image * outer
    nested: tuple[tuple[tuple[int, int], tuple[int, int], tuple[int, int]], ...]


@lru_cache(maxsize=None)
def group(family: str, n: int) -> Group:
    rng = range(1, n + 1)
    if family == "cactus":
        gens = tuple((p, q) for p in rng for q in rng if p < q)
    else:
        gens = tuple((p, q) for p in rng for q in rng if p != q)
    arcs = {g: arc(*g, n) for g in gens}
    disjoint, nested = [], []
    for a in gens:
        for b in gens:
            outer, inner = arcs[a], arcs[b]
            if not set(outer) & set(inner):
                disjoint.append((a, b))
            elif len(inner) < len(outer) and set(inner) <= set(outer):
                i = outer.index(inner[0])
                if outer[i : i + len(inner)] == inner:
                    # the reflection reverses the outer arc
                    flip = {r: outer[len(outer) - 1 - j] for j, r in enumerate(outer)}
                    nested.append((a, b, (flip[b[1]], flip[b[0]])))
    return Group(family, n, gens, tuple(disjoint), tuple(nested))


def word_text(letters) -> str:
    return ";".join(f"{p},{q}" for p, q in letters) if letters else "e"


def relator(g: Group, rnd: random.Random) -> list[tuple[int, int]]:
    """One defining-relator instance: gg, abab (disjoint) or abac (nested)."""
    kinds = ["gg"] + (["abab"] if g.disjoint else []) + (["abac"] if g.nested else [])
    kind = rnd.choice(kinds)
    if kind == "gg":
        x = rnd.choice(g.gens)
        return [x, x]
    if kind == "abab":
        a, b = rnd.choice(g.disjoint)
        return [a, b, a, b]
    a, b, c = rnd.choice(g.nested)
    return [a, b, a, c]


@dataclass(frozen=True)
class Request:
    kind: str
    family: str
    n: int
    word: str
    word2: str = ""


def word_requests(seed: int, count: int) -> list[Request]:
    """`count` distinct requests in a seeded order: half normalize, a quarter
    of equal pairs equal by construction, a quarter that differ by one
    inserted letter.  Every (group, length, kind) class gets the same share
    whatever the seed, so a seed changes the words but not the mix."""
    rnd = random.Random(seed)
    kinds = (NORMALIZE, NORMALIZE, EQUAL_TRUE, EQUAL_FALSE)
    classes = [(group(f, n), length, kind)
               for f, n in WORD_SPECS for length in WORD_LENGTHS for kind in kinds]
    seen: set[Request] = set()
    out: list[Request] = []
    while len(out) < count:
        g, length, kind = classes[len(out) % len(classes)]
        base = [rnd.choice(g.gens) for _ in range(length)]
        if kind == NORMALIZE:
            req = Request(NORMALIZE, g.family, g.n, word_text(base))
        else:
            other = list(base)
            if kind == EQUAL_TRUE:
                for _ in range(rnd.randint(1, 4)):
                    at = rnd.randint(0, len(other))
                    other[at:at] = relator(g, rnd)
            else:
                # every relator has even length, so parity separates the two
                other.insert(rnd.randint(0, len(other)), rnd.choice(g.gens))
            req = Request(kind, g.family, g.n, word_text(base), word_text(other))
        if req not in seen:
            seen.add(req)
            out.append(req)
    rnd.shuffle(out)
    return out


def word_length(text: str) -> int:
    return 0 if text == "e" else text.count(";") + 1


def is_word_of(text: str, family: str, n: int) -> bool:
    if text == "e":
        return True
    gens = set(group(family, n).gens)
    try:
        return all(tuple(map(int, part.split(","))) in gens for part in text.split(";"))
    except ValueError:
        return False


OK, WRONG, UNPROVEN = "ok", "wrong", "unproven"


def verdict(req: Request, answer: str) -> str:
    """How one word-problem answer meets its independent expectation.

    A normal form must be a word of the group, no longer than the input and
    of the same length parity.  An equal pair must answer as constructed,
    with one documented exception: outside CERTIFIED_SCOPE, `equal` answering
    "false" on an equal pair means "not provably equal" (ROADMAP item 2).
    That answer is UNPROVEN, a known gap that is counted, not WRONG.
    """
    if req.kind == NORMALIZE:
        k, m = word_length(req.word), word_length(answer)
        return OK if is_word_of(answer, req.family, req.n) and m <= k and (k - m) % 2 == 0 else WRONG
    if answer == ("true" if req.kind == EQUAL_TRUE else "false"):
        return OK
    if req.kind == EQUAL_TRUE and answer == "false" and (req.family, req.n) not in CERTIFIED_SCOPE:
        return UNPROVEN
    return WRONG


def ball_edge_count(spheres, degree: int) -> int:
    """Edges of a Cayley ball with these sphere sizes.

    Every vertex inside radius R-1 keeps all `degree` neighbours, and every
    relator has even length, so each edge joins consecutive spheres.  Hence
    E(r) = degree * |B(r-1)| - E(r-1).
    """
    edges, inner = 0, 0
    for size in spheres[:-1]:
        inner += size
        edges = degree * inner - edges
    return edges


def pair_count(spheres, radius: int) -> int:
    """Unordered vertex pairs whose depths sum to at most `radius`."""
    total = 0
    for i, si in enumerate(spheres):
        for j in range(i, len(spheres)):
            if i + j <= radius:
                total += si * (si - 1) // 2 if i == j else si * spheres[j]
    return total


TILING_EDGE = 2.0 * math.acosh(math.sqrt(2.0))


def _mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def tiling_sphere_sizes(radius: int) -> list[int]:
    """Sphere sizes of the 1-skeleton of the {4,6} square tiling.

    The degree-3 affine cactus group acts simply transitively on its
    vertices, so these are AJ_3's sphere sizes.  A vertex is reached by a
    frame (an isometry of the disk, as an SU(1,1) matrix) and keyed by the
    hyperboloid coordinates of the image of the origin; at each vertex the
    six edges leave at angles k*pi/3, one of them pointing back.
    """
    half = TILING_EDGE / 2.0
    step = ((math.cosh(half), math.sinh(half)), (math.sinh(half), math.cosh(half)))
    turns = [
        ((cmath.exp(1j * k * math.pi / 6), 0), (0, cmath.exp(-1j * k * math.pi / 6)))
        for k in range(6)
    ]
    back = turns[3]

    def key(m):
        a, b = m[0][0], m[0][1]
        x0 = abs(a) ** 2 + abs(b) ** 2
        xy = 2 * a * b
        return (round(x0, 4), round(xy.real, 4), round(xy.imag, 4))

    ident = ((1 + 0j, 0j), (0j, 1 + 0j))
    seen = {key(ident)}
    frontier = [ident]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for frame in frontier:
            for turn in turns:
                moved = _mul(_mul(_mul(frame, turn), step), back)
                k = key(moved)
                if k not in seen:
                    seen.add(k)
                    nxt.append(moved)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


def trusted_quadruples(spheres, radius: int) -> int:
    """4-subsets of distinct vertices whose two largest depths sum to at most
    `radius`, the quadruples whose six distances the ball certifies."""
    total = 0
    for depths in combinations_with_replacement(range(len(spheres)), 4):
        if depths[2] + depths[3] <= radius:
            ways = 1
            for d in set(depths):
                ways *= math.comb(spheres[d], depths.count(d))
            total += ways
    return total
