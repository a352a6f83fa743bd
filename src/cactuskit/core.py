"""Presentations of the cactus group J_n and the affine cactus group AJ_n.

Both groups are generated by involutions attached to intervals of indices.

* J_n has one generator s_{p,q} for every integer interval [p, q] with
  1 <= p < q <= n.
* AJ_n has one generator sigma_{p,q} for every ordered pair p != q; the
  attached interval [p, q]_c is *cyclic*: it runs forward from p to q around
  Z/n, wrapping past n when q < p.  E.g. for n = 5, [2, 1]_c traverses
  (2, 3, 4, 5, 1).

The defining relations (beyond each generator squaring to the identity) come
in two shapes, decided entirely by how the two intervals sit relative to each
other:

* disjoint intervals commute;
* if one interval contains the other, the big generator conjugates the small
  one to its mirror image under the reflection of the big interval.

Containment of cyclic intervals is containment *as arcs*: the inner interval's
members must all lie in the outer one and the inner arc must run forward
inside the outer arc without crossing the outer arc's endpoint.  The
distinction matters only when the outer interval covers every residue: for
n = 3 the intervals [1,3]_c, [2,1]_c and [3,2]_c all have member set {1,2,3}
but none of them contains another, and sigma_{3,1} is *not* nested in
[1,3]_c because the arc (3,1) crosses the seam of (1,2,3).  Reading
containment as plain set inclusion would generate relations the groups do not
have.

The reflection of [p, q]_c sends the arc to itself reversed; on members it is
r |-> p + q - r reduced into [1, n] modulo n.
"""

from __future__ import annotations

import codecs
import enum
import weakref
from dataclasses import dataclass
from functools import lru_cache


class CactusError(Exception):
    """Base class for errors raised by this package."""


class IndexOutOfRange(CactusError, ValueError):
    """A strand index fell outside 1..n."""


class InvalidPair(CactusError, ValueError):
    """An index pair does not name a generator of the requested family."""


class SpecMismatch(CactusError, ValueError):
    """Two objects belonging to different group specs were combined."""


class OutOfInterval(CactusError, ValueError):
    """Reflection was evaluated at a point outside the interval."""


class NotNested(CactusError, ValueError):
    """Conjugation requested for a pair that is not strictly nested."""


class WrongFamily(CactusError, ValueError):
    """An operation restricted to one family got the other one."""


class NotAJ3(WrongFamily):
    """The hyperbolic embedding is defined for the affine group on 3 strands."""


class BudgetExceeded(CactusError, RuntimeError):
    """An enumeration grew past its word or vertex budget."""


class VertexNotInBall(CactusError, KeyError):
    """A vertex key is not present in the ball."""


class MalformedInput(CactusError, ValueError):
    """A serialized ball does not follow the export schema."""


class PreconditionViolated(CactusError, ValueError):
    """A check was invoked outside its stated precondition."""


class ClosureViolation(CactusError, RuntimeError):
    """Developing the tessellation around a cycle failed to close up."""


class TooSmall(CactusError, ValueError):
    """The ball is too small for the requested measurement."""


class Family(enum.Enum):
    CACTUS = "cactus"
    AFFINE = "affine"


_AFFINE = Family.AFFINE


@dataclass(frozen=True)
class GroupSpec:
    """Which group we are working in: a family plus the number of strands."""

    family: Family
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise IndexOutOfRange(f"degree must be at least 2, got {self.degree}")

    def __hash__(self) -> int:
        # ints only, one per spec: the dataclass hash would call Enum.__hash__
        # (a Python-level hash of the member's name, which depends on
        # PYTHONHASHSEED), and every presentation(spec) lookup pays for it
        return 2 * self.degree + (self.family is _AFFINE)

    @property
    def n(self) -> int:
        return self.degree

    @property
    def generator_count(self) -> int:  # G from n alone: n(n-1) for AJ_n, half that for J_n
        return self.degree * (self.degree - 1) // (1 if self.family is _AFFINE else 2)


def cactus(n: int) -> GroupSpec:
    return GroupSpec(Family.CACTUS, n)


def affine(n: int) -> GroupSpec:
    return GroupSpec(Family.AFFINE, n)


def _wrap(z: int, n: int) -> int:
    """Reduce z into the window [1, n] modulo n."""
    return (z - 1) % n + 1


@dataclass(frozen=True)
class Generator:
    """One involutive generator, identified by its ordered index pair.

    For the cactus family p < q is required; for the affine family any
    ordered pair with p != q is a generator (sigma_{p,q} and sigma_{q,p}
    are different generators with different cyclic intervals).
    """

    p: int
    q: int
    spec: GroupSpec

    def __post_init__(self) -> None:
        n = self.spec.degree
        if not (1 <= self.p <= n and 1 <= self.q <= n):
            raise IndexOutOfRange(f"indices ({self.p},{self.q}) outside 1..{n}")
        if self.p == self.q:
            raise InvalidPair("generator indices must differ")
        if self.spec.family is Family.CACTUS and self.p > self.q:
            raise InvalidPair(
                f"cactus generators need p < q, got ({self.p},{self.q})"
            )

    def text(self) -> str:
        return f"{self.p},{self.q}"

    def __repr__(self) -> str:  # compact; the spec is clear from context
        return f"g({self.p},{self.q})"


def make_generator(spec: GroupSpec, p: int, q: int) -> Generator:
    return Generator(p, q, spec)


def parse_generator(spec: GroupSpec, text: str) -> Generator:
    """Parse the "p,q" generator syntax."""
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidPair(f"expected 'p,q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InvalidPair(f"expected integers in {text!r}") from exc
    return Generator(p, q, spec)


def generators(spec: GroupSpec) -> tuple[Generator, ...]:
    """All generators of the spec in lexicographic (p, q) order.

    J_n has n(n-1)/2 of them, AJ_n has n(n-1).
    """
    n = spec.degree
    if spec.family is Family.CACTUS:
        pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    else:
        pairs = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]
    return tuple(Generator(p, q, spec) for p, q in pairs)


@dataclass(frozen=True)
class CyclicInterval:
    """The (possibly wrapping) arc of strand indices attached to a generator.

    `members` lists the indices in traversal order from p to q; the member
    *set* alone does not determine the arc once it covers all residues, so
    order is kept.
    """

    p: int
    q: int
    degree: int
    members: tuple[int, ...]

    @staticmethod
    def of(p: int, q: int, n: int) -> "CyclicInterval":
        if not (1 <= p <= n and 1 <= q <= n) or p == q:
            raise InvalidPair(f"no interval for ({p},{q}) with n={n}")
        if p < q:
            members = tuple(range(p, q + 1))
        else:
            members = tuple(range(p, n + 1)) + tuple(range(1, q + 1))
        return CyclicInterval(p, q, n, members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, r: int) -> bool:
        if self.p <= self.q:
            return self.p <= r <= self.q
        return r >= self.p or r <= self.q


def interval_of(g: Generator) -> CyclicInterval:
    return CyclicInterval.of(g.p, g.q, g.spec.degree)


class RelationKind(enum.Enum):
    """How two distinct generators' intervals sit relative to each other."""

    NONE = "none"
    DISJOINT = "disjoint"
    FIRST_CONTAINS_SECOND = "first_contains_second"
    SECOND_CONTAINS_FIRST = "second_contains_first"

    __hash__ = object.__hash__  # in C, not Enum's Python-level one: verify keys on kinds


def _arc_contains(op: int, oq: int, ip_: int, iq: int, n: int) -> bool:
    # Position of x inside the outer arc (p, p+1, ..., q) is (x - p) mod n.
    # The inner arc is contained iff both endpoints lie in the outer arc and
    # the inner arc runs forward there (start position <= end position).
    lo = (oq - op) % n  # position of the outer endpoint
    pi = (ip_ - op) % n
    qi = (iq - op) % n
    return pi <= lo and qi <= lo and pi <= qi


def classify(g1: Generator, g2: Generator) -> RelationKind:
    """Decide which defining relation (if any) binds an ordered pair.

    Exactly one of the four kinds holds for distinct generators of a common
    spec.  NONE means the intervals overlap without nesting, in which case
    the pair satisfies no relation at all.
    """
    if g1.spec != g2.spec:
        raise SpecMismatch(f"{g1!r} and {g2!r} live in different groups")
    if g1 == g2:
        raise InvalidPair("classify needs two distinct generators")
    n = g1.spec.degree
    i1, i2 = interval_of(g1), interval_of(g2)
    if frozenset(i1.members).isdisjoint(i2.members):
        return RelationKind.DISJOINT
    if len(i1) > len(i2) and _arc_contains(g1.p, g1.q, g2.p, g2.q, n):
        return RelationKind.FIRST_CONTAINS_SECOND
    if len(i2) > len(i1) and _arc_contains(g2.p, g2.q, g1.p, g1.q, n):
        return RelationKind.SECOND_CONTAINS_FIRST
    return RelationKind.NONE


def s_reflect(p: int, q: int, r: int, n: int) -> int:
    """Reflect the point r across the interval [p, q]_c.

    The reflection reverses the arc, sending its k-th member to its k-th
    member from the end; on indices that is r |-> p + q - r reduced into
    [1, n] mod n.  Only defined for r inside the interval.
    """
    if not (1 <= r <= n):
        raise IndexOutOfRange(f"r={r} outside 1..{n}")
    if r not in CyclicInterval.of(p, q, n):
        raise OutOfInterval(f"{r} not in the interval [{p},{q}]_c")
    return _wrap(p + q - r, n)


def conjugate_nested(outer: Generator, inner: Generator) -> Generator:
    """The image of `inner` when conjugated by a strictly containing `outer`.

    outer * inner = conjugate_nested(outer, inner) * outer holds in the
    group.  The image interval is the mirror of the inner one inside the
    outer arc, traversed in the opposite direction, hence the index swap.
    """
    if classify(outer, inner) is not RelationKind.FIRST_CONTAINS_SECOND:
        raise NotNested(f"{inner!r} is not strictly nested in {outer!r}")
    n = outer.spec.degree
    return Generator(
        s_reflect(outer.p, outer.q, inner.q, n),
        s_reflect(outer.p, outer.q, inner.p, n),
        outer.spec,
    )


# --------------------------------------------------------------------------
# Precomputed tables: the one relation table (par) and the text tables.
#
# Everything downstream (normalization, ball construction, verification)
# starts from pair lookups, so we flatten the generator set to integer ids and
# tabulate, per ordered pair, the label each letter takes across the square
# the pair spans (par, G rows of G), the one O(G^2) table: par[a][b] >= 0 iff
# a and b are related.  A row of par is made on its first read, from a's
# endpoints in O(G), so a presentation costs O(G) until it is read, and the
# word problem (rewriting) makes only the rows of the letters its words
# meet; ball (cayley) and verify read every row.  Every table is indexed by
# generator id.  The word problem also keeps one row per descent state it
# meets, the root made here and every other row by rewriting._up, which
# steps into it (reset_states).
# Text meets ids at two tables: gid_of_text maps each canonical spelling
# "p,q" to its id, texts maps each id back to it.  Up to degree 9 every
# spelling is three characters, and rewriting.parse_word decodes a whole
# word in two codec calls: _FRAMES takes its frames "p," and "q;" to the
# bytes p + 1 and q + 11, then pair_map each such byte pair, read as one
# UTF-16-LE code unit, to the pair's id + 1, and _UNSHIFT takes the one off.
# Both maps are EncodingMaps (the codecs' own C table), made by _encoding_map.
#
# Priority of a generator: kappa(g) = (-|interval|, p, q) -- longer
# intervals first, then smaller start, then smaller end; rank[g] is g's
# place in that order.  A normal form is its element's kappa-shortlex-least
# word (rewriting).
# --------------------------------------------------------------------------


def _encoding_map(units):
    """The EncodingMap taking units[i] to the byte i + 1: it needs U+0000 in
    slot 0 and U+FFFE in the unused slots, hence the offset of one."""
    return codecs.charmap_build("".join(["\0", *units]).ljust(256, "\ufffe"))


# "d," to the byte d + 1 and "d;" to d + 11, each pair as one code unit
_FRAMES = _encoding_map(chr(ord(d) | ord(end) << 8) for end in ",;" for d in "0123456789")
# byte b to b - 1: undoes pair_map's offset of one
_UNSHIFT = bytes([255, *range(255)])


def _checked_generator_count(spec: GroupSpec) -> int:
    """G, or BudgetExceeded from 65,536 on: a ball packs neighbor_vid << 16 | gid."""
    if (G := spec.generator_count) >= 1 << 16:
        raise BudgetExceeded(f"{spec.family.value} n = {spec.degree} has {G} generators; "
                             "the tables hold fewer than 65536")
    return G


class _ParRows:
    """What the unread rows of one presentation's par share: the spec, its
    generator pairs and ids, the list 0, 1, ..., G - 1 whose int objects
    every row copies.  It holds the presentation weakly, so an unread row
    makes no reference cycle: a presentation is freed when its last
    reference goes, unread rows and all, without the cyclic collector."""

    __slots__ = ("owner", "spec", "pairs", "ids")

    def __init__(self, pres: "Presentation") -> None:
        self.owner, self.spec, self.pairs = weakref.ref(pres), pres.spec, pres.pairs
        self.ids = list(range(pres.G))

    def read(self, a: int) -> list[int]:
        """Row a of par, made and put in par's slot a on its first read.  Two
        threads may both make it; the rows are equal, and either stays.  A
        row read once its presentation is gone (Presentation(spec).par) is
        made for that read."""
        pres = self.owner()
        row = pres.par[a] if pres is not None else None
        if type(row) is not list:
            row = _par_row(self.spec, *self.pairs[a], a, self.ids)
            if pres is not None:
                pres.par[a] = row
        return row


class _UnreadRow:
    """Row a of par before its first read.  A subscript, len or iteration
    makes the row, puts it in par's slot a and reads it there, so par[a] is a
    plain list from then on; a reference taken before that reads the list."""

    __slots__ = ("rows", "a")

    def __init__(self, rows: _ParRows, a: int) -> None:
        self.rows, self.a = rows, a

    def __getitem__(self, b):
        return self.rows.read(self.a)[b]

    def __len__(self) -> int:
        return len(self.rows.read(self.a))

    def __iter__(self):
        return iter(self.rows.read(self.a))


def _par_row(spec: GroupSpec, p: int, q: int, a: int, ids: list[int]) -> list[int]:
    """Row a of par, for a = (p, q), from a's endpoints alone.

    A copy of ids holds b wherever b is disjoint from a or contains it, so
    only the b that meet a otherwise are written.  Walking a's arc from p, a
    b = (r, s) that starts at a member r is nested in a when s lies further
    along the arc (it takes its mirror; s = q from r = p is a itself, -1),
    and overlaps a without nesting when r is past p and s runs from q + 1
    on around to r - 1 (-1).  A b that starts outside a overlaps it without
    nesting when s runs from p to q - 1 (-1).  J_n has only the b with r < s.
    """
    n, affine = spec.degree, spec.family is _AFFINE
    ring = [(p + x - 1) % n + 1 for x in range(n)]  # 1..n from p on, around the circle
    L = (q - p) % n + 1  # a's members are ring[:L]
    row = ids.copy()

    def gid(r: int, s: int) -> int:
        if affine:
            return (r - 1) * (n - 1) + s - 1 - (s > r)
        return (r - 1) * n - r * (r - 1) // 2 + s - r - 1

    def put(r: int, s: int, vals: list[int]) -> None:
        # vals at (r, s), (r, s + 1), ...: their ids run on up to s = n, where
        # an arc goes on from s = 1 and an interval stops; none reaches s = r
        while vals and (affine or r < s):
            x, k = gid(r, s), n + 1 - s
            head, vals, s = vals[:k], vals[k:] if affine else [], 1
            row[x:x + len(head)] = head

    for i, r in enumerate(ring):
        if i < L:
            t = ring[L - 1 - i]  # the end of each mirror from r: (ring[m], t)
            put(r, r % n + 1, [ids[gid(ring[m], t)] for m in range(L - 2 - i, -1, -1)])
            if i:
                put(r, q % n + 1, [-1] * (n - L + i))
        else:
            put(r, p, [-1] * (L - 1))
    row[a] = -1
    return row


class Presentation:
    """Integer-indexed tables for one group spec.  par, the one table of G^2
    entries, is G rows made on first read: construction makes tables of G
    entries only.  G >= 65,536 raises BudgetExceeded before any table is
    made."""

    def __init__(self, spec: GroupSpec) -> None:
        G = _checked_generator_count(spec)
        self.spec, self.G = spec, G
        gens = self.gens = generators(spec)
        self.pairs = tuple((g.p, g.q) for g in gens)
        self.gid = {pq: i for i, pq in enumerate(self.pairs)}
        self.texts = [g.text() for g in gens]
        self.gid_of_text = {t: i for i, t in enumerate(self.texts)}
        # the frame bytes (p + 1, q + 11) to the byte id + 1; G <= 72 here
        self.pair_map = _encoding_map(
            chr(p + 1 | (q + 11) << 8) for p, q in self.pairs
        ) if spec.degree <= 9 else None
        n = spec.degree
        self.card = card = [(q - p) % n + 1 for p, q in self.pairs]
        # kappa rank of each id: the kappa order, then its inverse permutation
        by_kappa = sorted(range(G), key=lambda i: (-card[i], *self.pairs[i]))
        self.rank = sorted(range(G), key=by_kappa.__getitem__)

        # par[a][b] is the label b takes across the square it spans with a:
        # its mirror in a when a contains b, b itself when they are disjoint
        # or b contains a, -1 when they span none; (a, b) = (par[a][b],
        # par[b][a]).  Row a is made on its first read (_par_row).
        rows = _ParRows(self)
        self.par = [_UnreadRow(rows, a) for a in rows.ids]

        self.state_of: dict[int, list] = {}
        self.reset_states()

    # -- the descent automaton ----------------------------------------------

    def reset_states(self) -> None:
        """Forget every descent state but the empty word's, the root row.

        The word problem (rewriting) runs a finite automaton whose states are
        the right descent masks of geodesics, one row per mask, each a list of
        G + 2 slots: row[g] is the row after appending g, () when g is in the
        mask (g cancels), or None until rewriting._up fills it; row[G] is the
        mask's kappa-least letter (-1 at the root) and row[G + 1] the mask, a
        set of generator ids (bit g is letter g).  state_of maps each mask to
        its row, and no step leads back to the root.  Every mask is a clique
        of the link at e, so there are at most cliques + 1 rows (the empty
        mask is the root's).  _up makes every other row, whole, and publishes
        it with state_of.setdefault: threads that make one mask's row at once
        all step to the row published first, so no lock is taken.  Not to be
        called while another thread uses the presentation.

        Rows step to one another in cycles, so each dropped row is cleared
        first: the rows are freed when state_of lets them go, without the
        cyclic garbage collector.  A presentation's own rows are cleared the
        same way when it is freed (__del__).
        """
        for row in self.state_of.values():
            row.clear()
        self.root = [None] * self.G + [-1, 0]
        self.state_of = {0: self.root}

    def __del__(self) -> None:
        # Once the presentation() cache has evicted it and no word or ball
        # holds it, no descent is running on its rows: clear them, as
        # reset_states does, so they are freed now, not by the collector.
        for row in getattr(self, "state_of", {}).values():
            row.clear()

    def __reduce__(self):
        # words keep their presentation: a copy or an unpickled word gets the
        # one cached for its spec, not a private table
        return presentation, (self.spec,)

    # -- encoding ----------------------------------------------------------

    def id_of(self, g: Generator) -> int:
        if g.spec is not self.spec and g.spec != self.spec:
            raise SpecMismatch(f"{g!r} does not belong to {self.spec}")
        return self.gid[(g.p, g.q)]

    def ids(self, letters) -> list[int]:
        # Letters built on this presentation's own spec object (every word the
        # rewriting module returns) pass by identity; any other goes through
        # id_of's value check.
        spec, gid = self.spec, self.gid
        return [gid[g.p, g.q] if g.spec is spec else self.id_of(g) for g in letters]

    def letters(self, ids) -> tuple[Generator, ...]:
        return tuple(map(self.gens.__getitem__, ids))


@lru_cache(maxsize=32)
def presentation(spec: GroupSpec) -> Presentation:
    """The tables of one spec, kept for the 32 specs used last: tables of G
    entries, the rows of par read so far (G slots each, G rows once every row
    is read) and at most cliques + 1 descent rows of G + 2 slots.
    An evicted spec is rebuilt on its next use with the same generator ids,
    so the ids that words made earlier carry stay valid.  An evicted
    presentation and its rows are freed once no word or ball holds it,
    without the cyclic garbage collector."""
    return Presentation(spec)
