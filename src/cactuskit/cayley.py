"""Finite balls of the Cayley graph, with distances, squares, and export.

Vertices are group elements keyed by their normal forms, which are unique
because the Cayley complex is CAT(0) (the rewriting module docstring, after
Sageev 1995 and Niblo-Reeves 1998), so a ball is the exact Cayley ball.
Edges join g to g*sigma for every generator sigma (involutions, so the
graph is undirected and simple).

Internally a ball is flat arrays: a vertex key is the str whose code points
are its generator ids (so keys sort like their id lists), adjacency is one
packed integer (neighbor_vid << 16 | gid) per directed edge, grouped per
vertex.  The kernels work on these arrays and make no word per vertex: ball
completes squares off its own rows, reading only par of the word problem's
tables, one BFS loop (_bfs) gives both spheres and distances, squares
searches the rows in vid order and makes a square's corner keys only when
its cycle is read, and text is made from keys at the export.  The
per-vertex loops are plain loops: no comprehension in them reads a loop
local, which would make that local a cell.  A kernel that reads many rows
slices one list copy of the arrays (CayleyBall.lists), whose slices hold
ints already made: squares, the trusted BFS rows and the disk kernels of
the hyperbolic module.  `sphere_sizes` reads a ball's spheres off the
growth series of the link at e and builds no ball and no table.  One
writer, `_json_text`, writes the ball's JSON, both for `export(b, "json")`
and for the CLI's `ball` to stdout.  The public API speaks in tuples of
index pairs, e.g. ((1, 4), (1, 2), (3, 4)).
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, combinations, repeat
from json.encoder import encode_basestring_ascii
from math import comb
from operator import itemgetter, mul
from typing import Callable, Iterator, NamedTuple

from .core import (
    BudgetExceeded,
    Family,
    Generator,
    GroupSpec,
    InvalidPair,
    MalformedInput,
    PreconditionViolated,
    SpecMismatch,
    VertexNotInBall,
    _checked_generator_count,
    parse_generator,
    presentation,
)
from .rewriting import NormalForm, Word, parse_word

VertexKey = tuple[tuple[int, int], ...]


def _key(ids) -> str:
    """The vertex key of a generator-id sequence: one code point per letter."""
    return "".join(map(chr, ids))


class BallDistance(NamedTuple):
    """In-ball distance plus whether it is certified equal to the group metric.

    The flag is True when depth(u) + depth(v) <= radius: any true geodesic
    then stays inside the ball, so truncation cannot inflate the length.
    Untrusted distances are still exact distances *within the ball*.
    """

    length: int
    trusted: bool


class CayleyBall:
    """A radius-R ball of Cay(G, S) around the identity.

    Every edge is stored both ways: an entry u -g-> v comes with the entry
    v -g-> u.  `ball()` and `import_ball()` both keep this, and `squares`
    relies on it.
    """

    def __init__(
        self,
        spec: GroupSpec,
        radius: int,
        keys: list[str],
        index: dict[str, int],
        depth: array,
        adj: array,
        off: array,
    ) -> None:
        self.spec = spec
        self.radius = radius
        self._pres = presentation(spec)
        self._keys = keys
        self._index = index
        self._depth = depth
        self._adj = adj
        self._off = off
        self._texts = self._pres.texts
        self._spelled = [t + ";" for t in self._texts]  # translate table: id -> "p,q;"
        self._squares: tuple[Square, ...] | None = None  # squares(self), made on first use

    # -- key plumbing --------------------------------------------------------

    def vid(self, key) -> int:
        """The vid of a vertex key or Word: the one map from keys to vertices."""
        if isinstance(key, Word):
            if key.spec is not self.spec and key.spec != self.spec:
                raise SpecMismatch(f"{key!r} does not belong to {self.spec}")
            ids = key.ids
        else:
            gid = self._pres.gid
            try:
                ids = [gid[pq] for pq in key]
            except (KeyError, TypeError) as exc:
                raise InvalidPair(f"bad vertex key {key!r}") from exc
        got = self._index.get(_key(ids))
        if got is None:
            raise VertexNotInBall(f"{key!r} not in this radius-{self.radius} ball")
        return got

    def key(self, vid: int) -> VertexKey:
        pairs = self._pres.pairs
        return tuple(pairs[ord(c)] for c in self._keys[vid])

    def word(self, key) -> NormalForm:
        """The vertex's normal form; VertexNotInBall for a key that names
        no vertex of the ball, a non-normal spelling included."""
        return NormalForm._of(self._pres, map(ord, self._keys[self.vid(key)]))

    def text(self, vid: int) -> str:
        """The vertex's word in the text syntax, e.g. "1,3;2,3", or "e"."""
        return self._keys[vid].translate(self._spelled)[:-1] or "e"

    # -- graph views ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        try:
            self.vid(key)
        except (VertexNotInBall, InvalidPair):
            return False
        return True

    def vertices(self) -> Iterator[VertexKey]:
        """Vertex keys in BFS discovery order (depth-monotone, deterministic)."""
        for vid in range(len(self._keys)):
            yield self.key(vid)

    def depth(self, key) -> int:
        return self._depth[self.vid(key)]

    def depth_at(self, vid: int) -> int:
        return self._depth[vid]

    def lists(self) -> tuple[list[int], list[int]]:
        """The packed entries and the row offsets, copied into two lists:
        vertex u's row is adj[off[u]:off[u + 1]].  A list slice holds ints
        already made, where an array slice makes one per entry, so a kernel
        that reads every row copies once and slices the lists."""
        return self._adj.tolist(), self._off.tolist()

    def edge_count(self) -> int:
        """The number of edges: each is stored once at each of its ends."""
        return len(self._adj) // 2

    def adj_entries(self, vid: int):
        """(neighbor_vid, gid) pairs for one vertex, from its packed
        entries neighbor_vid << 16 | gid."""
        for e in self._adj[self._off[vid]:self._off[vid + 1]]:
            yield e >> 16, e & 0xFFFF

    def step(self, vid: int, gid: int) -> int:
        """Follow the edge labeled gid out of vid; -1 if absent in the ball
        or if vid is -1, so walks chain: step(step(v, a), c)."""
        adj = self._adj
        for k in range(self._off[vid], self._off[vid + 1]) if vid >= 0 else ():
            e = adj[k]
            if e & 0xFFFF == gid:
                return e >> 16
        return -1

    def neighbors(self, key) -> tuple[tuple[Generator, VertexKey], ...]:
        vid = self.vid(key)
        gens = self._pres.gens
        return tuple((gens[g], self.key(nb)) for nb, g in self.adj_entries(vid))

    def sphere_sizes(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for d in self._depth:
            counts[d] += 1
        return counts

    # -- metric --------------------------------------------------------------

    def spheres_from(self, vid: int, limit: int = -1) -> list[list[int]]:
        """BFS spheres (within the ball) around one vertex: the vids at
        distance 0, 1, ... in discovery order, out to the farthest vertex
        reached, or to `limit` when that is >= 0 (the search stops there)."""
        return _bfs(self._adj, self._off, vid, limit, array("i", [-1]) * len(self._keys))

    def distances_from(self, vid: int, limit: int = -1) -> list[int]:
        """BFS distances (within the ball) from one vertex; -1 = unreachable,
        or farther than `limit` when that is >= 0 (the search stops there)."""
        dist = [-1] * len(self._keys)
        _bfs(self._adj, self._off, vid, limit, dist)
        return dist

    def distance(self, u, v) -> BallDistance:
        """Shortest-path length inside the ball, flagged per the trust rule."""
        uv, vv = self.vid(u), self.vid(v)
        d = self.distances_from(uv)[vv]
        if d < 0:
            raise VertexNotInBall(f"{v!r} unreachable from {u!r} inside the ball")
        return BallDistance(d, self._depth[uv] + self._depth[vv] <= self.radius)


def _bfs(adj, off, vid: int, limit: int, dist) -> list[list[int]]:
    """The spheres of CayleyBall.spheres_from on the rows adj[off[u]:off[u + 1]],
    writing each reached vertex's distance into `dist` (ints, -1 for a
    vertex not reached yet) as it goes.  adj and off are the ball's arrays,
    or their lists (CayleyBall.lists) for a caller that runs many searches."""
    dist[vid] = 0
    spheres = [[vid]]
    while len(spheres) - 1 != limit:
        d, nxt = len(spheres), []
        for u in spheres[-1]:
            for e in adj[off[u]:off[u + 1]]:
                if dist[nb := e >> 16] < 0:
                    dist[nb] = d
                    nxt.append(nb)
        if not nxt:
            break
        spheres.append(nxt)
    return spheres


def _check_ball_args(spec: GroupSpec, radius: int, max_vertices: int) -> None:
    if radius < 0:
        raise PreconditionViolated(f"radius must be >= 0, got {radius}")
    if max_vertices < 1:
        raise PreconditionViolated(f"vertex budget must be >= 1, got {max_vertices}")
    # sphere 1 holds every generator: a budget below 1 + G fails before the
    # O(G^2) table is built
    if radius and 1 + spec.generator_count > max_vertices:
        raise BudgetExceeded(f"ball({spec}, {radius}) exceeded {max_vertices} vertices")


def ball(spec: GroupSpec, radius: int, max_vertices: int = 10**6) -> CayleyBall:
    """BFS ball of the given radius around the identity, vertices numbered
    in discovery order: by parent, then by generator id.

    A vertex's down-edges are its right descent set, which spans a cube
    since the complex is CAT(0) (Sageev 1995, Niblo-Reeves 1998).  So when
    u expands along a letter g its row leaves empty, v = u*g is new and each
    other parent v*h is u*a*b, two filled edges away, for a down letter a of
    u with h = par[g][a], b = par[a][g].  All of v's down-edges are
    written then, and v's key is the kappa-least parent's key plus its
    letter (normal forms are prefix-closed): no word is normalized.  The
    kappa-least parent is the least-ranked, each inner sphere being ranked
    once, as ints, on (its vertex's parent's rank, its letter's kappa
    rank).  A vertex inside the radius has a row of G slots by generator
    id, and vids go by depth, so its down letters are the slots that hold
    smaller vids: the ball reads no descent state.  One at the radius keeps its
    down-edges only, in generator order (relators have even length, so
    edges join consecutive spheres).  Raises BudgetExceeded past
    `max_vertices`.

    The loop over u keeps one triple (a, par[a], row of u*a) per down letter
    a, lists each new v's parents in a plain loop that also picks the
    kappa-least one, and appends a radius vertex's sorted row entry by
    entry: no comprehension reads a loop local.
    """
    _check_ball_args(spec, radius, max_vertices)
    pres = presentation(spec)
    G, par = pres.G, pres.par
    kappa = pres.rank  # id -> kappa rank
    empty_row = array("q", [-1]) * G

    keys: list[str] = [""]
    sizes = [1]
    adj = array("q", empty_row if radius else ())
    ends = array("q", () if radius else (0,))  # len(adj) after each radius vertex
    rank = [0]  # kappa order within the sphere being expanded, by vid - lo

    lo = 0
    for d in range(1, radius + 1):
        hi = len(keys)
        if hi == lo:
            break  # the last sphere was empty: a finite group
        inner = d < radius  # children get rows of their own
        order = []  # per child: its kappa-least parent's rank * G + kappa rank of its letter
        for u in range(lo, hi):
            row, low = u * G, u << 16
            slots = adj[row:row + G]  # expanding u writes no other slot of its row
            down = []  # per down letter a: (a, par[a], the row of u*a)
            for a, e in enumerate(slots):
                if 0 <= e < low:
                    down.append((a, par[a], (e >> 16) * G))
            ru = rank[u - lo]
            for g, e in enumerate(slots):
                if e >= 0:
                    continue  # a down-edge, or one an earlier parent of u*g filled
                # v = u*g is new; each other parent v*h is u*a*b (see above)
                pg, v = par[g], len(keys)
                parents = []
                r, c, w = ru, g, u  # the kappa-least parent w, with v = w*c
                for a, pa, ua in down:
                    h = pg[a]
                    if h >= 0:
                        pw = adj[ua + pa[g]] >> 16
                        parents.append((h, pw))
                        if rank[pw - lo] < r:
                            r, c, w = rank[pw - lo], h, pw
                keys.append(keys[w] + chr(c))
                adj[row + g] = v << 16 | g
                for h, w in parents:
                    adj[w * G + h] = v << 16 | h
                if inner:
                    order.append(r * G + kappa[c])
                    adj.extend(empty_row)
                    adj[v * G + g] = u << 16 | g
                    for h, w in parents:
                        adj[v * G + h] = w << 16 | h
                else:
                    if parents:
                        parents.append((g, u))
                        parents.sort()
                        for h, w in parents:
                            adj.append(w << 16 | h)
                    else:
                        adj.append(u << 16 | g)
                    ends.append(len(adj))
            if len(keys) > max_vertices:
                raise BudgetExceeded(f"ball({spec}, {radius}) exceeded {max_vertices} vertices")
        lo = hi
        sizes.append(len(keys) - lo)
        if inner:  # rank this sphere, once the last one's ranks are freed
            del rank
            by_rank = sorted(range(len(order)), key=order.__getitem__)
            del order
            rank = sorted(range(len(by_rank)), key=by_rank.__getitem__)  # the inverse
            del by_rank

    del rank
    n = len(keys)
    index = dict(zip(keys, range(n)))
    depth = array("i")
    for d, size in enumerate(sizes):
        depth.extend(repeat(d, size))
    off = array("q", range(0, (n - len(ends)) * G + 1, G))
    off.extend(ends)
    return CayleyBall(spec, radius, keys, index, depth, adj, off)


def _link_faces(spec: GroupSpec, top: int) -> list[int]:
    """f_0..f_top, f_k the k-cliques of the link at e, laminar families of k
    intervals.  In a path of L points A_L counts them by size t, B_L those
    without the whole path: B_L = A_{L-1} + t sum_{2<=K<L} B_K A_{L-K} (K points
    in the largest interval at the first point), A_L = (1+t) B_L.  J_n's link
    is A_n, AJ_n's sum_{L<n} L w_L A_{n-L} + n t B_n (w_1 = 1, w_L = t B_L: the
    largest arc at point 1; n t B_n: a full-circle arc, its seam uncrossed).
    A polynomial is one int, s bits a coefficient (a count <= G^top), to t^top."""
    n = spec.degree
    s = top * spec.generator_count.bit_length() + 1
    mask = (1 << s * (top + 1)) - 1
    A, B = [1, 1], [1, 1]  # paths of 0 and 1 points
    for L in range(2, n + 1):
        b = A[L - 1] + (sum(map(mul, B[2:L], A[L - 2:0:-1])) << s & mask)
        B.append(b)
        A.append(b + (b << s & mask))
    f = A[n]
    if spec.family is Family.AFFINE:
        f = A[n - 1] + (sum(L * B[L] * A[n - L] for L in range(2, n)) + n * B[n] << s & mask)
    return [f >> s * k & (1 << s) - 1 for k in range(top + 1)]


def sphere_sizes(spec: GroupSpec, radius: int, max_vertices: int = 10**6) -> list[int]:
    """ball(spec, radius, max_vertices).sphere_sizes() from the growth series
    W(x) = 1 / sum_k f_k (-x/(1+x))^k (_link_faces), with no ball and no table:
    over cubes C and their vertices v, (-x/(1+x))^dim C x^d(e,v) sums to W(x)
    times that sum per v, and to 1 per farthest vertex v, whose cubes are the
    subsets of its descent set.  Faces cut at t^m give W to degree m, and all
    of it at m = n - 1 (no clique has more): (1+x)^m / sum_k f_k (-x)^k
    (1+x)^(m-k).  m runs 1, 3, 7, ..., so a budget passed near e raises early.
    Raises BudgetExceeded as ball() does, and for G >= 65,536 as presentation()."""
    _check_ball_args(spec, radius, max_vertices)
    _checked_generator_count(spec)
    last = min(radius, spec.degree - 1)
    sizes, total, m = [], 0, 0
    while len(sizes) <= radius:
        m = min(2 * m + 1, last)
        f = _link_faces(spec, m)
        p = [sum((-1) ** k * f[k] * comb(m - k, j - k) for k in range(j + 1)) for j in range(m + 1)]
        for r in range(len(sizes), radius + 1 if m == last else m + 1):
            sizes.append(comb(m, r) - sum(p[k] * sizes[r - k] for k in range(1, min(r, m) + 1)))
            if (total := total + sizes[r]) > max_vertices:
                raise BudgetExceeded(f"ball({spec}, {radius}) exceeded {max_vertices} vertices")
    return sizes


class Square:
    """An embedded-or-not 4-cycle, stored as its canonical corner vids.

    Canonical form: rotated so the corner with the smallest key is first,
    then oriented toward its smaller cycle-neighbor.  `cycle` spells the same
    corners as vertex keys when it is read; a square holds the ball's key
    list and pair table, not the ball.  Equal cycles and vids: equal squares.
    """

    __slots__ = ("vids", "_keys", "_pairs")

    def __init__(self, vids: tuple[int, int, int, int], keys: list[str], pairs: tuple) -> None:
        self.vids, self._keys, self._pairs = vids, keys, pairs

    @property
    def cycle(self) -> tuple[VertexKey, VertexKey, VertexKey, VertexKey]:
        return tuple(tuple(self._pairs[ord(c)] for c in self._keys[v]) for v in self.vids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Square) and (self.cycle, self.vids) == (other.cycle, other.vids)

    def __hash__(self) -> int:
        return hash((self.cycle, self.vids))

    def __repr__(self) -> str:
        return f"Square(cycle={self.cycle!r}, vids={self.vids!r})"


def squares(b: CayleyBall) -> tuple[Square, ...]:
    """All 4-cycles (closed non-backtracking 4-walks) of the ball's graph.

    An edge is its two ends plus its label, read from the stored entries,
    which hold every edge both ways (see CayleyBall).  The search runs over
    the ball's own rows in vid order and looks for each square only from
    its least vid u: pairs of two-step walks u -> x -> z that meet at z and
    never step below u.  Each cycle found is put in canonical form on key
    ranks (key order is id-list order): the least rank first, toward its
    smaller neighbor, or the least of the eight rotations when corners
    repeat; the cycles are sorted on those ranks.  Each square appears once.
    Degenerate cycles (repeated corners) are *kept* when the underlying graph
    has them -- that is what check_squares_embedded looks for; honest Cayley
    balls never produce any.  A ball's squares are found once and kept on it,
    so the square and wedge checks share them.
    """
    if b._squares is not None:
        return b._squares
    n, keys = len(b), b._keys
    adj, off = b.lists()
    by_rank = sorted(range(n), key=keys.__getitem__)
    rank = sorted(range(n), key=by_rank.__getitem__)  # the inverse: vid -> rank
    found: set[tuple[int, int, int, int]] = set()
    for u in range(n):
        low = u << 16  # entries at or above this reach vids >= u
        # two-step non-backtracking walks u -> x -> z: the first to reach
        # each z, and all walks to the ends reached more than once
        first: dict[int, tuple[int, int, int]] = {}
        more: dict[int, list[tuple[int, int, int]]] = {}
        for e1 in adj[off[u]:off[u + 1]]:
            if e1 < low:
                continue
            x, back = e1 >> 16, low | e1 & 0xFFFF
            for e2 in adj[off[x]:off[x + 1]]:
                if e2 >= low and e2 != back:
                    z = e2 >> 16
                    if z in first:
                        more.setdefault(z, [first[z]]).append((x, e1, e2))
                    else:
                        first[z] = (x, e1, e2)
        for z, walks in more.items():
            for (x1, e1, e2), (x2, e3, e4) in combinations(walks, 2):
                # the two walks must not share either of their edges
                if x1 == x2 and (e1 == e3 or e2 == e4):
                    continue
                c = (rank[u], rank[x1], rank[z], rank[x2])
                if len(set(c)) < 4:
                    c = min(s[r:] + s[:r] for s in (c, c[::-1]) for r in range(4))
                else:
                    r = c.index(min(c))
                    c = c[r:] + c[:r]
                    if c[1] > c[3]:
                        c = (c[0], c[3], c[2], c[1])
                found.add(c)
    pairs = b._pres.pairs
    b._squares = tuple(Square(tuple(map(by_rank.__getitem__, c)), keys, pairs)
                       for c in sorted(found))
    return b._squares


# -- serialization -----------------------------------------------------------


def _export_rows(
    b: CayleyBall, quote: Callable[[str], str] | None = None
) -> tuple[list[tuple[int, str]], list[tuple[str, str, str]]]:
    """(depth, word) per vertex and (from, to, generator) per edge, sorted.

    Vertices sort on (depth, word); an edge is kept from the entry whose
    `from` end sorts first (words are unique per vertex), and a self-loop,
    stored twice in its vertex's row, from half of those entries, so each
    stored edge appears once.  With `quote`, each word and generator text is
    quote(text), made once.  The JSON writer quotes with json's escaper,
    which only wraps these texts in '"': that sorts below every character
    they hold (digits, ',', ';' and 'e'), so the rows keep their order.
    """
    n, gtexts, spelled = len(b), b._texts, b._spelled
    texts = [key.translate(spelled)[:-1] or "e" for key in b._keys]
    if quote is not None:
        texts, gtexts = list(map(quote, texts)), list(map(quote, gtexts))
    vrows = list(zip(b._depth, texts))  # by vid
    adj, off = b._adj, b._off.tolist()
    erows = [
        (texts[u], texts[e >> 16], gtexts[e & 0xFFFF])
        for u in range(n)
        for e in adj[off[u]:off[u + 1]]
        if vrows[u] < vrows[e >> 16]
    ]
    if 2 * len(erows) < len(adj):  # entries left over: self-loops
        loops = sorted((u, e & 0xFFFF) for u in range(n)
                       for e in adj[off[u]:off[u + 1]] if e >> 16 == u)
        erows += [(texts[u], texts[u], gtexts[g]) for u, g in loops[::2]]
    erows.sort()
    return sorted(vrows), erows


def export_obj(b: CayleyBall) -> dict:
    """The JSON-ready view: vertices sorted by (depth, word), edges once each."""
    vrows, erows = _export_rows(b)
    return {
        "spec": {"family": b.spec.family.value, "n": b.spec.degree},
        "radius": b.radius,
        "vertices": [{"word": w, "depth": d} for d, w in vrows],
        "edges": [{"from": f, "to": t, "generator": g} for f, t, g in erows],
    }


def _json_text(b: CayleyBall, indent: int, sort_keys: bool, depth: int) -> str:
    """json.dumps(export_obj(b), indent=indent, sort_keys=sort_keys) as it
    reads nested `depth` levels deep (each line after the first indented
    depth * indent spaces more): the one writer of the ball's JSON, for
    `export` and for the CLI's stdout envelope.

    json's indenting encoder is pure Python, so each list of records is one
    % call, on a format string made from the field names.  Each word and
    generator text goes through json's own escaper once (_export_rows), ints
    through %s.
    """
    vrows, erows = _export_rows(b, encode_basestring_ascii)
    order = sorted if sort_keys else list
    nl = ["\n" + " " * (indent * (depth + k)) for k in range(4)]  # a line k levels in

    def obj(level: int, members: dict) -> str:
        """An object at `level` whose member values are JSON text already."""
        inner = nl[level + 1]
        body = ("," + inner).join([f'"{k}": {members[k]}' for k in order(members)])
        return "{%s%s%s}" % (inner, body, nl[level])

    def records(fields: dict, rows: list[tuple]) -> str:
        """A top-level member's list of records; `fields` maps each field
        name, in schema order, to its place in a row."""
        if not rows:
            return "[]"
        names = order(fields)
        places = list(map(fields.get, names))
        values = rows if places == sorted(places) else map(itemgetter(*places), rows)
        fmt = ("," + nl[2]).join([obj(2, dict.fromkeys(names, "%s"))] * len(rows))
        return "[%s%s%s]" % (nl[2], fmt % tuple(chain.from_iterable(values)), nl[1])

    return obj(0, {
        "spec": obj(1, {"family": encode_basestring_ascii(b.spec.family.value), "n": b.spec.degree}),
        "radius": b.radius,
        "vertices": records({"word": 1, "depth": 0}, vrows),
        "edges": records({"from": 0, "to": 1, "generator": 2}, erows),
    })


def export(b: CayleyBall, format: str = "json") -> bytes:
    """Deterministic serialization; identical balls give identical bytes."""
    fmt = format.lower()
    if fmt == "json":
        text = _json_text(b, 1, True, 0)
        text += "\n"  # in place where the interpreter can: text has no other reference
        return text.encode()
    if fmt == "dot":
        vrows, erows = _export_rows(b)
        lines = [f'graph "{b.spec.family.value}_{b.spec.degree}_r{b.radius}" {{']
        lines.extend(f'  "{w}" [depth={d}];' for d, w in vrows)
        lines.extend(f'  "{f}" -- "{t}" [label="{g}"];' for f, t, g in erows)
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise InvalidPair(f"unknown export format {format!r}")


def _field(rec, name: str, kind: type):
    """rec[name], checked to have the type the export schema gives it."""
    if not isinstance(rec, dict) or name not in rec:
        raise MalformedInput(f"ball record without {name!r}: {str(rec):.80}")
    value = rec[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedInput(f"ball field {name!r} must be {kind.__name__}, got {value!r:.80}")
    return value


def _ball_header(obj) -> tuple[GroupSpec, int]:
    """The spec and radius of a ball record, by the export schema; no table."""
    spec_rec = _field(obj, "spec", dict)
    family = _field(spec_rec, "family", str)
    if family not in {f.value for f in Family}:
        raise MalformedInput(f"unknown family {family!r:.80}")
    spec = GroupSpec(Family(family), _field(spec_rec, "n", int))
    radius = _field(obj, "radius", int)
    if radius < 0:
        raise MalformedInput(f"radius must be >= 0, got {radius}")
    return spec, radius


def import_ball(obj: dict) -> CayleyBall:
    """Rebuild a CayleyBall from the export schema.

    The file's graph is taken at face value -- vertices are not re-normalized
    and adjacency is not recomputed.  That is deliberate: verification checks
    run on imported graphs must be able to see defects (this is how the
    synthetic negative-control graphs come in).  Only the schema is checked:
    a missing field, a field of the wrong type, an unknown family, a
    negative radius or a depth outside 0..radius raises MalformedInput.
    """
    spec, radius = _ball_header(obj)
    pres = presentation(spec)
    gid_of_text = pres.gid_of_text
    letter = {t: _key([g]) for t, g in gid_of_text.items()}  # one-letter keys

    def key_of(text: str) -> str:
        try:  # the canonical spelling, as export writes it
            return "".join([letter[part] for part in text.split(";")])
        except KeyError:  # any other spelling, with parse_word's errors
            return _key(parse_word(spec, text).ids)

    keys: list[str] = []
    index: dict[str, int] = {}
    vid_of_text: dict[str, int] = {}  # each vertex's own spelling, parsed once
    depth = array("i")
    for rec in _field(obj, "vertices", list):
        if not (type(rec) is dict and type(word := rec.get("word")) is str
                and type(d := rec.get("depth")) is int):
            word, d = _field(rec, "word", str), _field(rec, "depth", int)
        if not 0 <= d <= radius:
            raise MalformedInput(f"vertex {word!r} has depth {d} outside 0..{radius}")
        key = key_of(word)
        if key in index:
            raise InvalidPair(f"duplicate vertex {word!r}")
        index[key] = vid_of_text[word] = len(keys)
        keys.append(key)
        depth.append(d)

    def vid_of(text: str) -> int:
        vid = vid_of_text.get(text)
        return index[key_of(text)] if vid is None else vid

    def edge(rec) -> tuple[int, int, int]:
        """(from, to, gid) of an edge record, each field checked."""
        try:
            u = vid_of(_field(rec, "from", str))
            v = vid_of(_field(rec, "to", str))
        except KeyError as exc:
            raise VertexNotInBall(f"edge endpoint missing: {rec!r}") from exc
        gtext = _field(rec, "generator", str)
        gid = gid_of_text.get(gtext)
        return u, v, pres.id_of(parse_generator(spec, gtext)) if gid is None else gid

    lists: list[list[int]] = [[] for _ in keys]
    for rec in _field(obj, "edges", list):
        try:  # the spellings export writes
            u, v = vid_of_text[rec["from"]], vid_of_text[rec["to"]]
            gid = gid_of_text[rec["generator"]]
        except (KeyError, TypeError):
            u = -1
        if u < 0 or type(rec) is not dict:
            u, v, gid = edge(rec)
        lists[u].append(v << 16 | gid)
        lists[v].append(u << 16 | gid)
    adj = array("q", chain.from_iterable(lists))
    off = array("q", accumulate(map(len, lists), initial=0))
    return CayleyBall(pres.spec, radius, keys, index, depth, adj, off)
