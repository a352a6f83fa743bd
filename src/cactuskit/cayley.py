"""Finite balls of the Cayley graph, with distances, squares, and export.

Vertices are group elements keyed by their normal forms, which are unique
because the Cayley complex is CAT(0) (the rewriting module docstring, after
Sageev 1995 and Niblo-Reeves 1998), so a ball is the exact Cayley ball.
Edges join g to g*sigma for every generator sigma (involutions, so the
graph is undirected and simple).

Internally a ball is flat arrays: vertex keys are byte-encoded generator-id
sequences, adjacency is one packed integer (neighbor_vid << 16 | gid) per
directed edge, grouped per vertex.  The public API speaks in tuples of index
pairs, e.g. ((1, 4), (1, 2), (3, 4)).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple

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
    presentation,
)
from .core import parse_generator
from .rewriting import NormalForm, Word, _insert_ids, parse_word

VertexKey = tuple[tuple[int, int], ...]


def _key_codec(G: int):
    """(encode, decode) between a generator-id list and a vertex key.

    One byte per letter while every id fits in a byte (G <= 255), so a key is
    bytes(ids); two bytes per letter (array "H") beyond that.
    """
    if G > 255:
        return (lambda ids: array("H", ids).tobytes()), (lambda blob: list(array("H", blob)))
    return bytes, list


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
        keys: list[bytes],
        index: dict[bytes, int],
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
        self._encode, self._decode = _key_codec(self._pres.G)
        self._texts = self._pres.texts
        self._squares: tuple[Square, ...] | None = None  # squares(self), made on first use

    # -- key plumbing --------------------------------------------------------

    def _to_ids(self, key) -> tuple[int, ...] | list[int]:
        if isinstance(key, Word):
            if key.spec is not self.spec and key.spec != self.spec:
                raise SpecMismatch(f"{key!r} does not belong to {self.spec}")
            return key.ids
        gid = self._pres.gid
        try:
            return [gid[pq] for pq in key]
        except (KeyError, TypeError) as exc:
            raise InvalidPair(f"bad vertex key {key!r}") from exc

    def vid(self, key) -> int:
        blob = self._encode(self._to_ids(key))
        got = self._index.get(blob)
        if got is None:
            raise VertexNotInBall(f"{key!r} not in this radius-{self.radius} ball")
        return got

    def key(self, vid: int) -> VertexKey:
        pairs = self._pres.pairs
        return tuple(pairs[i] for i in self._decode(self._keys[vid]))

    def word(self, key) -> NormalForm:
        return NormalForm._of(self._pres, self._to_ids(key))

    def text(self, vid: int) -> str:
        """The vertex's word in the text syntax, e.g. "1,3;2,3", or "e"."""
        return ";".join(self._texts[i] for i in self._decode(self._keys[vid])) or "e"

    # -- graph views ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        try:
            return self._encode(self._to_ids(key)) in self._index
        except InvalidPair:
            return False

    def vertices(self) -> Iterator[VertexKey]:
        """Vertex keys in BFS discovery order (depth-monotone, deterministic)."""
        for vid in range(len(self._keys)):
            yield self.key(vid)

    def depth(self, key) -> int:
        return self._depth[self.vid(key)]

    def depth_at(self, vid: int) -> int:
        return self._depth[vid]

    def adj_entries(self, vid: int):
        """(neighbor_vid, gid) pairs for one vertex."""
        adj = self._adj
        for k in range(self._off[vid], self._off[vid + 1]):
            e = adj[k]
            yield e >> 16, e & 0xFFFF

    def step(self, vid: int, gid: int) -> int:
        """Follow the edge labeled gid out of vid; -1 if absent in the ball."""
        adj = self._adj
        for k in range(self._off[vid], self._off[vid + 1]):
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

    def distances_from(self, vid: int, limit: int = -1) -> array:
        """BFS distances (within the ball) from one vertex; -1 = unreachable,
        or farther than `limit` when that is >= 0 (the search stops there)."""
        dist = array("i", [-1] * len(self._keys))
        dist[vid] = 0
        frontier = [vid]
        adj, off = self._adj, self._off
        d = 0
        while frontier and d != limit:
            d += 1
            nxt = []
            for u in frontier:
                for k in range(off[u], off[u + 1]):
                    nb = adj[k] >> 16
                    if dist[nb] < 0:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        return dist

    def distance(self, u, v) -> BallDistance:
        """Shortest-path length inside the ball, flagged per the trust rule."""
        uv, vv = self.vid(u), self.vid(v)
        trusted = self._depth[uv] + self._depth[vv] <= self.radius
        if uv == vv:
            return BallDistance(0, trusted)
        dist = self.distances_from(uv)
        d = dist[vv]
        if d < 0:
            raise VertexNotInBall(f"{v!r} unreachable from {u!r} inside the ball")
        return BallDistance(d, trusted)


def ball(spec: GroupSpec, radius: int, max_vertices: int = 10**6) -> CayleyBall:
    """BFS ball of the given radius around the identity, vertices numbered
    in discovery order: by parent, then by generator id.

    A vertex's down-edges are its right descent set, each stored by the
    parent that found it, so a vertex is expanded along its other letters
    only (rewriting._insert_ids).  A vertex inside the radius has all G
    neighbours, a row of G slots by generator id; one at the radius keeps
    its down-edges only (every relator has even length, so edges join
    consecutive spheres), read off the sphere below in generator order.
    Raises BudgetExceeded past `max_vertices`.
    """
    if radius < 0:
        raise PreconditionViolated(f"radius must be >= 0, got {radius}")
    if max_vertices < 1:
        raise PreconditionViolated(f"vertex budget must be >= 1, got {max_vertices}")
    pres = presentation(spec)
    G = pres.G
    enc, dec = _key_codec(G)
    empty_row = array("q", [-1]) * G

    keys: list[bytes] = [enc([])]
    index: dict[bytes, int] = {keys[0]: 0}
    depth = array("i", [0])
    adj = array("q", empty_row if radius else ())

    u = 0
    while u < len(keys) and depth[u] < radius:
        inner = depth[u] + 1 < radius  # children get rows of their own
        base, row = dec(keys[u]), u * G
        for g in range(G):
            if adj[row + g] >= 0:
                continue  # a down-edge, stored by the parent
            blob = enc(_insert_ids(pres, base, g))
            vid = index.get(blob)
            if vid is None:
                vid = len(keys)
                if vid >= max_vertices:
                    raise BudgetExceeded(
                        f"ball({spec}, {radius}) exceeded {max_vertices} vertices"
                    )
                index[blob] = vid
                keys.append(blob)
                depth.append(depth[u] + 1)
                if inner:
                    adj.extend(empty_row)
            adj[row + g] = vid << 16 | g
            if inner:
                adj[vid * G + g] = u << 16 | g
        u += 1

    # rows of the sphere at the radius, vids u.., from the vids lo..u below
    lo = bisect_left(depth, radius - 1, 0, u)
    fill = array("q", [0]) * (len(keys) - u)
    for e in islice(adj, lo * G, None):
        if e >> 16 >= u:
            fill[(e >> 16) - u] += 1
    off = array("q", range(0, u * G, G))
    off.extend(accumulate(fill, initial=u * G))
    fill = off[u:-1]
    adj.extend(repeat(0, off[-1] - u * G))
    for g in range(G):
        for p in range(lo, u):
            v = adj[p * G + g] >> 16
            if v >= u:
                adj[fill[v - u]] = p << 16 | g
                fill[v - u] += 1
    return CayleyBall(spec, radius, keys, index, depth, adj, off)


@dataclass(frozen=True)
class Square:
    """An embedded-or-not 4-cycle, stored as its canonical corner cycle.

    Canonical form: rotated so the lexicographically smallest corner key is
    first, then oriented toward its smaller cycle-neighbor.  `vids` holds
    the same corners, in the same order, as vertex ids.
    """

    cycle: tuple[VertexKey, VertexKey, VertexKey, VertexKey]
    vids: tuple[int, int, int, int]


def squares(b: CayleyBall) -> tuple[Square, ...]:
    """All 4-cycles (closed non-backtracking 4-walks) of the ball's graph.

    An edge is its two ends plus its label, read from the stored entries,
    which hold every edge both ways (see CayleyBall).  The search runs on
    key ranks (a vid's position in key order, taken on decoded id lists)
    over packed entries, and looks for each square only from its
    least-ranked corner: pairs of two-step walks u -> x -> z that
    meet at z and never step below u's rank.  Each square appears exactly
    once, and keys are made only for the corners of the squares found.
    Degenerate cycles (repeated corners) are *kept* when the underlying graph
    has them -- that is what check_squares_embedded looks for; honest Cayley
    balls never produce any.  A ball's squares are found once and kept on it,
    so the square and wedge checks share them.
    """
    if b._squares is not None:
        return b._squares
    n = len(b)
    adj, off = b._adj, b._off
    by_rank = sorted(range(n), key=lambda v: b._decode(b._keys[v]))
    rank = [0] * n
    for r, v in enumerate(by_rank):
        rank[v] = r
    # row r holds the entries of the rank-r vertex as rank_nb << 16 | gid, sorted
    rows = [
        sorted(rank[e >> 16] << 16 | e & 0xFFFF for e in adj[off[v]:off[v + 1]])
        for v in by_rank
    ]
    found: set[tuple[int, int, int, int]] = set()
    for u in range(n):
        low = u << 16  # entries at or above this reach ranks >= u
        # two-step non-backtracking walks u -> x -> z, grouped by endpoint z
        paths: dict[int, list[tuple[int, int, int]]] = {}
        row = rows[u]
        for e1 in row[bisect_left(row, low):]:
            x = e1 >> 16
            back = low | e1 & 0xFFFF
            xrow = rows[x]
            for e2 in xrow[bisect_left(xrow, low):]:
                if e2 != back:
                    paths.setdefault(e2 >> 16, []).append((x, e1, e2))
        for z, plist in paths.items():
            for (x1, e1, e2), (x2, e3, e4) in combinations(plist, 2):
                # the two walks must not share either of their edges
                if x1 == x2 and (e1 == e3 or e2 == e4):
                    continue
                # walks are listed in rank order of x, so x1 <= x2: four
                # distinct corners are canonical as they stand
                c = (u, x1, z, x2)
                if len(set(c)) < 4:
                    c = min(s[r:] + s[:r] for s in (c, c[::-1]) for r in range(4))
                found.add(c)
    cycles = [tuple(by_rank[r] for r in c) for c in sorted(found)]
    keys = {v: b.key(v) for v in {v for vids in cycles for v in vids}}
    b._squares = tuple(Square(tuple(keys[v] for v in vids), vids) for vids in cycles)
    return b._squares


# -- serialization -----------------------------------------------------------


def _export_rows(b: CayleyBall) -> tuple[list[tuple[int, str]], list[tuple[str, str, str]]]:
    """(depth, word) per vertex and (from, to, generator) per edge, sorted.

    Vertices sort on (depth, word); an edge is kept from the entry whose
    `from` end sorts first (words are unique per vertex), so each stored
    edge appears once.
    """
    n = len(b)
    texts = [b.text(vid) for vid in range(n)]
    depth = b._depth
    order = sorted(range(n), key=lambda v: (depth[v], texts[v]))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    gtexts = b._texts
    adj, off = b._adj, b._off
    erows = []
    for u in range(n):
        pu, tu = pos[u], texts[u]
        for k in range(off[u], off[u + 1]):
            e = adj[k]
            nb = e >> 16
            if pu < pos[nb]:
                erows.append((tu, texts[nb], gtexts[e & 0xFFFF]))
    erows.sort()
    return [(depth[v], texts[v]) for v in order], erows


def export_obj(b: CayleyBall) -> dict:
    """The JSON-ready view: vertices sorted by (depth, word), edges once each."""
    vrows, erows = _export_rows(b)
    return {
        "spec": {"family": b.spec.family.value, "n": b.spec.degree},
        "radius": b.radius,
        "vertices": [{"word": w, "depth": d} for d, w in vrows],
        "edges": [{"from": f, "to": t, "generator": g} for f, t, g in erows],
    }


def _json_list(items: list[str], indent: str = " ") -> str:
    """Records already indented, as a JSON list whose key sits at `indent`."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _export_json(b: CayleyBall) -> str:
    """export_obj(b) as json.dumps(indent=1, sort_keys=True) writes it, plus a
    newline: strings go through json's own escaper, ints through %d."""
    vrows, erows = _export_rows(b)
    esc = encode_basestring_ascii
    edges = [
        '  {\n   "from": %s,\n   "generator": %s,\n   "to": %s\n  }' % (esc(f), esc(g), esc(t))
        for f, t, g in erows
    ]
    vertices = ['  {\n   "depth": %d,\n   "word": %s\n  }' % (d, esc(w)) for d, w in vrows]
    return (
        '{\n "edges": %s,\n "radius": %d,\n "spec": {\n  "family": %s,\n  "n": %d\n },'
        '\n "vertices": %s\n}\n'
        % (
            _json_list(edges),
            b.radius,
            esc(b.spec.family.value),
            b.spec.degree,
            _json_list(vertices),
        )
    )


def export(b: CayleyBall, format: str = "json") -> bytes:
    """Deterministic serialization; identical balls give identical bytes."""
    fmt = format.lower()
    if fmt == "json":
        return _export_json(b).encode()
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


def import_ball(obj: dict) -> CayleyBall:
    """Rebuild a CayleyBall from the export schema.

    The file's graph is taken at face value -- vertices are not re-normalized
    and adjacency is not recomputed.  That is deliberate: verification checks
    run on imported graphs must be able to see defects (this is how the
    synthetic negative-control graphs come in).  Only the schema is checked:
    a missing field, a field of the wrong type or a depth outside
    0..radius raises MalformedInput.
    """
    spec_rec = _field(obj, "spec", dict)
    spec = GroupSpec(Family(_field(spec_rec, "family", str)), _field(spec_rec, "n", int))
    radius = _field(obj, "radius", int)
    pres = presentation(spec)
    enc = _key_codec(pres.G)[0]
    gid_of_text = pres.gid_of_text

    def blob_of(text: str) -> bytes:
        try:  # the canonical spelling, as export writes it
            return enc([gid_of_text[part] for part in text.split(";")])
        except KeyError:  # any other spelling, with parse_word's errors
            return enc(parse_word(spec, text).ids)

    keys: list[bytes] = []
    index: dict[bytes, int] = {}
    vid_of_text: dict[str, int] = {}  # each vertex's own spelling, parsed once
    depth = array("i")
    for rec in _field(obj, "vertices", list):
        word, d = _field(rec, "word", str), _field(rec, "depth", int)
        if not 0 <= d <= radius:
            raise MalformedInput(f"vertex {word!r} has depth {d} outside 0..{radius}")
        blob = blob_of(word)
        if blob in index:
            raise InvalidPair(f"duplicate vertex {word!r}")
        index[blob] = vid_of_text[word] = len(keys)
        keys.append(blob)
        depth.append(d)

    def vid_of(text: str) -> int:
        vid = vid_of_text.get(text)
        return index[blob_of(text)] if vid is None else vid

    lists: list[list[int]] = [[] for _ in keys]
    for rec in _field(obj, "edges", list):
        try:
            u = vid_of(_field(rec, "from", str))
            v = vid_of(_field(rec, "to", str))
        except KeyError as exc:
            raise VertexNotInBall(f"edge endpoint missing: {rec!r}") from exc
        gtext = _field(rec, "generator", str)
        gid = gid_of_text.get(gtext)
        if gid is None:
            gid = pres.id_of(parse_generator(spec, gtext))
        lists[u].append(v << 16 | gid)
        lists[v].append(u << 16 | gid)
    adj = array("q")
    off = array("q", [0])
    for entries in lists:
        adj.extend(entries)
        off.append(len(adj))
    return CayleyBall(pres.spec, radius, keys, index, depth, adj, off)
