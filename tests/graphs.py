"""Synthetic labeled graphs in the ball-export schema, used as negative controls.

Each builder returns a dict that import_ball() accepts at face value; the
graphs are deliberately *not* Cayley balls, so specific structure checks must
reject them with witnesses (or, for coincident_points, qi_fit must find no
finite constant).  one_way_entries counts what a Cayley ball must
never hold, brute_force_cycles and brute_force_wedges are the reference
that the square and wedge checks are held to, and reference_distances the
one that the ball's breadth-first rows are held to.
"""

from collections import Counter

from cactuskit import affine, ball, export_obj


def one_way_entries(b) -> int:
    """Adjacency entries u -g-> v of the ball with no entry v -g-> u."""
    adj, off = b._adj, b._off
    return sum(
        (u << 16 | e & 0xFFFF) not in adj[off[e >> 16]:off[(e >> 16) + 1]]
        for u in range(len(b)) for e in adj[off[u]:off[u + 1]]
    )


def reference_distances(b, src, limit) -> list[int]:
    """Breadth-first search over adj_entries; -1 past `limit` when it is >= 0."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for nb, _ in b.adj_entries(u):
                if nb not in dist:
                    dist[nb] = dist[u] + 1
                    nxt.append(nb)
        frontier = nxt
    return [
        d if limit < 0 or d <= limit else -1
        for d in (dist.get(v, -1) for v in range(len(b)))
    ]


def brute_force_cycles(b) -> list:
    """Every closed 4-walk that never steps straight back along the edge it
    came in on (cyclically, so also not from its last edge into its first),
    each canonicalised on its corner keys and listed once, sorted.

    An edge is (its two ends, its label), so two edges joining the same
    vertices under different labels are different edges.  A walk follows
    the stored entries, which hold every edge both ways.
    """
    edges = [sorted(b.adj_entries(u)) for u in range(len(b))]
    found = set()
    for w0 in range(len(b)):
        walks = [((w0,), ())]
        for _ in range(4):
            walks = [
                (vs + (nb,), ls + (g,))
                for vs, ls in walks
                for nb, g in edges[vs[-1]]
                if not (len(vs) > 1 and nb == vs[-2] and g == ls[-1])
            ]
        for vs, ls in walks:
            if vs[4] != w0 or (vs[3] == vs[1] and ls[3] == ls[0]):
                continue
            keys = tuple(b.key(v) for v in vs[:4])
            found.add(min(
                seq[r:] + seq[:r] for seq in (keys, keys[::-1]) for r in range(4)
            ))
    return sorted(found)


def brute_force_wedges(cycles) -> Counter:
    """How often each (corner key, set of its two cycle-neighbor keys)
    occurs, over the four corners of every cycle in `cycles`."""
    return Counter(
        (c[k], frozenset((c[k - 1], c[(k + 1) % 4]))) for c in cycles for k in range(4)
    )


def shared_wedge_graph() -> dict:
    """Two 4-cycles through the path e -> 1,2 -> 1,3: a forbidden shared wedge.

    All squares in it are embedded, so only the consecutive-edges condition
    breaks.
    """
    return {
        "spec": {"family": "affine", "n": 3},
        "radius": 2,
        "vertices": [
            {"word": "e", "depth": 0},
            {"word": "1,2", "depth": 1},
            {"word": "2,3", "depth": 1},
            {"word": "3,1", "depth": 1},
            {"word": "1,3", "depth": 2},
        ],
        "edges": [
            {"from": "e", "to": "1,2", "generator": "1,2"},
            {"from": "1,2", "to": "1,3", "generator": "2,3"},
            {"from": "1,3", "to": "2,3", "generator": "1,2"},
            {"from": "2,3", "to": "e", "generator": "2,3"},
            {"from": "1,3", "to": "3,1", "generator": "3,2"},
            {"from": "3,1", "to": "e", "generator": "3,1"},
        ],
    }


def doubled_edge_graph() -> dict:
    """e and 1,2 joined by two edges (labels 1,2 and 1,3): a two-corner 4-cycle."""
    return {
        "spec": {"family": "affine", "n": 3},
        "radius": 1,
        "vertices": [
            {"word": "e", "depth": 0},
            {"word": "1,2", "depth": 1},
        ],
        "edges": [
            {"from": "e", "to": "1,2", "generator": "1,2"},
            {"from": "e", "to": "1,2", "generator": "1,3"},
        ],
    }


def self_loop_graph() -> dict:
    """Self-loops at e (labels 1,2 and 1,3) and at 1,2 (label 2,3), and the
    edge e -- 1,2: degenerate 4-cycles with one and with two corners."""
    return {
        "spec": {"family": "affine", "n": 3},
        "radius": 1,
        "vertices": [{"word": "e", "depth": 0}, {"word": "1,2", "depth": 1}],
        "edges": [
            {"from": "e", "to": "e", "generator": "1,2"},
            {"from": "e", "to": "e", "generator": "1,3"},
            {"from": "1,2", "to": "1,2", "generator": "2,3"},
            {"from": "e", "to": "1,2", "generator": "1,2"},
        ],
    }


def many_medians_graph() -> dict:
    """Three spokes 1,2 / 2,3 / 3,4 of e, each joined to the same six vertices.

    The triple of spoke ends has seven medians: e and those six.  The six
    are listed out of text order, so a witness that keeps five medians must
    sort them all, not take the first five it meets.
    """
    spokes = ("1,2", "2,3", "3,4")
    far = ("1,3", "2,4", "3,1", "4,2", "1,4", "2,1")
    return {
        "spec": {"family": "affine", "n": 4},
        "radius": 3,
        "vertices": [{"word": "e", "depth": 0}]
        + [{"word": w, "depth": 1} for w in spokes]
        + [{"word": w, "depth": 2} for w in far],
        "edges": [{"from": "e", "to": s, "generator": s} for s in spokes]
        + [{"from": s, "to": w, "generator": w} for s in spokes for w in far],
    }


def missing_cube_corner_graph() -> dict:
    """A degree-4 radius-3 ball with one cube's eighth corner deleted.

    The cycle of three squares at the identity labeled 1,2 / 3,4 / 1,4 can
    no longer close into a cube skeleton.
    """
    obj = export_obj(ball(affine(4), 3))
    gone = "1,4;1,2;3,4"
    assert any(r["word"] == gone for r in obj["vertices"])
    return {
        "spec": obj["spec"],
        "radius": obj["radius"],
        "vertices": [r for r in obj["vertices"] if r["word"] != gone],
        "edges": [r for r in obj["edges"] if gone not in (r["from"], r["to"])],
    }


def cut_vertex_graph() -> dict:
    """A degree-3 radius-3 ball without any edge at 2,1: the vertex 2,1 and
    the pairs through it are cut off, so their breadth-first rows read -1."""
    obj = export_obj(ball(affine(3), 3))
    return dict(obj, edges=[r for r in obj["edges"] if "2,1" not in (r["from"], r["to"])])


def missing_spoke_graph() -> dict:
    """A degree-4 radius-3 ball without the edge e -- 1,2: every cube at the
    identity with the label 1,2 loses an adjacent corner."""
    obj = export_obj(ball(affine(4), 3))
    return dict(obj, edges=[r for r in obj["edges"] if {r["from"], r["to"]} != {"e", "1,2"}])


def open_face_graph() -> dict:
    """A degree-4 radius-3 ball without the edges from 1,2 to depth 2: every
    square at the identity with the label 1,2 fails to close."""
    obj = export_obj(ball(affine(4), 3))
    depth2 = {r["word"] for r in obj["vertices"] if r["depth"] == 2}
    return dict(obj, edges=[
        r for r in obj["edges"] if not (r["from"] == "1,2" and r["to"] in depth2)
    ])


def phantom_eighth_corner_graph() -> dict:
    """A degree-4 radius-3 ball with a phantom copy of one cube's eighth corner.

    The cube at the identity labeled 1,2 / 1,3 / 1,4 has the face corners
    1,3;2,3, 1,4;3,4 and 1,4;2,4 and the eighth corner 1,4;2,4;2,3.  The
    phantom, a word the radius-3 ball does not hold, is joined to the three
    face corners under the labels the real eighth corner has.
    """
    obj = export_obj(ball(affine(4), 3))
    faces, eighth = {"1,3;2,3", "1,4;3,4", "1,4;2,4"}, "1,4;2,4;2,3"
    phantom = "1,4;2,4;2,3;1,2"
    copies = [dict(r, to=phantom) for r in obj["edges"]
              if r["from"] in faces and r["to"] == eighth]
    assert len(copies) == 3
    return dict(
        obj,
        vertices=[*obj["vertices"], {"word": phantom, "depth": 3}],
        edges=[*obj["edges"], *copies],
    )


def coincident_points_graph() -> dict:
    """The degree-3 radius-4 ball with a second vertex for the element
    1,3;2,3: the word 1,2;1,3 at depth 2, joined to 1,2 by 1,3.

    import_ball accepts it, and embed_ball puts both vertices on one disk
    point, so the pair has disk distance 0 at graph distance 2.
    """
    obj = export_obj(ball(affine(3), 4))
    extra = "1,2;1,3"
    assert all(r["word"] != extra for r in obj["vertices"])
    return dict(
        obj,
        vertices=[*obj["vertices"], {"word": extra, "depth": 2}],
        edges=[*obj["edges"], {"from": "1,2", "to": extra, "generator": "1,3"}],
    )
