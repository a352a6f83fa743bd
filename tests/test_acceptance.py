"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
verdicts.  Every test does the full computation at the stated scope and
asserts both the mathematical outcome and the runtime budget.

Criterion 3 sweeps the normal forms exhaustively against the relation-move
closure (``oracle_closure``), which shares no code with the hyperplane-descent
engine of ``cactuskit.rewriting``: every word must normalize to the
kappa-shortlex-least shortest word of its class.  A failure lists its witness
words.
"""

import cmath
import itertools
import json
import math
import time

import pytest

from graphs import missing_cube_corner_graph, one_way_entries, shared_wedge_graph

from cactuskit import (
    RelationKind,
    Word,
    affine,
    ball,
    cactus,
    check_cube_spans,
    check_median,
    check_no_shared_consecutive_edges,
    check_squares_embedded,
    classify,
    conjugate_nested,
    embed_ball,
    equal,
    four_point_delta,
    generators,
    hyperbolic_distance,
    identity,
    normalize,
    oracle_closure,
    phi_pair,
    psi_pair,
    qi_fit,
    squares,
    tiling_edge_length,
    verify_claim_phi,
    verify_claim_psi,
    verify_phi_psi_roundtrip,
)
from cactuskit.cayley import sphere_sizes
from cactuskit.cli import main
from cactuskit.core import presentation


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. relation soundness
# ---------------------------------------------------------------------------


def test_criterion_1_relation_soundness():
    """equal() certifies every defining relation instance, n = 3..8, both families."""
    t0 = time.monotonic()
    checked = 0
    for n in range(3, 9):
        for spec in (affine(n), cactus(n)):
            gens = generators(spec)
            e = identity(spec)
            for g in gens:
                gg = (g.p, g.q)
                assert equal(Word.from_pairs(spec, [gg, gg]), e), g
                checked += 1
            for g, h in itertools.permutations(gens, 2):
                kind = classify(g, h)
                if kind is RelationKind.DISJOINT:
                    lhs = Word.from_pairs(spec, [(g.p, g.q), (h.p, h.q)])
                    rhs = Word.from_pairs(spec, [(h.p, h.q), (g.p, g.q)])
                    assert equal(lhs, rhs), (g, h)
                    checked += 1
                elif kind is RelationKind.FIRST_CONTAINS_SECOND:
                    conj = conjugate_nested(g, h)
                    lhs = Word.from_pairs(spec, [(g.p, g.q), (h.p, h.q)])
                    rhs = Word.from_pairs(spec, [(conj.p, conj.q), (g.p, g.q)])
                    assert equal(lhs, rhs), (g, h)
                    checked += 1
    elapsed = time.monotonic() - t0
    verdict(1, True, f"{checked} relation instances sound in {elapsed:.2f}s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. published radius-2 enumeration
# ---------------------------------------------------------------------------

# The 24 length-two elements of the degree-3 affine group, as published.
PUBLISHED_24 = {
    "1,2;3,1", "1,2;2,1", "1,2;2,3", "1,3;2,3", "1,3;2,1", "1,3;3,1",
    "1,3;3,2", "1,3;1,2", "2,3;1,2", "2,3;3,2", "2,3;3,1", "2,1;3,1",
    "2,1;3,2", "2,1;1,2", "2,1;1,3", "2,1;2,3", "3,1;2,3", "3,1;1,3",
    "3,1;1,2", "3,2;1,2", "3,2;1,3", "3,2;2,3", "3,2;2,1", "3,2;3,1",
}

# The six published squares through the identity, vertices in normal form.
# (The published list misprints the sixth cycle's depth-1 start; the
# corrected second entry below is forced by adjacency.)
PUBLISHED_CYCLES = {
    ("e", "1,2", "1,3;2,3", "1,3"),
    ("e", "1,3", "1,3;1,2", "2,3"),
    ("e", "2,3", "2,1;3,1", "2,1"),
    ("e", "2,1", "2,1;2,3", "3,1"),
    ("e", "3,1", "3,2;1,2", "3,2"),
    ("e", "3,2", "3,2;3,1", "1,2"),
}


def _unoriented(cycle):
    """Rotation/reflection-independent form of a 4-cycle of vertex labels."""
    both = [cycle, cycle[::-1]]
    return min(t[i:] + t[:i] for t in both for i in range(4))


def test_criterion_2_published_enumeration():
    t0 = time.monotonic()
    b = ball(affine(3), 2)
    assert b.sphere_sizes() == [1, 6, 24]
    depth2 = {
        b.word(b.key(v)).text() for v in range(len(b)) if b.depth_at(v) == 2
    }
    assert depth2 == PUBLISHED_24
    through_e = {
        _unoriented(tuple(b.word(k).text() for k in s.cycle))
        for s in squares(b)
        if () in s.cycle
    }
    assert through_e == {_unoriented(c) for c in PUBLISHED_CYCLES}
    assert len(through_e) == 6
    elapsed = time.monotonic() - t0
    verdict(2, True, f"spheres [1, 6, 24], 24 words and 6 squares as published "
                     f"({elapsed:.2f}s)")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. normal-form sweep (one normal form per class, the class's least word)
# ---------------------------------------------------------------------------


def _sweep(spec, max_len):
    """Exhaustive sweep of every word up to max_len against its closure class.

    Returns (words_checked, wrong_words, inconsistent_classes): the second
    lists words whose normal form is not the kappa-shortlex-least shortest
    word of their length-capped relation class (oracle_closure), the third
    counts classes whose members do not all share one normal form.  Classes
    are deduplicated lengthwise: relation moves are invertible, so
    same-length members of one class have the same class.
    """
    pres = presentation(spec)
    pairs = [(g.p, g.q) for g in generators(spec)]

    def kappa_key(word):
        return [pres.kappa[i] for i in pres.ids(word.letters)]

    wrong = []
    inconsistent = 0
    words_checked = 0
    for length in range(max_len + 1):
        least_of: dict = {}  # word pairs -> least shortest word of its class
        for combo in itertools.product(pairs, repeat=length):
            word = Word.from_pairs(spec, combo)
            words_checked += 1
            if combo not in least_of:
                closure = oracle_closure(word)
                short = min(map(len, closure))
                least = min((w for w in closure if len(w) == short), key=kappa_key)
                least_of.update((w.pairs(), least) for w in closure if len(w) == length)
                if len({normalize(w).letters for w in closure}) != 1:
                    inconsistent += 1
            if normalize(word) != least_of[combo]:
                wrong.append(word)
    return words_checked, wrong, inconsistent


def test_criterion_3_rewriting_confluence():
    """One normal form per closure class, the class's least word, exhaustively."""
    t0 = time.monotonic()
    n3_words, n3_wrong, n3_bad = _sweep(affine(3), 5)
    assert n3_words == 9331
    n4_words, n4_wrong, n4_bad = _sweep(affine(4), 4)
    assert n4_words == 22621
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0

    ok = not (n3_wrong or n3_bad or n4_wrong or n4_bad)
    detail = (
        f"degree 3 (≤5): {len(n3_wrong)} of {n3_words} words and degree 4 (≤4): "
        f"{len(n4_wrong)} of {n4_words} words miss their class's least word; "
        f"{n3_bad + n4_bad} closure classes mix normal forms ({elapsed:.1f}s)"
    )
    verdict(3, ok, detail)
    if not ok:
        first = [w.text() for w in (n3_wrong + n4_wrong)[:4]]
        pytest.fail(
            f"normal forms miss the least word of their class: {detail}; "
            f"first witnesses {first}"
        )


# ---------------------------------------------------------------------------
# 4. local median-graph structure
# ---------------------------------------------------------------------------


def test_criterion_4_median_structure():
    t0 = time.monotonic()
    details = []
    for n in (3, 4, 5):
        for spec in (affine(n), cactus(n)):
            b = ball(spec, 3)
            r_sq = check_squares_embedded(b)
            r_ed = check_no_shared_consecutive_edges(b)
            r_cu = check_cube_spans(b)
            assert r_sq.passed and not r_sq.vacuous, (spec, r_sq.to_dict())
            assert r_ed.passed and not r_ed.vacuous, (spec, r_ed.to_dict())
            assert r_cu.passed, (spec, r_cu.to_dict())
            if n > 3:
                assert not r_cu.vacuous, spec
            details.append(f"{spec.family.value}({n}): {r_sq.items_checked} sq")
    # the exact J_4 and J_5 radius-6 balls: 1,602 and 43,088 vertices are the
    # sums of perfbench/gen.py's J4_EXACT_SPHERES and J5_EXACT_SPHERES
    for spec, size in ((cactus(4), 1602), (cactus(5), 43088)):
        b = ball(spec, 6)
        assert len(b) == size
        r_sq, r_ed = check_squares_embedded(b), check_no_shared_consecutive_edges(b)
        for rep in (r_sq, r_ed, check_cube_spans(b)):
            assert rep.passed and not rep.vacuous, (spec, rep.to_dict())
        if spec.degree == 4:  # the counts of test_cayley's brute-force 4-cycles
            assert (r_sq.items_checked, r_ed.items_checked) == (1210, 4840)
    m3 = check_median(ball(affine(3), 6), 2)
    assert m3.passed and m3.items_checked == 5456, m3.to_dict()
    b46 = ball(affine(4), 6)
    # the exact spheres, ROADMAP item 1's list (they sum to 454,643), built
    # and counted over descent states
    assert b46.sphere_sizes() == sphere_sizes(affine(4), 6) == [1, 12, 102, 812, 6402, 50412, 396902]
    assert one_way_entries(b46) == 0
    m4 = check_median(b46, 2)
    assert m4.passed and m4.items_checked == 260130, m4.to_dict()
    elapsed = time.monotonic() - t0
    verdict(4, True,
            f"squares/edges/cubes pass on six radius-3 balls and the J_4, J_5 "
            f"radius-6 balls; medians unique "
            f"for {m3.items_checked} + {m4.items_checked} triples ({elapsed:.1f}s)")
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 5/6. the index-shift maps
# ---------------------------------------------------------------------------

CONFIGURED_TRIPLES = {3: 0, 4: 24, 5: 170, 6: 696, 7: 2142, 8: 5488}
WRAPPED_INSTANCES = {3: 0, 4: 0, 5: 5, 6: 36, 7: 147, 8: 448}


def test_criterion_5_shift_claims():
    t0 = time.monotonic()
    for n in range(3, 9):
        rp = verify_claim_phi(n)
        assert rp.passed and rp.items_checked == CONFIGURED_TRIPLES[n], rp.to_dict()
        rq = verify_claim_psi(n)
        assert rq.passed and rq.items_checked == CONFIGURED_TRIPLES[n], rq.to_dict()
        assert rq.params["wrapped_ordering_instances"] == WRAPPED_INSTANCES[n]

    # Worked doubly-wrapped ordering k < l < j < i: degree 5, outer arc (5,3)
    # over inner (1,2); the inverse shift must return the raw l exactly.
    i, j, k, l, n = 5, 3, 1, 2, 5
    assert phi_pair(i, (i, j), n) == (1, j - i + n + 1) == (1, 4)
    assert phi_pair(i, (k, l), n) == (k - i + n + 1, l - i + n + 1) == (2, 3)
    assert psi_pair(i, (2, 3), n) == (k, l)
    lp = l - i + n + 1
    assert ((lp + i - 1 - 1) % n) + 1 == l
    elapsed = time.monotonic() - t0
    total = sum(CONFIGURED_TRIPLES.values())
    verdict(5, True, f"{total} configured triples shift and return correctly, "
                     f"incl. {sum(WRAPPED_INSTANCES.values())} doubly-wrapped "
                     f"orderings ({elapsed:.2f}s)")
    assert elapsed < 60.0


def test_criterion_6_shift_round_trip():
    checked = 0
    for n in range(3, 9):
        rep = verify_phi_psi_roundtrip(n)
        assert rep.passed and rep.items_checked == n * n * (n - 1), rep.to_dict()
        checked += rep.items_checked
    verdict(6, True, f"inverse shift is the identity on {checked} "
                     "(shift, generator) pairs")


# ---------------------------------------------------------------------------
# 7. tessellation geometry of the radius-4 embedding
# ---------------------------------------------------------------------------


def _corner_angle(emb, corner, nb1, nb2):
    """Angle at ``corner`` between geodesics to nb1/nb2 (Möbius transport)."""
    c = emb.point(corner).z
    w1 = (emb.point(nb1).z - c) / (1 - c.conjugate() * emb.point(nb1).z)
    w2 = (emb.point(nb2).z - c) / (1 - c.conjugate() * emb.point(nb2).z)
    a = abs(cmath.phase(w1 / w2))
    return min(a, 2 * math.pi - a)


def test_criterion_7_tessellation_geometry():
    t0 = time.monotonic()
    b = ball(affine(3), 4)
    emb = embed_ball(b)  # raises ClosureViolation on any inconsistency
    target = tiling_edge_length()

    edge_count = 0
    for v in range(len(b)):
        for nb, _ in b.adj_entries(v):
            if nb > v:
                d = hyperbolic_distance(emb.point(b.key(v)), emb.point(b.key(nb)))
                assert abs(d - target) < 1e-9, (v, nb, d)
                edge_count += 1
    assert edge_count == 576

    sqs = squares(b)
    assert len(sqs) == 120
    for s in sqs:
        c = s.cycle
        for idx in range(4):
            ang = _corner_angle(emb, c[idx], c[idx - 1], c[(idx + 1) % 4])
            assert abs(ang - math.pi / 3) < 1e-9, (s, idx, ang)

    membership = {}
    for s in sqs:
        c = s.cycle
        for idx in range(4):
            membership.setdefault(c[idx], []).append(
                (c[idx - 1], c[(idx + 1) % 4])
            )
    interior = 0
    for key, wedges in membership.items():
        if len(wedges) != 6:
            continue  # boundary vertex: some incident squares lie outside
        interior += 1
        total = sum(_corner_angle(emb, key, n1, n2) for n1, n2 in wedges)
        assert abs(total - 2 * math.pi) < 1e-8, (key, total)
    assert interior > 0
    elapsed = time.monotonic() - t0
    verdict(7, True,
            f"{edge_count} edges at length {target:.6f}, 480 square corners at "
            f"π/3, {interior} interior vertices close up to 2π ({elapsed:.1f}s)")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 8. hyperbolicity evidence, frozen as regression goldens
# ---------------------------------------------------------------------------


def test_criterion_8_hyperbolicity_goldens():
    fit = qi_fit(embed_ball(ball(affine(3), 4)))
    assert math.isfinite(fit.lam) and math.isfinite(fit.c)
    assert (fit.lam, fit.c, fit.pair_count, fit.max_violation) == (
        1.7627471740391119, 0.0, 1431, 0.0,
    )
    rep = four_point_delta(ball(affine(3), 5))
    assert math.isfinite(rep.delta)
    assert (rep.delta, rep.quadruples, rep.sampled) == (1.0, 447775, False)
    verdict(8, True,
            f"multiplicative fit λ={fit.lam} with zero violation over "
            f"{fit.pair_count} pairs; four-point δ={rep.delta} over "
            f"{rep.quadruples} quadruples — goldens reproduced exactly")


# ---------------------------------------------------------------------------
# 9. negative controls through the command line
# ---------------------------------------------------------------------------


def test_criterion_9_negative_controls(capsys, tmp_path):
    wedge = tmp_path / "wedge.json"
    wedge.write_text(json.dumps(shared_wedge_graph()))
    code1 = main(["verify", "--check", "edges", "--family", "affine", "--n", "3",
                  "--input", str(wedge)])
    env1 = json.loads(capsys.readouterr().out)
    assert code1 == 1
    assert env1["result"]["passed"] is False
    assert env1["result"]["failures"], "witnesses must be reported"

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(missing_cube_corner_graph()))
    code2 = main(["verify", "--check", "cubes", "--family", "affine", "--n", "4",
                  "--input", str(cube)])
    env2 = json.loads(capsys.readouterr().out)
    assert code2 == 1
    assert env2["result"]["failures"]
    assert any("missing" in w.get("reason", "") for w in env2["result"]["failures"])

    verdict(9, True,
            f"doctored graphs rejected with exit 1 and "
            f"{env1['result']['failure_count']} + {env2['result']['failure_count']} "
            f"witnesses")
