"""Mechanical structure checks, their reports, and the index-shift maps."""

from itertools import permutations
from math import comb

import pytest

from graphs import (
    doubled_edge_graph,
    many_medians_graph,
    missing_cube_corner_graph,
    missing_spoke_graph,
    open_face_graph,
    phantom_eighth_corner_graph,
    shared_wedge_graph,
)

from cactuskit import (
    IndexOutOfRange,
    InvalidPair,
    PreconditionViolated,
    VerificationReport,
    RelationKind,
    WrongFamily,
    affine,
    ball,
    cactus,
    check_cube_spans,
    check_median,
    check_no_shared_consecutive_edges,
    check_square_normal_forms,
    check_squares_embedded,
    classify,
    generators,
    import_ball,
    make_generator,
    phi_map,
    phi_pair,
    psi_map,
    psi_pair,
    verify_claim_phi,
    verify_claim_psi,
    verify_phi_psi_roundtrip,
)
from cactuskit import verify
from cactuskit.cli import main
from cactuskit.verify import _related_triples


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------


def test_report_counts_and_witness_cap():
    rep = VerificationReport("demo", affine(3), {"radius": 1}, 0, 0)
    assert rep.passed
    for k in range(150):
        rep.note_failure({"k": k})
    assert not rep.passed
    assert rep.failure_count == 150
    assert len(rep.failures) == 100  # witnesses capped, count exact


def test_report_to_dict():
    rep = VerificationReport("demo", affine(3), {"radius": 1}, 7, 0, vacuous=True)
    d = rep.to_dict()
    assert d == {
        "check": "demo",
        "params": {"radius": 1},
        "items_checked": 7,
        "failure_count": 0,
        "failures": [],
        "vacuous": True,
        "passed": True,
        "spec": {"family": "affine", "n": 3},
    }


# ---------------------------------------------------------------------------
# square conditions on honest balls
# ---------------------------------------------------------------------------


def test_squares_embedded_passes(aj3_r3):
    rep = check_squares_embedded(aj3_r3)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 30
    assert rep.check_name == "squares-embedded"


def test_no_shared_wedges_passes(aj3_r3):
    rep = check_no_shared_consecutive_edges(aj3_r3)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 120  # four corner-wedges per square


def test_square_conditions_on_other_specs(j4_r3, aj4_r3):
    for b in (j4_r3, aj4_r3):
        assert check_squares_embedded(b).passed
        assert check_no_shared_consecutive_edges(b).passed


def test_square_normal_forms(aj3_r2):
    rep = check_square_normal_forms(aj3_r2)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 6  # one per related unordered generator pair
    # degree 4 has disjoint pairs too, such as 1,2 and 3,4; AJ_3 has none
    for spec, items in ((affine(4), 30), (cactus(4), 10)):
        rep = check_square_normal_forms(ball(spec, 2))
        assert rep.passed and not rep.vacuous
        assert rep.items_checked == items, spec
    small = check_square_normal_forms(ball(affine(3), 1))
    assert small.vacuous and small.passed


# ---------------------------------------------------------------------------
# cube spans
# ---------------------------------------------------------------------------


def test_cube_spans_vacuous_at_degree_three(aj3_r4):
    rep = check_cube_spans(aj3_r4)
    assert rep.vacuous and rep.passed
    assert rep.items_checked == 0  # no pairwise-related label triple exists


def test_cube_spans_pass_at_degree_four(j4_r3, aj4_r3):
    rep = check_cube_spans(aj4_r3)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 20  # 20 triples x 1 eligible vertex
    rep = check_cube_spans(j4_r3)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 5


def _dissections(N: int, k: int) -> int:
    """Kirkman-Cayley: the dissections of a convex N-gon by k diagonals."""
    return comb(N - 3, k) * comb(N + k - 1, k) // (k + 1)


def _classified_triples(spec) -> list:
    """Pairwise related generator-index triples, a < b < c, by core.classify."""
    gens = generators(spec)

    def related(i, j):
        return classify(gens[i], gens[j]) is not RelationKind.NONE

    G = len(gens)
    return [
        (a, b, c)
        for a in range(G) for b in range(a + 1, G) for c in range(b + 1, G)
        if related(a, b) and related(a, c) and related(b, c)
    ]


def test_related_triples_goldens():
    """The cube check's label triples, against closed forms and classify."""
    for n, want in zip(range(3, 8), (0, 5, 35, 140, 420)):
        assert want == _dissections(n + 1, 3) + _dissections(n + 1, 2)
        assert len(_related_triples(cactus(n))) == want
    # the vertices of the 3-dimensional cyclohedron
    assert len(_related_triples(affine(4))) == 20 == comb(6, 3)
    for n in range(3, 7):
        for spec in (affine(n), cactus(n)):
            assert _related_triples(spec) == _classified_triples(spec)


# ---------------------------------------------------------------------------
# medians
# ---------------------------------------------------------------------------


def test_median_passes(aj3_r3):
    rep = check_median(aj3_r3, 1)
    assert rep.passed and not rep.vacuous
    assert rep.items_checked == 84  # multisets of three depth<=1 sources
    assert rep.params == {"radius": 3, "test_depth": 1}


def test_median_precondition(aj3_r3, capsys):
    with pytest.raises(PreconditionViolated, match=r"^need 3\*test_depth <= radius"):
        check_median(aj3_r3, 2)  # 3*2 > 3
    # a negative depth is refused as negative, not as too deep for the radius
    with pytest.raises(PreconditionViolated, match=r"^test_depth must be >= 0, got -1$"):
        check_median(aj3_r3, -1)
    # at the CLI it is a usage error that names the flag, raised before the
    # ball is built (a one-vertex budget would stop the build)
    code = main(["verify", "--check", "median", "--n", "3", "--radius", "2", "--budget", "1",
                 "--depth", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --depth must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# deliberately broken graphs are caught
# ---------------------------------------------------------------------------


def test_shared_wedge_is_reported():
    b = import_ball(shared_wedge_graph())
    rep = check_no_shared_consecutive_edges(b)
    assert not rep.passed
    assert rep.failure_count >= 1
    witness = rep.failures[0]
    assert "corner" in witness and "squares" in witness
    # squares themselves are embedded; only the wedge-sharing condition breaks
    assert check_squares_embedded(b).passed


def test_missing_cube_corner_is_reported():
    b = import_ball(missing_cube_corner_graph())
    rep = check_cube_spans(b)
    assert not rep.passed
    assert rep.failure_count >= 1
    reasons = {w["reason"] for w in rep.failures}
    assert "eighth corner missing" in reasons
    for w in rep.failures:
        assert w["vertex"] == "e"
        assert len(w["labels"]) == 3


def _aj4_triples_with_1_2() -> list:
    """The label triples of AJ_4's cubes at e that use the label 1,2."""
    gens = generators(affine(4))
    return [[gens[g].text() for g in t] for t in _classified_triples(affine(4)) if 0 in t]


def test_missing_adjacent_corner_is_reported():
    rep = check_cube_spans(import_ball(missing_spoke_graph()))
    assert [w["labels"] for w in rep.failures] == _aj4_triples_with_1_2()
    assert rep.failure_count == 6
    for w in rep.failures:
        assert w == {"vertex": "e", "labels": w["labels"], "reason": "adjacent corner missing"}


def test_open_face_is_reported():
    rep = check_cube_spans(import_ball(open_face_graph()))
    assert [w["labels"] for w in rep.failures] == _aj4_triples_with_1_2()
    for w in rep.failures:
        # the first face tried is the one on the two least labels
        assert w == {"vertex": "e", "labels": w["labels"],
                     "reason": "face does not close", "pair": w["labels"][:2]}


def test_phantom_eighth_corner_is_reported():
    rep = check_cube_spans(import_ball(phantom_eighth_corner_graph()))
    assert rep.failure_count == 1
    assert rep.failures == [{
        "vertex": "e",
        "labels": ["1,2", "1,3", "1,4"],
        "reason": "graph search disagrees with the expected eighth corner",
        "expected": "1,4;2,4;2,3",
        "found": ["1,4;2,4;2,3", "1,4;2,4;2,3;1,2"],
    }]


def test_median_witness_keeps_the_least_medians():
    rep = check_median(import_ball(many_medians_graph()), 1)
    assert rep.failure_count == 1
    assert rep.failures == [{
        "triple": ["1,2", "2,3", "3,4"],
        "median_count": 7,
        "medians": ["1,3", "1,4", "2,1", "2,4", "3,1"],
    }]


def test_degenerate_square_is_reported():
    """A doubled edge makes a two-corner 4-cycle, which must be flagged."""
    rep = check_squares_embedded(import_ball(doubled_edge_graph()))
    assert not rep.passed
    assert rep.failures[0]["distinct_corners"] == 2


def test_broken_median_is_reported():
    """Cutting one spoke pushes a source pair out of certified range: no median."""
    from cactuskit import export_obj

    obj = export_obj(ball(affine(3), 3))
    trimmed = dict(
        obj,
        edges=[r for r in obj["edges"] if (r["from"], r["to"]) != ("e", "1,2")],
    )
    rep = check_median(import_ball(trimmed), 1)
    assert not rep.passed
    assert rep.failure_count >= 1
    witness = rep.failures[0]
    assert witness["median_count"] == 0


def test_isolated_source_has_no_medians():
    """A depth-1 source with no edges: every triple through it and another
    vertex has no median (its level sets past 0 are empty), and none raises."""
    from cactuskit import export_obj

    obj = export_obj(ball(affine(3), 3))
    cut = dict(obj, edges=[r for r in obj["edges"] if "1,2" not in (r["from"], r["to"])])
    rep = check_median(import_ball(cut), 1)
    assert rep.items_checked == 84
    assert rep.failure_count == 27  # the triples through 1,2 but (1,2, 1,2, 1,2)
    for w in rep.failures:
        assert "1,2" in w["triple"] and set(w["triple"]) != {"1,2"}
        assert (w["median_count"], w["medians"]) == (0, [])


# ---------------------------------------------------------------------------
# the index-shift correspondence
# ---------------------------------------------------------------------------


def test_pair_shift_examples():
    assert phi_pair(3, (3, 1), 5) == (1, 4)
    assert psi_pair(3, (1, 4), 5) == (3, 1)
    assert phi_pair(1, (2, 4), 5) == (2, 4)  # shifting by 1 is the identity
    assert psi_pair(2, (1, 3), 4) == (2, 4)


def test_pair_shift_round_trip_everywhere():
    for n in (3, 4, 5, 6):
        for i in range(1, n + 1):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    if p == q:
                        continue
                    assert psi_pair(i, phi_pair(i, (p, q), n), n) == (p, q)


def test_generator_shift_maps():
    g = make_generator(affine(4), 2, 4)
    img = phi_map(2, g)
    assert img.spec == cactus(4)
    assert (img.p, img.q) == (1, 3)
    back = psi_map(2, img)
    assert back == g


def test_generator_shift_family_guards():
    with pytest.raises(WrongFamily):
        phi_map(1, make_generator(cactus(4), 1, 3))
    with pytest.raises(WrongFamily):
        psi_map(1, make_generator(affine(4), 1, 3))
    with pytest.raises(IndexOutOfRange):
        phi_map(0, make_generator(affine(4), 1, 3))
    with pytest.raises(IndexOutOfRange):
        phi_map(5, make_generator(affine(4), 1, 3))


def test_generator_shift_can_leave_the_plain_family():
    # shifting (1,3) by i=2 gives the decreasing pair (4,2): no plain generator
    with pytest.raises(InvalidPair):
        phi_map(2, make_generator(affine(4), 1, 3))


def test_roundtrip_reports():
    for n in range(3, 9):
        rep = verify_phi_psi_roundtrip(n)
        assert rep.passed
        assert rep.items_checked == n * n * (n - 1)


def _claim_counts_from_arcs(n):
    """(configured triples, doubly-wrapped ones) of AJ_n from the arcs' member
    lists alone: an arc contains a shorter one whose members run forward
    inside its own, and two arcs are disjoint when they share no member.  A
    triple counts once for each configuration it realizes."""
    arcs = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]
    members = [[(p - 1 + t) % n + 1 for t in range((q - p) % n + 1)] for p, q in arcs]
    inside = [[len(ma) > len(mb) and any(ma[s:s + len(mb)] == mb for s in range(len(ma)))
               for mb in members] for ma in members]
    apart = [[not set(ma) & set(mb) for mb in members] for ma in members]
    items = wrapped = 0
    for a, b, c in permutations(range(len(arcs)), 3):
        # chain, nested-plus-disjoint and common-outer: label 1 contains label 2
        nested = inside[a][b] * (inside[b][c] + apart[a][c] + (inside[a][c] and apart[b][c]))
        items += nested + (apart[a][b] and apart[a][c] and apart[b][c])  # pairwise-disjoint
        (i, j), (k, l) = arcs[a], arcs[b]
        wrapped += nested * (k < l < j < i)
    return items, wrapped


def test_claim_reports():
    want_items = {3: 0, 4: 24, 5: 170, 6: 696}
    want_wrapped = {3: 0, 4: 0, 5: 5, 6: 36}
    for n, items in want_items.items():
        phi = verify_claim_phi(n)
        assert phi.passed
        assert phi.items_checked == items
        psi = verify_claim_psi(n)
        assert psi.passed
        assert psi.items_checked == items
        assert psi.params["wrapped_ordering_instances"] == want_wrapped[n]
        # the same counts, with no classify, par or triple walk of verify
        assert _claim_counts_from_arcs(n) == (items, want_wrapped[n])


def test_claim_preconditions():
    with pytest.raises(PreconditionViolated):
        verify_claim_phi(2)
    with pytest.raises(PreconditionViolated):
        verify_claim_psi(2)


@pytest.mark.parametrize(
    "name, check, shifted",
    [("phi_pair", verify_claim_phi, phi_pair), ("psi_pair", verify_claim_psi, psi_pair)],
)
def test_claims_fail_on_a_shift_one_too_far(monkeypatch, capsys, name, check, shifted):
    """Negative control: with the shift map moved one index too far, both
    the report and the CLI verb fail, with witnesses naming the tuple."""
    monkeypatch.setattr(verify, name, lambda i, pair, n: shifted(i + 1, pair, n))
    rep = check(5)
    assert not rep.passed
    assert rep.items_checked == 170
    assert rep.failure_count > 0
    for witness in rep.failures:
        assert {"configuration", "tuple", "shift"} <= set(witness)
        assert witness["configuration"] in {"chain", "nested-plus-disjoint", "common-outer",
                                            "pairwise-disjoint"}
        assert len(witness["tuple"]) == 3
    assert main(["verify", "--check", rep.check_name, "--n", "5"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_claim_phi_fails_on_one_broken_containment(monkeypatch, capsys):
    """Negative control for a single constraint: a shift whose images still
    start at 1 and still increase, but cut every interval not starting at 1
    down to its first two points.  That breaks the one constraint a cut
    cannot keep, a chain's second containment, and claim-phi names it."""

    def cut(i, pair, n):
        p, q = phi_pair(i, pair, n)
        return (p, q) if p == 1 else (p, p + 1)

    monkeypatch.setattr(verify, "phi_pair", cut)
    rep = verify_claim_phi(5)
    assert rep.items_checked == 170
    assert rep.failure_count > 0
    for witness in rep.failures:
        assert witness["configuration"] == "chain"
        assert witness["violated"] == "containment of labels 2 and 3 transfers"
        _, (p2, _), (p3, _) = witness["images"]
        assert p2 < p3  # so [p3, p3 + 1] is not inside [p2, p2 + 1]
    assert main(["verify", "--check", "claim-phi", "--n", "5"]) == 1
    assert '"passed": false' in capsys.readouterr().out
