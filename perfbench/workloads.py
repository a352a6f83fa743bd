"""The CLI workloads' ops and the independent check of each op's answer.

Every check returns a list of problems; each check of an op that finds a
problem is one wrong answer.  Most ops have one check; the DOT export has a
codec check and a structure check, so that either can fail on its own.
Expectations come from gen.py (the {4,6} tiling, the defining relations,
the exact J_4 and J_5 counts), never from cactuskit itself.

Beyond gen.CERTIFIED_SCOPE a ball may hold phantom vertices (one group
element split in several), as `cactuskit.cayley.ball` documents.  There a
check holds the answer to what the program guarantees (no element lost or
merged, a consistent report) and returns the remaining distance from the
exact answer as a `Gap`: a known gap is counted and listed, not wrong.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import gen


# CLI workloads whose ops run in their written order: reads follow writes
IN_ORDER = ("ball-roundtrip", "cli-verbs")


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    files: dict  # output file name -> bytes


@dataclass(frozen=True)
class CliOp:
    name: str
    argv: tuple[str, ...]
    checks: tuple[Callable[[Outcome], list[str]], ...]
    files: tuple[str, ...] = ()


def op_spec(argv) -> tuple[str, int]:
    """The group an op works in, with the CLI's defaults: affine, and n = 3
    for the disk verbs, which take no --n."""
    family = argv[argv.index("--family") + 1] if "--family" in argv else "affine"
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 3
    return family, n


class Gap(str):
    """A problem that the program documents as a known limit (see above)."""


def _result(out: Outcome) -> dict:
    return json.loads(out.stdout)["result"]


def _passes(exact: bool):
    def passes(out: Outcome) -> list[str]:
        """Exact balls pass every structure check (paper claim, ROADMAP item 1).
        On a ball with phantoms the report must still be consistent: exit 0
        exactly when it passed, and failures counted among the items."""
        res = _result(out)
        if out.code == 0 and res["passed"] and not res["vacuous"]:
            return []
        found = f"exit {out.code}, {res['failure_count']} failures of {res['items_checked']}"
        consistent = (
            out.code == 1 and not res["passed"] and not res["vacuous"]
            and 0 < res["failure_count"] <= res["items_checked"]
        )
        if consistent and not exact:
            return [Gap(f"{found} on a ball beyond the certified scope")]
        return [found]

    return passes


def _covers(got, exact) -> list[str]:
    """Sphere sizes against the exact ones: fewer is wrong (a lost or merged
    element), more is the phantom gap."""
    if list(got) == list(exact):
        return []
    if len(got) != len(exact) or any(g < e for g, e in zip(got, exact)):
        return [f"sphere sizes {list(got)}, exact {list(exact)}"]
    return [Gap(f"sphere sizes {list(got)}, exact {list(exact)}: "
                f"{sum(got) - sum(exact)} phantom vertices")]


def _growth_is_exact(radius: int):
    def growth_is_exact(out: Outcome) -> list[str]:
        return _covers(_result(out)["sphere_sizes"], gen.J4_EXACT_SPHERES[: radius + 1])

    return growth_is_exact


def _delta(radius: int):
    def delta_exhaustive(out: Outcome) -> list[str]:
        res = _result(out)
        problems = []
        quads = gen.trusted_quadruples(gen.tiling_sphere_sizes(radius), radius)
        if res["sampled"] or res["quadruples"] != quads:
            problems.append(f"{res['quadruples']} quadruples (sampled={res['sampled']}), want all {quads}")
        # the {4,6} tiling graph has delta = 1, reached from radius 5 on
        if radius >= 5 and res["delta"] != 1.0:
            problems.append(f"delta {res['delta']}, want 1.0")
        return problems

    return delta_exhaustive


def _qi_fit(radius: int):
    def pair_count(out: Outcome) -> list[str]:
        want = gen.pair_count(gen.tiling_sphere_sizes(radius), radius)
        got = _result(out)["pair_count"]
        return [] if got == want else [f"pair_count {got}, want {want}"]

    return pair_count


def _embed(radius: int):
    def embedded_tiling(out: Outcome) -> list[str]:
        res = _result(out)
        spheres = gen.tiling_sphere_sizes(radius)
        problems = []
        if not math.isclose(res["edge_length"], gen.TILING_EDGE, rel_tol=0, abs_tol=1e-12):
            problems.append(f"edge length {res['edge_length']!r}, want 2*arccosh(sqrt 2)")
        if (res["vertices"], res["edges"]) != (sum(spheres), gen.ball_edge_count(spheres, 6)):
            problems.append(f"{res['vertices']} vertices / {res['edges']} edges")
        if not out.files["disk.svg"].lstrip().startswith((b"<svg", b"<?xml")):
            problems.append("disk.svg is not an SVG document")
        return problems

    return embedded_tiling


def _depth_histogram(vertices) -> list[int]:
    counts = Counter(v["depth"] for v in vertices)
    return [counts[d] for d in range(max(counts) + 1)]


def _json_round_trip(out: Outcome) -> list[str]:
    """The exported file, read back, has the sphere sizes the export reported."""
    res = _result(out)
    got = _depth_histogram(json.loads(out.files["ball.json"])["vertices"])
    return [] if got == res["sphere_sizes"] else [f"re-read spheres {got}, exported {res['sphere_sizes']}"]


def _dot_codec(out: Outcome) -> list[str]:
    """The DOT file holds the ball the envelope describes, in V + E + 2
    lines: a header, one line per vertex (as many as the envelope's
    `vertices`, in its sphere sizes), one per edge between declared
    vertices, and a closing brace."""
    res = _result(out)
    head, *body, tail = out.files["ball.dot"].decode().splitlines()
    problems = [] if head.startswith("graph ") and tail == "}" else ["no graph header or closing brace"]
    depth: dict[str, int] = {}
    edges = []
    for line in body:
        names = line.split('"')[1::2]  # quoted vertex names, then the label
        if " -- " in line:
            edges.append(names[:2])
        elif "[depth=" in line and names[0] not in depth:
            depth[names[0]] = int(line.split("[depth=")[1].split("]")[0])
        else:
            problems.append(f"unreadable or repeated line: {line.strip()}")
    counts = Counter(depth.values())
    spheres = [counts[d] for d in range(len(res["sphere_sizes"]))]
    if len(depth) != res["vertices"] or spheres != res["sphere_sizes"]:
        problems.append(f"{len(depth)} vertices in spheres {spheres}, envelope has "
                        f"{res['vertices']} in {res['sphere_sizes']}")
    undeclared = sum(u not in depth or v not in depth for u, v in edges)
    if undeclared:
        problems.append(f"{undeclared} edges name undeclared vertices")
    return problems[:5]


def _dot_structure(degree: int, exact_spheres):
    def cayley_edge_count(out: Outcome) -> list[str]:
        """The spheres cover the exact ones.  In an exact ball every vertex
        inside the last sphere has all `degree` neighbours and every edge
        joins consecutive spheres, so E follows from the spheres; phantom
        vertices break that, which is part of their gap."""
        spheres = _result(out)["sphere_sizes"]
        problems = _covers(spheres, exact_spheres)
        if problems:
            return problems
        want = gen.ball_edge_count(spheres, degree)
        got = out.files["ball.dot"].count(b" -- ")
        return [] if got == want else [f"{got} edges, a Cayley ball with spheres {spheres} has {want}"]

    return cayley_edge_count


def _aj3_export(radius: int):
    def tiling_export(out: Outcome) -> list[str]:
        res = _result(out)
        want = gen.tiling_sphere_sizes(radius)
        got = _depth_histogram(res["vertices"])
        problems = [] if got == want else [f"spheres {got}, want {want}"]
        if len(res["edges"]) != gen.ball_edge_count(want, 6):
            problems.append(f"{len(res['edges'])} edges")
        return problems

    return tiling_export


def cli_ops(workload: str, tiny: bool = False) -> list[CliOp]:
    """The fixed op list of a CLI workload; `tiny` shrinks every radius."""

    def r(full: int, small: int) -> int:
        return small if tiny else full

    if workload == "ball-checks":
        j4, j5, aj4_e, aj4_m, depth = r(6, 3), r(6, 3), r(4, 2), r(6, 3), str(r(2, 1))
        beyond = _passes(exact=False)  # the balls of J_4, J_5 and AJ_4 may hold phantoms

        def verify(check, family, n, radius, *extra):
            argv = ("verify", "--check", check, "--family", family, "--n", str(n))
            if radius is not None:
                argv += ("--radius", str(radius))
            return argv + extra

        return [
            CliOp("growth-J4", ("growth", "--family", "cactus", "--n", "4", "--radius", str(r(7, 4))),
                  (_growth_is_exact(r(7, 4)),)),
            CliOp("squares-J4", verify("squares", "cactus", 4, j4), (beyond,)),
            CliOp("edges-J4", verify("edges", "cactus", 4, j4), (beyond,)),
            CliOp("cubes-J5", verify("cubes", "cactus", 5, j5), (beyond,)),
            CliOp("median-J5", verify("median", "cactus", 5, j5, "--depth", depth), (beyond,)),
            CliOp("edges-AJ4", verify("edges", "affine", 4, aj4_e), (beyond,)),
            CliOp("claim-psi", verify("claim-psi", "affine", r(8, 4), None), (_passes(exact=True),)),
            CliOp("median-AJ4", verify("median", "affine", 4, aj4_m, "--depth", depth), (beyond,)),
        ]
    if workload == "disk-geometry":
        return _disk_ops(r(5, 3), r(6, 3), r(6, 3))
    if workload == "ball-roundtrip":
        return _roundtrip_ops(r(5, 3), r(5, 3))
    if workload == "cli-verbs":
        # the verbs of the three workloads above at radii small enough that
        # every op takes well under 0.1 s: a run holds a hundred batches and
        # more, and each op's best time is taken over all of them
        return [
            *_disk_ops(3, 4, 4),
            *_roundtrip_ops(3, 3, check="edges"),
            CliOp("growth-J4", ("growth", "--family", "cactus", "--n", "4", "--radius", "4"),
                  (_growth_is_exact(4),)),
            CliOp("squares-J4", ("verify", "--check", "squares", "--family", "cactus", "--n", "4",
                                 "--radius", "3"), (_passes(exact=False),)),
        ]
    raise ValueError(f"no CLI workload {workload!r}")


def _disk_ops(d: int, q: int, e: int) -> list[CliOp]:
    return [
        CliOp("delta", ("delta", "--radius", str(d)), (_delta(d),)),
        CliOp("qi-fit", ("qi-fit", "--radius", str(q)), (_qi_fit(q),)),
        CliOp("embed", ("embed", "--radius", str(e), "--out", "disk.svg"), (_embed(e),),
              ("disk.svg",)),
    ]


def _roundtrip_ops(aj4: int, rad: int, check: str = "cubes") -> list[CliOp]:
    """In this order: the verify reads the JSON file that the first op wrote."""
    return [
        CliOp("ball-json-AJ4", ("ball", "--n", "4", "--radius", str(aj4), "--out", "ball.json"),
              (_json_round_trip,), ("ball.json",)),
        CliOp(f"{check}-AJ4-input", ("verify", "--check", check, "--n", "4", "--input", "ball.json"),
              (_passes(exact=False),)),
        CliOp("ball-dot-J5", ("ball", "--family", "cactus", "--n", "5", "--radius", str(rad),
                              "--format", "dot", "--out", "ball.dot"),
              (_dot_codec, _dot_structure(10, gen.J5_EXACT_SPHERES[: rad + 1])), ("ball.dot",)),
        CliOp("ball-stdout-AJ3", ("ball", "--n", "3", "--radius", str(rad)), (_aj3_export(rad),)),
    ]


def judge_ops(ops, outcomes: dict, changed=frozenset()) -> tuple[list[dict], list[dict]]:
    """The wrong answers and the known gaps: one entry per check of an op
    whose answer breaks its expectation, wrong unless every problem is a Gap.

    `outcomes` maps op names to what they produced (failed ops are absent);
    `changed` names ops whose output differed between identical batches,
    which is one more wrong answer each.
    """
    wrong, gaps = [], []
    for op in ops:
        if op.name not in outcomes:
            continue
        found = []
        for check in op.checks:
            try:
                problems = check(outcomes[op.name])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
            found.append((check.__name__.lstrip("_"), problems))
        if op.name in changed:
            found.append(("same-output", ["output differs between identical batches"]))
        for name, problems in found:
            if problems:
                entry = {"op": op.name, "check": name, "argv": " ".join(op.argv),
                         "problems": list(map(str, problems))}
                (gaps if all(isinstance(p, Gap) for p in problems) else wrong).append(entry)
    return wrong, gaps


def judge_words(requests, answers, failed) -> dict[str, list[int]]:
    """Indices of word-problem requests by verdict other than OK: the wrong
    answers and the unproven ones (gen.verdict)."""
    skip = set(failed)
    out: dict[str, list[int]] = {gen.WRONG: [], gen.UNPROVEN: []}
    for i, (req, ans) in enumerate(zip(requests, answers)):
        if i not in skip:
            v = gen.verdict(req, ans)
            if v != gen.OK:
                out[v].append(i)
    return out
