"""The benchmark's own tests: `python3 -m pytest perfbench` from the repo root.

They run every workload at a tiny size, check the printed metrics against
BENCHMARK.json, and check that doctored answers are counted as wrong.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import CliOp, Outcome, cli_ops, judge_ops, judge_words  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines)
    for m in wanted:
        assert any(m["name"] in line and m["unit"] in line for line in lines), m["name"]
    assert "wrong_answers" in text and "failed_ops" in text


def test_all_runs_every_workload_in_turn():
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("cactuskit benchmark:")]
    assert [h.split()[2] for h in headers] == [f"workload={w}" for w in WORKLOADS]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "word-problem", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _right_word_answers(requests):
    return [
        r.word if r.kind == gen.NORMALIZE else ("true" if r.kind == gen.EQUAL_TRUE else "false")
        for r in requests
    ]


def _first(requests, kind, certified):
    return next(k for k, r in enumerate(requests)
                if r.kind == kind and ((r.family, r.n) in gen.CERTIFIED_SCOPE) == certified)


def test_a_doctored_equal_adds_one_wrong_answer():
    requests = gen.word_requests(7, 400)
    answers = _right_word_answers(requests)
    assert judge_words(requests, answers, []) == {gen.WRONG: [], gen.UNPROVEN: []}
    for kind, certified, doctored in ((gen.EQUAL_TRUE, True, "false"), (gen.EQUAL_FALSE, False, "true")):
        i = _first(requests, kind, certified)
        wrong = list(answers)
        wrong[i] = doctored
        assert judge_words(requests, wrong, []) == {gen.WRONG: [i], gen.UNPROVEN: []}


def test_false_on_an_equal_pair_beyond_the_certified_scope_is_a_known_gap():
    requests = gen.word_requests(7, 400)
    answers = _right_word_answers(requests)
    i = _first(requests, gen.EQUAL_TRUE, False)
    answers[i] = "false"
    assert judge_words(requests, answers, []) == {gen.WRONG: [], gen.UNPROVEN: [i]}


def _envelope(result: dict, code: int = 0) -> Outcome:
    return Outcome(code, json.dumps({"result": result}).encode(), {})


def test_a_doctored_sphere_list_adds_one_wrong_answer():
    ops = cli_ops("ball-checks")
    passing = {"passed": True, "vacuous": False, "failure_count": 0, "items_checked": 9}
    outcomes = {op.name: _envelope(passing) for op in ops}
    outcomes["growth-J4"] = _envelope({"sphere_sizes": list(gen.J4_EXACT_SPHERES)})
    assert judge_ops(ops, outcomes) == ([], [])
    for delta, wrong, gaps in ((-1, ["growth-J4"], []), (+1, [], ["growth-J4"])):
        doctored = list(gen.J4_EXACT_SPHERES)
        doctored[3] += delta  # a lost vertex is wrong, a phantom one a known gap
        outcomes["growth-J4"] = _envelope({"sphere_sizes": doctored})
        found = judge_ops(ops, outcomes)
        assert [[w["op"] for w in entries] for entries in found] == [wrong, gaps]


def test_a_failed_check_on_a_phantom_ball_is_a_gap_only_if_reported_consistently():
    (op,) = [op for op in cli_ops("ball-checks") if op.name == "edges-J4"]
    failing = {"passed": False, "vacuous": False, "failure_count": 3, "items_checked": 9}
    assert [len(x) for x in judge_ops([op], {op.name: _envelope(failing, code=1)})] == [0, 1]
    assert [len(x) for x in judge_ops([op], {op.name: _envelope(failing, code=0)})] == [1, 0]
    (psi,) = [op for op in cli_ops("ball-checks") if op.name == "claim-psi"]
    assert [len(x) for x in judge_ops([psi], {psi.name: _envelope(failing, code=1)})] == [1, 0]


def test_a_doctored_dot_file_fails_the_codec_check_on_its_own():
    (op,) = [op for op in cli_ops("ball-roundtrip", tiny=True) if op.name == "ball-dot-J5"]
    codec_only = [CliOp(op.name, op.argv, op.checks[:1], op.files)]
    # the J_3 r1 ball
    dot = ['graph "g" {', '  "e" [depth=0];', '  "1,2" [depth=1];', '  "1,3" [depth=1];',
           '  "2,3" [depth=1];', '  "e" -- "1,2" [label="1,2"];', '  "e" -- "1,3" [label="1,3"];',
           '  "e" -- "2,3" [label="2,3"];', "}"]

    def outcome(lines):
        env = {"result": {"vertices": 4, "sphere_sizes": [1, 3]}}
        return {op.name: Outcome(0, json.dumps(env).encode(), {"ball.dot": "\n".join(lines).encode()})}

    assert judge_ops(codec_only, outcome(dot)) == ([], [])
    dropped = dot[:2] + dot[3:]  # one vertex line lost, its edge now dangles
    assert [w["check"] for w in judge_ops(codec_only, outcome(dropped))[0]] == ["dot_codec"]


def test_independent_expectations_reproduce_the_published_goldens():
    spheres = gen.tiling_sphere_sizes(5)
    assert spheres == [1, 6, 24, 90, 336, 1254]
    assert gen.trusted_quadruples(spheres, 5) == 447_775
    assert gen.pair_count(spheres[:5], 4) == 1431
    assert gen.ball_edge_count([1, 6, 24, 90, 336], 6) == 576


def test_requests_are_seeded_and_distinct():
    a, b = gen.word_requests(11, 500), gen.word_requests(11, 500)
    assert a == b and len(set(a)) == 500
    assert a != gen.word_requests(12, 500)
