"""Command-line verbs: envelopes, exit codes, determinism, file outputs."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphs import (
    doubled_edge_graph,
    missing_cube_corner_graph,
    self_loop_graph,
    shared_wedge_graph,
)

import cactuskit
from cactuskit import (
    ClosureViolation,
    __version__,
    affine,
    ball,
    cactus,
    cli,
    export,
    export_obj,
)
from cactuskit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# word verbs
# ---------------------------------------------------------------------------


def test_normalize_envelope(capsys):
    code, env, err = run_json(
        capsys, "normalize", "--family", "affine", "--n", "3", "--word", "1,2;1,2"
    )
    assert code == 0
    assert err == ""
    assert set(env) == {"tool_version", "invocation", "result"}
    assert env["invocation"]["verb"] == "normalize"
    assert env["result"] == {"input": "1,2;1,2", "normal_form": "e", "length": 0}


def test_normalize_pinned_word(capsys):
    code, env, _ = run_json(capsys, "normalize", "--n", "4", "--word", "1,2;3,4;1,4")
    assert code == 0
    assert env["result"]["normal_form"] == "1,4;1,2;3,4"
    assert env["invocation"]["family"] == "affine"  # the default family


def test_equal_verb(capsys):
    code, env, _ = run_json(
        capsys, "equal", "--n", "3", "--word", "1,2;1,3", "--word2", "1,3;2,3"
    )
    assert code == 0
    assert env["result"]["equal"] is True
    assert env["result"]["normal_form"] == env["result"]["normal_form2"]
    code, env, _ = run_json(
        capsys, "equal", "--n", "3", "--word", "1,2", "--word2", "2,3"
    )
    assert code == 0  # a negative answer is still a successful query
    assert env["result"]["equal"] is False


# ---------------------------------------------------------------------------
# ball and growth
# ---------------------------------------------------------------------------


def test_ball_json_stdout(capsys):
    code, env, _ = run_json(capsys, "ball", "--n", "3", "--radius", "2")
    assert code == 0
    res = env["result"]
    assert res["spec"] == {"family": "affine", "n": 3}
    assert res["radius"] == 2
    assert len(res["vertices"]) == 31


@pytest.mark.parametrize("family", ["affine", "cactus"])
def test_ball_stdout_is_json_dumps_byte_for_byte(capsys, family):
    """The direct envelope writer prints exactly what json.dumps(indent=2)
    prints, down to radius 0 and its empty edge list, and past 255
    generators."""
    make = affine if family == "affine" else cactus
    cases = [(n, radius) for n in range(2, 6) for radius in range(4)]
    if family == "cactus":
        cases.append((24, 1))  # 276 generators: code points past 255
    for n, radius in cases:
        code, out, err = run_cli(
            capsys, "ball", "--family", family, "--n", str(n), "--radius", str(radius)
        )
        envelope = {
            "tool_version": __version__,
            "invocation": {"verb": "ball", "family": family, "n": n,
                           "radius": radius, "format": "json"},
            "result": export_obj(ball(make(n), radius)),
        }
        assert (code, err) == (0, "")
        assert out == json.dumps(envelope, indent=2) + "\n", (n, radius)


def test_ball_stdout_fresh_interpreter_parity(capsys):
    """A fresh interpreter, with a parser of its own, prints the same bytes."""
    argv = ["ball", "--n", "3", "--radius", "2"]
    src = str(Path(cactuskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cactuskit.cli", *argv], capture_output=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == run_cli(capsys, *argv)[1]


def test_ball_writes_file(capsys, tmp_path):
    out = tmp_path / "ball.json"
    code, env, _ = run_json(
        capsys, "ball", "--n", "3", "--radius", "2", "--out", str(out)
    )
    assert code == 0
    assert env["result"] == {
        "path": str(out),
        "vertices": 31,
        "sphere_sizes": [1, 6, 24],
    }
    on_disk = json.loads(out.read_text())
    assert len(on_disk["vertices"]) == 31


def test_ball_dot_stdout(capsys):
    code, out, _ = run_cli(capsys, "ball", "--n", "3", "--radius", "1", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "affine_3_r1" {')
    assert out.rstrip().endswith("}")


def test_ball_budget_exhaustion_exits_3(capsys):
    code, out, err = run_cli(capsys, "ball", "--n", "3", "--radius", "3", "--budget", "10")
    assert code == 3
    assert out == ""
    assert "resource error" in err


def test_growth(capsys):
    code, env, _ = run_json(capsys, "growth", "--n", "3", "--radius", "3")
    assert code == 0
    assert env["result"] == {
        "sphere_sizes": [1, 6, 24, 90],
        "ball_sizes": [1, 7, 31, 121],
    }


def test_growth_budget_and_errors_keep_their_bytes(capsys):
    """growth counts spheres without a ball, with ball()'s budget rule and
    messages: J_4 r4 has 227 vertices."""
    argv = ("growth", "--family", "cactus", "--n", "4", "--radius", "4", "--budget")
    assert run_cli(capsys, *argv, "226") == (3, "", (
        "resource error: ball(GroupSpec(family=<Family.CACTUS: 'cactus'>, degree=4), 4) "
        "exceeded 226 vertices\n"))
    code, env, err = run_json(capsys, *argv, "227")
    assert (code, err, env["result"]["ball_sizes"][-1]) == (0, "", 227)
    assert run_cli(capsys, "growth", "--n", "3", "--radius", "-1") == (
        2, "", "error: radius must be >= 0, got -1\n")
    assert run_cli(capsys, "growth", "--n", "3", "--radius", "2", "--budget", "0") == (
        2, "", "error: vertex budget must be >= 1, got 0\n")


def test_memory_error_without_a_message_exits_3(capsys, monkeypatch):
    """A MemoryError raised by the allocator has an empty str; the CLI still
    says what ran out."""
    def exhausted(spec, radius, max_vertices):
        raise MemoryError()

    monkeypatch.setattr(cli, "sphere_sizes", exhausted)
    assert run_cli(capsys, "growth", "--family", "affine", "--n", "300", "--radius", "1",
                   "--budget", "10") == (3, "", "resource error: out of memory\n")


def test_growth_past_any_ball(capsys):
    """Radius 60 of AJ_4 holds about 10^54 vertices; its spheres follow the
    series (1+x)^3/(1-9x+9x^2-x^3)."""
    code, env, _ = run_json(capsys, "growth", "--n", "4", "--radius", "60", "--budget", str(10**60))
    c = env["result"]["sphere_sizes"]
    assert code == 0 and len(c) == 61 and c[:4] == [1, 12, 102, 812]
    assert all(c[r] == 9 * c[r - 1] - 9 * c[r - 2] + c[r - 3] for r in range(4, 61))


def test_growth_of_j24_at_radius_3_exceeds_the_default_budget(capsys):
    """8,108,650 vertices: exit 3 with ball()'s message, after counting only."""
    try:
        assert run_cli(capsys, "growth", "--family", "cactus", "--n", "24", "--radius", "3") == (
            3, "", "resource error: ball(GroupSpec(family=<Family.CACTUS: 'cactus'>, "
            "degree=24), 3) exceeded 1000000 vertices\n")
    finally:  # drop the 25k rows of G + 2 slots of the inner spheres' states
        pres = cactuskit.core.presentation(cactus(24))
        pres.reset_states()
        assert pres.state_of == {0: pres.root}


def test_output_is_deterministic(capsys):
    argv = ("ball", "--n", "3", "--radius", "2")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    argv = ("delta", "--radius", "3", "--budget", "200", "--seed", "7")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_squares_passes(capsys):
    code, env, _ = run_json(
        capsys, "verify", "--check", "squares", "--n", "3", "--radius", "3"
    )
    assert code == 0
    assert env["result"]["check"] == "squares-embedded"
    assert env["result"]["passed"] is True
    assert env["result"]["items_checked"] == 30


def test_verify_median(capsys):
    code, env, _ = run_json(
        capsys,
        "verify", "--check", "median", "--n", "3", "--radius", "3", "--depth", "1",
    )
    assert code == 0
    assert env["result"]["passed"] is True
    assert env["invocation"]["depth"] == 1


def test_verify_median_depth_errors_name_the_flags(capsys, tmp_path):
    """A --depth the radius cannot hold is a usage error (2) that names the
    flags, or the file whose radius it is."""
    code, out, err = run_cli(capsys, "verify", "--check", "median", "--n", "3", "--radius", "3")
    assert (code, out) == (2, "")
    assert err == (
        "error: --check median needs 3 * --depth <= --radius, "
        "got --depth 2 and --radius 3\n"
    )
    f = tmp_path / "b.json"
    f.write_bytes(export(ball(affine(3), 2)))
    code, out, err = run_cli(
        capsys, "verify", "--check", "median", "--n", "3", "--input", str(f), "--depth", "1"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: --check median needs 3 * --depth <= the radius of {f}, "
        f"got --depth 1 and the radius of {f} 2\n"
    )


def test_verify_claim_checks(capsys):
    code, env, _ = run_json(capsys, "verify", "--check", "claim-phi", "--n", "5")
    assert code == 0
    assert env["result"]["items_checked"] == 170
    code, env, _ = run_json(capsys, "verify", "--check", "claim-psi", "--n", "5")
    assert code == 0
    assert env["result"]["params"]["wrapped_ordering_instances"] == 5


def test_verify_flag_conflicts_exit_2(capsys, tmp_path):
    f = tmp_path / "b.json"
    f.write_text("{}")
    code, out, err = run_cli(
        capsys, "verify", "--check", "claim-phi", "--n", "5", "--input", str(f)
    )
    assert code == 2 and "error" in err
    code, out, err = run_cli(
        capsys,
        "verify", "--check", "squares", "--n", "3",
        "--input", str(f), "--radius", "2",
    )
    assert code == 2 and "mutually exclusive" in err
    code, out, err = run_cli(capsys, "verify", "--check", "squares", "--n", "3")
    assert code == 2 and "needs --radius" in err
    for check in ("claim-phi", "claim-psi"):
        code, out, err = run_cli(
            capsys, "verify", "--check", check, "--n", "5", "--radius", "2"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --radius does not apply to --check {check}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "--check", "squares", "--n", "3", "--radius", "2", "--depth", "9"),
            "--depth does not apply to --check squares",
        ),
        (
            ("verify", "--check", "claim-psi", "--n", "4", "--depth", "3"),
            "--depth does not apply to --check claim-psi",
        ),
        (
            ("verify", "--check", "claim-psi", "--n", "4", "--budget", "1"),
            "--budget does not apply to --check claim-psi",
        ),
        (
            ("verify", "--check", "edges", "--n", "3", "--input", "BALL", "--budget", "1"),
            "--budget does not apply with --input",
        ),
        (
            ("verify", "--check", "claim-phi", "--family", "cactus", "--n", "4"),
            "--family cactus does not apply to --check claim-phi",
        ),
        (("delta", "--n", "3", "--radius", "3"), None),
    ],
)
def test_unread_flags_exit_2(capsys, tmp_path, argv, message):
    """A flag that the verb or check would not read is a usage error (2)."""
    f = tmp_path / "b.json"
    f.write_bytes(export(ball(affine(3), 1)))
    argv = [str(f) if a == "BALL" else a for a in argv]
    if message is None:  # a flag the verb does not take at all: argparse's own exit
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith("cactuskit: error: unrecognized arguments: --n 3\n")
    else:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_rejects_broken_graphs(capsys, tmp_path):
    wedge = tmp_path / "wedge.json"
    wedge.write_text(json.dumps(shared_wedge_graph()))
    code, env, _ = run_json(
        capsys, "verify", "--check", "edges", "--n", "3", "--input", str(wedge)
    )
    assert code == 1
    assert env["result"]["passed"] is False
    assert env["result"]["failures"]

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(missing_cube_corner_graph()))
    code, env, _ = run_json(
        capsys, "verify", "--check", "cubes", "--n", "4", "--input", str(cube)
    )
    assert code == 1
    assert env["result"]["failure_count"] >= 1


def test_verify_malformed_input_exits_2(capsys, tmp_path):
    """A file off the export schema is an input error (2), not a failed check (1)."""
    good = {
        "spec": {"family": "affine", "n": 3},
        "radius": 1,
        "vertices": [{"word": "e", "depth": 0}],
        "edges": [],
    }
    for name, obj in (
        ("no-n", dict(good, spec={"family": "affine"})),
        ("no-depth", dict(good, vertices=[{"word": "e"}])),
        ("int-vertices", dict(good, vertices=5)),
        ("unknown-family", dict(good, spec={"family": "afine", "n": 3})),
        # no vertex can have a depth in 0..-1: not a vacuous pass
        ("negative-radius", dict(good, radius=-1, vertices=[])),
    ):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(obj))
        code, out, err = run_cli(
            capsys, "verify", "--check", "edges", "--n", "3", "--input", str(f)
        )
        assert code == 2, name
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_a_degree_past_the_generator_limit_exits_3(capsys, tmp_path):
    """AJ_300 has 89,700 generators, more than a ball's 16-bit ids hold: the
    flag and a file's spec are refused before any table is built."""
    f = tmp_path / "n300.json"
    f.write_text(json.dumps({"spec": {"family": "affine", "n": 300}, "radius": 1,
                             "vertices": [], "edges": []}))
    for argv in (("normalize", "--n", "300", "--word", "1,2"),
                 ("verify", "--check", "squares", "--n", "300", "--input", str(f))):
        start = time.perf_counter()
        assert run_cli(capsys, *argv) == (3, "", "resource error: affine n = 300 has 89700 "
                                          "generators; the tables hold fewer than 65536\n")
        assert time.perf_counter() - start < 0.5, argv


def test_verify_input_must_match_family_and_n(capsys, tmp_path):
    """--family/--n name the file's group; a mismatch is a usage error (2)."""
    f = tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "ball", "--n", "3", "--radius", "2", "--out", str(f))
    assert code == 0
    for flags in (
        ("--family", "cactus", "--n", "7"),
        ("--n", "4"),
        ("--family", "cactus", "--n", "3"),
    ):
        code, out, err = run_cli(
            capsys, "verify", "--check", "edges", *flags, "--input", str(f)
        )
        assert code == 2, flags
        assert out == ""
        assert err.startswith("error: ") and "does not match" in err
    code, env, _ = run_json(
        capsys, "verify", "--check", "edges", "--n", "3", "--input", str(f)
    )
    assert code == 0
    assert env["invocation"]["family"] == "affine" and env["invocation"]["n"] == 3


def test_verify_missing_input_file_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--check", "squares", "--n", "3", "--input", "/no/such/file"
    )
    assert code == 3
    assert "resource error" in err


# ---------------------------------------------------------------------------
# disk verbs
# ---------------------------------------------------------------------------


def test_embed_writes_svg(capsys, tmp_path):
    out = tmp_path / "disk.svg"
    code, env, _ = run_json(capsys, "embed", "--radius", "2", "--out", str(out))
    assert code == 0
    assert env["result"] == {
        "svg_path": str(out),
        "vertices": 31,
        "edges": 36,
        "edge_length": 1.7627471740390868,
    }
    assert out.read_bytes().startswith(b"<svg")


def test_disk_verbs_require_degree_three_affine(capsys, tmp_path):
    """The disk verbs are defined for AJ_3 only, so they take no --family/--n."""
    for argv in (
        ("embed", "--n", "4", "--radius", "2", "--out", str(tmp_path / "x.svg")),
        ("qi-fit", "--family", "cactus", "--radius", "3"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert out == "" and "unrecognized arguments" in err
    assert not (tmp_path / "x.svg").exists()


def test_closure_violation_exits_1(capsys, monkeypatch, tmp_path):
    def broken(b):
        raise ClosureViolation("an edge misses the tiling length")

    monkeypatch.setattr(cli, "embed_ball", broken)
    code, out, err = run_cli(
        capsys, "embed", "--radius", "2", "--out", str(tmp_path / "x.svg")
    )
    assert (code, out) == (1, "")
    assert err == "verification failure: an edge misses the tiling length\n"


def test_qi_fit_result_keys(capsys):
    code, env, _ = run_json(capsys, "qi-fit", "--radius", "3")
    assert code == 0
    assert env["result"] == {
        "lambda": 1.762747174039093,
        "c": 0.0,
        "pair_count": 279,
    }


def test_qi_fit_small_radius_exits_2(capsys):
    code, _, err = run_cli(capsys, "qi-fit", "--radius", "2")
    assert code == 2


def test_delta_result(capsys):
    code, env, _ = run_json(capsys, "delta", "--radius", "3")
    assert code == 0
    assert env["result"] == {"delta": 1.0, "quadruples": 875, "sampled": False}
    code, env, _ = run_json(capsys, "delta", "--radius", "3", "--budget", "100")
    assert code == 0
    assert env["result"]["sampled"] is True
    assert env["result"]["quadruples"] == 100


def test_delta_budget_below_one_exits_2(capsys):
    for budget in ("-5", "0"):
        code, out, err = run_cli(capsys, "delta", "--radius", "3", "--budget", budget)
        assert code == 2, budget
        assert out == "" and "budget must be >= 1" in err


def test_vertex_budget_below_one_exits_2(capsys):
    # a nonsense budget is a usage error, not resource exhaustion (exit 3)
    for argv in (("ball", "--budget", "-5"), ("growth", "--budget", "0")):
        code, out, err = run_cli(capsys, *argv, "--n", "3", "--radius", "2")
        assert code == 2, argv
        assert out == "" and err.startswith("error:") and "budget must be >= 1" in err


# ---------------------------------------------------------------------------
# parsing errors
# ---------------------------------------------------------------------------


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--n", "3"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--n", "3", "--radius", "2", "--frob"])
    assert exc.value.code == 2


def test_bad_word_syntax_exits_2(capsys):
    code, out, err = run_cli(capsys, "normalize", "--n", "3", "--word", "9,9")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    """A process builds its parser once, and no call sees another's flags:
    each call prints what it prints on a freshly built parser."""
    f = tmp_path / "b.json"
    f.write_bytes(export(ball(affine(3), 1)))
    calls = [
        ("growth", "--n", "3", "--radius", "2", "--frob"),
        ("--version",),
        ("verify", "--check", "squares", "--n", "3", "--input", str(f)),
        ("verify", "--check", "squares", "--n", "3", "--radius", "2"),
        ("ball", "--n", "3", "--radius", "2"),
        ("ball", "--n", "3", "--radius", "2"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    build, builds = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        fresh.append(outcome(argv))
    builds.clear()
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    shared = [outcome(argv) for argv in calls]
    assert len(builds) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0]
    assert shared[1][1] == __version__ + "\n"
    assert json.loads(shared[3][1])["invocation"] == {
        "verb": "verify", "check": "squares", "family": "affine", "n": 3, "radius": 2,
    }


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# sha256 of each verb's stdout and of the files it writes, as written when
# ball() still normalized every parent word plus a letter (and, for the disk
# verbs, before embed_ball, qi_fit and render_svg wrote the disk maths
# inline): a speed-up must not change an output byte
_PINNED = (
    (("ball", "--n", "4", "--radius", "3", "--out", "ball.json"),
     "fa2282ac042f52a0e4ba93a1459bc7bcca90fc5348d2619bd4b503e06eb602ce",
     {"ball.json": "45d882f42ec7ce6128dc758ab276b21ba9fa17b0bf5f1cd4eb0bc6fc980cb370"}),
    (("verify", "--check", "edges", "--n", "4", "--input", "ball.json"),
     "877f638f36f1f4bfc8a3a2efafa1e32cf01f10d27b88e2f8a236c468e64ef53e", {}),
    (("ball", "--family", "cactus", "--n", "5", "--radius", "3", "--format", "dot",
      "--out", "ball.dot"),
     "f8c3218a9c6182eac9dcc2394af21cf0bb41086c4d128e9c3ba5d5d48a34901e",
     {"ball.dot": "9d36263d3ecb489d84dd1d875f441e8a71e84e2a6c08a152decc07d7ededf83a"}),
    (("ball", "--n", "3", "--radius", "3"),
     "12fd101bb2d695bf2f4d26494dd7c5c5daed4eda9e36ea02e1e7697ec6a199c6", {}),
    (("growth", "--family", "cactus", "--n", "4", "--radius", "4"),
     "ebbff063ab340a3b74e36e187142993fb9ed35438c158d7c5a2e8b65524efe04", {}),
    (("verify", "--check", "squares", "--family", "cactus", "--n", "4", "--radius", "3"),
     "7941a72161a7beb101744d614f3a8ce122fa8ece6558057f2fce5359e01f5d79", {}),
    (("delta", "--radius", "3"),
     "5aa2634aa1698122f98bcb879aab7ec3227c4741711c0a295a056ffb73b2a74b", {}),
    (("qi-fit", "--radius", "4"),
     "c90d31e81f8df178efc460855e6d2c7ac0896dcf2ea8850b456883a1f3b093d6", {}),
    (("embed", "--radius", "4", "--out", "disk.svg"),
     "6a58e4f6f692371e2db7f006eb6cd54c8f485ea8d29708cda69da08a109f8b44",
     {"disk.svg": "5bd1ca16f807132a0105a1b5a2f8d0caf12a7a1bc50eeac1bfcdea8b6cae2e54"}),
)


def _assert_pinned(capsys, tmp_path, pinned):
    """Run each argv in turn in tmp_path and compare its bytes with the pins."""
    for argv, stdout_sha, files in pinned:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, argv
        for name, sha in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, (argv, name)


def test_output_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    """In this order: the edges check reads the JSON file the first verb wrote."""
    monkeypatch.chdir(tmp_path)
    _assert_pinned(capsys, tmp_path, _PINNED)


# the same, one radius or more past the ops above, as written before ball()
# ranked each sphere as ints and qi_fit took atanh only of each distance's
# extreme ratios: more spheres and more pairs for a speed-up to get wrong
_PINNED_LARGER = (
    (("qi-fit", "--radius", "6"),
     "f3b130226ceca5ec0ba04d57d156d9d48db99b67f3747323d51ca98eba9799a5", {}),
    (("embed", "--radius", "5", "--out", "disk.svg"),
     "7b3893712ed1950ca83ddbce0157bc8f7e69366b85510306f3c22f552d5af233",
     {"disk.svg": "c15aa567065b27e77ca756e53ccc24a7035aed57efde1f5d2a40f0e824fc8f40"}),
    (("delta", "--radius", "4"),
     "c68fe0c682f506717d6d68efb24afb7f8b07769e98cf74530fd14b65a93f22d6", {}),
    (("ball", "--n", "4", "--radius", "4", "--out", "ball.json"),
     "1cf3f44faad924ff06707d87f76e6e4cdddaf9abf8b13a3f64c05fb86415d97c",
     {"ball.json": "5786329aa0faaeed3c5c2f7580858c9ff155b1e5d9d3915e7b4d0441fc64097b"}),
    (("ball", "--family", "cactus", "--n", "5", "--radius", "4", "--format", "dot"),
     "c5dadaa18a42837ae1e7992dd0a893f9dff22559c3a5196d7f1e1c6d8eeb1c86", {}),
)


def test_larger_output_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_pinned(capsys, tmp_path, _PINNED_LARGER)


# sha256 of the square and wedge checks' stdout on graphs that break them,
# as written when squares searched each vertex's rows in key-rank order: the
# order in which squares are found must not reorder a witness
_PINNED_WITNESSES = (
    (shared_wedge_graph, "squares", 0,
     "73b8e0612bbb90a6355d37bad4d23ddf52c04e34d8a3cf30c7b0c90bfc5b517d"),
    (shared_wedge_graph, "edges", 1,
     "8bdc91ccc05ca222a107eeed8b8c9a94d98da7e70b4854833ca3273d18630308"),
    (doubled_edge_graph, "squares", 1,
     "49d94b04be98c0a6e17ed2583ae0e1cc04dabc212b6bf69ea1efe8c086a1b4e2"),
    (doubled_edge_graph, "edges", 1,
     "88d9e9a27984b2fc2b22cc570c63da3ed09f143d85591feaf7dd51c165970428"),
    (self_loop_graph, "squares", 1,
     "155f065b814971ba94cb10666662e5a56b62a4c3964da1bd2007284fb32c2645"),
    (self_loop_graph, "edges", 1,
     "decc5865da585641cf3c0e55a791e8dd592aa4fafbe6c76da79b225fea81a1f0"),
)


def test_witness_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    """Each graph is written to graph.json, so the invocation echoes one name."""
    monkeypatch.chdir(tmp_path)
    for make, check, want_code, stdout_sha in _PINNED_WITNESSES:
        (tmp_path / "graph.json").write_text(json.dumps(make()))
        argv = ("verify", "--check", check, "--n", "3", "--input", "graph.json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (want_code, ""), (make.__name__, check)
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, (make.__name__, check)
