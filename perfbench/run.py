"""cactuskit benchmark: seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn, each printing its own block.
BENCHMARK.json lists the workloads that are measured run to run,
`word-problem` and `cli-verbs`; the others run the same way.

Run it from the root of a checkout: the program under test is that
checkout's `src/cactuskit`, put on PYTHONPATH of every child process, and
at most one child runs at a time.  Human-readable lines come first (every
metric with its unit, the failed-op share, the wrong ops and the output
digests); the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones named in BENCHMARK.json, their times scaled to reference
speed by a loop timed throughout the run; with --trace 1 they are the
per-layer ones, taken from one extra batch run with spans.  A full report
(wrong ops, digests, spans) is written under .perfbench/ in the checkout.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from harness import REF_NOMINAL_S, SPAN_FIELDS, digest, layer_totals, ref_loop_s, self_times
from workloads import Outcome, cli_ops, judge_ops, judge_words

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("word-problem", "ball-checks", "disk-geometry", "ball-roundtrip", "cli-verbs")
WORD_COUNT = {False: 4_000, True: 300}
# set-ups per run, the median of which is setup_s
SETUP_RUNS = 15
RUN_LIMIT_S = 170.0  # the whole run, children included, must end before this


@dataclass
class Child:
    code: int
    wall: float
    rss_kb: int
    t0_ns: int
    t1_ns: int
    stdout: Path


class Bench:
    def __init__(self, args: argparse.Namespace, tmp: Path) -> None:
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.children: list[Child] = []
        self.refs: list[float] = []  # ref_loop_s() before every child, and the workers' own

    def spawn(self, argv: list[str], cwd: Path, stdout: Path) -> Child:
        """Run one child to completion; its own rusage gives its peak RSS."""
        self.refs.append(ref_loop_s())
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, (t1 - t0) / 1e9, usage.ru_maxrss, t0, t1, stdout)
        self.children.append(child)
        return child

    def peak_rss_mb(self) -> float:
        return max(c.rss_kb for c in self.children) / 1024.0


def run_worker(bench: Bench, worker: list[str]) -> tuple[list[float], dict]:
    """Set-ups around one timed run of a worker script: SETUP_RUNS // 2
    set-up-only runs before it and the rest after, its own set-up counting
    as one.  A set-up runs from spawn until the worker is ready to time."""

    def once(tag: str, *extra: str) -> dict:
        out = bench.tmp / f"{tag}.json"
        child = bench.spawn([*worker, "--out", str(out), *extra], bench.tmp, bench.tmp / f"{tag}.out")
        if child.code != 0:
            err = child.stdout.with_suffix(".err").read_text(errors="replace")
            raise SystemExit(f"{worker[0]} exited {child.code}:\n{err}")
        res = json.loads(out.read_text())
        res["setup_s"] = res["ready"] - child.t0_ns / 1e9
        return res

    setups = [once(f"setup{k}", "--setup-only")["setup_s"] for k in range(SETUP_RUNS // 2)]
    res = once("run")
    setups.append(res["setup_s"])
    setups += [once(f"setup{k}", "--setup-only")["setup_s"] for k in range(len(setups), SETUP_RUNS)]
    bench.refs += res["refs"]
    return setups, res


# -- word-problem ---------------------------------------------------------------


def word_problem(bench: Bench) -> dict:
    a = bench.args
    count = WORD_COUNT[a.tiny]
    worker = [str(HERE / "wordworker.py"), "--src", str(ROOT / "src"), "--seed", str(a.seed),
              "--count", str(count), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    setups, res = run_worker(bench, worker)

    requests = gen.word_requests(a.seed, count)
    verdicts = judge_words(requests, res["answers"], res["failed"])
    consistent = len(set(res["digests"])) == 1
    walls = res["walls"]
    out = {
        "setup_samples": setups,
        "walls": walls,
        "wall_s": res["best_wall"],
        "latency_note": f"quantile of {count} per-op best times over {len(walls)} batches",
        "ops_per_s": count / res["best_wall"],
        "p50_us": res["p50_us"],
        "p99_us": res["p99_us"],
        "attempted": res["ops"],
        "failed": res["failed_runs"],
        "distinct_ops": count,
        "checks": count,
        "wrong": [word_entry(requests[i], i, res["answers"][i]) for i in verdicts[gen.WRONG]],
        "gaps": [word_entry(requests[i], i, res["answers"][i]) for i in verdicts[gen.UNPROVEN]],
        "digests": {"answers": res["digests"][0], "batches_identical": consistent},
    }
    if not consistent:
        out["wrong"].append({"op": "all", "answer": "answers differ between batches"})
    if a.trace:
        layers = dict(res["layers"])
        layers["trace.overhead_s"] = res["traced_wall"] - out["wall_s"]
        layers["rewriting.equal.unproven"] = len(verdicts[gen.UNPROVEN])
        out.update(layers=layers, spans=res["spans"])
    return out


def word_entry(req, i: int, answer: str) -> dict:
    return {"op": i, "kind": req.kind, "group": f"{req.family} {req.n}",
            "word": req.word, "word2": req.word2, "answer": answer}


# -- CLI workloads ----------------------------------------------------------------


def cli_workload(bench: Bench) -> dict:
    a = bench.args
    ops = cli_ops(a.workload, a.tiny)
    runs = bench.tmp / "runs"
    runs.mkdir()
    worker = [str(HERE / "cliworker.py"), "--src", str(ROOT / "src"), "--workload", a.workload,
              "--seed", str(a.seed), "--seconds", str(a.seconds), "--dir", str(runs),
              *(["--tiny"] if a.tiny else [])]
    setups, res = run_worker(bench, worker)

    # answers are checked after the timed section, on the first batch
    first = runs / "b0"
    outcomes = {}
    for op, code, failed in zip(ops, res["codes"], res["failed"]):
        if not failed:
            files = {n: (first / n).read_bytes() for n in op.files if (first / n).exists()}
            outcomes[op.name] = Outcome(code, (first / f"{op.name}.out").read_bytes(), files)
    digests = res["digests"]
    changed = {op.name for op in ops if any(dg[op.name] != digests[0][op.name] for dg in digests)}
    wrong, gaps = judge_ops(ops, outcomes, changed)
    # each op's best time over the batches; one batch is their sum
    op_walls = res["op_best"]
    wall = sum(op_walls)
    walls = res["walls"]
    out = {
        "setup_samples": setups,
        "walls": walls,
        "op_walls": dict(zip((op.name for op in ops), op_walls)),
        "wall_s": wall,
        "latency_note": f"quantile of {len(ops)} per-op best times over {len(walls)} batches",
        "ops_per_s": len(ops) / wall,
        "p50_us": res["p50_s"] * 1e6,
        "p99_us": res["p99_s"] * 1e6,
        "attempted": len(ops) * len(walls),
        "failed": res["failed_runs"],
        "failed_ops": [op.name for op, failed in zip(ops, res["failed"]) if failed],
        "distinct_ops": len(ops),
        "checks": sum(len(op.checks) for op in ops),
        "wrong": wrong,
        "gaps": gaps,
        "digests": digests[0],
    }
    if a.trace:
        out.update(traced_batch(bench, ops, res["order"], digests[0], wall))
    return out


def traced_batch(bench: Bench, ops, order, reference: dict, untraced_wall: float) -> dict:
    """One more batch, each op under clitrace.py, turned into layer metrics."""
    d = bench.tmp / "trace"
    d.mkdir()
    spans: list[list] = []
    startup = stdout_bytes = exit_fail = 0
    traced_wall = worst_gap = 0.0
    outputs_match = True
    for i in order:
        op = ops[i]
        spans_file = d / f"{op.name}.spans.json"
        child = bench.spawn([str(HERE / "clitrace.py"), str(spans_file), *op.argv], d,
                            d / f"{op.name}.out")
        traced_wall += child.wall
        stdout_bytes += child.stdout.stat().st_size
        exit_fail += child.code == 1
        if not spans_file.exists():  # the child died before writing its spans
            continue
        own = json.loads(spans_file.read_text())
        root = own[0]
        root[5] = child.t1_ns  # the verb's span runs on to process exit
        startup += (root[4] - child.t0_ns) / 1e9
        gap = child.wall - (root[4] - child.t0_ns + sum(self_times(own))) / 1e9
        worst_gap = max(worst_gap, abs(gap))
        base = len(spans)
        for s in own:
            s[0] += base
            s[1] = s[1] + base if s[1] >= 0 else -1
            s[2] = i
        spans.extend(own)
        outputs_match &= reference[op.name]["stdout"] == digest(child.stdout.read_bytes())

    layers = layer_totals(spans)
    layers["cli.self.s"] = layers.pop("cli.main.s", 0.0)
    layers.update({
        "cli.startup.s": startup,
        "cli.stdout_bytes": stdout_bytes,
        "cli.exit_fail": exit_fail,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    built = exact = 0
    for s in spans:
        if s[3] == "cayley.ball" and s[6] and "family" in s[6]:
            key = (s[6]["family"], s[6]["n"], s[6]["radius"])
            if key in gen.EXACT_BALL_VERTICES:
                built += s[6]["vertices"]
                exact += gen.EXACT_BALL_VERTICES[key]
    layers["cayley.ball.phantom_ratio"] = built / exact if exact else 0.0
    return {"layers": layers, "spans": spans, "accounting_gap_s": worst_gap,
            "traced_outputs_match": outputs_match}


# -- reporting --------------------------------------------------------------------


def speed_factor(bench: Bench) -> float:
    """What turns this run's times into times at reference speed."""
    return REF_NOMINAL_S / min(bench.refs)


def end_to_end(res: dict, bench: Bench) -> dict:
    f = speed_factor(bench)
    return {
        "setup_s": statistics.median(res["setup_samples"]) * f,
        "wall_s": res["wall_s"] * f,
        "ops_per_s": res["ops_per_s"] / f,
        "op_p50_us": res["p50_us"] * f,
        "op_p99_us": res["p99_us"] * f,
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def report(bench: Bench, res: dict, config: dict) -> dict:
    a = bench.args
    trace = bool(a.trace)
    if trace:
        wanted = config["per_layer"]
        values = {m["name"]: res["layers"].get(m["name"], 0) for m in wanted}
    else:
        wanted = config["end_to_end"]
        values = end_to_end(res, bench)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    n_wrong = len(res["wrong"])
    lines = [f"cactuskit benchmark: workload={a.workload} seed={a.seed} seconds={a.seconds} "
             f"trace={a.trace}{' tiny' if a.tiny else ''}"]
    notes = {
        "setup_s": f"median of {len(res['setup_samples'])} set-ups",
        "wall_s": f"one batch of {res['distinct_ops']} ops, each at its best of {len(res['walls'])} batches",
        "op_p50_us": res["latency_note"],
        "op_p99_us": res["latency_note"],
    }
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>16.6f} {m['unit']:<6} {notes.get(name, '')}")
    lines.append(f"  host speed: reference loop best {min(bench.refs) * 1e3:.3f} ms of {len(bench.refs)}, "
                 f"{REF_NOMINAL_S * 1e3:g} ms at reference speed, so times end to end are scaled by "
                 f"{speed_factor(bench):.4f}; unscaled wall_s {res['wall_s']:.6f} s")
    lines.append(f"  {'wrong_answers':<44} {n_wrong:>16d} count  of {res['checks']} answer checks")
    lines.append(f"  {'known_gaps':<44} {len(res['gaps']):>16d} count  answers short of exact "
                 f"where the program documents it (ROADMAP items 1-2)")
    share = res["failed"] / res["attempted"]
    lines.append(f"  {'failed_ops':<44} {res['failed']:>16d} count  of {res['attempted']} "
                 f"attempted ({share:.2%})")
    if trace and "accounting_gap_s" in res:
        lines.append(f"  per op, startup + layer self times + cli.self = traced wall within "
                     f"{res['accounting_gap_s']:.2e} s; traced outputs identical: "
                     f"{res['traced_outputs_match']}")
    for kind, entries in (("wrong", res["wrong"]), ("known gap", res["gaps"])):
        for w in entries[:20]:
            lines.append(f"  {kind} op {json.dumps(w)}")
        if len(entries) > 20:
            lines.append(f"  ... {len(entries) - 20} more {kind} ops in the report file")
    for op, dg in res["digests"].items():
        lines.append(f"  digest {op}: {json.dumps(dg) if isinstance(dg, dict) else dg}")

    out_dir = ROOT / ".perfbench"
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}{'-tiny' if a.tiny else ''}"
    (out_dir / f"{name}.json").write_text(json.dumps({
        "metrics": metrics,
        "wrong_answers": n_wrong,
        "known_gaps": len(res["gaps"]),
        "speed_factor": speed_factor(bench),
        "refs": bench.refs,
        **{k: v for k, v in res.items() if k != "spans"},
    }, indent=1))
    if trace:
        with open(out_dir / f"{name}.spans.jsonl", "w") as fh:
            for s in res["spans"]:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
    lines.append(f"  report: .perfbench/{name}.json")
    print("\n".join(lines))
    return {
        "correct": n_wrong == 0 and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (Bench.spawn) and tmp dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cactuskit" / "cli.py").is_file():
        print(f"error: no cactuskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        tmp = out_dir / f"tmp-{os.getpid()}"
        tmp.mkdir()
        try:
            bench = Bench(argparse.Namespace(**{**vars(args), "workload": workload}), tmp)
            res = word_problem(bench) if workload == "word-problem" else cli_workload(bench)
            result = report(bench, res, config)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
