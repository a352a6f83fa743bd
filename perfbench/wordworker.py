"""The word-problem client: one process calling cactuskit as a script would.

Run by run.py with PYTHONPATH pointing at the checkout's `src`.  It imports
the package, builds the presentation tables, generates the seeded request
stream (all of that is set-up), then answers the requests in a closed loop
and writes a JSON result file.  One op is parse_word, then normalize or
equal, then `.text()` of the normal form.
"""

from __future__ import annotations

import argparse
import json
import time
from array import array
from pathlib import Path

import gen
from harness import Tracer, digest, layer_totals, quantile, ref_loop_s, timed_batches


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tracer = Tracer()
    import cactuskit

    if Path(cactuskit.__file__).resolve().parent != Path(args.src).resolve() / "cactuskit":
        raise SystemExit(f"imported cactuskit from {cactuskit.__file__}, not {args.src}")
    from cactuskit import affine, cactus, equal, normalize, parse_word
    from cactuskit.core import presentation

    specs = {}
    for family, n in gen.WORD_SPECS:
        specs[family, n] = spec = affine(n) if family == "affine" else cactus(n)
        tracer.call("core.presentation", presentation, spec)
    requests = gen.word_requests(args.seed, args.count)
    work = [(r.kind == gen.NORMALIZE, specs[r.family, r.n], r.word, r.word2) for r in requests]
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return

    clock = time.perf_counter_ns
    # each op's best latency so far, in one fixed array, so the worker's own
    # memory does not grow with the batch count
    best = array("q", [1 << 62]) * len(work)
    digests: list[str] = []
    answers: list[str] = []
    failed: set[int] = set()
    failed_runs = 0

    refs: list[float] = []

    def run_batch(k: int) -> float:
        nonlocal failed_runs
        refs.append(ref_loop_s())
        out = []
        wall = 0
        for i, (is_norm, spec, word, word2) in enumerate(work):
            t0 = clock()
            try:
                if is_norm:
                    ans = normalize(parse_word(spec, word)).text()
                else:
                    ans = "true" if equal(parse_word(spec, word), parse_word(spec, word2)) else "false"
            except Exception as exc:  # a failed op is counted, not fatal
                ans = f"error: {type(exc).__name__}"
                failed.add(i)
                failed_runs += 1
            dt = clock() - t0
            if dt < best[i]:
                best[i] = dt
            wall += dt
            out.append(ans)
        digests.append(digest("\n".join(out).encode()))
        if k == 0:
            answers.extend(out)
        return wall / 1e9

    walls = timed_batches(args.seconds, run_batch)
    result.update(
        walls=walls,
        best_wall=sum(best) / 1e9,
        ops=len(work) * len(walls),
        p50_us=quantile(best, 0.50) / 1e3,
        p99_us=quantile(best, 0.99) / 1e3,
        digests=digests,
        answers=answers,
        failed=sorted(failed),
        failed_runs=failed_runs,
        refs=refs,
    )

    if args.trace:
        def traced_op(i: int, is_norm: bool, spec, word: str, word2: str) -> None:
            tracer.op = i
            try:
                if is_norm:
                    w = tracer.call("rewriting.parse_word", parse_word, spec, word)
                    nf = tracer.call("rewriting.normalize", normalize, w)
                    tracer.call("rewriting.text", nf.text)
                else:
                    w1 = tracer.call("rewriting.parse_word", parse_word, spec, word)
                    w2 = tracer.call("rewriting.parse_word", parse_word, spec, word2)
                    tracer.call("rewriting.equal", equal, w1, w2)
            except Exception:  # already counted as errors on its span
                pass

        traced_wall = 0
        for i, op in enumerate(work):
            t0 = clock()
            traced_op(i, *op)
            traced_wall += clock() - t0
        result.update(
            traced_wall=traced_wall / 1e9,
            layers=layer_totals(tracer.spans),
            spans=tracer.spans,
        )
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
