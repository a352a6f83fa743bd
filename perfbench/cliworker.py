"""The CLI client: one process calling `cactuskit.cli.main` once per op.

Run by run.py with PYTHONPATH pointing at the checkout's `src`.  It imports
the CLI, builds the presentation tables of the ops' groups and makes the op
list (all of that is set-up), then runs the workload's batch of verbs in a
closed loop, each batch in a fresh directory under --dir, and writes a JSON
result file.  Each op's stdout and output files of the first batch stay in
`b0/` for run.py to check.  Interpreter start-up is part of the set-up here;
the traced batch (clitrace.py) still runs one process per op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import time
from pathlib import Path

from harness import digest, quantile, ref_loop_s, timed_batches
from workloads import IN_ORDER, cli_ops, op_spec


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import cactuskit

    if Path(cactuskit.__file__).resolve().parent != Path(args.src).resolve() / "cactuskit":
        raise SystemExit(f"imported cactuskit from {cactuskit.__file__}, not {args.src}")
    from cactuskit import affine, cactus, cli
    from cactuskit.core import presentation

    ops = cli_ops(args.workload, args.tiny)
    for family, n in sorted({op_spec(op.argv) for op in ops}):
        presentation(affine(n) if family == "affine" else cactus(n))
    order = list(range(len(ops)))
    if args.workload not in IN_ORDER:
        random.Random(args.seed).shuffle(order)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return

    root = Path(args.dir)
    best = [float("inf")] * len(ops)
    codes: list[int] = [0] * len(ops)
    failed = [False] * len(ops)
    failed_runs = 0
    digests: list[dict] = []
    refs: list[float] = []

    def run_op(op) -> tuple[int, bool, str]:
        """The verb's exit code, whether it failed (raised, or exit 2 or 3),
        and its stdout."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed op is counted, not fatal
            return -1, True, f"{type(exc).__name__}: {exc}"
        return code, code in (2, 3), out.getvalue()

    def run_batch(k: int) -> float:
        nonlocal failed_runs
        refs.append(ref_loop_s())
        d = root / f"b{k}"
        d.mkdir()
        os.chdir(d)
        wall = 0.0
        batch_digests = {}
        for i in order:
            op = ops[i]
            t0 = time.perf_counter()
            code, fail, stdout = run_op(op)
            dt = time.perf_counter() - t0
            failed_runs += fail
            wall += dt
            best[i] = min(best[i], dt)
            data = stdout.encode()
            entry = {"stdout": digest(data)}
            for name in op.files:
                path = d / name
                entry[name] = digest(path.read_bytes()) if path.exists() else "missing"
            batch_digests[op.name] = entry
            if k == 0:
                codes[i], failed[i] = code, fail
                (d / f"{op.name}.out").write_bytes(data)
        digests.append(batch_digests)
        os.chdir(root)
        if k > 0:
            shutil.rmtree(d)
        return wall

    walls = timed_batches(args.seconds, run_batch)
    result.update(
        walls=walls,
        op_best=best,
        p50_s=quantile(best, 0.50),
        p99_s=quantile(best, 0.99),
        order=order,
        codes=codes,
        failed=failed,
        failed_runs=failed_runs,
        digests=digests,
        refs=refs,
    )
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
