"""Shared pieces of the benchmark: the batch loop, spans, and their metrics.

Spans are recorded only around calls that cross into a cactuskit module
from outside it: the benchmark's own calls, and the public names that
`cactuskit.cli` and `cactuskit.verify` import (plus `presentation` as
`cayley` and `hyperbolic` import it, so presentation tables are charged to
`core`).  Nothing inside the package is changed on disk.
"""

from __future__ import annotations

import functools
import hashlib
import time

# One span: [id, parent id or -1, op id, name, start_ns, end_ns, attrs or None]
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")


# every op time of a run is its best over at least this many batches
MIN_BATCHES = 3


def timed_batches(seconds: float, run_batch) -> list[float]:
    """Run `run_batch(k)` (returning its wall seconds) for about `seconds`.

    Runs at least MIN_BATCHES batches, then stops at the batch count nearest
    to `seconds` / batch time, so it overshoots by at most half a batch once
    the minimum is met.
    """
    walls: list[float] = []
    while True:
        walls.append(run_batch(len(walls)))
        done = sum(walls)
        if len(walls) >= MIN_BATCHES and done >= seconds - done / len(walls) / 2:
            return walls


# A fixed pure-Python loop whose best time gauges the host's speed, and that
# best time at reference speed.  A run multiplies its end-to-end times by
# REF_NOMINAL_S / (its best ref_loop_s()); README.md says why.
REF_LOOP = 50_000
REF_NOMINAL_S = 0.003


def ref_loop_s(repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile inside the sample range."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _ball_attrs(b) -> dict:
    return {
        "vertices": len(b),
        "edges": len(b._adj) // 2,  # packed adjacency: two entries per edge
        "family": b.spec.family.value,
        "n": b.spec.degree,
        "radius": b.radius,
    }


def _report_attrs(r) -> dict:
    return {"items": r.items_checked, "failures": r.failure_count}


ATTRS = {
    "cayley.ball": _ball_attrs,
    "cayley.squares": lambda r: {"count": len(r)},
    "cayley.export": lambda r: {"bytes": len(r)},
    "cayley.import_ball": lambda b: {"vertices": len(b)},
    "hyperbolic.qi_fit": lambda r: {"pairs": r.pair_count},
    "hyperbolic.four_point_delta": lambda r: {"quadruples": r.quadruples},
    "hyperbolic.render_svg": lambda r: {"bytes": len(r)},
}


class Tracer:
    """Nested spans kept in memory; `op` tags the spans of one request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, self.op, name, 0, 0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[4] = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec[6] = {"errors": 1}
            raise
        finally:
            rec[5] = time.monotonic_ns()
            self._stack.pop()
        attrs = ATTRS.get(name) or (_report_attrs if name.startswith("verify.") else None)
        if attrs is not None:
            rec[6] = attrs(result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def _package_function(value, home: str) -> bool:
    module = getattr(value, "__module__", None) or ""
    return (
        callable(value)
        and not isinstance(value, type)
        and module.startswith("cactuskit.")
        and module != home
    )


def instrument(tracer: Tracer) -> None:
    """Wrap, in this process only, the public functions that `cactuskit.cli`
    and `cactuskit.verify` import, including the CLI's check tables."""
    from cactuskit import cayley, cli, hyperbolic, verify

    wrapped: dict = {}

    def traced(fn):
        if fn not in wrapped:
            layer = fn.__module__.rsplit(".", 1)[1]
            wrapped[fn] = tracer.wrap(f"{layer}.{fn.__name__}", fn)
        return wrapped[fn]

    for mod in (cli, verify):
        for attr, value in list(vars(mod).items()):
            if not attr.startswith("_") and _package_function(value, mod.__name__):
                setattr(mod, attr, traced(value))
            elif isinstance(value, dict):
                for key, fn in value.items():
                    if _package_function(fn, mod.__name__):
                        value[key] = traced(fn)
    for mod in (cayley, hyperbolic):
        mod.presentation = traced(mod.presentation)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover (ns)."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_totals(spans) -> dict[str, float]:
    """Per span name: `<name>.s` self seconds, `.calls`, `.errors`, and the
    sum of every numeric attribute (`.vertices`, `.items`, ...)."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        name, attrs = s[3], s[6] or {}
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + own / 1e9
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in attrs.items():
            if key not in ("family", "n", "radius"):
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
