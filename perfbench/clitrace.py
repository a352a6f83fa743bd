"""Run one cactuskit CLI verb with spans around the calls into each module.

    python clitrace.py SPANS_FILE VERB ARGS...

The spans, with the root span `cli.main` opened when `main` is entered, go
to SPANS_FILE as JSON; the exit code is the verb's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import Tracer, instrument


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from cactuskit import cli

    tracer = Tracer()
    instrument(tracer)
    tracer.op = 0
    code = tracer.call("cli.main", cli.main, argv)
    sys.stdout.flush()
    Path(spans_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
