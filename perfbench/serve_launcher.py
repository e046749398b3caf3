"""Start ``repro serve`` with the benchmark's span tracer installed.

Usage::

    python3 perfbench/serve_launcher.py SPANS.jsonl serve [repro serve options]

The server runs exactly as ``python -m repro serve ...`` would.  When it
stops (SIGINT), its spans are written to ``SPANS.jsonl`` and the
tracer's counters to ``SPANS.jsonl.counters.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repro import cli

    from perfbench import tracing

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracing.settle_stores(tracer)
        tracer.write_jsonl(spans_path)
        with open(spans_path + ".counters.json", "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.counters), fh)


if __name__ == "__main__":
    sys.exit(main())
