"""Run the cavitypairing CLI with the benchmark's span tracer installed.

Usage: ``PYTHONPATH=src python3 perfbench/cli_child.py TRACE_JSON CLI_ARG...``.
Behaves like ``python3 -m cavitypairing.cli CLI_ARG...`` and, on the way
out, writes the span statistics and raw spans of this process to
TRACE_JSON.  Worker processes of ``--jobs`` are not traced.
"""

import json
import sys
from pathlib import Path

import cavitypairing.cli as cli
from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"stats": tracer.stats(), "dump": tracer.dump()}),
                       encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
