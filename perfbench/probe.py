"""Set-up probe: a fresh interpreter imports the CLI and parses config files.

Usage: ``PYTHONPATH=src python3 perfbench/probe.py CONFIG...``.  Prints where
``cavitypairing`` was imported from, so the caller can confirm it is the
checkout's own source tree.
"""

import sys
from pathlib import Path

import cavitypairing.cli as cli

for path in sys.argv[1:]:
    cli.RunConfig.parse(Path(path).read_text(encoding="utf-8"))
print(cli.__file__)
