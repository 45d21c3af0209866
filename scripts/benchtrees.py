"""Parent/change runner shared by the ``bench_*.py`` scripts.

Each script measures one round against one source tree in a fresh
process (``script --measure SRC``).  This module gives the scripts their
common flags, runs those processes with the trees alternating by round,
reports the machine, and writes the JSON.  It is not a script itself;
the scripts import it inside ``main``, so a test can load a script by
path without ``scripts/`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def parser(description: str) -> argparse.ArgumentParser:
    """The flags every bench script takes; a script may add its own."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--baseline", help="src directory of a tree to compare against")
    p.add_argument("--rounds", type=int, default=1, help="rounds per tree (default 1)")
    p.add_argument("--out", help="write the JSON here as well as to stdout")
    p.add_argument("--measure", help=argparse.SUPPRESS)  # child process: one round
    return p


def run_rounds(script: str, args, describe, child_args=()) -> dict:
    """Tree label ("change", plus "parent" with ``--baseline``) -> the
    rounds measured against it.  Round k runs one fresh ``script
    --measure SRC`` process per tree, in reversed order on odd k, so
    drift in the machine's speed falls on both trees alike.  After each
    process a line goes to stderr ending in ``describe(result)``."""
    trees = {"change": str(REPO_SRC)}
    if args.baseline:
        trees["parent"] = str(Path(args.baseline).resolve())
    rounds = {label: [] for label in trees}
    for k in range(args.rounds):
        labels = list(trees) if k % 2 == 0 else list(reversed(trees))
        for label in labels:
            child = subprocess.run(
                [sys.executable, script, "--measure", trees[label], *child_args],
                check=True, capture_output=True, text=True,
            )
            rounds[label].append(json.loads(child.stdout))
            print(f"round {k} {label}: {describe(rounds[label][-1])}", file=sys.stderr)
    return rounds


def machine() -> dict:
    """Facts of this machine and of this tree's alignment backend."""
    import numpy

    sys.path.insert(0, str(REPO_SRC))
    from enzood import seqid

    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "alignment_backend": seqid.alignment_backend(),
    }


def write_report(report: dict, out) -> int:
    """Print the report as JSON and, with ``out``, write it there too."""
    text = json.dumps(report, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0
