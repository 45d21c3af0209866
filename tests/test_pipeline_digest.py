"""scripts/pipeline_digest.py runs the README pipeline through
``python -m enzood`` and prints one digest line per artifact; two runs
of the same tree must print the same lines, digests and stderr
shapes alike."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pipeline_digest.py"


def test_two_runs_print_the_same_digests():
    # the two runs go side by side, each a dozen short processes; one
    # BLAS thread per process keeps them from contending for the cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = [
        subprocess.Popen(
            [sys.executable, SCRIPT, "--epochs", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(2)
    ]
    outputs = [run.communicate() for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    first, second = (out.splitlines() for out, _ in outputs)
    assert first == second
    digests, shapes = first[:27], first[27:]
    paths = [line.split("  ", 1)[1] for line in digests]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in digests)
    assert paths == sorted(paths)
    for name in ("control.ckpt", "enumeration.log", "mask-enum-report.txt", "inner/splits.tsv"):
        assert name in paths
    # the stderr shapes: every run of digits is one #
    assert shapes == sorted(shapes) and "wall-time-seconds: #.#" in shapes
    assert not any(re.search(r"[0-9]", line) for line in shapes)
