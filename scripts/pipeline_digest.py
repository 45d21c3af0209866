"""Run the README pipeline against one source tree and print a digest of every artifact.

Each command runs as ``python -m enzood`` in a fresh process with
``PYTHONPATH=<tree>/src``, on the synthetic set ``family_count=6,
members_per_family=10, prototype_length=40, seed=0`` (60 records):

- synth;
- augment in graph_mask mode and in enumeration mode;
- split at 0.4,0.6,0.8,0.99 (test fraction 0.3, seed 0), and the
  training half of 0.6 split again at 0.6 (seed 1);
- train control (``lam=0``), treated (``lam=0.5``) and treated in
  enumeration mode on the inner split, each with ``--log-out``;
- eval of the control and treated checkpoints over the outer splits;
- ablate-lambda, and ablate-mask in both substrate modes.

Every run config sets ``p_s=0.1``, ``seed=0`` and ``--epochs``.  The
output is one ``sha256  relpath`` line per file the commands wrote,
sorted by path, so two trees that print the same lines wrote the same
bytes.  Then come the shapes of the commands' stderr lines: each
distinct line with every run of digits replaced by ``#``, sorted, so two
trees that print the same shapes print stderr lines of the same wording.
Usage::

    python3 scripts/pipeline_digest.py                         # this tree
    python3 scripts/pipeline_digest.py --tree OLD_CHECKOUT --epochs 20
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SYNTH = "family_count=6\nmembers_per_family=10\nprototype_length=40\nseed=0\n"
# config name -> settings besides epochs
CONFIGS = {
    "control": "lam=0\np_s=0.1\nseed=0\n",
    "treated": "lam=0.5\np_s=0.1\nseed=0\n",
    "enumeration": "lam=0.5\np_s=0.1\nsubstrate_mode=enumeration\nseed=0\n",
}


def commands(cfg: Path, out: Path) -> list[list]:
    """argv of every command, in order; configs under ``cfg``, artifacts under ``out``."""

    def train(name):
        return ["train", "--train", out / "inner/train-060.tsv",
                "--val", out / "inner/test-060.tsv", "--config", cfg / f"{name}.cfg",
                "--checkpoint-out", out / f"{name}.ckpt", "--log-out", out / f"{name}.log"]

    def evaluate(name):
        return ["eval", "--checkpoint", out / f"{name}.ckpt", "--data", out / "bench.tsv",
                "--splits", out / "splits/splits.tsv", "--report-out", out / f"{name}-report.txt"]

    return [
        ["synth", "--config", cfg / "synth.cfg", "--out", out / "bench.tsv"],
        ["augment", "--in", out / "bench.tsv", "--out", out / "aug-gm.tsv",
         "--config", cfg / "treated.cfg"],
        ["augment", "--in", out / "bench.tsv", "--out", out / "aug-enum.tsv",
         "--config", cfg / "enumeration.cfg"],
        ["split", "--in", out / "bench.tsv", "--out-dir", out / "splits",
         "--thresholds", "0.4,0.6,0.8,0.99", "--test-fraction", "0.3", "--seed", "0"],
        ["split", "--in", out / "splits/train-060.tsv", "--out-dir", out / "inner",
         "--thresholds", "0.6", "--test-fraction", "0.3", "--seed", "1"],
        train("control"),
        train("treated"),
        train("enumeration"),
        evaluate("control"),
        evaluate("treated"),
        ["ablate-lambda", "--in", out / "bench.tsv", "--config", cfg / "treated.cfg",
         "--report-out", out / "lambda-report.txt"],
        ["ablate-mask", "--in", out / "bench.tsv", "--config", cfg / "treated.cfg",
         "--report-out", out / "mask-report.txt"],
        ["ablate-mask", "--in", out / "bench.tsv", "--config", cfg / "enumeration.cfg",
         "--report-out", out / "mask-enum-report.txt"],
    ]


def run_pipeline(tree: Path, work: Path, epochs: int) -> list[str]:
    """Run every command against ``tree`` in ``work``; the digest lines
    of ``work/out``, then the stderr shapes."""
    cfg, out = work / "config", work / "out"
    cfg.mkdir(parents=True)
    out.mkdir()
    (cfg / "synth.cfg").write_text(SYNTH, encoding="utf-8")
    for name, text in CONFIGS.items():
        (cfg / f"{name}.cfg").write_text(f"{text}epochs={epochs}\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    shapes = set()
    for argv in commands(cfg, out):
        done = subprocess.run([sys.executable, "-m", "enzood", *map(str, argv)],
                              env=env, cwd=work, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{argv[0]} exited {done.returncode}: {done.stderr.strip()}")
        shapes.update(re.sub(r"[0-9]+", "#", line) for line in done.stderr.splitlines())
    digests = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
               for path in sorted(out.rglob("*")) if path.is_file()]
    return digests + sorted(shapes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", default=str(REPO), help="checkout whose src/ runs (default this one)")
    p.add_argument("--epochs", type=int, default=20, help="epochs of every run config (default 20)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = run_pipeline(Path(args.tree).resolve(), Path(tmp), args.epochs)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
