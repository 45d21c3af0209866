"""Time the ``enzood train`` commands of the ``pipeline`` workload, stage by stage.

The inputs are those of ``perfbench``'s ``pipeline`` workload: the
synthetic set ``family_count=6, members_per_family=10,
prototype_length=40, seed=0``, split at 0.4,0.6,0.8,0.99 (test fraction
0.3, seed 0), and the training half of 0.6 split again at 0.6 (seed 1)
into the inner train and validation files.  Two commands train on them,
control (``lam=0``) and treated (``lam=0.5``), both with ``p_s=0.1``,
50 epochs and seed 0, writing a checkpoint and a log.  Each command runs
through ``cli.main``, its stages timed by wrappers around the functions
the command calls:

- read: ``read_dataset`` (the train and validation files);
- train: ``train``;
- evaluate: ``evaluate_params``;
- checkpoint: ``write_checkpoint``;
- log: ``write_train_log``;
- other: the rest of the command (config, hash, directories, printing).

One round prepares the inputs (untimed), then runs both commands
``--repeats`` times; the medians over repeats of the pair's time and of
each stage summed over the pair are the round's figures.  Usage::

    python3 scripts/bench_cli_train.py                     # this tree
    python3 scripts/bench_cli_train.py --baseline OLD/src --rounds 10 \\
        --out BENCH_<yyyymmdd>-cli-train.json

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians, the
parent-to-change ratio of the median command times and the machine
facts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("read", "train", "evaluate", "checkpoint", "log", "other")
# cli binding -> stage
WRAPPED = {
    "read_dataset": "read",
    "train": "train",
    "evaluate_params": "evaluate",
    "write_checkpoint": "checkpoint",
    "write_train_log": "log",
}
SYNTH = "family_count=6\nmembers_per_family=10\nprototype_length=40\nseed=0\n"
ARMS = {"control": "lam=0\np_s=0.1\nepochs=50\nseed=0\n",
        "treated": "lam=0.5\np_s=0.1\nepochs=50\nseed=0\n"}


def _run(argv) -> None:
    from enzood import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"enzood {argv[0]} exited {code}")


def prepare(root: Path) -> None:
    """Write the configs, the synthetic set and both splits under ``root``."""
    (root / "synth.cfg").write_text(SYNTH, encoding="utf-8")
    for arm, text in ARMS.items():
        (root / f"{arm}.cfg").write_text(text, encoding="utf-8")
    _run(["synth", "--config", root / "synth.cfg", "--out", root / "bench.tsv"])
    _run(["split", "--in", root / "bench.tsv", "--out-dir", root / "splits",
          "--thresholds", "0.4,0.6,0.8,0.99", "--test-fraction", "0.3", "--seed", "0"])
    _run(["split", "--in", root / "splits/train-060.tsv", "--out-dir", root / "inner",
          "--thresholds", "0.6", "--test-fraction", "0.3", "--seed", "1"])


@contextlib.contextmanager
def stage_timer(stage_s: dict):
    """Wrap the functions ``cli`` calls so their time adds up in
    ``stage_s`` while the block runs."""
    from enzood import cli

    def wrap(stage, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stage_s[stage] += time.perf_counter() - start

        return timed

    originals = {name: getattr(cli, name) for name in WRAPPED}
    for name, stage in WRAPPED.items():
        setattr(cli, name, wrap(stage, originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def time_commands(root: Path, repeats: int) -> dict:
    """Median over ``repeats`` of the two train commands' seconds and of
    each stage's seconds, summed over the two commands."""
    pairs = []
    for _ in range(repeats):
        stage_s = dict.fromkeys(STAGES, 0.0)
        total = 0.0
        with stage_timer(stage_s):
            for arm in ARMS:
                start = time.perf_counter()
                _run(["train", "--train", root / "inner/train-060.tsv",
                      "--val", root / "inner/test-060.tsv", "--config", root / f"{arm}.cfg",
                      "--checkpoint-out", root / f"{arm}.ckpt", "--log-out", root / f"{arm}.log"])
                total += time.perf_counter() - start
        stage_s["other"] = total - sum(stage_s.values())
        pairs.append((total, stage_s))
    return {
        "commands_s": statistics.median(total for total, _ in pairs),
        "stage_s": {stage: statistics.median(s[stage] for _, s in pairs) for stage in STAGES},
    }


def measure(src: str, repeats: int) -> dict:
    """One round in this process, against the tree at ``src``."""
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory(prefix="bench-cli-train-") as tmp:
        root = Path(tmp)
        prepare(root)
        return time_commands(root, repeats)


def _median(rounds: list[dict]) -> dict:
    return {
        "commands_s": statistics.median(r["commands_s"] for r in rounds),
        "stage_s": {stage: statistics.median(r["stage_s"][stage] for r in rounds)
                    for stage in STAGES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="src directory of a tree to compare against")
    parser.add_argument("--rounds", type=int, default=1, help="rounds per tree (default 1)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="command pairs per round (default 5)")
    parser.add_argument("--out", help="write the JSON here as well as to stdout")
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # child process: one round
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.repeats)))
        return 0

    from bench_train_step import machine

    trees = {"change": str(REPO_SRC)}
    if args.baseline:
        trees["parent"] = str(Path(args.baseline).resolve())
    rounds = {label: [] for label in trees}
    for k in range(args.rounds):
        labels = list(trees) if k % 2 == 0 else list(reversed(trees))
        for label in labels:
            child = subprocess.run(
                [sys.executable, __file__, "--measure", trees[label],
                 "--repeats", str(args.repeats)],
                check=True, capture_output=True, text=True,
            )
            rounds[label].append(json.loads(child.stdout))
            last = rounds[label][-1]
            print(f"round {k} {label}: {last['commands_s']:.3f} s (" + ", ".join(
                f"{stage} {s:.3f}" for stage, s in last["stage_s"].items()
            ) + ")", file=sys.stderr)
    report = {
        "script": "scripts/bench_cli_train.py",
        "workload": "the two enzood train commands of perfbench's pipeline workload "
                    "(20 train and 20 validation records, 50 epochs each, control and "
                    f"treated), median of {args.repeats} pairs per round",
        "machine": machine(str(REPO_SRC)),
        "trees": {label: {"median": _median(rounds[label]), "rounds": rounds[label]}
                  for label in trees},
    }
    if args.baseline:
        change, parent = (report["trees"][t]["median"] for t in ("change", "parent"))
        report["parent_over_change_commands_s"] = parent["commands_s"] / change["commands_s"]
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
