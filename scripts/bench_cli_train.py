"""Time the ``enzood train`` and ``eval`` commands of the ``pipeline`` workload, stage by stage.

The inputs are those of ``perfbench``'s ``pipeline`` workload: the
synthetic set ``family_count=6, members_per_family=10,
prototype_length=40, seed=0``, split at 0.4,0.6,0.8,0.99 (test fraction
0.3, seed 0), and the training half of 0.6 split again at 0.6 (seed 1)
into the inner train and validation files.  Two commands train on them,
control (``lam=0``) and treated (``lam=0.5``), both with ``p_s=0.1``,
50 epochs and seed 0, writing a checkpoint and a log; then two commands
score those checkpoints on the four outer splits.  Each command runs
through ``cli.main``, its stages timed by wrappers around the functions
the command calls.  The train stages:

- read: ``read_dataset`` (the train and validation files);
- train: ``train``;
- evaluate: ``evaluate_params``;
- checkpoint: ``write_checkpoint``;
- log: ``write_train_log``;
- other: the rest of the command (config, hash, directories, printing).

The eval stages:

- read_checkpoint: ``read_checkpoint``;
- read: ``read_dataset`` and ``read_split_file``;
- evaluate: ``good_evaluation``;
- report: ``write_report``;
- other: the rest (the config echo check, hash, directories, printing).

One round prepares the inputs (untimed), then runs the four commands
``--repeats`` times; the medians over repeats of each pair's time and of
each stage summed over the pair are the round's figures.  A round also
gives the time of one ``write_checkpoint`` and one ``read_checkpoint``
call, half the pair's stage.  Usage::

    python3 scripts/bench_cli_train.py                     # this tree
    python3 scripts/bench_cli_train.py --baseline OLD/src --rounds 10 \\
        --out BENCH_<yyyymmdd>-cli-train.json

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians, the
parent-to-change ratio of the median command times and the machine
facts.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("read", "train", "evaluate", "checkpoint", "log", "other")
# cli binding -> stage, in the train commands
WRAPPED = {
    "read_dataset": "read",
    "train": "train",
    "evaluate_params": "evaluate",
    "write_checkpoint": "checkpoint",
    "write_train_log": "log",
}
EVAL_STAGES = ("read_checkpoint", "read", "evaluate", "report", "other")
# cli binding -> stage, in the eval commands
EVAL_WRAPPED = {
    "read_checkpoint": "read_checkpoint",
    "read_dataset": "read",
    "read_split_file": "read",
    "good_evaluation": "evaluate",
    "write_report": "report",
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
def stage_timer(stage_s: dict, wrapped: dict):
    """Wrap the functions ``cli`` calls (``wrapped`` maps each binding
    to its stage) so their time adds up in ``stage_s`` while the block
    runs."""
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

    originals = {name: getattr(cli, name) for name in wrapped}
    for name, stage in wrapped.items():
        setattr(cli, name, wrap(stage, originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def _time_pair(argvs, stages, wrapped) -> tuple[float, dict]:
    """Seconds of the commands ``argvs`` and of each stage, summed over them."""
    stage_s = dict.fromkeys(stages, 0.0)
    total = 0.0
    with stage_timer(stage_s, wrapped):
        for argv in argvs:
            start = time.perf_counter()
            _run(argv)
            total += time.perf_counter() - start
    stage_s["other"] = total - sum(stage_s.values())
    return total, stage_s


def time_commands(root: Path, repeats: int) -> dict:
    """Median over ``repeats`` of the two train commands' seconds and of
    each stage's seconds, summed over the two commands; the same for the
    two eval commands after them; and the milliseconds of one checkpoint
    write and one read."""
    trains = [["train", "--train", root / "inner/train-060.tsv",
               "--val", root / "inner/test-060.tsv", "--config", root / f"{arm}.cfg",
               "--checkpoint-out", root / f"{arm}.ckpt", "--log-out", root / f"{arm}.log"]
              for arm in ARMS]
    evals = [["eval", "--checkpoint", root / f"{arm}.ckpt", "--data", root / "bench.tsv",
              "--splits", root / "splits/splits.tsv", "--report-out", root / f"{arm}-report.txt"]
             for arm in ARMS]
    runs = []
    for _ in range(repeats):
        commands_s, stage_s = _time_pair(trains, STAGES, WRAPPED)
        eval_commands_s, eval_stage_s = _time_pair(evals, EVAL_STAGES, EVAL_WRAPPED)
        runs.append({"commands_s": commands_s, "stage_s": stage_s,
                     "eval_commands_s": eval_commands_s, "eval_stage_s": eval_stage_s})
    return _median(runs)


def measure(src: str, repeats: int) -> dict:
    """One round in this process, against the tree at ``src``."""
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory(prefix="bench-cli-train-") as tmp:
        root = Path(tmp)
        prepare(root)
        return time_commands(root, repeats)


def _median(rounds: list[dict]) -> dict:
    """Medians over ``rounds`` of each figure, and the milliseconds of one
    checkpoint write and one read: half of each pair's stage."""
    result = {
        "commands_s": statistics.median(r["commands_s"] for r in rounds),
        "stage_s": {stage: statistics.median(r["stage_s"][stage] for r in rounds)
                    for stage in STAGES},
        "eval_commands_s": statistics.median(r["eval_commands_s"] for r in rounds),
        "eval_stage_s": {stage: statistics.median(r["eval_stage_s"][stage] for r in rounds)
                         for stage in EVAL_STAGES},
    }
    return {**result, "per_call_ms": {
        "write_checkpoint": result["stage_s"]["checkpoint"] / len(ARMS) * 1e3,
        "read_checkpoint": result["eval_stage_s"]["read_checkpoint"] / len(ARMS) * 1e3,
    }}


def main(argv=None) -> int:
    import benchtrees

    parser = benchtrees.parser(__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="command pairs per round (default 5)")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.repeats)))
        return 0

    rounds = benchtrees.run_rounds(
        __file__, args,
        lambda result: f"train {result['commands_s']:.3f} s (" + ", ".join(
            f"{stage} {s:.3f}" for stage, s in result["stage_s"].items()
        ) + f"), eval {result['eval_commands_s']:.3f} s (" + ", ".join(
            f"{stage} {s:.3f}" for stage, s in result["eval_stage_s"].items()
        ) + ")",
        child_args=("--repeats", str(args.repeats)),
    )
    report = {
        "script": "scripts/bench_cli_train.py",
        "workload": "the two enzood train commands of perfbench's pipeline workload "
                    "(20 train and 20 validation records, 50 epochs each, control and "
                    "treated) and its two eval commands (60 records, 4 splits), median "
                    f"of {args.repeats} pairs per round",
        "machine": benchtrees.machine(),
        "trees": {label: {"median": _median(runs), "rounds": runs}
                  for label, runs in rounds.items()},
    }
    if args.baseline:
        change, parent = (report["trees"][t]["median"] for t in ("change", "parent"))
        report["parent_over_change_commands_s"] = parent["commands_s"] / change["commands_s"]
        report["parent_over_change_eval_commands_s"] = (
            parent["eval_commands_s"] / change["eval_commands_s"])
    return benchtrees.write_report(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
