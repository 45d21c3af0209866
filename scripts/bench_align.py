"""Time ``seqid.align_stats_many`` on seven matrices, and fit the cost
model its chunk planner prices the two kernels with.

Each corpus is the all-pairs identity matrix (upper triangle, one batch
call) over the distinct sequences of a synthetic set:

- split: the two length groups of ``perfbench``'s ``split`` workload at
  seed 0 (prototypes of 48 and 64 residues, 3 families of 4 each, 5%
  point mutations; 24 sequences, 276 pairs), one wavefront chunk;
- pipeline: the set of ``perfbench``'s ``pipeline`` workload (6 families
  of 10, prototypes of 40 residues; 60 sequences, 1,770 pairs);
- bench300: the default 300-record benchmark (44,850 pairs), the matrix
  behind acceptance 6 and the ``ood_split`` fixture;
- probe: the first sequence of each of the default set's 10 families,
  ``perfbench``'s ``train`` alignment probe (45 pairs of 80 x 80), small
  enough that the planner weighs the wavefront's steps against the row
  kernel's cells;
- long: two length groups at real enzyme lengths, 450 and 600 residues
  (3 families of 4 each, 5% point mutations; 24 sequences, 276 pairs);
- mixed: short and long sequences in one set, 30 residues (6 families
  of 6) and 600 (3 families of 4), 5% point mutations; 43 sequences,
  903 pairs: the (30, 600) pairs go in chunks of their own, apart from
  the (600, 600) ones;
- varied: 50 random sequences of 100 to 600 residues (seeded), 1,225
  pairs spread over many length classes.

A corpus is aligned repeatedly until half a second has passed (at least
once); the median call gives its time and its DP cells per second, and
the ``align:`` line of the last call its computed cells and its chunks
per kernel.  Usage::

    python3 scripts/bench_align.py                     # this tree
    python3 scripts/bench_align.py --baseline OLD/src --rounds 5 \\
        --out BENCH_<yyyymmdd>.json
    python3 scripts/bench_align.py --fit               # the cost model

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians, the
change-to-parent ratio of the median rates and the machine facts.

``--fit`` times both kernels directly, in this process, on chunks of
``FIT_SHAPES`` (best of three calls each) and fits each kernel's seconds
as a cost per numpy step (a DP row, an anti-diagonal) plus a cost per
computed cell, by least squares on the relative error.  It prints the
four coefficients, which ``seqid`` holds as ``_ROW_STEP``,
``_ROW_CELL``, ``_WAVE_STEP`` and ``_WAVE_CELL``, and each shape's
times and estimates.
"""

from __future__ import annotations

import json
import logging
import re
import statistics
import sys
import time

MIN_SECONDS = 0.5
# (pairs, len a, len b) of the chunks ``--fit`` times both kernels on, all
# within the planner's budget of 2**17 padded residues
FIT_SHAPES = [(n, la, lb) for n in (1, 8, 64, 512) for la in (8, 40, 150, 600)
              for lb in (8, 40, 150, 600) if n * (la + lb) <= 2**17]


def corpora() -> dict:
    """Corpus name -> its distinct sequences, in order of first appearance."""
    import numpy as np
    from enzood import synth
    from enzood.augment import AMINO_ACIDS

    def sequences(*configs):
        records = [r for cfg in configs for r in synth.generate(cfg)[0]]
        return list(dict.fromkeys(r.sequence for r in records))

    def two_lengths(*lengths):
        return sequences(*(
            synth.SynthConfig(family_count=3, members_per_family=4, prototype_length=length,
                              mutation_rate=0.05, seed=k)
            for k, length in enumerate(lengths)
        ))

    default = synth.generate(synth.SynthConfig())[0]
    firsts = {}
    for r in default:
        firsts.setdefault(r.organism, r.sequence)
    rng = np.random.default_rng(0)
    return {
        "split": two_lengths(48, 64),
        "pipeline": sequences(synth.SynthConfig(family_count=6, members_per_family=10,
                                                prototype_length=40, seed=0)),
        "bench300": list(dict.fromkeys(r.sequence for r in default)),
        "probe": list(firsts.values()),
        "long": two_lengths(450, 600),
        "mixed": sequences(
            synth.SynthConfig(family_count=6, members_per_family=6, prototype_length=30,
                              mutation_rate=0.05, seed=0),
            synth.SynthConfig(family_count=3, members_per_family=4, prototype_length=600,
                              mutation_rate=0.05, seed=1),
        ),
        "varied": ["".join(AMINO_ACIDS[c] for c in rng.integers(0, 20, size))
                   for size in rng.integers(100, 601, 50)],
    }


class _LastLine(logging.Handler):
    """Keeps the message of the last record it handles."""

    line = ""

    def emit(self, record):
        self.line = record.getMessage()


def time_matrix(seqs, min_seconds=MIN_SECONDS) -> dict:
    """Pairs, DP cells, calls, median seconds per call and cells per
    second of the upper-triangle batch over ``seqs``, and the computed
    cells and chunks per kernel of its ``align:`` line."""
    from enzood.seqid import align_stats_many

    pairs = [(a, b) for k, a in enumerate(seqs) for b in seqs[k + 1 :]]
    as_, bs = [a for a, _ in pairs], [b for _, b in pairs]
    cells = sum(len(a) * len(b) for a, b in pairs)
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < min_seconds:
        start = time.perf_counter()
        stats = align_stats_many(as_, bs)
        times.append(time.perf_counter() - start)
    if stats.shape != (len(pairs), 3):
        raise RuntimeError(f"align_stats_many returned shape {stats.shape} for {len(pairs)} pairs")
    # one more call, untimed, with the align: line on
    logger, handler = logging.getLogger("enzood.seqid"), _LastLine()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        align_stats_many(as_, bs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    computed, waves, rows = map(int, re.search(
        r"(\d+) cells computed, (\d+) wavefront and (\d+) row chunks", handler.line).groups())
    seconds = statistics.median(times)
    return {"pairs": len(pairs), "cells": cells, "calls": len(times), "s": seconds,
            "cells_per_s": cells / seconds, "computed_cells": computed,
            "wavefront_chunks": waves, "row_chunks": rows}


def fit() -> dict:
    """Each kernel's seconds on the chunks of ``FIT_SHAPES`` and its least
    squares cost per numpy step and per computed cell."""
    import numpy as np
    from enzood import seqid
    from enzood.augment import AMINO_ACIDS

    rng = np.random.default_rng(0)
    residues = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)
    kernels = {"rows": seqid._align_rows, "wavefront": seqid._align_wavefront}
    samples = {name: [] for name in kernels}
    for n, la, lb in FIT_SHAPES:
        # byte codes as the planner hands them over: column 0 is zero
        a, b = (np.pad(rng.choice(residues, (n, size)), ((0, 0), (1, 0))) for size in (la, lb))
        lengths = (np.full(n, la), np.full(n, lb))
        for name, kernel in kernels.items():
            steps, computed = ((la, n * la * (lb + 1)) if name == "rows"
                               else (la + lb - 1, n * la * lb))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                kernel(a, b, *lengths)
                best = min(best, time.perf_counter() - start)
            samples[name].append({"pairs": n, "la": la, "lb": lb, "steps": steps,
                                  "cells": computed, "s": best})
    model = {}
    for name, shapes in samples.items():
        x = np.array([[s["steps"], s["cells"]] for s in shapes], dtype=float)
        t = np.array([s["s"] for s in shapes])
        (step, cell), *_ = np.linalg.lstsq(x / t[:, None], np.ones(len(t)), rcond=None)
        for s in shapes:
            s["estimate_s"] = step * s["steps"] + cell * s["cells"]
        model[name] = {"step_s": step, "cell_s": cell, "shapes": shapes}
    return model


def measure(src: str) -> dict:
    """One round in this process: every corpus, timed against ``src``."""
    sys.path.insert(0, src)
    return {name: time_matrix(seqs) for name, seqs in corpora().items()}


def _median(rounds: list[dict]) -> dict:
    return {
        name: {**{key: first[key] for key in ("pairs", "cells", "computed_cells",
                                              "wavefront_chunks", "row_chunks")},
               "s": statistics.median(r[name]["s"] for r in rounds),
               "cells_per_s": statistics.median(r[name]["cells_per_s"] for r in rounds)}
        for name, first in rounds[0].items()
    }


def main(argv=None) -> int:
    import benchtrees

    p = benchtrees.parser(__doc__.split("\n\n")[0])
    p.add_argument("--fit", action="store_true", help="fit the planner's cost model and exit")
    args = p.parse_args(argv)
    if args.fit:
        sys.path.insert(0, str(benchtrees.REPO_SRC))
        print(json.dumps(fit(), indent=1))
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    rounds = benchtrees.run_rounds(__file__, args, lambda result: ", ".join(
        f"{name} {r['cells_per_s']:.3g} cells/s" for name, r in result.items()
    ))
    report = {
        "script": "scripts/bench_align.py",
        "workload": "seqid.align_stats_many over the upper triangle of the all-pairs "
                    "identity matrix of each corpus (see the script's docstring)",
        "machine": benchtrees.machine(),
        "trees": {label: {"median": _median(runs), "rounds": runs}
                  for label, runs in rounds.items()},
    }
    if args.baseline:
        change, parent = (report["trees"][t]["median"] for t in ("change", "parent"))
        report["change_over_parent_cells_per_s"] = {
            name: change[name]["cells_per_s"] / parent[name]["cells_per_s"] for name in change
        }
    return benchtrees.write_report(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
