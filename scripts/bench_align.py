"""Time ``seqid.align_stats_many`` and its two kernels on five matrices.

Each corpus is the all-pairs identity matrix (upper triangle, one batch
call) over the distinct sequences of a synthetic set:

- split: the two length groups of ``perfbench``'s ``split`` workload at
  seed 0 (prototypes of 48 and 64 residues, 3 families of 4 each, 5%
  point mutations; 24 sequences, 276 pairs);
- pipeline: the set of ``perfbench``'s ``pipeline`` workload (6 families
  of 10, prototypes of 40 residues; 60 sequences, 1,770 pairs);
- bench300: the default 300-record benchmark (44,850 pairs), the matrix
  behind acceptance 6 and the ``ood_split`` fixture;
- long: two length groups at real enzyme lengths, 450 and 600 residues
  (3 families of 4 each, 5% point mutations; 24 sequences, 276 pairs).
  Its one chunk runs on the wavefront, whose keys stay 32-bit up to
  10,922 residues; on rows it took the 64-bit path, past that kernel's
  511-residue limit;
- mixed: short and long sequences in one set, 30 residues (6 families
  of 6) and 600 (3 families of 4), 5% point mutations; 43 sequences,
  903 pairs.  Its two chunks fall on both sides of the kernel rule:
  the 30-residue pairs run on the wavefront, and the chunk mixing
  30- and 600-residue ``a``'s would pad to 600 x 600 there, so it runs
  on rows.

A corpus is aligned repeatedly until half a second has passed (at least
once); the median call gives its time and its DP cells per second.
Usage::

    python3 scripts/bench_align.py                     # this tree
    python3 scripts/bench_align.py --baseline OLD/src --rounds 5 \\
        --out BENCH_<yyyymmdd>.json

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians, the
change-to-parent ratio of the median rates and the machine facts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

MIN_SECONDS = 0.5


def corpora() -> dict:
    """Corpus name -> its distinct sequences, in order of first appearance."""
    from enzood import synth

    def sequences(*configs):
        records = [r for cfg in configs for r in synth.generate(cfg)[0]]
        return list(dict.fromkeys(r.sequence for r in records))

    def two_lengths(*lengths):
        return sequences(*(
            synth.SynthConfig(family_count=3, members_per_family=4, prototype_length=length,
                              mutation_rate=0.05, seed=k)
            for k, length in enumerate(lengths)
        ))

    return {
        "split": two_lengths(48, 64),
        "pipeline": sequences(synth.SynthConfig(family_count=6, members_per_family=10,
                                                prototype_length=40, seed=0)),
        "bench300": sequences(synth.SynthConfig()),
        "long": two_lengths(450, 600),
        "mixed": sequences(
            synth.SynthConfig(family_count=6, members_per_family=6, prototype_length=30,
                              mutation_rate=0.05, seed=0),
            synth.SynthConfig(family_count=3, members_per_family=4, prototype_length=600,
                              mutation_rate=0.05, seed=1),
        ),
    }


def time_matrix(seqs, min_seconds=MIN_SECONDS) -> dict:
    """Pairs, DP cells, calls, median seconds per call and cells per
    second of the upper-triangle batch over ``seqs``."""
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
    seconds = statistics.median(times)
    return {"pairs": len(pairs), "cells": cells, "calls": len(times), "s": seconds,
            "cells_per_s": cells / seconds}


def measure(src: str) -> dict:
    """One round in this process: every corpus, timed against ``src``."""
    sys.path.insert(0, src)
    return {name: time_matrix(seqs) for name, seqs in corpora().items()}


def _median(rounds: list[dict]) -> dict:
    return {
        name: {"pairs": first["pairs"], "cells": first["cells"],
               "s": statistics.median(r[name]["s"] for r in rounds),
               "cells_per_s": statistics.median(r[name]["cells_per_s"] for r in rounds)}
        for name, first in rounds[0].items()
    }


def main(argv=None) -> int:
    import benchtrees

    args = benchtrees.parser(__doc__.split("\n\n")[0]).parse_args(argv)
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
