"""Time SMILES-to-graph work: synthetic set generation, parsing and dataset reading.

The input is the default synthetic set, ``synth.generate(SynthConfig())``:
300 records of 8 scaffolds with up to three decorations each.  One round
times three stages, each the median over ``--repeats`` calls:

- generate: ``synth.generate(SynthConfig())``, with the number of
  ``parse_smiles`` calls that building the config and one generate make
  (through ``synth`` and ``io``, where the records parse their SMILES);
- parse: ``parse_smiles`` over the 300 SMILES of those records;
- read: ``io.read_dataset`` of the 300-record file ``write_dataset`` wrote
  once (untimed) into a temporary directory.

Usage::

    python3 scripts/bench_parse.py                     # this tree
    python3 scripts/bench_parse.py --baseline OLD/src --rounds 10 \\
        --out BENCH_<yyyymmdd>-parse.json

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians, the
parent-to-change ratio of each stage's median and the machine facts.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("generate", "parse", "read")


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parses_per_generate() -> int:
    """``parse_smiles`` calls made by building the default ``SynthConfig``
    (it parses each scaffold to check it) and one ``synth.generate`` of
    it."""
    from enzood import io, synth

    calls = 0
    real = {module: module.parse_smiles for module in (synth, io)}

    def counting(fn):
        def parse(text):
            nonlocal calls
            calls += 1
            return fn(text)

        return parse

    for module, fn in real.items():
        module.parse_smiles = counting(fn)
    try:
        synth.generate(synth.SynthConfig())
    finally:
        for module, fn in real.items():
            module.parse_smiles = fn
    return calls


def time_stages(root: Path, repeats: int) -> dict:
    """Median seconds of each stage over ``repeats`` calls, and the
    parses per generate; the dataset is written under ``root``."""
    from enzood import io, molgraph, synth

    cfg = synth.SynthConfig()
    records, _ = synth.generate(cfg)
    smiles = [r.smiles for r in records]
    path = root / "bench.tsv"
    io.write_dataset(records, path)

    def parse_all():
        for text in smiles:
            molgraph.parse_smiles(text)

    return {
        "stage_s": {
            "generate": _median_time(lambda: synth.generate(cfg), repeats),
            "parse": _median_time(parse_all, repeats),
            "read": _median_time(lambda: io.read_dataset(path), repeats),
        },
        "records": len(records),
        "parses_per_generate": parses_per_generate(),
    }


def measure(src: str, repeats: int) -> dict:
    """One round in this process, against the tree at ``src``."""
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory(prefix="bench-parse-") as tmp:
        return time_stages(Path(tmp), repeats)


def _median(rounds: list[dict]) -> dict:
    return {
        "stage_s": {stage: statistics.median(r["stage_s"][stage] for r in rounds)
                    for stage in STAGES},
        "parses_per_generate": statistics.median(r["parses_per_generate"] for r in rounds),
    }


def main(argv=None) -> int:
    import benchtrees

    parser = benchtrees.parser(__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="calls per stage and round (default 5)")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.repeats)))
        return 0

    rounds = benchtrees.run_rounds(
        __file__, args,
        lambda result: ", ".join(f"{stage} {s * 1e3:.1f} ms"
                                 for stage, s in result["stage_s"].items())
        + f", {result['parses_per_generate']} parses per generate",
        child_args=("--repeats", str(args.repeats)),
    )
    report = {
        "script": "scripts/bench_parse.py",
        "workload": "the default synthetic set (300 records): synth.generate, parse_smiles "
                    "over its 300 SMILES, and read_dataset of its file, median of "
                    f"{args.repeats} calls per stage and round",
        "machine": benchtrees.machine(),
        "trees": {label: {"median": _median(runs), "rounds": runs}
                  for label, runs in rounds.items()},
    }
    if args.baseline:
        change, parent = (report["trees"][t]["median"]["stage_s"] for t in ("change", "parent"))
        report["parent_over_change_stage_s"] = {stage: parent[stage] / change[stage]
                                                for stage in STAGES}
    return benchtrees.write_report(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
