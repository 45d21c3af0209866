"""enzood benchmark: split, train and pipeline workloads.

    python3 perfbench/run.py --workload split --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` as the test suite does (no build step, whatever alignment
backend that path gets).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` every other round runs with the
traced enzood functions wrapped, and the run prints the per-layer
metrics.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.

Times of rounds and set-ups are reported in reference seconds: each
timed piece's measured seconds scaled by REFERENCE_CALIBRATION_S over
the mean time of a fixed pure-Python loop timed just before and just
after it.  (``setup_s`` keeps the unit name ``s``; the other times say
``ref-s``.)  The speed of a shared machine drifts, within seconds and
over hours; the scaling cancels most of that drift while leaving every
change to the program visible, because the loop runs no enzood code.
Raw seconds go to the facts line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# median time of the calibration loop on the 2-core machine the README's
# figures come from, so a ref-s there is close to a second
REFERENCE_CALIBRATION_S = 0.0359


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("split", "train", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _seconds(pieces, kind, calibrations=None) -> float:
    """Total seconds of the ``kind`` pieces.  Given the run's calibrations,
    each piece is in reference seconds: scaled by REFERENCE_CALIBRATION_S
    over the mean of the calibrations just before and just after it."""
    total = 0.0
    for k, start, end in pieces:
        if k != kind:
            continue
        scale = 1.0
        if calibrations is not None:
            before = [value for _, stop, value in calibrations if stop <= start][-1]
            after = next((value for begin, _, value in calibrations if begin >= end), before)
            scale = REFERENCE_CALIBRATION_S * 2 / (before + after)
        total += (end - start) * scale
    return total


def _rate(rounds, amount, kind, calibrations=None) -> float:
    """Median over rounds of ``amount`` per second of the ``kind`` pieces."""
    rates = [getattr(r, amount) / seconds for r in rounds
             if (seconds := _seconds(r.pieces, kind, calibrations)) > 0]
    return statistics.median(rates) if rates else 0.0


def run(args) -> dict:
    import numpy as np
    from enzood import seqid

    from spans import NullTracer, Tracer, per_layer_names
    from workloads import CALIBRATIONS, WORKLOADS, calibrate

    workload = WORKLOADS[args.workload]()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []  # one piece per set-up
        for _ in range(SETUP_REPEATS):
            calibrate()
            start = time.perf_counter()
            workload.setup(args.seed, work)
            setups.append(("setup", start, time.perf_counter()))

        # with --trace 1, traced rounds alternate with untraced ones, so
        # drift in the machine's speed falls on both alike
        tracer = Tracer() if args.trace else None
        if tracer:
            with tracer.tracing(tracer.setup_spans):
                workload.setup(args.seed, work)
        null = NullTracer()
        rounds, traced = [], []
        start = time.perf_counter()
        while (not rounds or (tracer and not traced)
               or time.perf_counter() - start < args.seconds):
            calibrate()
            if tracer and len(traced) < len(rounds):
                with tracer.tracing(tracer.round_spans):
                    tracer.begin_round()
                    traced.append(workload.run_round(tracer))
                    tracer.end_round()
            else:
                rnd = workload.run_round(null)
                if not tracer:
                    workload.probe(rnd)
                rounds.append(rnd)
        calibrate()  # closes the last round's pieces
        problems = [p for r in rounds + traced for p in r.problems]
        problems += workload.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    if args.trace:
        # each traced round against the untraced round just before it
        overhead = statistics.median(t.seconds() - u.seconds() for u, t in zip(rounds, traced))
        values = tracer.summary(getattr(workload, "epochs", 0), overhead)
        units = {name: unit for name, unit, _ in per_layer_names()}
    calibrations = [value for _, _, value in CALIBRATIONS]
    raw = {
        "setup_s": statistics.median(_seconds([p], "setup") for p in setups),
        "wall_s": statistics.median(r.seconds() for r in rounds),
        "align_pairs_per_s": _rate(rounds, "align_pairs", "align"),
        "train_epochs_per_s": _rate(rounds, "epochs", "train"),
        "calibration_s": statistics.median(calibrations),
    }
    if not args.trace:
        values = {
            "setup_s": statistics.median(_seconds([p], "setup", CALIBRATIONS) for p in setups),
            "wall_ref_s": statistics.median(
                _seconds(r.pieces, "round", CALIBRATIONS) for r in rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "align_pairs_per_ref_s": _rate(rounds, "align_pairs", "align", CALIBRATIONS),
            "train_epochs_per_ref_s": _rate(rounds, "epochs", "train", CALIBRATIONS),
        }
        units = {"setup_s": "s", "wall_ref_s": "ref-s", "peak_rss_mib": "MiB",
                 "align_pairs_per_ref_s": "pairs/ref-s", "train_epochs_per_ref_s": "epochs/ref-s"}

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "alignment_backend": seqid.alignment_backend(),
        "nproc": len(os.sched_getaffinity(0)),  # the CPUs this process may use
        "python": platform.python_version(),
        "numpy": np.__version__,
        "raw": raw,
        "round_s": [round(r.seconds(), 4) for r in rounds + traced],
        "align_s": [round(r.seconds("align"), 5) for r in rounds],
        "train_s": [round(r.seconds("train"), 5) for r in rounds],
        "calibration_s": [round(c, 5) for c in calibrations],
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "absent": tracer.absent if tracer else [],
        "problems": problems[:20],
    }
    print(json.dumps({"facts": facts}, sort_keys=True))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds + traced),
        "failed": sum(r.failed for r in rounds + traced),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "enzood" / "__init__.py").is_file():
        print(f"error: no enzood sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args)
    line = json.dumps(result, sort_keys=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
