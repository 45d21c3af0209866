"""Time the consistency training step, phase by phase.

One lam = 0.5 ``train_on_split`` per substrate mode (graph_mask,
enumeration) on the acceptance split: the default 300-record synthetic
benchmark, nested split at identity 0.6 (test fraction 0.3, validation
fraction 2/7, seed 0), 300 epochs.  Each measurement runs the mode once
untraced (wall time) and once traced, splitting ``model.train`` into:

- encode: from entry to the first step (records to feature rows, init);
- draw: the masking draws (``augment.draw_masks``, or the parent's
  ``augment.augment_record``, minus the rendering and parsing inside it);
- render / parse: SMILES rendering and parsing inside the steps;
- featurize: feature rows built inside the steps;
- forward: ``model._forward_arrays`` (steps and per-epoch validation);
- backward: ``model.gradients`` minus the forward passes inside it;
- other: the rest of ``model.train`` (batch indexing, the masked index
  arrays, the parameter update, the per-epoch log).

Functions a source tree lacks are skipped, so the same script times an
older tree.  Usage::

    python3 scripts/bench_train_step.py                     # this tree
    python3 scripts/bench_train_step.py --baseline OLD/src --rounds 3 \\
        --out BENCH_20261018.json

With ``--baseline`` the two trees alternate, one fresh process per tree
and round, and the JSON holds both trees' rounds, their medians and the
machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
MODES = ("graph_mask", "enumeration")
PHASES = ("encode", "draw", "render", "parse", "featurize", "forward", "backward", "other")

# traced function -> phase; a call's self time (its time minus that of
# traced calls inside it) goes to its phase
CATEGORY = {
    "augment.draw_masks": "draw",
    "augment.augment_record": "draw",
    "molgraph.enumerate_smiles": "render",
    "molgraph.parse_smiles": "parse",
    "model.featurize_enzyme": "featurize",
    "model.featurize_substrate": "featurize",
    "model._enzyme_rows": "featurize",
    "model._substrate_rows": "featurize",
    "model._forward_arrays": "forward",
    "model.gradients": "backward",
}
STEP_START = ("augment.draw_masks", "augment.augment_record", "model.gradients")


class PhaseTracer:
    """Wraps the traced functions at every enzood module binding and
    folds the calls made inside ``model.train`` into phase times."""

    def __init__(self):
        self.phase_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.train_s = 0.0
        self.encode_s = 0.0
        self._in_train = False
        self._stepping = False
        self._entered = 0.0
        self._children = []  # traced time inside each open call

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self._in_train:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            if not self._stepping and name in STEP_START:
                self._stepping = True
                self.encode_s += start - self._entered
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += duration
                if self._stepping:
                    self.phase_s[CATEGORY[name]] += duration - inner
                    self.calls[name] += 1

        return traced

    def wrap_train(self, fn):
        def traced(*args, **kwargs):
            self._in_train, self._stepping = True, False
            self._entered = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.train_s += time.perf_counter() - self._entered
                self._in_train = False

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "enzood" or key.startswith("enzood."))]
        targets = [(name, self.wrap) for name in CATEGORY]
        targets.append(("model.train", lambda _, fn: self.wrap_train(fn)))
        bindings = []
        for qualname, make in targets:
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"enzood.{module_name}"], attr, None)
            if original is None:
                continue
            wrapped = make(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        bindings.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in bindings:
                setattr(module, key, original)

    def result(self) -> dict:
        phases = {"encode": self.encode_s}
        phases.update({p: self.phase_s[p] for p in PHASES if p not in ("encode", "other")})
        phases["other"] = self.train_s - sum(phases.values())
        return {"train_s": self.train_s, "phase_s": phases, "calls": dict(self.calls)}


def measure(src: str) -> dict:
    """One round in this process: per mode, the untraced wall time of a
    train_on_split and the traced phase split of another."""
    sys.path.insert(0, src)
    import dataclasses

    from enzood import harness, io, synth

    records, _ = synth.generate(synth.SynthConfig())
    split = harness.nested_identity_split(records, 0.6, 0.3, 2.0 / 7.0, seed=0)
    out = {}
    for mode in MODES:
        cfg = dataclasses.replace(io.RunConfig(), lam=0.5, substrate_mode=mode)
        start = time.perf_counter()
        harness.train_on_split(records, split, cfg)
        wall = time.perf_counter() - start
        tracer = PhaseTracer()
        with tracer.installed():
            harness.train_on_split(records, split, cfg)
        out[mode] = {"wall_s": wall, **tracer.result()}
    return out


def machine(src: str) -> dict:
    import numpy

    sys.path.insert(0, src)
    from enzood import seqid

    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "alignment_backend": seqid.alignment_backend(),
    }


def _median(rounds: list[dict], mode: str) -> dict:
    runs = [r[mode] for r in rounds]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "train_s": statistics.median(r["train_s"] for r in runs),
        "phase_s": {p: statistics.median(r["phase_s"][p] for r in runs) for p in PHASES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="src directory of a tree to compare against")
    parser.add_argument("--rounds", type=int, default=1, help="rounds per tree (default 1)")
    parser.add_argument("--out", help="write the JSON here as well as to stdout")
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # child process: one round
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    trees = {"change": str(REPO_SRC)}
    if args.baseline:
        trees["parent"] = str(Path(args.baseline).resolve())
    rounds = {label: [] for label in trees}
    for k in range(args.rounds):
        labels = list(trees) if k % 2 == 0 else list(reversed(trees))
        for label in labels:
            child = subprocess.run(
                [sys.executable, __file__, "--measure", trees[label]],
                check=True, capture_output=True, text=True,
            )
            rounds[label].append(json.loads(child.stdout))
            print(f"round {k} {label}: " + ", ".join(
                f"{mode} {rounds[label][-1][mode]['wall_s']:.2f} s" for mode in MODES
            ), file=sys.stderr)
    report = {
        "script": "scripts/bench_train_step.py",
        "workload": "lam=0.5 train_on_split, 300 epochs, acceptance split of the "
                    "default 300-record benchmark (150 train, 60 val)",
        "machine": machine(str(REPO_SRC)),
        "trees": {label: {"median": {mode: _median(rounds[label], mode) for mode in MODES},
                          "rounds": rounds[label]}
                  for label in trees},
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
