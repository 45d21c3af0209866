"""Time the consistency training step, phase by phase.

One lam = 0.5 ``train_on_split`` per substrate mode (graph_mask,
enumeration) on the acceptance split: the default 300-record synthetic
benchmark, nested split at identity 0.6 (test fraction 0.3, validation
fraction 2/7, seed 0), 300 epochs.  Each measurement runs the mode once
untraced (wall time) and once traced, splitting ``model.train`` into:

- encode: from entry to the first step (records to feature rows, init);
- draw: the batch orders, the masking draws and the masked index arrays
  built from them (``model._draw_block``, once per block of epochs; in
  older trees ``model._draw_epoch``, once per epoch, or the per-step
  ``augment.draw_masks``);
- render / parse: SMILES rendering and parsing inside the steps;
- featurize: feature rows built and scaled inside the steps
  (``model._enzyme_rows``, ``model._substrate_rows`` and
  ``model._scaled``; in older trees the forward pass scales);
- forward: ``model._forward_arrays`` (one pass over the stacked raw and
  augmented rows per step, and per-epoch validation; in older trees one
  pass per row set);
- backward: ``model.gradients`` minus the forward pass inside it;
- other: the rest of ``model.train`` (batch indexing and stacking, the
  parameter update, the snapshot of each new best epoch and the log; in
  older trees the masked index arrays).

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

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

MODES = ("graph_mask", "enumeration")
PHASES = ("encode", "draw", "render", "parse", "featurize", "forward", "backward", "other")

# traced function -> phase; a call's self time (its time minus that of
# traced calls inside it) goes to its phase
CATEGORY = {
    "model._draw_block": "draw",
    "model._draw_epoch": "draw",
    "augment.draw_masks": "draw",
    "molgraph.enumerate_smiles": "render",
    "molgraph.parse_smiles": "parse",
    "model._enzyme_rows": "featurize",
    "model._substrate_rows": "featurize",
    "model._scaled": "featurize",
    "model._forward_arrays": "forward",
    "model.gradients": "backward",
}
STEP_START = ("model._draw_block", "model._draw_epoch", "augment.draw_masks", "model.gradients")
# traced names that only older trees define
OLDER_TREES = ("model._draw_epoch",)


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


def _median(rounds: list[dict], mode: str) -> dict:
    runs = [r[mode] for r in rounds]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "train_s": statistics.median(r["train_s"] for r in runs),
        "phase_s": {p: statistics.median(r["phase_s"][p] for r in runs) for p in PHASES},
    }


def main(argv=None) -> int:
    import benchtrees

    args = benchtrees.parser(__doc__.split("\n\n")[0]).parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    rounds = benchtrees.run_rounds(__file__, args, lambda result: ", ".join(
        f"{mode} {result[mode]['wall_s']:.2f} s" for mode in MODES
    ))
    report = {
        "script": "scripts/bench_train_step.py",
        "workload": "lam=0.5 train_on_split, 300 epochs, acceptance split of the "
                    "default 300-record benchmark (150 train, 60 val)",
        "machine": benchtrees.machine(),
        "trees": {label: {"median": {mode: _median(runs, mode) for mode in MODES},
                          "rounds": runs}
                  for label, runs in rounds.items()},
    }
    return benchtrees.write_report(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
