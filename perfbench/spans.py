"""Span tracing of the enzood layers from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper
at every module binding that refers to it (a function imported by name
into another module is bound there too), so calls made inside the
package are traced as well as the benchmark's own.  Each call records a
span (name, arm label, start, end, parent span); a span's self time is
its duration minus the durations of its direct children.  Spans stay in
memory until ``summary`` folds them into per-round metrics.  Calls whose
arguments feed a counter (pairs requested, bytes written) only record
their arguments; ``end_round`` counts them, outside every span, so that
work lands in no layer's time.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

# Public functions timed per layer.  A name a later change removes is
# reported in ``absent`` and reads as zero calls; the run goes on.
TRACED = (
    "seqid.pairwise_identity_matrix",
    "seqid.global_identity",
    "seqid.max_cross_identity",
    "seqid.greedy_cluster",
    "seqid.build_ood_splits",
    "harness.nested_identity_split",
    "harness.train_on_split",
    "harness.good_evaluation",
    "harness.evaluate_params",
    "model.train",
    "model.featurize_enzyme",
    "model.featurize_substrate",
    "model.gradients",
    "model.predict",
    "augment.augment_pair",
    "augment.augment_record",
    "molgraph.parse_smiles",
    "molgraph.enumerate_smiles",
    "io.read_dataset",
    "io.write_dataset",
    "synth.generate",
)

# Traced functions that call other traced functions, so self time differs
# from span time.
WITH_CHILDREN = (
    "seqid.max_cross_identity",
    "seqid.build_ood_splits",
    "harness.nested_identity_split",
    "harness.train_on_split",
    "harness.good_evaluation",
    "harness.evaluate_params",
    "model.train",
    "model.predict",
    "augment.augment_pair",
    "augment.augment_record",
    "io.read_dataset",
    "synth.generate",
)

# Traced functions also reported for the one traced set-up of a run.
SETUP_TRACED = ("synth.generate", "molgraph.parse_smiles")

ARMS = ("control", "graph_mask", "enumeration")
LAM_POSITIVE_ARMS = ("graph_mask", "enumeration")
CLI_COMMANDS = ("synth", "augment", "split", "train", "eval")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``summary`` reports."""
    out = []
    for fn in SETUP_TRACED:
        out.append((f"setup.{fn}.calls", "count", "lower"))
        out.append((f"setup.{fn}.s", "s", "lower"))
        if fn in WITH_CHILDREN:
            out.append((f"setup.{fn}.self_s", "s", "lower"))
    for fn in TRACED:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.s", "s", "lower"))
        if fn in WITH_CHILDREN:
            out.append((f"{fn}.self_s", "s", "lower"))
    out += [
        ("seqid.matrix_pairs", "pairs", "lower"),
        ("seqid.matrix_cells", "cells", "lower"),
        ("seqid.cells_per_s", "cells/s", "higher"),
        ("seqid.distinct_pair_share", "ratio", "higher"),
    ]
    out += [(f"model.epoch_s.{arm}", "s", "lower") for arm in ARMS]
    for arm in ARMS:
        out.append((f"augment.augment_pair.{arm}.calls", "count", "lower"))
        out.append((f"augment.augment_pair.{arm}.s", "s", "lower"))
    out.append(("augment.used_share", "ratio", "higher"))
    out.append(("io.bytes_written", "bytes", "lower"))
    out += [(f"cli.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class NullTracer:
    """Tracing off: spans cost one context-manager entry."""

    label = None

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        # [name, label, start, end, parent]; ``spans`` points at the list
        # of the phase being traced
        self.setup_spans = []
        self.round_spans = []
        self.spans = self.round_spans
        self.label = None
        self.absent = []
        self.rounds = 0
        self._stack = []
        self._bindings = []
        self._counts = defaultdict(float)
        self._pending = {name: [] for name in _HOOKS}  # (args, kwargs) per call
        self._distinct_shares = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.label, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        pending = self._pending.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if pending is not None:
                pending.append((args, kwargs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "enzood" or key.startswith("enzood."))]
        for qualname in TRACED:
            module_name, attr = qualname.rsplit(".", 1)
            home = sys.modules.get(f"enzood.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(qualname)
                continue
            wrapped = self._wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._bindings.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def tracing(self, spans):
        """Wrappers installed, recording into ``spans``."""
        self.spans = spans
        self.absent = []
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- per-round counters ----------------------------------------------

    def begin_round(self):
        for calls in self._pending.values():
            calls.clear()

    def end_round(self):
        """Count the round's recorded calls; the files they wrote still exist."""
        self.rounds += 1
        pairs = []
        for name, calls in self._pending.items():
            for args, kwargs in calls:
                _HOOKS[name](self._counts, pairs, args, kwargs)
            calls.clear()
        if pairs:
            seen = {(a, b) if a <= b else (b, a) for a, b in pairs}
            self._distinct_shares.append(len(seen) / len(pairs))

    # -- summary ---------------------------------------------------------

    def summary(self, epochs_per_call, overhead_s) -> dict:
        """Per-round metrics over every traced round, plus the traced
        set-up's own calls under ``setup.``.

        ``epochs_per_call`` is the epochs of every ``model.train`` call."""
        rounds = max(self.rounds, 1)
        calls, total, self_total, arm_calls, arm_total = _fold(self.round_spans)
        out = {}
        setup_calls, setup_total, setup_self, _, _ = _fold(self.setup_spans)
        for fn in SETUP_TRACED:
            out[f"setup.{fn}.calls"] = setup_calls[fn]
            out[f"setup.{fn}.s"] = setup_total[fn]
            if fn in WITH_CHILDREN:
                out[f"setup.{fn}.self_s"] = setup_self[fn]
        for fn in TRACED:
            out[f"{fn}.calls"] = calls[fn] / rounds
            out[f"{fn}.s"] = total[fn] / rounds
            if fn in WITH_CHILDREN:
                out[f"{fn}.self_s"] = self_total[fn] / rounds
        matrix_s = total["seqid.pairwise_identity_matrix"]
        out["seqid.matrix_pairs"] = self._counts["matrix_pairs"] / rounds
        out["seqid.matrix_cells"] = self._counts["matrix_cells"] / rounds
        out["seqid.cells_per_s"] = self._counts["matrix_cells"] / matrix_s if matrix_s else 0.0
        shares = self._distinct_shares
        out["seqid.distinct_pair_share"] = sum(shares) / len(shares) if shares else 0.0
        for arm in ARMS:
            n_calls = arm_calls[("model.train", arm)]
            epochs = n_calls * epochs_per_call
            train_s = arm_total[("model.train", arm)]
            out[f"model.epoch_s.{arm}"] = train_s / epochs if epochs else 0.0
            out[f"augment.augment_pair.{arm}.calls"] = (
                arm_calls[("augment.augment_pair", arm)] / rounds)
            out[f"augment.augment_pair.{arm}.s"] = arm_total[("augment.augment_pair", arm)] / rounds
        drawn = calls["augment.augment_pair"]
        used = sum(arm_calls[("augment.augment_pair", arm)] for arm in LAM_POSITIVE_ARMS)
        out["augment.used_share"] = used / drawn if drawn else 0.0
        out["io.bytes_written"] = self._counts["bytes_written"] / rounds
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total[f"cli.{cmd}"] / rounds
        out["trace.overhead_s"] = overhead_s
        return out


def _fold(spans):
    """Per-name calls, total time and self time, and per (name, arm)
    calls and time."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    arm_calls = defaultdict(int)
    arm_total = defaultdict(float)
    for name, label, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        if label is not None:
            arm_calls[(name, label)] += 1
            arm_total[(name, label)] += duration
        if parent >= 0:
            child[parent] += duration
    self_total = defaultdict(float)
    for index, (name, _, start, end, _) in enumerate(spans):
        self_total[name] += (end - start) - child[index]
    return calls, total, self_total, arm_calls, arm_total


# Each hook adds one recorded call to the counters and appends the
# sequence pairs it requested to ``pairs``.


def _matrix_hook(counts, pairs, args, kwargs):
    seqs = list(args[0] if args else kwargs["seqs"])
    lengths = [len(s) for s in seqs]
    n = len(seqs)
    counts["matrix_pairs"] += n * (n - 1) // 2
    total = sum(lengths)
    counts["matrix_cells"] += (total * total - sum(x * x for x in lengths)) // 2
    pairs.extend((seqs[i], seqs[j]) for i in range(n) for j in range(i + 1, n))


def _pair_hook(counts, pairs, args, kwargs):
    pairs.append(tuple(args[:2]))


def _bytes_hook(counts, pairs, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["bytes_written"] += os.path.getsize(path)


_HOOKS = {
    "seqid.pairwise_identity_matrix": _matrix_hook,
    "seqid.global_identity": _pair_hook,
    "io.write_dataset": _bytes_hook,
}
