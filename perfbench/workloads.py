"""The three workloads: split, train and pipeline.

Each workload builds its inputs in ``setup`` (timed as set-up), then
``run.py`` repeats ``run_round`` for the run's duration.  A round is the
same list of operations every time, so a run attempts whole rounds and
the share of failed operations never depends on the run's length.  Checks
that need no program call run inside every round (outside its timer);
the costlier ones run once in ``final_checks``.

Enzood functions are always looked up on their module at call time, so
the tracer's wrappers see the benchmark's calls as well as the package's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _stdio
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from enzood import cli, harness, io, seqid, synth

import checks
from oracle import adversarial_corpus, nw_identity


@dataclass
class Round:
    attempted: int
    failed: int = 0
    align_pairs: int = 0
    epochs: int = 0
    # (kind, start, end) perf_counter times of each timed piece: the
    # "round" pieces make up the round's time, the "align" and "train"
    # pieces the time of its splitting and training calls (or its probe's)
    pieces: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def seconds(self, kind="round") -> float:
        return sum(end - start for k, start, end in self.pieces if k == kind)


CALIBRATION_LOOPS = 300_000
CALIBRATION_SAMPLES = 6
# (start, end, median seconds) of every calibration of the process, in order
CALIBRATIONS = []


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop that runs no enzood code,
    also kept in CALIBRATIONS."""
    begin = time.perf_counter()
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    value = statistics.median(times)
    CALIBRATIONS.append((begin, time.perf_counter(), value))
    return value


def _timed(rnd, kinds, fn, *args):
    """``fn(*args)``, recorded in ``rnd`` as one piece of each kind."""
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    rnd.pieces += [(kind, start, end) for kind in kinds]
    return result


def _unique_pairs(seqs) -> int:
    n = len(set(seqs))
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# split


class SplitWorkload:
    """Identity splits over two synthetic groups of different sequence
    length: all-pairs matrices plus per-pair cross checks."""

    name = "split"
    thresholds = (0.4, 0.6, 0.8, 0.99)
    test_fraction = 0.3
    val_fraction = 2.0 / 7.0
    nested_threshold = 0.6
    split_seed = 0
    probe_epochs = 20
    oracle_pairs = 12  # per threshold
    corpus_pairs = 300

    # 5% point mutations keep every member of a family above 0.8 identity
    # to the others and families near 0.3 to each other, so the clusters,
    # and with them the amount of alignment work, do not move with the seed
    mutation_rate = 0.05
    groups = ((48, 3, 4), (64, 3, 4))  # (prototype length, families, members per family)

    def __init__(self):
        self.reference = None

    def setup(self, seed, workdir):
        self.seed = seed
        records = []
        for k, (length, families, members) in enumerate(self.groups):
            cfg = synth.SynthConfig(
                family_count=families,
                members_per_family=members,
                prototype_length=length,
                mutation_rate=self.mutation_rate,
                seed=seed * len(self.groups) + k,
            )
            generated, _ = synth.generate(cfg)
            records += [dataclasses.replace(r, id=f"len{length}-{r.id}") for r in generated]
        self.records = records
        self.ids = [r.id for r in records]
        self.seq_of = {r.id: r.sequence for r in records}

    def run_round(self, tracer) -> Round:
        rnd = Round(0)
        start = time.perf_counter()
        splits = seqid.build_ood_splits(
            self.records, self.thresholds, self.test_fraction, self.split_seed
        )
        nested = harness.nested_identity_split(
            self.records, self.nested_threshold, self.test_fraction, self.val_fraction,
            self.split_seed,
        )
        nested_halves = (
            ("nested test", seqid.OodSplit(nested.threshold, nested.train_ids + nested.val_ids,
                                           nested.test_ids)),
            ("nested val", seqid.OodSplit(nested.threshold, nested.train_ids, nested.val_ids)),
        )
        labelled = [(f"split {s.threshold}", s) for s in splits] + list(nested_halves)
        cross = [(label, s.threshold, seqid.max_cross_identity(s, self.seq_of))
                 for label, s in labelled]
        end = time.perf_counter()
        rnd.pieces += [("round", start, end), ("align", start, end)]

        seqs = [self.seq_of[i] for i in self.ids]
        pool = [self.seq_of[i] for i in nested.train_ids + nested.val_ids]
        rnd.align_pairs = 2 * _unique_pairs(seqs) + _unique_pairs(pool)
        for _, s in labelled:
            rnd.align_pairs += (len({self.seq_of[i] for i in s.test_ids})
                                * len({self.seq_of[i] for i in s.train_ids}))
        # operations: build_ood_splits, nested_identity_split and each
        # max_cross_identity call
        rnd.attempted = 2 + len(cross)
        rnd.problems = (checks.check_splits(self.ids, splits, self.test_fraction)
                        + checks.check_nested(self.ids, nested)
                        + checks.check_cross(cross))
        output = (splits, nested, cross)
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            rnd.problems.append("split outputs differ from the first round")
        self.nested = nested
        return rnd

    def probe(self, rnd: Round):
        """The split workload trains nothing; a short control-arm run on
        its nested split gives its training rate."""
        cfg = io.RunConfig(lam=0.0, epochs=self.probe_epochs, seed=self.seed)
        calibrate()  # the round between it and the last one took seconds
        _, log, _ = _timed(rnd, ("train",), harness.train_on_split,
                           self.records, self.nested, cfg)
        rnd.epochs = cfg.epochs
        if len(log) != cfg.epochs:
            rnd.problems.append(f"training probe logged {len(log)} of {cfg.epochs} epochs")

    def final_checks(self) -> list[str]:
        rng = np.random.default_rng([self.seed, 0x5A])
        splits, _, _ = self.reference
        problems = checks.check_oracle_sample(
            self.seq_of, splits, rng, self.oracle_pairs, seqid.global_identity
        )
        kernels = {"seqid.global_identity": seqid.global_identity}
        try:
            from enzood import _alignment_cy
        except ImportError:
            pass
        else:
            kernels["_alignment_cy"] = _cython_identity(_alignment_cy)
        return problems + checks.check_oracle_corpus(
            adversarial_corpus(self.seed, self.corpus_pairs), kernels
        )


def _cython_identity(module):
    def identity(a, b):
        _, matches, length = module.align_stats(a.encode("ascii"), b.encode("ascii"))
        return matches / length
    return identity


# ---------------------------------------------------------------------------
# train


ARM_OVERRIDES = (
    ("control", {"lam": 0.0}),
    ("graph_mask", {"lam": 0.5}),
    ("enumeration", {"lam": 0.5, "substrate_mode": "enumeration"}),
)


class TrainWorkload:
    """Three training arms on one family-held-out split of the default
    300-record set; no alignment runs inside a round."""

    name = "train"
    epochs = 10
    val_families = (5, 6)
    test_families = (7, 8, 9)
    probe_sequences = 10

    def __init__(self):
        self.reference = None

    def setup(self, seed, workdir):
        self.seed = seed
        records, _ = synth.generate(synth.SynthConfig())
        parts = {"train": [], "val": [], "test": []}
        for r in records:
            family = int(r.organism.rsplit("-", 1)[1])
            part = ("val" if family in self.val_families
                    else "test" if family in self.test_families else "train")
            parts[part].append(r.id)
        self.records = records
        self.split = harness.NestedSplit(
            threshold=0.6,
            train_ids=tuple(parts["train"]),
            val_ids=tuple(parts["val"]),
            test_ids=tuple(parts["test"]),
        )
        self.configs = {
            arm: io.RunConfig(epochs=self.epochs, seed=seed, **overrides)
            for arm, overrides in ARM_OVERRIDES
        }
        firsts = {}
        for r in records:
            firsts.setdefault(r.organism, r.sequence)
        self.probe_seqs = list(firsts.values())[: self.probe_sequences]

    def run_round(self, tracer) -> Round:
        rnd = Round(len(self.configs), epochs=sum(cfg.epochs for cfg in self.configs.values()))
        outputs = {}
        for arm, cfg in self.configs.items():
            tracer.label = arm
            outputs[arm] = _timed(rnd, ("round", "train"), harness.train_on_split,
                                  self.records, self.split, cfg)
        tracer.label = None
        digests = {}
        for arm, (params, log, scores) in outputs.items():
            rnd.problems += checks.check_train_arm(arm, params, log, scores, self.configs[arm])
            digests[arm] = (checks.params_digest(params), repr(log), repr(scores))
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            rnd.problems.append("training outputs differ from the first round")
        return rnd

    def probe(self, rnd: Round):
        """The train workload aligns nothing; one identity matrix over a
        sequence of each family gives its alignment rate."""
        calibrate()  # the round between it and the last one took seconds
        self.probe_matrix = _timed(rnd, ("align",), seqid.pairwise_identity_matrix,
                                   self.probe_seqs)
        rnd.align_pairs = _unique_pairs(self.probe_seqs)

    def final_checks(self) -> list[str]:
        # augmented pairs reach the loss only through the consistency
        # term, so the control arm cannot depend on the mask ratios
        cfg = dataclasses.replace(self.configs["control"], p_s=0.2, p_g=0.2)
        params, _, _ = harness.train_on_split(self.records, self.split, cfg)
        problems = []
        if checks.params_digest(params) != self.reference["control"][0]:
            problems.append("control-arm parameters change with p_s/p_g at lam=0")
        matrix = getattr(self, "probe_matrix", None)
        if matrix is not None:
            for i in range(len(self.probe_seqs)):
                for j in range(i + 1, min(i + 3, len(self.probe_seqs))):
                    expected = nw_identity(self.probe_seqs[i], self.probe_seqs[j])
                    if matrix[i, j] != expected or matrix[j, i] != expected:
                        problems.append(f"identity matrix [{i},{j}] != oracle {expected}")
        return problems


# ---------------------------------------------------------------------------
# pipeline


class PipelineWorkload:
    """The README pipeline through ``enzood.cli.main`` on a fixed small
    synthetic set.  Its inputs do not depend on the seed (only the run
    configuration's seed does), so the leaky eval thresholds are the same
    in every run."""

    name = "pipeline"
    thresholds = "0.4,0.6,0.8,0.99"
    p_s = 0.1
    synth_text = "family_count=6\nmembers_per_family=10\nprototype_length=40\nseed=0\n"
    epochs = 50

    def __init__(self):
        self.reference = None

    def setup(self, seed, workdir):
        self.seed = seed
        self.root = Path(workdir)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "synth.cfg").write_text(self.synth_text, encoding="utf-8")
        for arm, lam in (("control", "0"), ("treated", "0.5")):
            (self.root / f"{arm}.cfg").write_text(
                f"lam={lam}\np_s={self.p_s}\nepochs={self.epochs}\nseed={seed}\n", encoding="utf-8"
            )
        # the records the synth command must write, generated in process
        self.expected, _ = synth.generate(synth.parse_synth_config_text(self.synth_text))

    def commands(self, out):
        """(arm label, argv) of every command of one round, in order."""
        c = self.root

        def train(arm):
            return ["train", "--train", out / "inner/train-060.tsv",
                    "--val", out / "inner/test-060.tsv", "--config", c / f"{arm}.cfg",
                    "--checkpoint-out", out / f"{arm}.ckpt", "--log-out", out / f"{arm}.log"]

        def evaluate(arm):
            return ["eval", "--checkpoint", out / f"{arm}.ckpt", "--data", out / "bench.tsv",
                    "--splits", out / "splits/splits.tsv",
                    "--report-out", out / f"{arm}-report.txt"]

        return [
            (None, ["synth", "--config", c / "synth.cfg", "--out", out / "bench.tsv"]),
            (None, ["augment", "--in", out / "bench.tsv", "--out", out / "bench-aug.tsv",
                    "--config", c / "treated.cfg"]),
            (None, ["split", "--in", out / "bench.tsv", "--out-dir", out / "splits",
                    "--thresholds", self.thresholds, "--test-fraction", "0.3", "--seed", "0"]),
            (None, ["split", "--in", out / "splits/train-060.tsv", "--out-dir", out / "inner",
                    "--thresholds", "0.6", "--test-fraction", "0.3", "--seed", "1"]),
            ("control", train("control")),
            ("graph_mask", train("treated")),
            ("control", evaluate("control")),
            ("graph_mask", evaluate("treated")),
        ]

    def run_round(self, tracer) -> Round:
        out = self.root / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        n_thresholds = len(self.thresholds.split(","))
        rnd = Round(0, epochs=2 * self.epochs)
        kinds = {"split": "align", "train": "train"}
        codes = []
        calibrated = False
        start = time.perf_counter()
        for arm, argv in self.commands(out):
            if argv[0] == "train" and not calibrated:
                # the training commands start seconds into the round; a
                # calibration here closes the splitting and opens them
                rnd.pieces.append(("round", start, time.perf_counter()))
                calibrate()
                calibrated = True
                start = time.perf_counter()
            tracer.label = arm
            sink = _stdio.StringIO()
            t0 = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main([str(a) for a in argv])
            if argv[0] in kinds:
                rnd.pieces.append((kinds[argv[0]], t0, time.perf_counter()))
            codes.append((argv[0], code, sink.getvalue()))
        rnd.pieces.append(("round", start, time.perf_counter()))
        tracer.label = None

        rnd.attempted = sum(n_thresholds if cmd == "eval" else 1 for cmd, _, _ in codes)
        broken = [(cmd, code, text) for cmd, code, text in codes if code != 0]
        if broken:
            rnd.failed = sum(n_thresholds if cmd == "eval" else 1 for cmd, _, _ in broken)
            rnd.problems += [f"{cmd} exited {code}: {text.strip()[-200:]}"
                             for cmd, code, text in broken]
            return rnd
        self._check_round(out, rnd)
        return rnd

    def _check_round(self, out, rnd):
        dataset = checks.read_table(out / "bench.tsv")
        expected = [(r.id, r.sequence, r.smiles, r.value) for r in self.expected]
        written = [(r["id"], r["sequence"], r["smiles"], float(r["value"]))
                   for r in dataset.values()]
        if written != expected:
            rnd.problems.append("bench.tsv differs from the in-process synthetic set")
        pool = checks.read_table(out / "splits/train-060.tsv")
        rnd.align_pairs = (_unique_pairs(r["sequence"] for r in dataset.values())
                           + _unique_pairs(r["sequence"] for r in pool.values()))
        augmented = checks.read_table(out / "bench-aug.tsv")
        rnd.problems += checks.check_augmented(dataset, augmented, self.p_s)
        split_tests = checks.read_split_tests(out / "splits/splits.tsv")
        for arm in ("control", "treated"):
            rnd.problems += [f"{arm}: {p}" for p in checks.check_report(
                checks.read_report(out / f"{arm}-report.txt"), dataset, split_tests)]
        # each (checkpoint, threshold) eval scores is an operation; it fails
        # when a scored record was trained or selected on (both checkpoints
        # were fitted on the same inner train/val files)
        seen = list(checks.read_table(out / "inner/train-060.tsv")) + list(
            checks.read_table(out / "inner/test-060.tsv"))
        leaked = checks.leaked_thresholds(split_tests, seen)
        rnd.failed = 2 * sum(1 for ids in leaked.values() if ids)
        digests = checks.tree_digests(out)
        if self.reference is None:
            self.reference = digests
        else:
            rnd.problems += checks.check_same_artifacts(self.reference, digests, "pipeline")

    def probe(self, rnd: Round):
        pass

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SplitWorkload, TrainWorkload, PipelineWorkload)}
