"""Self-test of the benchmark's checks: each is fed a real output from one
round of the workload, which must pass, and then a corrupted copy, which
must fail.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from enzood import seqid  # noqa: E402

import checks  # noqa: E402
from oracle import adversarial_corpus, nw_stats  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import PipelineWorkload, SplitWorkload  # noqa: E402

@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    workload = SplitWorkload()
    workload.setup(0, tmp_path_factory.mktemp("split"))
    rnd = workload.run_round(NullTracer())
    assert rnd.problems == []
    return workload


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    workload = PipelineWorkload()
    workload.setup(0, tmp_path_factory.mktemp("pipeline"))
    rnd = workload.run_round(NullTracer())
    assert rnd.problems == []
    return workload.root / "round"


def test_oracle_matches_kernel_on_adversarial_corpus():
    pairs = adversarial_corpus(0, 200)
    for a, b in pairs:
        assert nw_stats(a, b) == seqid.alignment_stats(a, b)


def test_id_moved_across_a_split_fails(split_run):
    splits, _, _ = split_run.reference
    loose = min(splits, key=lambda s: s.threshold)
    clean = checks.check_oracle_sample(split_run.seq_of, [loose], None, 10**6,
                                       seqid.global_identity)
    assert clean == []
    # a test record whose family stays in test moves to train
    moved = loose.test_ids[0]
    corrupted = seqid.OodSplit(loose.threshold, loose.train_ids + (moved,), loose.test_ids[1:])
    assert checks.check_oracle_sample(split_run.seq_of, [corrupted], None, 10**6,
                                      seqid.global_identity)


def test_leaked_eval_record_fails(pipeline_run):
    split_tests = checks.read_split_tests(pipeline_run / "splits/splits.tsv")
    trained = list(checks.read_table(pipeline_run / "inner/train-060.tsv"))
    tag = next(t for t in split_tests if float(t) == 0.6)
    assert checks.leaked_thresholds(split_tests, trained)[tag] == []
    corrupted = dict(split_tests)
    corrupted[tag] = split_tests[tag] + [trained[0]]
    assert checks.leaked_thresholds(corrupted, trained)[tag] == [trained[0]]


def test_perturbed_r2_fails(pipeline_run):
    dataset = checks.read_table(pipeline_run / "bench.tsv")
    split_tests = checks.read_split_tests(pipeline_run / "splits/splits.tsv")
    report = checks.read_report(pipeline_run / "control-report.txt")
    assert checks.check_report(report, dataset, split_tests) == []
    row = report["per_threshold"][0]
    row["r2"] = repr(float(row["r2"]) + 1e-6)
    assert checks.check_report(report, dataset, split_tests)


def test_one_differing_artifact_byte_fails(pipeline_run, tmp_path):
    reference = checks.tree_digests(pipeline_run)
    assert checks.check_same_artifacts(reference, checks.tree_digests(pipeline_run), "x") == []
    copy = tmp_path / "copy"
    for name in reference:
        target = copy / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes((pipeline_run / name).read_bytes())
    report = copy / "treated-report.txt"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1
    report.write_bytes(bytes(data))
    assert checks.check_same_artifacts(reference, checks.tree_digests(copy), "x")
