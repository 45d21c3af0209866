"""End-to-end checks of the command line interface.

Commands run in-process through cli.main so coverage tools see them and
the suite stays fast; artifacts land in tmp_path."""

import dataclasses
import filecmp
import json
import re
from pathlib import Path

import pytest

from enzood import cli
from enzood.harness import LAMBDA_GRID, MASK_GRID, read_checkpoint
from enzood.io import read_dataset, write_dataset
from enzood.model import predict
from enzood.seqid import OodSplit, read_split_file, write_split_file

SYNTH_CFG = "family_count=6\nmembers_per_family=10\nseed=3\n"
RUN_CFG = "epochs=40\nseed=1\n"
TINY_CFG = "epochs=8\nseed=0\n"


def run_cli(argv):
    """Exit status of a CLI invocation, including argparse failures."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_bench(tmp_path, cfg_text=SYNTH_CFG):
    cfg = write_cfg(tmp_path, "synth.cfg", cfg_text)
    out = tmp_path / "bench.tsv"
    assert run_cli(["synth", "--config", cfg, "--out", out]) == 0
    return out


def read_sections(path):
    """Report body as {section: [row, ...]}; row 0 is the header."""
    sections = {}
    current = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        else:
            sections[current].append(line.split("\t"))
    return sections


def test_synth_writes_dataset_and_sidecar(tmp_path, capsys):
    out = make_bench(tmp_path)
    stdout = capsys.readouterr().out
    first = stdout.splitlines()[0]
    assert first.startswith("config-hash: ")
    assert len(first.split(": ")[1]) == 64
    records = read_dataset(out)
    assert len(records) == 60
    assert (tmp_path / "bench.tsv.meta.json").exists()


def test_augment_materializes_interleaved_pairs(tmp_path):
    bench = make_bench(tmp_path)
    out = tmp_path / "aug.tsv"
    assert run_cli(["augment", "--in", bench, "--out", out]) == 0
    raw = read_dataset(bench)
    produced = read_dataset(out)
    assert len(produced) == 2 * len(raw)
    assert [r.id for r in produced[0::2]] == [r.id for r in raw]
    assert all(r.id.endswith("#aug") for r in produced[1::2])
    # default mode masks the substrate graph in place
    assert any(r.substrate_mask for r in produced[1::2])
    again = tmp_path / "aug2.tsv"
    assert run_cli(["augment", "--in", bench, "--out", again]) == 0
    assert filecmp.cmp(out, again, shallow=False)


def test_split_materializes_every_half(tmp_path):
    bench = make_bench(tmp_path)
    out_dir = tmp_path / "splits"
    code = run_cli(
        ["split", "--in", bench, "--out-dir", out_dir, "--thresholds", "0.4,0.6"]
    )
    assert code == 0
    splits = read_split_file(out_dir / "splits.tsv")
    assert [s.threshold for s in splits] == [0.4, 0.6]
    for split, tag in zip(splits, ("040", "060")):
        train = read_dataset(out_dir / f"train-{tag}.tsv")
        test = read_dataset(out_dir / f"test-{tag}.tsv")
        assert tuple(r.id for r in train) == split.train_ids
        assert tuple(r.id for r in test) == split.test_ids


def test_full_pipeline_is_byte_deterministic(tmp_path):
    """Two pipeline passes with the same flags must agree byte for byte
    on every artifact: dataset, sidecar, splits, checkpoint, log, report."""
    run_cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    synth_cfg = write_cfg(tmp_path, "synth.cfg", SYNTH_CFG)

    def pipeline(root):
        root.mkdir()
        bench = root / "bench.tsv"
        assert run_cli(["synth", "--config", synth_cfg, "--out", bench]) == 0
        assert run_cli(["split", "--in", bench, "--out-dir", root / "splits"]) == 0
        code = run_cli(
            [
                "split",
                "--in", root / "splits" / "train-060.tsv",
                "--out-dir", root / "inner",
                "--thresholds", "0.6",
                "--seed", "1",
            ]
        )
        assert code == 0
        code = run_cli(
            [
                "train",
                "--train", root / "inner" / "train-060.tsv",
                "--val", root / "inner" / "test-060.tsv",
                "--config", run_cfg,
                "--checkpoint-out", root / "model.ckpt",
                "--log-out", root / "train.log",
            ]
        )
        assert code == 0
        code = run_cli(
            [
                "eval",
                "--checkpoint", root / "model.ckpt",
                "--data", bench,
                "--splits", root / "splits" / "splits.tsv",
                "--report-out", root / "report.txt",
            ]
        )
        assert code == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    artifacts = [
        "bench.tsv",
        "bench.tsv.meta.json",
        "splits/splits.tsv",
        "splits/train-040.tsv",
        "splits/test-099.tsv",
        "inner/splits.tsv",
        "model.ckpt",
        "train.log",
        "report.txt",
    ]
    for name in artifacts:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    sections = read_sections(tmp_path / "a" / "report.txt")
    assert set(sections) == {"per_threshold", "good_curve", "au_good"}
    assert len(sections["per_threshold"]) == 1 + 4
    assert len(sections["good_curve"]) == 1 + 8
    assert [row[0] for row in sections["au_good"][1:]] == ["r2", "mae"]
    report_text = (tmp_path / "a" / "report.txt").read_text(encoding="utf-8")
    assert "# config: lam=0.5" in report_text
    assert "wall" not in report_text


def test_eval_hash_matches_train_hash(tmp_path, capsys):
    """The eval config hash comes from the checkpoint echo, so it must
    reproduce the hash train printed."""
    bench = make_bench(tmp_path)
    run_cfg = write_cfg(tmp_path, "run.cfg", TINY_CFG)
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path / "s"]) == 0
    capsys.readouterr()
    code = run_cli(
        [
            "train",
            "--train", tmp_path / "s" / "train-060.tsv",
            "--val", tmp_path / "s" / "test-060.tsv",
            "--config", run_cfg,
            "--checkpoint-out", tmp_path / "m.ckpt",
        ]
    )
    assert code == 0
    train_hash = capsys.readouterr().out.splitlines()[0]
    code = run_cli(
        [
            "eval",
            "--checkpoint", tmp_path / "m.ckpt",
            "--data", bench,
            "--splits", tmp_path / "s" / "splits.tsv",
            "--report-out", tmp_path / "r.txt",
        ]
    )
    assert code == 0
    eval_hash = capsys.readouterr().out.splitlines()[0]
    assert train_hash.startswith("config-hash: ")
    assert eval_hash == train_hash


def test_eval_perfect_memorization_scores_one(tmp_path):
    """Relabeling a dataset with the checkpoint's own predictions makes
    every per-threshold R2 exactly 1 and MAE exactly 0."""
    bench = make_bench(tmp_path)
    run_cfg = write_cfg(tmp_path, "run.cfg", "epochs=2\n")
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path / "s"]) == 0
    code = run_cli(
        [
            "train",
            "--train", tmp_path / "s" / "train-060.tsv",
            "--val", tmp_path / "s" / "test-060.tsv",
            "--config", run_cfg,
            "--checkpoint-out", tmp_path / "m.ckpt",
        ]
    )
    assert code == 0
    params, _ = read_checkpoint(tmp_path / "m.ckpt")
    records = read_dataset(bench)
    preds = predict(params, records)
    relabeled = [
        dataclasses.replace(r, value=float(p)) for r, p in zip(records, preds)
    ]
    toy = tmp_path / "toy.tsv"
    write_dataset(relabeled, toy)
    ids = [r.id for r in relabeled]
    split_path = tmp_path / "toy-splits.tsv"
    write_split_file(
        split_path,
        [OodSplit(threshold=0.99, train_ids=tuple(ids[:40]), test_ids=tuple(ids[40:]))],
    )
    code = run_cli(
        [
            "eval",
            "--checkpoint", tmp_path / "m.ckpt",
            "--data", toy,
            "--splits", split_path,
            "--report-out", tmp_path / "toy-report.txt",
        ]
    )
    assert code == 0
    sections = read_sections(tmp_path / "toy-report.txt")
    header, row = sections["per_threshold"]
    assert float(row[header.index("r2")]) == 1.0
    # predictions are recomputed on the test subset, so BLAS reduction
    # order can differ from the relabeling pass by an ulp
    assert float(row[header.index("mae")]) < 1e-12


def test_ablate_lambda_reports_five_grid_rows(tmp_path):
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "tiny.cfg", TINY_CFG)
    report = tmp_path / "lam.txt"
    code = run_cli(
        ["ablate-lambda", "--in", bench, "--config", cfg, "--report-out", report]
    )
    assert code == 0
    sections = read_sections(report)
    rows = sections["lambda_sweep"][1:]
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == list(LAMBDA_GRID)
    best_row = sections["selection"][1]
    assert 0 <= int(best_row[0]) < len(LAMBDA_GRID)
    assert float(best_row[1]) == LAMBDA_GRID[int(best_row[0])]


def test_ablate_mask_reports_both_sides(tmp_path):
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "tiny.cfg", TINY_CFG)
    report = tmp_path / "mask.txt"
    code = run_cli(
        ["ablate-mask", "--in", bench, "--config", cfg, "--report-out", report]
    )
    assert code == 0
    rows = read_sections(report)["mask_sweep"][1:]
    assert len(rows) == 2 * len(MASK_GRID)
    for side in ("enzyme", "substrate"):
        ratios = [float(r[1]) for r in rows if r[0] == side]
        assert ratios == list(MASK_GRID)


def test_exit_code_two_for_config_problems(tmp_path, capsys):
    bad_cfg = write_cfg(tmp_path, "bad.cfg", "epochs=banana\n")
    bench = make_bench(tmp_path)
    code = run_cli(
        [
            "train",
            "--train", bench,
            "--val", bench,
            "--config", bad_cfg,
            "--checkpoint-out", tmp_path / "m.ckpt",
        ]
    )
    assert code == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert len(err_lines) == 1
    assert err_lines[0].split("\t")[:3] == ["error", "2", "ConfigError"]
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path, "--thresholds", "0.6,0.6"]) == 2
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path, "--thresholds", "1.5"]) == 2


def test_exit_code_two_for_usage_problems(capsys):
    assert run_cli(["bogus-command"]) == 2
    assert run_cli(["synth"]) == 2  # --out is required
    err = capsys.readouterr().err
    assert all(l.startswith("error\t2\tUsageError\t") for l in err.splitlines() if l)


def test_exit_code_three_for_data_problems(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    code = run_cli(
        [
            "train",
            "--train", missing,
            "--val", missing,
            "--checkpoint-out", tmp_path / "m.ckpt",
        ]
    )
    assert code == 3
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert err_lines[0].split("\t")[:3] == ["error", "3", "DatasetError"]


@pytest.mark.parametrize(
    "damage, named",
    [
        (lambda params: {k: v for k, v in params.items() if k != "w_head"}, "w_head"),
        (lambda params: list(params.values()), "list"),
    ],
    ids=["missing-block", "params-list"],
)
def test_exit_code_three_for_malformed_checkpoint(tmp_path, capsys, damage, named):
    bench = make_bench(tmp_path)
    run_cfg = write_cfg(tmp_path, "run.cfg", "epochs=1\n")
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path / "s"]) == 0
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--train", tmp_path / "s" / "train-060.tsv",
            "--val", tmp_path / "s" / "test-060.tsv", "--config", run_cfg,
            "--checkpoint-out", ckpt]
    assert run_cli(argv) == 0
    data = json.loads(ckpt.read_text(encoding="utf-8"))
    data["params"] = damage(data["params"])
    ckpt.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        ["eval", "--checkpoint", ckpt, "--data", bench,
         "--splits", tmp_path / "s" / "splits.tsv", "--report-out", tmp_path / "r.txt"]
    )
    assert code == 3
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    kind, message = err_lines[0].split("\t")[2:4]
    assert kind == "DatasetError" and named in message


# divergence must surface only as exit code 4, never as a numpy warning first
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_four_for_numeric_failures(tmp_path):
    bench = make_bench(tmp_path)
    hot = write_cfg(tmp_path, "hot.cfg", "learning_rate=8.0\nepochs=80\n")
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path / "s"]) == 0
    code = run_cli(
        [
            "train",
            "--train", tmp_path / "s" / "train-060.tsv",
            "--val", tmp_path / "s" / "test-060.tsv",
            "--config", hot,
            "--checkpoint-out", tmp_path / "m.ckpt",
        ]
    )
    assert code == 4


def test_wall_time_goes_to_stderr_only(tmp_path, capsys):
    make_bench(tmp_path)
    captured = capsys.readouterr()
    assert "wall-time-seconds" in captured.err
    assert "wall-time-seconds" not in captured.out


def test_train_reports_encoding_and_epoch_time_on_stderr(tmp_path, capsys):
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "run.cfg", "epochs=3\n")
    argv = ["train", "--train", bench, "--val", bench, "--config", cfg,
            "--checkpoint-out", tmp_path / "m.ckpt", "--log-out", tmp_path / "train.log"]
    capsys.readouterr()
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("train: ")]
    assert len(lines) == 1
    assert re.fullmatch(
        r"train: encoded (\d+) train \+ \1 val records in [0-9.]+ s; 3 epochs, [0-9.]+ s per epoch",
        lines[0],
    ), lines[0]
    assert "encoded" not in captured.out
    for artifact in ("m.ckpt", "train.log"):
        assert "encoded" not in (tmp_path / artifact).read_text(encoding="utf-8")
    assert run_cli(argv) == 0  # the handler is removed again: still one line
    assert len([l for l in capsys.readouterr().err.splitlines() if l.startswith("train: ")]) == 1


def test_train_reports_stage_times_on_stderr(tmp_path, capsys):
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "run.cfg", "epochs=3\n")
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--train", bench, "--val", bench, "--config", cfg, "--checkpoint-out", ckpt]
    for extra, log_field in ((["--log-out", tmp_path / "train.log"], r"[0-9.]+ s"), ([], "skipped")):
        capsys.readouterr()
        assert run_cli(argv + extra) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("train-stages: ")]
        assert len(lines) == 1
        match = re.fullmatch(
            r"train-stages: read [0-9.]+ s, train [0-9.]+ s, evaluate [0-9.]+ s, "
            rf"checkpoint [0-9.]+ s \((\d+) bytes\), log {log_field}",
            lines[0],
        )
        assert match, lines[0]
        assert int(match.group(1)) == ckpt.stat().st_size
        assert "train-stages" not in captured.out
    for artifact in ("m.ckpt", "train.log"):
        assert "train-stages" not in (tmp_path / artifact).read_text(encoding="utf-8")


def test_split_reports_alignment_work_on_stderr(tmp_path, capsys):
    bench = make_bench(tmp_path)
    seqs = list(dict.fromkeys(r.sequence for r in read_dataset(bench)))
    pairs = len(seqs) * (len(seqs) - 1) // 2
    cells = sum(len(a) * len(b) for k, a in enumerate(seqs) for b in seqs[k + 1 :])
    argv = ["split", "--in", bench, "--out-dir", tmp_path / "splits"]
    capsys.readouterr()
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("align: ")]
    assert len(lines) == 1
    assert re.fullmatch(
        rf"align: numpy backend, {pairs} pairs, {cells} DP cells in [0-9.]+ s", lines[0]
    ), lines[0]
    assert "align: " not in captured.out
    for path in (tmp_path / "splits").iterdir():
        assert "DP cells" not in path.read_text(encoding="utf-8")
    assert run_cli(argv) == 0  # the handler is removed again: still one line
    assert len([l for l in capsys.readouterr().err.splitlines() if l.startswith("align: ")]) == 1
