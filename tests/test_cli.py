"""End-to-end checks of the command line interface.

Commands run in-process through cli.main so coverage tools see them and
the suite stays fast; artifacts land in tmp_path."""

import base64
import dataclasses
import filecmp
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from enzood import cli, seqid
from enzood.harness import LAMBDA_GRID, MASK_GRID, read_checkpoint
from enzood.io import read_dataset, write_dataset
from enzood.model import _blocks, predict
from enzood.seqid import ALIGN_CHUNK, OodSplit, read_split_file, write_split_file

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


@pytest.mark.parametrize(
    "command", ["synth", "augment", "train", "ablate-mask", "ablate-lambda"]
)
def test_negative_seed_is_a_config_problem(tmp_path, capsys, command):
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "neg.cfg", "seed=-1\n")
    out = tmp_path / "out"
    argv = {
        "synth": ["--out", out],
        "augment": ["--in", bench, "--out", out],
        "train": ["--train", bench, "--val", bench, "--checkpoint-out", out],
        "ablate-mask": ["--in", bench, "--report-out", out],
        "ablate-lambda": ["--in", bench, "--report-out", out],
    }[command]
    capsys.readouterr()
    assert run_cli([command, "--config", cfg, *argv]) == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert len(err_lines) == 1
    assert err_lines[0].split("\t")[:3] == ["error", "2", "ConfigError"]
    assert "seed must be an integer of at least 0, got -1" in err_lines[0]
    assert not out.exists()


def test_split_rejects_thresholds_sharing_a_file_tag(tmp_path, capsys):
    bench = make_bench(tmp_path)
    out_dir = tmp_path / "splits"
    code = run_cli(["split", "--in", bench, "--out-dir", out_dir, "--thresholds", "0.4,0.401"])
    assert code == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert err_lines[0].split("\t")[:3] == ["error", "2", "ConfigError"]
    assert "0.4 and 0.401" in err_lines[0]
    assert not out_dir.exists()


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


@pytest.fixture(scope="module")
def one_epoch_checkpoint(tmp_path_factory):
    """(bench, splits file, checkpoint) of a one-epoch run on the 0.6
    training half, shared by the checkpoint damage cases."""
    root = tmp_path_factory.mktemp("one-epoch")
    bench = make_bench(root)
    run_cfg = write_cfg(root, "run.cfg", "epochs=1\n")
    assert run_cli(["split", "--in", bench, "--out-dir", root / "s"]) == 0
    ckpt = root / "m.ckpt"
    assert run_cli(["train", "--train", root / "s" / "train-060.tsv",
                    "--val", root / "s" / "test-060.tsv", "--config", run_cfg,
                    "--checkpoint-out", ckpt]) == 0
    return bench, root / "s" / "splits.tsv", ckpt


def test_eval_rejects_a_split_file_repeating_a_test_id(tmp_path, capsys, one_epoch_checkpoint):
    """Scoring a repeated test id twice would skew n_test and every risk."""
    bench, splits, ckpt = one_epoch_checkpoint
    text = splits.read_text(encoding="utf-8")
    test_line = next(line for line in text.splitlines() if "\ttest\t" in line)
    repeated = tmp_path / "splits.tsv"
    repeated.write_text(f"{text}{test_line}\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", ckpt, "--data", bench, "--splits", repeated,
                    "--report-out", tmp_path / "r.txt"])
    assert code == 3
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert err_lines[0].split("\t")[2] == "ValueError"
    assert f"splits.tsv:{len(text.splitlines()) + 1}: malformed split line" in err_lines[0]
    assert not (tmp_path / "r.txt").exists()


def recoded(params, edit):
    """params with theta decoded, edited by ``edit`` and encoded again."""
    theta = np.frombuffer(base64.b64decode(params["theta"]), dtype="<f8")
    return {**params, "theta": base64.b64encode(edit(theta).astype("<f8").tobytes()).decode()}


def nested_lists(params):
    """params in the retired checkpoint form: one nested list per block."""
    theta = np.frombuffer(base64.b64decode(params["theta"]), dtype="<f8")
    return {name: block.tolist() for name, block in _blocks(theta, *params["layers"]).items()}


@pytest.mark.parametrize(
    "damage, named",
    [
        (lambda params: {"layers": params["layers"]}, "theta"),
        (lambda params: {**params, "theta": "!" + params["theta"][1:]}, "theta is not base64"),
        (lambda params: recoded(params, lambda t: t[:-1]), "theta holds"),
        (lambda params: recoded(params, lambda t: np.concatenate([t[:9], [np.nan], t[10:]])),
         "theta: non-finite"),
        (lambda params: {**params, "layers": [48, 16, "64"]}, "layers"),
        (nested_lists, "theta"),
        (lambda params: list(params.values()), "list"),
    ],
    ids=["theta-missing", "theta-not-base64", "theta-one-float-short", "theta-nan", "bad-layers",
         "nested-lists", "params-list"],
)
def test_exit_code_three_for_malformed_checkpoint(
    tmp_path, capsys, one_epoch_checkpoint, damage, named
):
    bench, splits, trained = one_epoch_checkpoint
    data = json.loads(trained.read_text(encoding="utf-8"))
    data["params"] = damage(data["params"])
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        ["eval", "--checkpoint", ckpt, "--data", bench,
         "--splits", splits, "--report-out", tmp_path / "r.txt"]
    )
    assert code == 3
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    kind, message = err_lines[0].split("\t")[2:4]
    assert kind == "DatasetError" and named in message, message
    assert not (tmp_path / "r.txt").exists()


# RunConfig's fields while it still had normalize_cons, in declaration order
OLD_CONFIG_KEYS = ("p_s", "p_g", "substrate_mode", "lam", "normalize_cons", "learning_rate",
                   "epochs", "batch_size", "hidden_enzyme", "hidden_substrate", "embed_dim",
                   "seed")


def old_echo(data):
    """The echo and hash a checkpoint of the same run had before
    normalize_cons was removed."""
    data["config"]["normalize_cons"] = "false"
    text = "".join(f"{key}={data['config'][key]}\n" for key in OLD_CONFIG_KEYS)
    data["config_hash"] = hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data["config"].update(seed="-1"),
        lambda data: data["config"].update(lam="0.25"),
        lambda data: data.pop("config_hash"),
        old_echo,
    ],
    ids=["negative-seed", "edited-lam", "no-hash", "old-echo"],
)
def test_exit_code_three_for_damaged_config_echo(tmp_path, capsys, damage):
    """The echo must rebuild a valid config whose hash is the stored
    one; anything else is a damaged checkpoint, a data problem."""
    bench = make_bench(tmp_path)
    run_cfg = write_cfg(tmp_path, "run.cfg", "epochs=1\n")
    assert run_cli(["split", "--in", bench, "--out-dir", tmp_path / "s"]) == 0
    ckpt = tmp_path / "m.ckpt"
    assert run_cli(["train", "--train", tmp_path / "s" / "train-060.tsv",
                    "--val", tmp_path / "s" / "test-060.tsv", "--config", run_cfg,
                    "--checkpoint-out", ckpt]) == 0
    argv = ["eval", "--checkpoint", ckpt, "--data", bench,
            "--splits", tmp_path / "s" / "splits.tsv", "--report-out", tmp_path / "r.txt"]
    assert run_cli(argv) == 0
    data = json.loads(ckpt.read_text(encoding="utf-8"))
    damage(data)
    ckpt.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(argv) == 3
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error\t")]
    assert err_lines[0].split("\t")[:3] == ["error", "3", "DatasetError"]


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
    """Encoding, per-epoch, step, featurizing and drawing times and the
    blocks drawn (the 3 epochs of this small set fit in one): stderr
    only."""
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
        r"train: encoded (\d+) train \+ \1 val records in [0-9.]+ s; "
        r"3 epochs, [0-9.]+ s per epoch, [0-9.]+ s in steps, "
        r"[0-9.]+ s featurizing augmented rows, [0-9.]+ s drawing and masking in 1 blocks",
        lines[0],
    ), lines[0]
    assert "encoded" not in captured.out and "drawing" not in captured.out
    for artifact in ("m.ckpt", "train.log"):
        text = (tmp_path / artifact).read_text(encoding="utf-8")
        assert "encoded" not in text and "drawing" not in text
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


def test_eval_reports_stage_times_on_stderr(tmp_path, capsys, one_epoch_checkpoint):
    bench, splits, ckpt = one_epoch_checkpoint
    report = tmp_path / "r.txt"
    capsys.readouterr()
    assert run_cli(["eval", "--checkpoint", ckpt, "--data", bench, "--splits", splits,
                    "--report-out", report]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("eval-stages: ")]
    assert len(lines) == 1
    match = re.fullmatch(
        r"eval-stages: checkpoint [0-9.]+ s \((\d+) bytes\), read [0-9.]+ s, "
        r"evaluate [0-9.]+ s, report [0-9.]+ s",
        lines[0],
    )
    assert match, lines[0]
    assert int(match.group(1)) == ckpt.stat().st_size
    assert "eval-stages" not in captured.out
    assert "eval-stages" not in report.read_text(encoding="utf-8")


def test_augment_reports_stage_times_on_stderr(tmp_path, capsys):
    bench = make_bench(tmp_path)
    out = tmp_path / "aug.tsv"
    capsys.readouterr()
    assert run_cli(["augment", "--in", bench, "--out", out]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("augment-stages: ")]
    assert len(lines) == 1
    match = re.fullmatch(
        r"augment-stages: read [0-9.]+ s, augment [0-9.]+ s \((\d+) records\), write [0-9.]+ s",
        lines[0],
    )
    assert match, lines[0]
    assert int(match.group(1)) == len(read_dataset(bench))
    assert "augment-stages" not in captured.out
    assert "augment-stages" not in out.read_text(encoding="utf-8")


# stage names of each command's stage line, in order
STAGES = {
    "synth": ["generate", "write"],
    "augment": ["read", "augment", "write"],
    "train": ["read", "train", "evaluate", "checkpoint", "log"],
    "eval": ["checkpoint", "read", "evaluate", "report"],
    "ablate-mask": ["read", "split", "sweep", "report"],
    "ablate-lambda": ["read", "split", "sweep", "report"],
}


@pytest.mark.parametrize("command", list(STAGES))
def test_one_stage_line_on_stderr_only(tmp_path, capsys, one_epoch_checkpoint, command):
    bench, splits, ckpt = one_epoch_checkpoint
    cfg = write_cfg(tmp_path, "run.cfg", "epochs=2\n")
    out = tmp_path / "out"
    argv = {
        "synth": ["--out", out / "bench.tsv"],
        "augment": ["--in", bench, "--out", out / "aug.tsv", "--config", cfg],
        "train": ["--train", bench, "--val", bench, "--config", cfg,
                  "--checkpoint-out", out / "m.ckpt", "--log-out", out / "train.log"],
        "eval": ["--checkpoint", ckpt, "--data", bench, "--splits", splits,
                 "--report-out", out / "r.txt"],
        "ablate-mask": ["--in", bench, "--config", cfg, "--report-out", out / "r.txt"],
        "ablate-lambda": ["--in", bench, "--config", cfg, "--report-out", out / "r.txt"],
    }[command]
    capsys.readouterr()
    assert run_cli([command, *argv]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if "-stages: " in line]
    assert len(lines) == 1
    prefix = f"{command}-stages: "
    assert lines[0].startswith(prefix), lines[0]
    stages = lines[0][len(prefix):].split(", ")
    assert [stage.split(" ")[0] for stage in stages] == STAGES[command]
    assert all(re.match(r"\w+ [0-9]+\.[0-9]{3} s", stage) for stage in stages), lines[0]
    assert "-stages" not in captured.out
    artifacts = [path for path in out.rglob("*") if path.is_file()]
    assert artifacts
    for path in artifacts:
        assert b"-stages" not in path.read_bytes(), path


@pytest.mark.parametrize("val_slice", [slice(20, 24), slice(20, 21)], ids=["constant", "one"])
def test_train_keeps_a_run_whose_validation_r2_is_undefined(tmp_path, val_slice):
    """Constant validation targets, or a single validation record, leave
    R2 undefined: the log holds NaN and the checkpoint null."""
    records = read_dataset(make_bench(tmp_path))
    write_dataset(records[:20], tmp_path / "train.tsv")
    write_dataset([dataclasses.replace(r, value=1.0) for r in records[val_slice]],
                  tmp_path / "val.tsv")
    cfg = write_cfg(tmp_path, "run.cfg", "epochs=2\nseed=0\n")
    ckpt = tmp_path / "m.ckpt"
    assert run_cli(["train", "--train", tmp_path / "train.tsv", "--val", tmp_path / "val.tsv",
                    "--config", cfg, "--checkpoint-out", ckpt,
                    "--log-out", tmp_path / "train.log"]) == 0

    def no_constants(name):
        raise AssertionError(f"checkpoint holds {name}")

    data = json.loads(ckpt.read_text(encoding="utf-8"), parse_constant=no_constants)
    assert data["val"]["r2"] is None
    assert data["val"]["n"] == val_slice.stop - val_slice.start
    rows = [line.split("\t") for line in (tmp_path / "train.log").read_text().splitlines()
            if line[0].isdigit()]
    assert [row[5] for row in rows] == ["nan", "nan"]
    read_checkpoint(ckpt)


def test_split_reports_alignment_work_on_stderr(tmp_path, capsys):
    bench = make_bench(tmp_path)
    seqs = list(dict.fromkeys(r.sequence for r in read_dataset(bench)))
    pairs = len(seqs) * (len(seqs) - 1) // 2
    cells = sum(len(a) * len(b) for k, a in enumerate(seqs) for b in seqs[k + 1 :])
    # the kernels' balanced chunks of pairs sorted by length: the
    # wavefront pads each pair to the chunk's longest a by longest b, the
    # row kernel runs each pair's rows across the longest b plus column 0
    sizes = sorted((len(a), len(b)) for k, a in enumerate(seqs) for b in seqs[k + 1 :])
    n = -(-len(sizes) // ALIGN_CHUNK)
    computed, kernels = 0, [0, 0]
    for c in (sizes[k * len(sizes) // n : (k + 1) * len(sizes) // n] for k in range(n)):
        rows, cols = max(la for la, _ in c), max(lb for _, lb in c)
        row_cells = sum(la for la, _ in c) * (cols + 1)
        wave_cells = len(c) * rows * cols
        wave = rows * len(c) >= seqid._WAVEFRONT_MIN and wave_cells <= seqid._WAVEFRONT_PAD * row_cells
        computed += wave_cells if wave else row_cells
        kernels[not wave] += 1
    argv = ["split", "--in", bench, "--out-dir", tmp_path / "splits"]
    capsys.readouterr()
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("align: ")]
    assert len(lines) == 1
    assert re.fullmatch(
        rf"align: numpy backend, {pairs} pairs, {cells} DP cells in [0-9.]+ s, "
        rf"{computed} cells computed, {kernels[0]} wavefront and {kernels[1]} row chunks",
        lines[0],
    ), lines[0]
    assert "align: " not in captured.out
    for path in (tmp_path / "splits").iterdir():
        assert "DP cells" not in path.read_text(encoding="utf-8")
    assert run_cli(argv) == 0  # the handler is removed again: still one line
    assert len([l for l in capsys.readouterr().err.splitlines() if l.startswith("align: ")]) == 1


@pytest.mark.parametrize(
    "command, settings, runs",
    [
        # enumeration mode: the six substrate rows reuse the enzyme row at
        # the base p_s, so the twelve rows take one run per enzyme ratio
        ("ablate-mask", "substrate_mode=enumeration\n", len(MASK_GRID)),
        ("ablate-lambda", "", len(LAMBDA_GRID)),
    ],
    ids=["ablate-mask", "ablate-lambda"],
)
def test_ablation_reports_alignment_and_training_work_on_stderr(
    tmp_path, capsys, command, settings, runs
):
    """One align: line for the nested split and one train: line per
    distinct training run, on stderr only."""
    bench = make_bench(tmp_path)
    cfg = write_cfg(tmp_path, "run.cfg", "epochs=2\n" + settings)
    capsys.readouterr()
    assert run_cli([command, "--in", bench, "--config", cfg, "--report-out",
                    tmp_path / "r.txt"]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len([line for line in err if line.startswith("align: ")]) == 1
    assert len([line for line in err if line.startswith("train: ")]) == runs
    assert "align: " not in captured.out and "train: " not in captured.out
    text = (tmp_path / "r.txt").read_text(encoding="utf-8")
    assert "DP cells" not in text and "drawing" not in text
