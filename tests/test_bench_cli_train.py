"""Smoke test of scripts/bench_cli_train.py: it times the train and eval
commands in-process through wrappers around the functions ``cli``
calls, so renaming one of them fails here first.  The train command
scores no set of its own, so its stages are read, train, checkpoint and
log."""

import importlib.util
from pathlib import Path

from enzood import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_cli_train.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_cli_train", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_commands_on_the_pipeline_inputs(tmp_path):
    bench = load_script()
    assert bench.STAGES == ("read", "train", "checkpoint", "log", "other")
    bound = {**bench.WRAPPED, **bench.EVAL_WRAPPED}
    originals = {name: getattr(cli, name) for name in bound}
    bench.prepare(tmp_path)
    result = bench.time_commands(tmp_path, repeats=1)
    for stages, stage_s, commands_s in (
        (bench.STAGES, result["stage_s"], result["commands_s"]),
        (bench.EVAL_STAGES, result["eval_stage_s"], result["eval_commands_s"]),
    ):
        assert set(stage_s) == set(stages)
        assert all(stage_s[stage] > 0.0 for stage in stages if stage != "other")
        assert abs(sum(stage_s.values()) - commands_s) < 1e-9
    assert result["per_call_ms"] == {
        "write_checkpoint": result["stage_s"]["checkpoint"] / 2 * 1e3,
        "read_checkpoint": result["eval_stage_s"]["read_checkpoint"] / 2 * 1e3,
    }
    for arm in bench.ARMS:
        for artifact in (f"{arm}.ckpt", f"{arm}.log", f"{arm}-report.txt"):
            assert (tmp_path / artifact).stat().st_size > 0
    assert {name: getattr(cli, name) for name in bound} == originals
