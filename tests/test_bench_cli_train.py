"""Smoke test of scripts/bench_cli_train.py: it times the train command
in-process through wrappers around the functions ``cli`` calls, so
renaming one of them fails here first."""

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
    originals = {name: getattr(cli, name) for name in bench.WRAPPED}
    bench.prepare(tmp_path)
    result = bench.time_commands(tmp_path, repeats=1)
    assert set(result["stage_s"]) == set(bench.STAGES)
    assert all(result["stage_s"][stage] > 0.0 for stage in bench.STAGES if stage != "other")
    assert abs(sum(result["stage_s"].values()) - result["commands_s"]) < 1e-9
    for arm in bench.ARMS:
        assert (tmp_path / f"{arm}.ckpt").stat().st_size > 0
        assert (tmp_path / f"{arm}.log").stat().st_size > 0
    assert {name: getattr(cli, name) for name in bench.WRAPPED} == originals
