"""Smoke test of scripts/bench_parse.py: it counts parses through the
``parse_smiles`` bindings of ``synth`` and ``io``, so renaming either
binding, or a second parse per record in ``synth.generate``, fails
here first."""

import importlib.util
from pathlib import Path

from enzood import io, molgraph, synth
from enzood.synth import SynthConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_parse.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_parse", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_stages_on_the_default_set(tmp_path):
    bench = load_script()
    result = bench.time_stages(tmp_path, repeats=1)
    assert set(result["stage_s"]) == set(bench.STAGES)
    assert all(s > 0.0 for s in result["stage_s"].values())
    assert result["records"] == 300
    # each scaffold twice (SynthConfig's check, then generate), each
    # record once (its EsiRecord), and nothing else
    assert result["parses_per_generate"] == 2 * len(SynthConfig().scaffolds) + 300
    assert (tmp_path / "bench.tsv").stat().st_size > 0
    assert synth.parse_smiles is molgraph.parse_smiles
    assert io.parse_smiles is molgraph.parse_smiles
