"""Smoke test of scripts/bench_train_step.py: its PhaseTracer skips any
traced name the tree lacks, so a renamed function would move its time
into ``other`` without failing anything; it fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from enzood import harness, io, model, synth

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_train_step.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_train_step", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every traced name is defined in this tree, but for those kept
    to time older trees, which this tree must not define."""
    bench = load_script()
    for qualname in (*bench.CATEGORY, *bench.STEP_START):
        module_name, attr = qualname.rsplit(".", 1)
        module = importlib.import_module(f"enzood.{module_name}")
        found = getattr(module, attr, None)
        assert (found is None) if qualname in bench.OLDER_TREES else callable(found), qualname


def test_traced_train_on_split_phases():
    bench = load_script()
    records, _ = synth.generate(synth.SynthConfig(family_count=4, members_per_family=6))
    split = harness.nested_identity_split(records, 0.6, 0.3, 0.3, seed=0)
    cfg = io.RunConfig(lam=0.5, epochs=2)
    original = model.train
    tracer = bench.PhaseTracer()
    with tracer.installed():
        harness.train_on_split(records, split, cfg)
    assert model.train is original
    result = tracer.result()
    phases = result["phase_s"]
    assert list(phases) == list(bench.PHASES)
    assert sum(phases.values()) == pytest.approx(result["train_s"], rel=1e-9)
    assert phases["draw"] > 0.0 and phases["featurize"] > 0.0
    assert phases["forward"] > 0.0 and phases["backward"] > 0.0
    assert phases["other"] >= 0.0
    # one draw per block of epochs, covering every step of the block
    residues = sum(len(r.sequence) for r in harness.select_records(records, split.train_ids))
    per_block = max(1, model._BLOCK_RESIDUES // residues)
    blocks = -(-cfg.epochs // per_block)
    assert result["calls"]["model._draw_block"] == blocks
    assert result["calls"]["augment.draw_masks"] == blocks
    # one stacked forward pass per step, and one per epoch to validate
    steps = cfg.epochs * -(-len(split.train_ids) // cfg.batch_size)
    assert result["calls"]["model.gradients"] == steps
    assert result["calls"]["model._forward_arrays"] == steps + cfg.epochs
    # the featurize time is the kernel's: one augmented featurization per epoch
    assert result["calls"]["model._enzyme_rows"] == cfg.epochs
    assert result["calls"]["model._substrate_rows"] == cfg.epochs
