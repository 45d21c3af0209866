"""Smoke test of scripts/bench_align.py: its measuring function runs the
kernel in-process, so renaming a kernel function or changing the
``align:`` line fails here first."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_align.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_align", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_matrix_on_a_small_corpus():
    bench = load_script()
    corpora = bench.corpora()
    assert {name: len(seqs) for name, seqs in corpora.items()} == {
        "split": 24, "pipeline": 60, "bench300": 300, "probe": 10, "long": 24, "mixed": 43,
        "varied": 50,
    }
    assert {len(s) for s in corpora["probe"]} == {80}
    assert min(map(len, corpora["varied"])) >= 100 and max(map(len, corpora["varied"])) <= 600
    seqs = corpora["split"][:7]
    result = bench.time_matrix(seqs, min_seconds=0.0)
    assert result["pairs"] == 21
    assert result["calls"] == 1
    assert result["cells"] == sum(len(a) * len(b) for k, a in enumerate(seqs) for b in seqs[k + 1 :])
    assert result["s"] > 0.0 and result["cells_per_s"] == result["cells"] / result["s"]
    # from the align: line: 21 pairs of 48 x 48 residues, too few for
    # the wavefront, run as one row chunk of 48 rows by 49 columns
    assert {len(s) for s in seqs} == {48}
    assert (result["wavefront_chunks"], result["row_chunks"]) == (0, 1)
    assert result["computed_cells"] == 21 * 48 * 49

