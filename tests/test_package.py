import dataclasses
from pathlib import Path

import enzood
from enzood.io import RunConfig, parse_config_text, resolved_items
from enzood.synth import SynthConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_table_resolves_without_duplicates():
    assert len(set(enzood.__all__)) == len(enzood.__all__)
    missing = [name for name in enzood.__all__ if not hasattr(enzood, name)]
    assert missing == []


def check_readme_block(lead, kind):
    """The README's key=value block after ``lead`` lists every field of
    ``kind`` in declaration order, each at its default, and parses as
    written, comments included."""
    text = README.read_text(encoding="utf-8")
    block = text.split(lead, 1)[1].split("```\n", 2)[1]
    keys = [line.partition("=")[0] for line in block.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(kind)]
    readme = parse_config_text(block, origin="README.md", kind=kind)
    assert resolved_items(readme) == resolved_items(kind())


def test_readme_config_block_matches_run_config():
    check_readme_block("Run configuration files are plain `key=value` lines", RunConfig)


def test_readme_synth_block_matches_synth_config():
    check_readme_block("reads synthesis configuration files", SynthConfig)
