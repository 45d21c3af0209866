import dataclasses
from pathlib import Path

import enzood
from enzood.io import RunConfig, parse_config_text, resolved_items

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_table_resolves_without_duplicates():
    assert len(set(enzood.__all__)) == len(enzood.__all__)
    missing = [name for name in enzood.__all__ if not hasattr(enzood, name)]
    assert missing == []


def test_readme_config_block_matches_run_config():
    """The README's key=value block lists every RunConfig field in
    declaration order, each at its default."""
    text = README.read_text(encoding="utf-8")
    after = text.split("Run configuration files are plain `key=value` lines", 1)[1]
    block = after.split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    keys = [line.partition("=")[0] for line in lines]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
    readme = parse_config_text("\n".join(lines), origin="README.md")
    assert resolved_items(readme) == resolved_items(RunConfig())
