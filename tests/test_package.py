import enzood


def test_export_table_resolves_without_duplicates():
    assert len(set(enzood.__all__)) == len(enzood.__all__)
    missing = [name for name in enzood.__all__ if not hasattr(enzood, name)]
    assert missing == []
