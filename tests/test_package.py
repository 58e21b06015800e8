import ecglab


def test_all_names_resolve_without_duplicates():
    assert len(set(ecglab.__all__)) == len(ecglab.__all__)
    missing = [name for name in ecglab.__all__ if not hasattr(ecglab, name)]
    assert missing == []
