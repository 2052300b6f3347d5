import mobsynth


def test_every_exported_name_resolves():
    missing = [name for name in mobsynth.__all__ if not hasattr(mobsynth, name)]
    assert missing == []
