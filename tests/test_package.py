import sqkd3


def test_every_export_resolves():
    missing = [name for name in sqkd3.__all__ if not hasattr(sqkd3, name)]
    assert missing == []
