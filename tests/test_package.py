import cspsop


def test_every_exported_name_resolves():
    assert [name for name in cspsop.__all__ if not hasattr(cspsop, name)] == []
