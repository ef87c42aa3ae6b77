"""The package's public names."""

import mbamp


def test_every_exported_name_resolves():
    # a name removed from a module must leave __all__ too
    assert [name for name in mbamp.__all__ if not hasattr(mbamp, name)] == []
