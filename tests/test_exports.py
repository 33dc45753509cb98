"""The package's export list: every name resolves and star-import works."""

import schroeder


def test_every_exported_name_resolves():
    assert len(schroeder.__all__) == len(set(schroeder.__all__))
    missing = [name for name in schroeder.__all__ if not hasattr(schroeder, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from schroeder import *", namespace)
    assert set(schroeder.__all__) <= set(namespace)
