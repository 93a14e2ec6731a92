"""The package's public names."""

import ehcalloc


def test_every_exported_name_resolves():
    missing = [name for name in ehcalloc.__all__ if not hasattr(ehcalloc, name)]
    assert missing == []
    assert len(set(ehcalloc.__all__)) == len(ehcalloc.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ehcalloc import *", namespace)
    assert set(ehcalloc.__all__) <= set(namespace)
