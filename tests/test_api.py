"""The package's public names."""

import fggsl


def test_star_import_binds_exactly_all_and_every_entry_resolves():
    namespace = {}
    exec("from fggsl import *", namespace)      # an unresolved entry raises here
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(fggsl.__all__))
    assert len(set(fggsl.__all__)) == len(fggsl.__all__)
    for name, value in namespace.items():
        assert value is getattr(fggsl, name)
