import types

import nekrasov as nk


def test_every_exported_name_resolves():
    missing = [name for name in nk.__all__ if not hasattr(nk, name)]
    assert not missing


def test_no_name_is_exported_twice():
    assert len(nk.__all__) == len(set(nk.__all__))


def test_every_public_binding_is_exported():
    # the names nekrasov/__init__.py binds, less the submodules
    public = {name for name, value in vars(nk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(nk.__all__), sorted(public - set(nk.__all__))
