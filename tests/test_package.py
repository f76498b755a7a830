"""The package's public names: `quadres.__all__` pins them, lists no submodule, and each is read from its submodule.

The package binds none of them itself: `quadres.<name>` is looked up in the
submodule that defines it on every access, so a function patched there is
the one the package hands out.
"""

import importlib
import inspect

import pytest

import quadres


def test_all_lists_the_public_names_and_no_submodule():
    names = quadres.__all__
    assert names[0] == "__version__" and names[1:] == sorted(names[1:])
    assert len(names) == 33  # __version__ and the 32 names the package exports
    assert {"trace_path", "Board", "billiard_symbol", "is_odd_prime", "zolotarev_perm_sign"} <= set(names)
    assert not any(inspect.ismodule(getattr(quadres, name)) for name in names)


def test_each_name_is_its_submodules_binding_and_none_is_stored():
    for name in quadres.__all__[1:]:
        value = getattr(quadres, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    assert not set(quadres.__all__[1:]) & set(vars(quadres))


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="nosuch"):
        quadres.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        from quadres import nosuch  # noqa: F401


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quadres import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(quadres.__all__)
    assert namespace["__version__"] == quadres.__version__


def test_a_function_patched_in_its_submodule_is_what_the_package_returns(monkeypatch):
    from quadres import oracles

    original = oracles.jacobi_symbol

    def patched(a, n):
        return 0

    monkeypatch.setattr(oracles, "jacobi_symbol", patched)
    assert quadres.jacobi_symbol is patched
    monkeypatch.undo()
    assert quadres.jacobi_symbol is original
