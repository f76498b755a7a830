"""The package's public names: `quadres.__all__` is derived from its imports and lists no submodule."""

import inspect

import quadres


def test_all_lists_the_public_names_and_no_submodule():
    names = quadres.__all__
    assert names[0] == "__version__" and names[1:] == sorted(names[1:])
    assert len(names) == 33  # __version__ and the 32 names the package exports
    assert {"trace_path", "Board", "billiard_symbol", "is_odd_prime", "zolotarev_perm_sign"} <= set(names)
    assert not any(inspect.ismodule(getattr(quadres, name)) for name in names)
