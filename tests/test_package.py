import types

import hirzebruch


def test_all_lists_the_public_names_and_no_module():
    modules = [
        name
        for name in hirzebruch.__all__
        if isinstance(getattr(hirzebruch, name), types.ModuleType)
    ]
    assert modules == []
    public = {
        name
        for name in dir(hirzebruch)
        if not name.startswith("_")
        and not isinstance(getattr(hirzebruch, name), types.ModuleType)
    }
    assert sorted(hirzebruch.__all__) == sorted(public)
