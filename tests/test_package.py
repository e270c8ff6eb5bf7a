import types

import benctrl


def test_all_lists_every_public_name_once():
    names = benctrl.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(benctrl, name) for name in names)
    public = {name for name, value in vars(benctrl).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(names)
    modules = {name for name in names
               if isinstance(getattr(benctrl, name), types.ModuleType)}
    assert modules == {"errors", "moment_control", "operators", "spectral",
                       "spectrum", "stabilization"}
