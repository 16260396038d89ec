"""The benchmark's tracer patches permemc functions by name; a rename in the
library must show here, not only when the benchmark is run with tracing."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _permemc_bindings():
    from permemc.core import Family

    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "permemc" or name.startswith("permemc.")):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("Family", attr): value for attr, value in vars(Family).items()})
    return out


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import permemc.cli  # noqa: F401  (the tracer binds every module the CLI reaches)
    import tracer

    before = _permemc_bindings()
    t = tracer.Tracer()
    try:
        t.install()  # raises AttributeError if a patched name is gone
        hooks = [(f"permemc.{layer}", name) for layer, names in tracer.LAYER_FUNCTIONS.items() for name in names]
        hooks += [(f"permemc.{layer}", name) for layer, name in tracer.COUNT_ONLY]
        hooks += [("Family", method) for method, _ in tracer.FAMILY_METHODS]
        during = _permemc_bindings()
        for module, attr in hooks:
            assert during[module, attr] is not before[module, attr], (module, attr)
    finally:
        t.uninstall()
    after = _permemc_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
