"""The benchmark tracer finds every platecap name it wraps and puts each
original back afterwards."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("platecap_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    """(owner, attribute) of every name the tracer replaces."""
    mods = {m: importlib.import_module(f"platecap.{m}")
            for m in tracing.LAYERS}
    out = [(mods[mod], attr) for mod, attr, _, _ in tracing.FUNCTIONS]
    out += [(getattr(mods[mod], cls), attr)
            for mod, cls, attr, _, _ in tracing.METHODS]
    out += [(mods[mod], attr) for mod, attr in tracing.CALLABLE_FACTORIES]
    out += [(mods["fem"], "spla"), (mods["layer"], "EliminationSolver")]
    return out


def test_install_wraps_and_uninstall_restores(tracing):
    targets = _targets(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if not hasattr(owner, attr)]
    assert not missing, f"traced names missing from platecap: {missing}"
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(owner, attr) for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    restored = [getattr(owner, attr) for owner, attr in targets]
    assert all(r is o for r, o in zip(restored, originals))
