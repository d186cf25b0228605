"""Public names: everything a package exports can be imported, and the
backend server process loads the backend without the engines."""

import subprocess
import sys

import pytest

import pairshot
import pairshot.backend
import pairshot.pet

# Modules the backend server never needs: the engines, the command line,
# the data sources and the client side of the protocol.
NOT_IN_THE_SERVER = {
    "pairshot.harness",
    "pairshot.pet",
    "pairshot.setfit",
    "pairshot.logistic",
    "pairshot.cli",
    "pairshot.synthetic",
    "pairshot.ingestion",
    "pairshot.backend.adapter",
}


def run_fresh(code: str) -> str:
    """What code prints in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("module", [pairshot, pairshot.backend], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_dir_lists_every_exported_name():
    assert set(pairshot.__all__) <= set(dir(pairshot))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pairshot.no_such_name  # noqa: B018


def test_a_lazy_name_is_looked_up_on_every_access(monkeypatch):
    """Nothing is cached in the package, so a wrapper put on a module's
    name (as the benchmark's tracer does) is what the package name gives,
    and taking it off gives the original back."""
    original = pairshot.pet.run_pet
    monkeypatch.setattr(pairshot.pet, "run_pet", "wrapped")
    assert pairshot.run_pet == "wrapped"
    monkeypatch.undo()
    assert pairshot.run_pet is original


def test_finetune_stays_the_function_after_the_engines_load():
    """Importing a module that imports pairshot.finetune must not rebind
    the package's finetune to that module."""
    printed = run_fresh(
        "import pairshot.harness, pairshot, inspect\n"
        "print(inspect.isfunction(pairshot.finetune), pairshot.finetune.__module__)"
    )
    assert printed.split() == ["True", "pairshot.finetune"]


def test_the_backend_server_loads_no_engine_module():
    printed = run_fresh(
        "import sys\nimport pairshot.backend.serve\n"
        "print(*(name for name in sys.modules if name.split('.')[0] == 'pairshot'))"
    )
    loaded = set(printed.split())
    assert "pairshot.backend.serve" in loaded
    assert not {name for name in loaded if name in NOT_IN_THE_SERVER
                or name.startswith("pairshot.ingestion.")}


def test_a_setfit_fit_and_predict_do_not_load_numpy_ma():
    """On numpy 2, np.unique without a return_* flag imports numpy.ma
    (about 1.3 MB and 13 ms); no toy backend path calls it that way."""
    printed = run_fresh(
        "import sys\n"
        "from pairshot.backend.toy import ToyBackend\n"
        "from pairshot.setfit import SetFitConfig, setfit_fit, setfit_predict\n"
        "from pairshot.synthetic import synthetic_pool\n"
        "pool = synthetic_pool('so_duplicate', 24, seed=3)\n"
        "model = setfit_fit(SetFitConfig(), pool, ToyBackend())\n"
        "setfit_predict(model, [ex.pair for ex in pool])\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert printed.split() == ["False"]
