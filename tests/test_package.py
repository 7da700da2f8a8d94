"""The package namespace: names resolve lazily from their submodules."""

import importlib
import re
from pathlib import Path

import pytest

import siegeltheta


def test_every_exported_name_is_its_defining_modules_object():
    for name in siegeltheta.__all__:
        module = importlib.import_module(f"siegeltheta.{siegeltheta._EXPORTS[name]}")
        assert getattr(siegeltheta, name) is getattr(module, name), name
        assert vars(siegeltheta)[name] is getattr(module, name), name  # cached


def test_every_exported_name_appears_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for name in siegeltheta.__all__
               if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'siegeltheta' has no attribute 'no_such_name'"):
        siegeltheta.no_such_name
    assert not hasattr(siegeltheta, "no_such_name")


@pytest.mark.parametrize(
    "module, name",
    [("verifier", "edge_endpoints"), ("theta", "require_tau"), ("suites", "VerificationReport")],
)
def test_trimmed_names_stay_in_their_submodules(module, name):
    assert name not in siegeltheta.__all__
    assert not hasattr(siegeltheta, name)
    assert hasattr(importlib.import_module(f"siegeltheta.{module}"), name)


def test_dir_covers_all():
    assert set(siegeltheta.__all__) <= set(dir(siegeltheta))
    assert "__version__" in dir(siegeltheta)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from siegeltheta import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(siegeltheta.__all__)


def test_submodules_import_through_the_package():
    from siegeltheta import suites, verifier

    assert suites.residue_kernel is verifier.residue_kernel


def test_monkeypatch_round_trip_restores_the_original(monkeypatch):
    original = importlib.import_module("siegeltheta.theta").theta2
    # patch a name that was never looked up, as a fresh process would
    monkeypatch.delitem(vars(siegeltheta), "theta2", raising=False)

    def patched(z, tau):
        return 0j

    with monkeypatch.context() as inner:
        inner.setattr(siegeltheta, "theta2", patched)
        assert siegeltheta.theta2 is patched
    assert siegeltheta.theta2 is original
