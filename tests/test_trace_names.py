"""The names that perfbench's verify_all trace wraps exist in the library.

The trace replaces each name of worker._SUITES_NAMES on siegeltheta.suites
and each of worker._VERIFIER_NAMES on siegeltheta.verifier; a name that is
gone shows up in a benchmark run only as "absent", and its metrics read 0.
"""

import pytest

from siegeltheta import suites, verifier

worker = pytest.importorskip("perfbench.worker")


@pytest.mark.parametrize("module, names", [
    (suites, worker._SUITES_NAMES), (verifier, worker._VERIFIER_NAMES)],
    ids=["suites", "verifier"])
def test_every_traced_name_is_bound_in_its_module(module, names):
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert missing == []
