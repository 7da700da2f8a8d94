"""Planted faults in the proof replay, and the checks that catch them.

Each plant makes one closed form, or one step of the replay, slightly
wrong, and then runs every suite of `verify all` at seeds 0..9.  A plant is
caught by each check that fails, and by each suite that raises (recorded
with the exception's type).  The suites run one at a time, in the order
`all` chains them, so that a suite that raises hides none after it.

A plant replaces a function under every name that binds it in the
package's modules, and the kernel is planted on `DomainPoint._kernel`, so a
plant reaches every call whichever route a suite takes to it.  The tables
are what the replay catches at its default tolerances: a plant that stops
being caught fails here, and a tighter tolerance shows as a shorter MISSED.
"""

import pytest

from siegeltheta import contour, suites, theta, verifier
from siegeltheta.theta import SUITES

MODULES = (theta, verifier, suites, contour)
SEEDS = range(10)

CIRCLES = {"lemma2_residue_zero_vs_circle", "lemma2_residue_imag_vs_circle",
           "lemma2_residue_real_vs_circle"}
BREAKDOWN, CONTOUR = "lemma2_breakdown_vs_closed_sum", "lemma2_residue_theorem_contour"
LEMMA1, THEOREM = "lemma1_log_series_equivalence", "theorem_log_identity"


def _rebind(monkeypatch, original, replacement):
    # replacement under every name that binds original in the package
    bound = [(module, name) for module in MODULES
             for name, value in vars(module).items() if value is original]
    assert bound
    for module, name in bound:
        monkeypatch.setattr(module, name, replacement)


def _scaled(original, factor):
    def plant(monkeypatch):
        _rebind(monkeypatch, original, lambda *args: original(*args) * factor)
    return plant


def _terms_scaled(factor):
    original = verifier._lambert_side

    def plant(monkeypatch):
        _rebind(monkeypatch, original, lambda *args: [t * factor for t in original(*args)])
    return plant


def _kernel_changed(change):
    # a property outranks the value the cached property left on a point
    cached = vars(verifier.DomainPoint)["_kernel"]

    def planted(p):
        kernel = cached.__get__(p, type(p))
        return lambda zeta: change(*kernel(zeta))

    def plant(monkeypatch):
        monkeypatch.setattr(verifier.DomainPoint, "_kernel", property(planted))
    return plant


def _closed_sum_shifted(shift):
    original = verifier.closed_residue_sum

    def plant(monkeypatch):
        _rebind(monkeypatch, original, lambda p: original(p._replace(n=p.n + shift)))
    return plant


def _edge_target_flipped(edge):
    original = verifier.edge_limit_target

    def plant(monkeypatch):
        _rebind(monkeypatch, original,
                lambda name: -original(name) if name == edge else original(name))
    return plant


PLANTS = {}
for _size in (1e-6, 1e-10):
    _factor = 1.0 + _size
    for _name in ("residue_at_zero", "residue_imag_pole", "residue_real_pole",
                  "_ratio_closed_tail", "_six_sums", "inversion_rhs"):
        PLANTS[f"{_name} x(1+{_size:g})"] = _scaled(getattr(verifier, _name), _factor)
    PLANTS[f"_theta1_plain x(1+{_size:g})"] = _scaled(theta._theta1_plain, _factor)
    PLANTS[f"_lambert_side terms x(1+{_size:g})"] = _terms_scaled(_factor)
    PLANTS[f"kernel x(1+{_size:g})"] = _kernel_changed(
        lambda at, mirrored, f=_factor: (at * f, mirrored * f))
PLANTS["residue_imag_pole x(1+1e-08)"] = _scaled(verifier.residue_imag_pole, 1.0 + 1e-8)
PLANTS["closed sum at n-1"] = _closed_sum_shifted(-1)
PLANTS["closed sum at n+1"] = _closed_sum_shifted(1)
PLANTS["E1 target sign flipped"] = _edge_target_flipped("E1")
PLANTS["mirrored kernel negated"] = _kernel_changed(lambda at, mirrored: (at, -mirrored))

CAUGHT = {
    "residue_at_zero x(1+1e-06)": {BREAKDOWN, "lemma2_residue_zero_vs_circle"},
    "residue_imag_pole x(1+1e-06)": {BREAKDOWN, "lemma2_residue_imag_vs_circle"},
    "residue_real_pole x(1+1e-06)": {BREAKDOWN, "lemma2_residue_real_vs_circle"},
    "_ratio_closed_tail x(1+1e-06)": {LEMMA1, BREAKDOWN, CONTOUR, THEOREM},
    "_six_sums x(1+1e-06)": {LEMMA1, BREAKDOWN, CONTOUR, THEOREM},
    "inversion_rhs x(1+1e-06)": {"eq2_inversion_law"},
    # lemma1's two arrangements sum the same terms
    "_lambert_side terms x(1+1e-06)": {BREAKDOWN, CONTOUR, THEOREM},
    "kernel x(1+1e-06)": CIRCLES | {CONTOUR},
    # only the breakdown: every circle passes at the default 1e-8
    "residue_imag_pole x(1+1e-08)": {BREAKDOWN},
    "_ratio_closed_tail x(1+1e-10)": {LEMMA1},
    "inversion_rhs x(1+1e-10)": {"eq2_inversion_law"},
    "closed sum at n-1": {BREAKDOWN, CONTOUR},
    "closed sum at n+1": {BREAKDOWN, CONTOUR},
    "E1 target sign flipped": {"lemma3_edge_limit"},
    # around 0, lemma2 keeps the pair's first value
    "mirrored kernel negated": {"lemma2_residue_imag_vs_circle",
                                "lemma2_residue_real_vs_circle", CONTOUR},
}

_SMALL = "a 1e-10 error passes every line that reads it, at its default tolerance"
_HOMOGENEOUS = ("the inversion law is homogeneous in theta1, and eq2 forms both of its "
                "sides from the plain product, so a constant factor cancels")
MISSED = {
    "residue_at_zero x(1+1e-10)": _SMALL,
    "residue_imag_pole x(1+1e-10)": _SMALL,
    "residue_real_pole x(1+1e-10)": _SMALL,
    "_six_sums x(1+1e-10)": _SMALL,
    "_lambert_side terms x(1+1e-10)": _SMALL,
    "kernel x(1+1e-10)": _SMALL,
    "_theta1_plain x(1+1e-06)": _HOMOGENEOUS,
    "_theta1_plain x(1+1e-10)": _HOMOGENEOUS,
}

CATCHES_NOTHING = {
    "lemma2_partial_sum_limit": (
        "it compares the closed sum at 25 terms per side with the same closed form "
        "over the point's 20 Lambert terms: a plant moves both sides alike, and the "
        "five extra terms are far below its tolerance"),
}


def _caught(monkeypatch) -> set:
    # lemma1 keeps its last draw's points, with their Lambert terms formed
    monkeypatch.setattr(suites, "_last_draw", (None, ()))
    caught = set()
    for seed in SEEDS:
        for suite in SUITES:
            try:
                caught.update(report.check_name
                              for report in suites.iter_suite(suite, seed=seed)
                              if not report.passed)
            except Exception as error:
                caught.add(f"{suite} raises {type(error).__name__}")
    return caught


def test_every_plant_is_in_one_table():
    assert not set(CAUGHT) & set(MISSED)
    assert set(CAUGHT) | set(MISSED) == set(PLANTS)
    assert all(CAUGHT.values())


def test_unplanted_replay_passes_and_every_check_catches_a_plant(monkeypatch):
    checks = {report.check_name
              for seed in SEEDS for report in suites.iter_suite("all", seed=seed)}
    assert _caught(monkeypatch) == set()
    catching = set().union(*CAUGHT.values())
    assert catching <= checks
    assert checks - catching == set(CATCHES_NOTHING)


@pytest.mark.parametrize("plant", list(PLANTS))
def test_planted_fault_is_caught_where_the_table_says(plant, monkeypatch):
    PLANTS[plant](monkeypatch)
    assert _caught(monkeypatch) == CAUGHT.get(plant, set())
