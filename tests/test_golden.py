"""Byte-for-byte regression gate on the CLI's verify and sweep output.

The files under tests/golden/ were written by the CLI before the product,
Lambert-term and suite-runner code was consolidated; any refactor of those
paths must reproduce them exactly.
"""

from pathlib import Path

import pytest

from siegeltheta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all_seed42.jsonl": ["verify", "all", "--seed", "42"],
    "verify_all_seed7_count40.jsonl": ["verify", "all", "--seed", "7", "--count", "40"],
}
for _target in ("edge_limit", "reduction_gain", "lambert_tail"):
    for _fmt in ("csv", "json"):
        CASES[f"sweep_{_target}.{_fmt}"] = ["sweep", _target, "--format", _fmt]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
