"""Golden behaviour contract: CLI reports must stay byte-identical.

Each file under ``tests/golden`` is the complete stdout of one ``zal``
invocation (for ``spectrum``: the CSV followed by the JSON envelope).
A refactor that changes any byte of these reports changes behaviour.
The floating-point ``lvalue`` report is held to its own error bounds
instead of to its bytes.
"""

import json
from pathlib import Path

import pytest

from zal.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_full_T60.txt": ["spectrum", "--group", "full", "--max-trace", "60"],
    "spectrum_gamma2_T60.txt": ["spectrum", "--group", "gamma2", "--max-trace", "60"],
    "spectrum_gamma0_p11_T40.txt": ["spectrum", "--group", "gamma0", "--p", "11",
                                    "--max-trace", "40"],
    "spectrum_gamma0_p23_T40.txt": ["spectrum", "--group", "gamma0", "--p", "23",
                                    "--max-trace", "40"],
    "spectrum_gamma1_p11_T25.txt": ["spectrum", "--group", "gamma1", "--p", "11",
                                    "--max-trace", "25"],
    "spectrum_gamma1_p13_T25.txt": ["spectrum", "--group", "gamma1", "--p", "13",
                                    "--max-trace", "25"],
    "theoremB_gamma2.json": ["theoremB", "--group", "gamma2"],
    "theoremB_gamma0_p23.json": ["theoremB", "--group", "gamma0", "--p", "23"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_lvalue_matches_golden_within_error_bounds(capsys):
    assert main(["lvalue", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "lvalue.json").read_text())
    assert got.keys() == want.keys()
    for block in want:
        if isinstance(want[block], dict):
            assert got[block].keys() == want[block].keys(), block
    assert got["pass_fail"] == want["pass_fail"]
    assert got["caveats"] == want["caveats"] and got["inputs"] == want["inputs"]
    for key, value in want["results"].items():
        bound = want["error_bounds"][key]
        if key == "functional_equation_residual":
            # a residual is itself an error estimate: held to the tolerance
            assert got["results"][key] < got["inputs"]["tol"]
        elif isinstance(bound, float) and bound > 0:
            assert abs(got["results"][key] - value) <= max(bound, got["error_bounds"][key]), key
        else:
            assert got["results"][key] == value, key
