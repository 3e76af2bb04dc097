"""Golden behaviour contract: CLI reports must stay byte-identical.

Each file under ``tests/golden`` is the complete stdout of one ``zal``
invocation (for ``spectrum``: the CSV followed by the JSON envelope).
A refactor that changes any byte of these reports changes behaviour.
The floating-point reports of the level-11 pipeline (``lvalue``, and
``theoremB`` at Gamma0(11) and Gamma1(11), which compute the L-value
themselves) are held to their own error bounds instead of to their bytes,
and the functional-equation residual quoted in their caveats to the
search tolerance instead of to its digits.
"""

import json
import re
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
    "spectrum_gamma0_p13_T60.txt": ["spectrum", "--group", "gamma0", "--p", "13",
                                    "--max-trace", "60"],
    "spectrum_gamma0_p31_T102.txt": ["spectrum", "--group", "gamma0", "--p", "31",
                                     "--max-trace", "102"],
    "spectrum_gamma1_p31_T35.txt": ["spectrum", "--group", "gamma1", "--p", "31",
                                    "--max-trace", "35"],
    "spectrum_gamma2_T130.txt": ["spectrum", "--group", "gamma2", "--max-trace", "130"],
    "spectrum_full_T1280.txt": ["spectrum", "--group", "full", "--max-trace", "1280"],
    "spectrum_gamma0_p31_T466.txt": ["spectrum", "--group", "gamma0", "--p", "31",
                                     "--max-trace", "466"],
    "theoremB_gamma2.json": ["theoremB", "--group", "gamma2"],
    "theoremB_gamma0_p23.json": ["theoremB", "--group", "gamma0", "--p", "23"],
    "constants_check.json": ["constants", "check"],
    "specfun_check.json": ["specfun", "check"],
    "selberg_s2_T80.json": ["selberg", "--s", "2", "--max-trace", "80"],
    "degenerate_g1_n3_sweep.txt": ["degenerate", "--g", "1", "--n", "3", "--t", "1e-4",
                                   "--sweep"],
}

# Reports with floating-point results computed by the level-11 pipeline.
BOUNDED = {
    "lvalue.json": ["lvalue"],
    "theoremB_gamma0_p11.json": ["theoremB", "--group", "gamma0", "--p", "11"],
    "theoremB_gamma1_p11.json": ["theoremB", "--group", "gamma1", "--p", "11"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


SEARCH_TOL = 1e-6  # sym2_L_value's default tolerance, the one theoremB searches at
RESIDUAL = re.compile(r"functional-equation residual ([^)]+)\)")


def _residuals_out(caveats):
    """The caveats with each functional-equation residual blanked, and those residuals.

    A residual is itself an error estimate; its third digit is rounding.
    """
    residuals = [float(m) for c in caveats for m in RESIDUAL.findall(c)]
    return [RESIDUAL.sub("functional-equation residual ?)", c) for c in caveats], residuals


def _assert_within_error_bounds(name, capsys):
    """Keys and exact fields equal; each float within its recorded error bound."""
    assert main(BOUNDED[name] + ["--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert got.keys() == want.keys()
    for block in want:
        if isinstance(want[block], dict):
            assert got[block].keys() == want[block].keys(), block
    assert got["pass_fail"] == want["pass_fail"]
    got_caveats, residuals = _residuals_out(got["caveats"])
    assert got_caveats == _residuals_out(want["caveats"])[0] and got["inputs"] == want["inputs"]
    # the caveat's residual, like the result below, is held to the search tolerance
    assert all(r < SEARCH_TOL for r in residuals)
    for key, value in want["results"].items():
        bound = want["error_bounds"][key]
        if key == "functional_equation_residual":
            # a residual is itself an error estimate: held to the tolerance
            assert got["results"][key] < got["inputs"]["tol"]
        elif isinstance(bound, float) and bound > 0:
            assert abs(got["results"][key] - value) <= max(bound, got["error_bounds"][key]), key
        else:
            assert got["results"][key] == value, key


def test_lvalue_matches_golden_within_error_bounds(capsys):
    _assert_within_error_bounds("lvalue.json", capsys)


def test_theoremB_gamma0_p11_matches_golden_within_error_bounds(capsys):
    _assert_within_error_bounds("theoremB_gamma0_p11.json", capsys)


def test_theoremB_gamma1_p11_matches_golden_within_error_bounds(capsys):
    _assert_within_error_bounds("theoremB_gamma1_p11.json", capsys)
