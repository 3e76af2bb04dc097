"""Acceptance suite: every verification pipeline at its contract tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts both the check outcome and its runtime budget.
"""

import ast
from pathlib import Path

import pytest

import zal
from zal.verify import run_check

BUDGETS = {
    "voros_identity": 1.0,
    "taut_relations": 1.0,
    "small_length_asymptotic": 1.0,
    "graph_spectrum_burger": 5.0,
    "degeneration_consistency": 1.0,
    "length_spectra_bruteforce": 60.0,
    "selberg_euler_product": 30.0,
    "coefficient_cross_oracle": 10.0,
    "hida_rationality": 30.0,
    "exponent_ledger": 60.0,
    "sym2_functional_equation": 10.0,
}


def _report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"{status}  {res.name}  ({res.seconds:.2f}s)  {res.details}")


@pytest.mark.parametrize("name", list(BUDGETS))
def test_acceptance_criterion(name):
    res = run_check(name)
    _report(res)
    assert res.passed, res.details
    assert res.seconds < BUDGETS[name], f"runtime budget exceeded: {res.seconds:.1f}s"


def test_no_assert_guards_in_package():
    """Guards must hold under python -O, which strips assert statements."""
    found = []
    for path in sorted(Path(zal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
