"""Golden behaviour contract: CLI reports must stay byte-identical.

Each file under ``tests/golden`` is the complete stdout of one ``zal``
invocation (for ``spectrum``: the CSV followed by the JSON envelope).
A refactor that changes any byte of these reports changes behaviour.
"""

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
