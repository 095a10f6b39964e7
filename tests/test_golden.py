"""Byte-for-byte pins of the CLI's JSON output.

Each file under tests/golden/ is the exact stdout of one command.  A change
to the JSON layer must leave these bytes alone unless it means to change
the schema; regenerate a file with

    PYTHONPATH=src python -m qhlip.cli <argv...> > tests/golden/<name>.json
"""

from pathlib import Path

import pytest

from qhlip.cli import main

from helpers import inexact_paths, strict_json

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    # the pure X-power certificate
    ("cxd_x4", 0, ["classify2", "X^4", "2*X^4", "--beta", "2/1"]),
    # NotEquivalent: necessity conditions and multiplicity symbols
    (
        "hp_not_equivalent",
        1,
        ["classify2", "X^6-3*X^4*Y+Y^3", "X^6-12*X^4*Y+Y^3", "--beta", "2/1"],
    ),
    # necessity condition (b) at its boundary: two zeros per height of G, and
    # nothing else makes the verdict NotEquivalent
    (
        "necessity_b_at_two_zeros",
        1,
        ["classify2", "-X^7 - 2*X^4*Y - 2*X*Y^2", "-2*X^7 - 2*X^4*Y + X*Y^2", "--beta", "3/1"],
    ),
    # necessity condition (a) at its boundary: one zero per height of G, X does
    # not divide F, and nothing else makes the verdict NotEquivalent
    (
        "necessity_a_at_one_zero",
        1,
        ["classify2", "2*X^4 + 3*X^2*Y + 3*Y^2", "2*X^4 - X^2*Y", "--beta", "2/1"],
    ),
    # condition (a) blocked only by X dividing the other side: F's heights have
    # 1 and 3 zeros, but X^3 divides G, so no condition applies
    (
        "necessity_a_blocked_by_x_power",
        2,
        ["classify2", "-3*X^3*Y^2 - Y^4", "2*X^6 + X^3*Y^2", "--beta", "3/2"],
    ),
    # a SuffA certificate whose maps are branch maps
    (
        "suffa_branch",
        0,
        ["classify2", "X^4-3*X^2*Y+Y^2", "16*X^4-12*X^2*Y+Y^2", "--beta", "2/1"],
    ),
    # a 1-D verdict with an explicit pairing
    ("classify1_decreasing", 0, ["classify1", "t^3 - 3*t", "-t^3 + 3*t"]),
    # witness reports: every residual, ratio and asymptotic estimate to the bit
    ("witness_hp", 0, ["witness", "X^6+3*X^4*Y+Y^3", "X^6+6*X^4*Y+Y^3", "--beta", "2/1"]),
    (
        "witness_hp_narrow",
        0,
        ["witness", "X^6+3*X^4*Y+Y^3", "X^6+6*X^4*Y+Y^3", "--beta", "2/1", "--delta", "1e-3", "--samples", "4000"],
    ),
    # branches with critical points, so bounded brackets
    ("witness_suffa_branch", 0, ["witness", "X^4-3*X^2*Y+Y^2", "16*X^4-12*X^2*Y+Y^2", "--beta", "2/1"]),
    # the three Unknown reasons, each with its fixed detail string
    ("unknown_mixed_cxd", 2, ["classify2", "X^4", "X^4+Y^2", "--beta", "2/1"]),
    (
        "unknown_necessity_unavailable",
        2,
        ["classify2", "X^6 - 2*X^4*Y + 2*X^2*Y^2", "-2*X^4*Y + X^2*Y^2 - 2*Y^3", "--beta", "2/1"],
    ),
    (
        "unknown_sufficiency_gap",
        2,
        ["classify2", "-2*X^7*Y^2 + X^4*Y^4 + 3*X*Y^6", "3*X^7*Y^2 + 3*X^4*Y^4 - 3*X*Y^6", "--beta", "3/2"],
    ),
    # a scan with a repeated value and classes that are not contiguous
    ("scan_hp", 0, ["scan", "X^6-3*l*X^4*Y+Y^3", "--param", "l", "--values=1,1,-1,-2,2,-1/2", "--beta", "2/1"]),
    ("infer_beta", 0, ["infer-beta", "X^6+Y^3+X^2*Y^2"]),
]


@pytest.mark.parametrize("name,exit_code,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(capsys, name, exit_code, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    strict_json(out)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_floats_are_approx_fields(path):
    # every exact number prints its double under "approx"; any other float
    # outside witness's report would be a tolerance in a certificate
    assert inexact_paths(strict_json(path.read_text())) == []
