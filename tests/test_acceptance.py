"""One test per acceptance criterion; each prints its own PASS/FAIL line.

Budgets (generous bounds; the whole registry runs in a few seconds):
  narrow corpus < 30 s, hop corpus < 60 s, two-hop corpus < 60 s,
  wide corpus < 120 s.  Every comparison is exact.
"""

import io
import time
from contextlib import redirect_stdout

import pytest

from stripcast import acceptance, cli
from stripcast.acceptance import CRITERIA
from stripcast.model import ContractError

BUDGETS = {
    "narrow-optimality": 30.0,
    "hop-optimality": 60.0,
    "two-hop": 60.0,
    "wide": 120.0,
}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, fn):
    start = time.monotonic()
    ok, detail = fn()
    elapsed = time.monotonic() - start
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail}"
    budget = BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"


def test_typed_failure_is_a_fail_line_and_the_suite_goes_on(monkeypatch):
    def refuses():
        raise ContractError("level overlap bound violated on the right at level 2")

    density = ("density-formula", acceptance.criterion_density_formula)
    monkeypatch.setattr(acceptance, "CRITERIA", [("refuses", refuses), density])
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["bench"])
    lines = out.getvalue().splitlines()
    assert code == 1 and len(lines) == 2
    assert lines[0] == (
        "FAIL  refuses: ContractError: "
        "level overlap bound violated on the right at level 2"
    )
    assert lines[1].startswith("PASS  density-formula: ")
