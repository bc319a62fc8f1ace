"""Acceptance gate: one test per criterion, each printing its PASS/FAIL
line (run pytest with -s to see them inline; the CLI equivalent is
``knotcert selftest``).  Every tolerance is exact equality.
"""

import dataclasses

import pytest

from knotcert import acceptance
from knotcert.acceptance import ALL_CHECKS
from knotcert.constructions import MismatchError, fold_report, tau_report


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_criterion(check):
    result = check()
    print(("PASS" if result.passed else "FAIL") + f" {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_tab_fidelity_reports_a_route_mismatch(monkeypatch):
    def diverge(p):
        raise MismatchError("routes disagree")

    monkeypatch.setattr(acceptance, "gamma_tab_presentation", diverge)
    result = acceptance.check_tab_fidelity()
    assert not result.passed
    assert result.detail == "route mismatch: routes disagree"


def test_tab_fidelity_lets_other_errors_through(monkeypatch):
    def broken(p):
        raise TypeError("a bug, not a mismatch")

    monkeypatch.setattr(acceptance, "gamma_tab_presentation", broken)
    with pytest.raises(TypeError):
        acceptance.check_tab_fidelity()


def test_seam_and_fold_checks_take_the_report_verdicts(monkeypatch):
    # any flag the verdict rule reads, not only the quotient's, fails the check
    tau = dataclasses.replace(tau_report(2), in_commutator=False)
    monkeypatch.setattr(acceptance, "tau_report", lambda p: tau)
    assert not acceptance.check_tau_quotient().passed
    fold = dataclasses.replace(fold_report(2), hits_y=False)
    monkeypatch.setattr(acceptance, "fold_report", lambda p: fold)
    assert not acceptance.check_fold_surjection().passed
