"""``repro.verify`` — oracles, invariant checkers, and budget auditors.

The verification subsystem makes every backend differentially testable
and every run auditable against the paper's quantitative guarantees:

* :mod:`repro.verify.checkers` — pure per-task validity + oracle-ratio
  checks (MIS maximality, matching validity, cover coverage, fractional
  feasibility, approximation factors vs the exact baselines), behind the
  one task → validator dispatch :func:`check_solution`;
* :mod:`repro.verify.budgets` — :class:`BudgetPolicy` turning the
  paper's ``O(log log n)`` rounds / ``S = n^α`` memory claims into
  concrete audited budgets;
* :mod:`repro.verify.differential` — the registry-wide harness
  cross-checking backends on shared instances;
* :func:`certify_report` — everything above for one finished run,
  serialized into ``RunReport.verification`` (also reachable as
  ``solve(..., verify=True)``).

``python -m repro.verify --tasks all --backends all`` runs the
conformance sweep from the shell (see VERIFICATION.md).
"""

from repro.verify.budgets import BudgetPolicy, audit_budgets, loglog2
from repro.verify.certificate import Certificate, CheckResult
from repro.verify.certify import certify_report
from repro.verify.checkers import check_solution, certify_solution
from repro.verify.differential import (
    DEFAULT_FAMILIES,
    FAMILIES,
    DifferentialFailure,
    DifferentialReport,
    agreement_band,
    differential_sweep,
)

__all__ = [
    "BudgetPolicy",
    "Certificate",
    "CheckResult",
    "DifferentialFailure",
    "DifferentialReport",
    "DEFAULT_FAMILIES",
    "FAMILIES",
    "agreement_band",
    "audit_budgets",
    "certify_report",
    "certify_solution",
    "check_solution",
    "differential_sweep",
    "loglog2",
]
