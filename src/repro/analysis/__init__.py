"""Measurement and experiment harness for the reproduction.

* :mod:`repro.analysis.metrics` — ratios, growth-curve summaries.
* :mod:`repro.analysis.concentration` — the Lemma 4.11/4.15 coupling
  measurements (bad-vertex fraction, estimate deviations).
* :mod:`repro.analysis.experiments` — one ``run_eXX`` function per
  experiment in DESIGN.md's index; benchmarks and EXPERIMENTS.md both
  regenerate from these.
* :mod:`repro.analysis.tables` — plain-text table formatting.
"""

from repro.analysis.metrics import (
    approximation_ratio,
    loglog_slope,
)
from repro.analysis.tables import format_table

__all__ = [
    "approximation_ratio",
    "loglog_slope",
    "format_table",
]
