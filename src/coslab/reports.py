"""Structured results for identity suites and CLI runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["IdentityReport", "RunReport", "make_report", "max_errors"]


@dataclass
class IdentityReport:
    """Outcome of one numerical identity check.

    Each entry of a check compares a value with its expected value: its error
    is |value - expected| and its relative error is that error divided by
    max(|expected|, 1).  ``max_abs_err`` and ``max_rel_err`` are the largest
    of each over all entries (NaN if any entry is NaN), and ``passed`` is
    ``max_rel_err <= tolerance``.
    """

    identity: str
    params: dict
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def max_errors(pairs) -> tuple[float, float]:
    """Largest |value - expected| and largest relative error over (value,
    expected) pairs of broadcastable scalars or arrays; NaN anywhere gives NaN."""
    max_abs = max_rel = 0.0
    with np.errstate(invalid="ignore"):     # inf - inf and inf / inf: a NaN that fails
        for value, expected in pairs:
            expected = np.asarray(expected, dtype=float)
            err = np.abs(np.asarray(value, dtype=float) - expected)
            max_abs = err.max(initial=max_abs)
            max_rel = (err / np.maximum(np.abs(expected), 1.0)).max(initial=max_rel)
    return float(max_abs), float(max_rel)


def make_report(identity: str, params: dict, pairs, tolerance: float) -> IdentityReport:
    """Report on (value, expected) pairs: passed iff the largest relative error
    is within ``tolerance``."""
    max_abs, max_rel = max_errors(pairs)
    return IdentityReport(
        identity=identity,
        params=params,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
    )


@dataclass
class RunReport:
    """Aggregate record emitted by the CLI: config echo plus all results."""

    command: str
    config: dict
    results: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def pass_count(self) -> int:
        # class verdicts are dicts without a pass flag; they never fail a run
        return sum(1 for r in self.results if getattr(r, "passed", True))

    @property
    def fail_count(self) -> int:
        return len(self.results) - self.pass_count

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "results": [r.to_dict() if hasattr(r, "to_dict") else r for r in self.results],
            "wall_time": self.wall_time,
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

