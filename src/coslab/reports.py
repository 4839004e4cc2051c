"""Structured results for identity suites and CLI runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["IdentityReport", "RunReport", "make_report"]


@dataclass
class IdentityReport:
    """Outcome of one numerical identity check.

    ``passed`` is defined by the error metric the check declared: relative
    error where the expected magnitude exceeds 1, absolute error otherwise.
    Both maxima are always recorded.
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


def make_report(identity: str, params: dict, abs_errs, rel_errs, tolerance: float,
                use_relative: bool = True) -> IdentityReport:
    """Assemble an IdentityReport from per-sample error lists."""
    max_abs = float(max(abs_errs, default=0.0))
    max_rel = float(max(rel_errs, default=0.0))
    governing = max_rel if use_relative else max_abs
    return IdentityReport(
        identity=identity,
        params=params,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tolerance,
        passed=bool(governing <= tolerance),
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
        return sum(1 for r in self.results if _result_passed(r))

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


def _result_passed(r) -> bool:
    if hasattr(r, "passed"):
        return bool(r.passed)
    if isinstance(r, dict):
        if "pass" in r:
            return bool(r["pass"])
        # class verdicts have no pass flag; they never fail a run by themselves
        return True
    return True
