"""Shared report record types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConditionEntry:
    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition residual norms and verdicts; overall is the conjunction."""

    entries: tuple[ConditionEntry, ...] = ()

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> ConditionEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "name": e.name,
                    "residual": e.residual,
                    "threshold": e.threshold,
                    "pass": e.passed,
                }
                for e in self.entries
            ],
            "overall": self.overall,
        }
