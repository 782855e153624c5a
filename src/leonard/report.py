"""Structured pass/fail records for identity verification."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None  # JSON-able description of the failure, or None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


class VerificationReport:
    """An ordered list of named checks; each identity appears exactly once."""

    def __init__(self):
        self.checks: list[Check] = []
        self._names: set[str] = set()

    def add(self, name: str, passed: bool, witness=None) -> None:
        if name in self._names:
            raise ValueError(f"duplicate check name {name!r}")
        self._names.add(name)
        self.checks.append(Check(name, bool(passed), witness if not passed else None))

    def merge(self, other: "VerificationReport") -> None:
        for check in other.checks:
            self.add(check.name, check.passed, check.witness)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks]}

    def __repr__(self):
        bad = self.failures()
        if not bad:
            return f"VerificationReport({len(self.checks)} checks, all pass)"
        names = ", ".join(c.name for c in bad)
        return f"VerificationReport({len(self.checks)} checks, FAILING: {names})"
