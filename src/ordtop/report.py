"""Named pass/fail results shared by the exact and numeric tiers.

Every failing check must carry a witness so that a red result is
actionable without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One named boolean result with an optional counterexample."""

    name: str
    passed: bool
    witness: object = None
    detail: str = ""
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError(f"failing check {self.name!r} must carry a witness")

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = _plain(self.witness)
        if self.detail:
            out["detail"] = self.detail
        if self.metrics:
            out["metrics"] = _plain(self.metrics)
        return out


@dataclass(frozen=True)
class CheckReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def names(self):
        return tuple(c.name for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def merge_reports(*reports: CheckReport) -> CheckReport:
    return CheckReport(tuple(c for r in reports for c in r.checks))


def _plain(value):
    # JSON-friendly copies; numpy scalars and tuples sneak in otherwise.
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return value.item()
    return value
