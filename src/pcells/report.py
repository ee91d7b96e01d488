"""The outcome type every verification pass returns."""

from __future__ import annotations


class Report:
    """Outcome of a verification pass: ok iff no violations were recorded."""

    def __init__(self, name: str, violations: list[str], checked: int):
        self.name = name
        self.violations = violations
        self.checked = checked

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.violations, self.checked)
                == (other.name, other.violations, other.checked))

    def __repr__(self) -> str:
        return (f"Report(name={self.name!r}, violations={self.violations!r}, "
                f"checked={self.checked!r})")

    @property
    def ok(self) -> bool:
        return not self.violations
