"""The outcome type every verification pass returns."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Report:
    """Outcome of a verification pass: ok iff no violations were recorded."""

    name: str
    violations: list[str]
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {"check": self.name, "ok": self.ok, "checked": self.checked,
                "violations": self.violations}

    def __str__(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)})"
        out = f"{self.name}: {status} [{self.checked} checks]"
        for v in self.violations[:10]:
            out += f"\n  - {v}"
        if len(self.violations) > 10:
            out += f"\n  ... {len(self.violations) - 10} more"
        return out
