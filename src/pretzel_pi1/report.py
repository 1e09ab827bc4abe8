"""What both proof checkers share: Report, and exact JSON readers (a bool is no int)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class PresentationError(ValueError):
    """Malformed input to either checker: a presentation, trace or certificate field."""


@dataclass(frozen=True)
class Check:
    """One named check of a Report; a failing check says why."""
    name: str
    ok: bool
    reason: str = ""
    index: Optional[int] = None  # the move or step the check is located at

    def __str__(self) -> str:
        return self.name + (f": {self.reason}" if self.reason else "")


@dataclass
class Report:
    """What every checker returns: its checks in order and one verdict."""
    label: str
    checks: list[Check] = field(default_factory=list)
    detail: str = ""  # the failure in one line, from checkers that summarize it

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, name: str, ok: bool, reason: str = "", index: Optional[int] = None,
            detail: str = "") -> bool:
        """Record a check.  Only when it fails is its reason kept and, if
        given, detail joined to the report's detail with "; "."""
        self.checks.append(Check(name, ok, "" if ok else reason, index))
        if not ok and detail:
            self.detail = f"{self.detail}; {detail}" if self.detail else detail
        return ok

    def first_failure(self) -> Optional[Check]:
        return next((check for check in self.checks if not check.ok), None)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines += [f"  {'ok  ' if check.ok else 'FAIL'} {check}" for check in self.checks]
        lines.append(("PASS" if self.ok else "FAIL")
                     + (f" -- {self.detail}" if self.detail else ""))
        return "\n".join(lines)


def _json_type(kind: type, noun: str):
    """A decoder that passes a JSON value of type kind only: a bool is no int."""
    def decode(value):
        if type(value) is not kind:
            raise TypeError(f"expected {noun}, got {value!r}")
        return value
    return decode


_text, _list, _int, _bool = (_json_type(str, "a string"), _json_type(list, "a list"),
                             _json_type(int, "an integer"), _json_type(bool, "a boolean"))


def _decoded(where: str, decode, *args):
    try:
        return decode(*args)
    except KeyError as exc:
        raise PresentationError(f"{where} has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PresentationError(f"{where}: {exc}") from exc


def _exactly(value, expected) -> bool:
    """value == expected with every JSON type exact: true is no 1, and 2.0 no 2."""
    if type(value) is not type(expected):
        return False
    if isinstance(expected, dict):
        return value.keys() == expected.keys() and all(
            _exactly(value[key], item) for key, item in expected.items())
    if isinstance(expected, list):
        return len(value) == len(expected) and all(map(_exactly, value, expected))
    return value == expected
