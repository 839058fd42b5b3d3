"""Certificate records and report assembly.

Every numeric check in the package produces a :class:`Certificate` that
carries what was measured, what bound was claimed, how tight the worst
sample was, and at which resolutions the measurement was taken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Certificate", "PASS", "FAIL", "INCONCLUSIVE", "NOT_CERTIFIED",
           "summarize", "report_to_json"]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
NOT_CERTIFIED = "not-certified"


@dataclass
class Certificate:
    """Outcome of one quantitative check.

    ``slack`` is the worst margin ``bound - measured`` over all samples;
    a nonnegative slack with verdict ``pass`` means nothing came closer to
    the claimed bound than that.  ``constants`` itemizes the claimed bound,
    ``resolutions`` discloses the discretization the verdict rests on, and
    ``details`` holds witnesses and auxiliary measurements.
    """

    name: str
    claim: str
    verdict: str
    measured: float | None = None
    bound: float | None = None
    slack: float | None = None
    constants: dict[str, Any] = field(default_factory=dict)
    resolutions: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "claim": self.claim,
            "verdict": self.verdict,
            "measured": _jsonable(self.measured),
            "bound": _jsonable(self.bound),
            "slack": _jsonable(self.slack),
            "constants": _jsonable(self.constants),
            "resolutions": _jsonable(self.resolutions),
            "details": _jsonable(self.details),
        }

    def one_line(self) -> str:
        bits = [f"{self.verdict.upper():<13}", self.name]
        if self.measured is not None and self.bound is not None:
            bits.append(f"measured={self.measured:.6g} bound={self.bound:.6g}")
        return "  ".join(bits)


def _jsonable(value):
    """Coerce numpy scalars/arrays and infinities into plain JSON values."""
    import math

    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def summarize(certificates: list[Certificate]) -> dict[str, int]:
    counts = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, NOT_CERTIFIED: 0}
    for cert in certificates:
        counts[cert.verdict] = counts.get(cert.verdict, 0) + 1
    return {
        "total": len(certificates),
        "pass": counts[PASS],
        "fail": counts[FAIL],
        "inconclusive": counts[INCONCLUSIVE],
        "not_certified": counts[NOT_CERTIFIED],
    }


def report_to_json(report: dict) -> str:
    """Serialize a report deterministically (sorted keys, stable floats)."""
    return json.dumps(report, sort_keys=True, indent=2)
