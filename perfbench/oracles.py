"""Reference answers the benchmark checks every operation against.

Nothing here imports ``horocount``: an oracle that shared code with the
program could share its bugs.  Stored references live in ``oracles.json``
next to this file and are regenerated by ``make_oracles.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ORACLE_FILE = Path(__file__).with_name("oracles.json")

# Monte Carlo estimates must sit within this many combined standard errors
# of their reference; N=3 MC-vs-grid agreement uses the tighter 3.
SIGMA_REF = 4.0
SIGMA_PAIR = 3.0


def load_stored() -> dict:
    with open(ORACLE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def n2_disk_count(radius: float) -> int:
    """Exact N=2 coset count at height <= R.

    The cosets are the primitive vectors mod +-1 in the disk of squared
    radius e^(sqrt(2) R).
    """
    rsq = math.exp(math.sqrt(2.0) * radius)
    bound = math.isqrt(int(rsq)) + 1
    total = 0
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            if (a or c) and a * a + c * c <= rsq and math.gcd(a, c) == 1:
                total += 1
    return total // 2


def n2_volume(radius: float) -> float:
    """Exact B+ measure for N=2: (sqrt2/2)(e^(sqrt2 R) - 1)."""
    return math.sqrt(2.0) / 2.0 * (math.exp(math.sqrt(2.0) * radius) - 1.0)


def sigma_distance(a: float, a_err: float, b: float, b_err: float) -> float:
    """|a - b| in units of the combined error; inf when the errors are zero."""
    combined = math.hypot(a_err, b_err)
    if combined == 0.0:
        return 0.0 if a == b else math.inf
    return abs(a - b) / combined


def check_count(rows: list[dict], expected: int) -> str | None:
    """Failure reason for a ``count`` CSV, or None when every method agrees."""
    if not rows:
        return "no result rows"
    for row in rows:
        got = int(row["count"])
        if got != expected:
            return f"{row['method']} count {got} != oracle {expected}"
    return None


def check_finite(row: dict) -> str | None:
    est, err = float(row["estimate"]), float(row["error"])
    if not (math.isfinite(est) and math.isfinite(err)):
        return f"estimate {est!r} or error {err!r} is not finite"
    return None


def check_against(row: dict, ref: float, ref_err: float, sigmas: float) -> str | None:
    """Failure reason unless the estimate is finite and within ``sigmas``."""
    reason = check_finite(row)
    if reason:
        return reason
    est, err = float(row["estimate"]), float(row["error"])
    dist = sigma_distance(est, err, ref, ref_err)
    if dist > sigmas:
        return f"estimate {est!r} is {dist:.2f} sigma from reference {ref!r}"
    return None
