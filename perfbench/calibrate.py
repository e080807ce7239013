"""Machine-speed calibration.

On a host whose cores are shared with other tenants, their load moves the
speed by tens of percent over minutes. A fixed kernel that never changes (it
uses no toolqa code) is timed around every phase of a cycle, outside the
phases' clocks; each scaled phase time is multiplied by ``REFERENCE_S`` over
the mean of the cycle's kernel times, so two runs compare the program, not
the host's load at the time.

The kernel mixes the work the harness does: JSON encode and decode of a
small table, regular-expression scans, exact fractions, string formatting,
dictionary lookups and SHA-256 of short strings.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import time
from fractions import Fraction

# Kernel time that defines speed index 1.0: figures are reported as if the
# kernel had taken this long.
REFERENCE_S = 0.002
SAMPLES = 7

_NUMERAL = re.compile(r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")
_ROWS = [[f"Row {i}", f"{(i * 7919) % 100_000:,}", f"{i % 97}.{i % 10}"] for i in range(120)]


def kernel() -> int:
    text = json.dumps({"header": ["Name", "Amount", "Rate"], "rows": _ROWS})
    table = json.loads(text)
    total = Fraction(0)
    index = {}
    for name, amount, rate in table["rows"]:
        if _NUMERAL.fullmatch(amount) and _NUMERAL.fullmatch(rate):
            total += Fraction(amount.replace(",", "")) * Fraction(rate)
        index[name.casefold()] = f"{name}: {amount} at {rate}%"
    digest = hashlib.sha256("\n".join(index.values()).encode("utf-8")).hexdigest()
    return len(digest) + total.numerator % 7


def sample() -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
