"""Small helpers shared by the benchmark: metric records, names and the tail rule."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit, better direction and its base."""

    value: float
    unit: str
    better: str
    base: str = ""


def check_name(name):
    """Raise ValueError unless ``name`` is a valid metric name.

    Names are 1 to 64 characters from ``[A-Za-z0-9_.-]`` starting with a
    letter or digit.
    """
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def tail_percentile(samples):
    """Highest tail percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or None when even the 90th
    percentile has fewer than ten samples above it (under 100 samples).
    The value is the nearest-rank percentile.
    """
    values = sorted(samples)
    n = len(values)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(Fraction(str(q)) * n / 100)  # nearest rank, 1-based, exact
        if n - rank >= 10:
            return q, values[rank - 1]
    return None

