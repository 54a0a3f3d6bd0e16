"""Machine-speed probe, for timings that do not drift with the machine.

On a shared machine the same work takes different wall time from minute to
minute: on the 2-core Xeon VM this benchmark was built on, one fixed chunk
of padicgl work took between 0.85 s and 1.58 s within 100 s, and the speed
stayed high or low for tens of seconds at a time.  So the benchmark times a
fixed pure-Python probe, which uses no padicgl code, next to the work it
measures, and scales each timing by REFERENCE_PROBE_S / probe time: the
reported figures are the times the work would take at the reference speed.
A change to padicgl moves them; a change of machine speed mostly does not.
The record line keeps the unscaled figures too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# Median probe time on the reference machine (2-core Intel Xeon VM,
# Python 3.11.7).
REFERENCE_PROBE_S = 0.0023
REPEATS = 3


@dataclass(frozen=True)
class _Pair:
    a: Fraction
    b: Fraction


def _work() -> int:
    """Fraction arithmetic with frozen dataclasses and dict updates, then
    polynomial products of small ints reduced mod 3^6, the two kinds of
    work padicgl spends its time in; the same cost on every call."""
    seen = {}
    for i in range(1, 150):
        x = _Pair(Fraction(i % 7 + 1, i % 11 + 1), Fraction(i % 5, i % 3 + 1))
        y = _Pair(x.a * x.b + Fraction(1, i % 4 + 1), x.a - x.b)
        key = (y.a.numerator % 17, y.b.denominator)
        seen[key] = seen.get(key, 0) + 1
    modulus = 3 ** 6
    a = tuple(range(1, 7))
    for i in range(60):
        prod = [0] * 11
        for j, aj in enumerate(a):
            for k, ak in enumerate(a):
                prod[j + k] = (prod[j + k] + aj * ak * (i + 1)) % modulus
        a = tuple(prod[:6])
    return len(seen) + sum(a)


def probe() -> float:
    """Seconds for one run of the probe work: the fastest of a few, so that
    a preemption during one of them does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale for work timed between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)
