"""Calibration probe: a fixed amount of work that does not use fdcalc.

``run.py`` runs this as a fresh process before every job and divides the
job times of a run by the probe's mean time in that run, so that a host
whose speed drifts between runs (on a shared machine, by about a fifth over
a minute or two) does not move ``wall_s``, ``cpu_s`` and ``setup_s``.  The
work resembles a CLI job of the benchmark: interpreter start-up and the
numpy import, exact rational arithmetic, tuple keys sorted into a dict, and
many small allocations.  It must never change, or the scaled figures of
different versions stop being comparable.  Prints a checksum.
"""
from fractions import Fraction
from itertools import permutations

import numpy

x = Fraction(1, 3)
for i in range(1, 3000):
    x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
    if x.denominator > 10**40:
        x = Fraction(x.numerator % 100003, x.denominator % 99991 + 1)
counts: dict = {}
for p in permutations(range(8)):
    key = tuple(sorted(zip(p, p[1:])))
    counts[key] = counts.get(key, 0) + 1
rows = [tuple(range(i % 13)) for i in range(150000)]
rows.sort(key=len)
print(x.numerator % 1000003, len(counts), len(rows[-1]),
      int(numpy.arange(10).sum()))
