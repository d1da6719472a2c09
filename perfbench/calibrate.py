"""How fast the host runs right now, sampled between operations.

Shared hosts change speed by up to 2x within seconds, as neighbours come and
go; a wall time alone then says as much about the host as about the program.
``SpeedSampler`` times a fixed unit of interpreter work just before and just
after each block it times, never inside it, so the samples behind a block
do not depend on how long the block runs. ``scaled`` is the block's
wall time times REFERENCE_S over the mean of the two gap samples taken just
before and just after it: the time on a host where the unit takes REFERENCE_S, its
time on a 2-core x86-64 host at 2.0 GHz under CPython 3.11 when no neighbour
competes (the 5th percentile of 4000 samples there).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from statistics import median
from time import perf_counter

REFERENCE_S = 62e-6
UNITS_PER_GAP = 9
UNIT_XML = "<u>" + "".join(f'<w id="w{i}" ana="#t{i % 7}">mot{i}</w>' for i in range(40)) + "</u>"
UNIT_LINES = [f"event\tS{i % 4}_verbal\tT{i}\tT{i + 1}\tsome words here {i}" for i in range(60)]


def unit_seconds() -> float:
    """One unit: parse a small XML fragment and split and rejoin tab-separated lines.

    This is the program's own mix of work (expat and element building, string
    handling), so a neighbour slows the unit about as much as the program.
    """
    start = perf_counter()
    ET.fromstring(UNIT_XML)
    "\n".join("\t".join(line.split("\t")) for line in UNIT_LINES)
    return perf_counter() - start


def gap_sample() -> float:
    """Median time of a few units run back to back; one disturbed unit does not move it."""
    return median(unit_seconds() for _ in range(UNITS_PER_GAP))


class SpeedSampler:
    """Context manager timing its block; ``wall`` and ``scaled`` are set on exit."""

    wall = 0.0
    scaled = 0.0

    def __enter__(self) -> "SpeedSampler":
        self._before = gap_sample()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._start
        after = gap_sample()
        self.scaled = self.wall * REFERENCE_S * 2 / (self._before + after)
