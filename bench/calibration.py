"""A fixed piece of reference work that measures how fast this CPU runs
Python at the moment.

On a shared host the same command can run 1.5 to 2 times slower while
other tenants load the core, and such spells last from a fraction of a
second to minutes. The end-to-end runs therefore time this routine right
before and right after every command and scale the command's wall time by
CAL_REF_S over the routine's time, which reads as the wall time on an
unloaded core.

The routine does what frugaleval's commands do (parse CSV rows into small
objects, group them in a dict, sort and do float arithmetic in Python), so
a loaded core slows it by about as much as it slows them. It does not use
frugaleval, so a change to the program never changes the yardstick.
"""

from __future__ import annotations

import csv
import io
import math
import time

ROWS = 20_000
ROUNDS = 4
# the routine's time on an unloaded core of the host the benchmark was
# written on (Python 3.11, 2 vCPUs); only a scale, it cancels in any
# comparison of two commits on one machine
CAL_REF_S = 0.2


class _Row:
    __slots__ = ("id", "year", "category", "citations")

    def __init__(self, ident: str, year: int, category: str, citations: int) -> None:
        self.id = ident
        self.year = year
        self.category = category
        self.citations = citations


def _table() -> str:
    # a fixed table; a linear congruential stream keeps it identical on
    # every Python version
    lines, state = [], 12345
    for i in range(ROWS):
        state = (1103515245 * state + 12345) % 2**31
        lines.append(f"p{i},{2010 + i % 10},cat{i % 20},{(state >> 16) % 1000}")
    return "\n".join(lines)


def _work(text: str) -> tuple[float, str]:
    rows = [_Row(r[0], int(r[1]), r[2], int(r[3])) for r in csv.reader(io.StringIO(text))]
    groups: dict[tuple[str, int], list[int]] = {}
    for row in rows:
        groups.setdefault((row.category, row.year), []).append(row.citations)
    for group in groups.values():
        group.sort()
    total = 0.0
    for row in rows:
        total += math.log1p(row.citations) * len(groups[(row.category, row.year)])
    best = sorted(rows, key=lambda r: (-r.citations, r.id))[:100]
    return total, best[0].id


def calibrate() -> float:
    """Seconds this CPU takes for the reference work now."""
    text = _table()
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _work(text)
    return time.perf_counter() - start
