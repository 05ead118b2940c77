"""Order statistics the wire benchmark reports."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["TAIL_BEYOND", "Tail", "median", "tail"]

#: A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Samples per block: the tail is taken in each block of about this many
#: consecutive samples, and the median over the blocks is reported.
TAIL_BLOCK = 500


@dataclass(frozen=True)
class Tail:
    """A tail latency: its value, percentile, sample count and block count."""

    value: float
    percentile: float
    count: int
    blocks: int


def median(values: list[float]) -> float:
    """The median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def _block_tail(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def tail(values: list[float]) -> Tail:
    """The median over blocks of each block's highest well-sampled percentile.

    *values* (in the order they were measured) are cut into
    ``len // TAIL_BLOCK`` blocks of near-equal size (one block when there
    are fewer).  In a block of ``m`` samples the tail is the
    ``TAIL_BEYOND + 1``-th largest, the ``100 * (m - TAIL_BEYOND) / m``
    percentile.  Reporting the median over blocks keeps one stall of
    the machine, rather than of the program, from setting the number.
    With too few samples for a tail it falls back to the median.
    """
    count = len(values)
    if count <= 2 * TAIL_BEYOND:
        return Tail(median(values), 50.0, count, 1)
    blocks = max(1, count // TAIL_BLOCK)
    size = count / blocks
    chunks = [values[round(i * size):round((i + 1) * size)] for i in range(blocks)]
    return Tail(
        median([_block_tail(chunk) for chunk in chunks]),
        100.0 * (size - TAIL_BEYOND) / size,
        count,
        blocks,
    )
