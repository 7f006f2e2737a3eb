"""Small statistics helpers shared by the benchmark and its tests.

Percentiles use the program's own nearest-rank definition
(:func:`repro.serve.metrics.percentile`), so host and virtual tails are
computed the same way.
"""

from __future__ import annotations

import math
import resource
from typing import Sequence, Tuple

from repro.serve.metrics import percentile

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _beyond(count: int, percent: float) -> int:
    """Samples strictly above the nearest-rank ``percent`` position."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def tail(ordered: Sequence[float], percent: float) -> Tuple[float, int]:
    """The ``percent`` percentile and the samples beyond it; raises unless
    at least :data:`MIN_BEYOND` samples lie beyond it."""
    beyond = _beyond(len(ordered), percent)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"{len(ordered)} samples leave {beyond} beyond p{percent:g}"
        )
    return percentile(list(ordered), percent / 100.0), beyond


def samples_for(percent: float) -> int:
    """Fewest samples that leave :data:`MIN_BEYOND` beyond ``percent``."""
    count = MIN_BEYOND
    while _beyond(count, percent) < MIN_BEYOND:
        count += 1
    return count


def quarter_ratio(values: Sequence[float], blocks: Sequence[int] = ()) -> float:
    """Last-quarter over first-quarter sum, within each block of ``values``.

    ``blocks`` gives the lengths of consecutive blocks (default: one block
    of everything); the quarters' sums are added over the blocks.  Returns
    0 when the first quarters sum to 0.
    """
    first = last = 0.0
    offset = 0
    for length in blocks or (len(values),):
        block = values[offset:offset + length]
        offset += length
        quarter = len(block) // 4
        if quarter:
            first += sum(block[:quarter])
            last += sum(block[-quarter:])
    return last / first if first else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
