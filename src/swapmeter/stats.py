"""USD-weighted means with statistical and systematic uncertainty.

Every estimate is built from exact running sums over its (x_i, w_i)
members: the count n, sum w, sum wx and sum wx^2. The sums are taken in
a local context wide enough that addition, subtraction and
multiplication never round, so a rolling window's sums, the difference
of running totals at its ends, carry no drift. One finaliser turns the
sums into the weighted mean and its weighted standard error,

    xbar = sum wx / sum w
    sigma_stat^2 = sum_i w_i (x_i - xbar)^2 / (n * sum_j w_j)

where sum w(x - xbar)^2 = sum wx^2 - 2 xbar sum wx + xbar^2 sum w is
also taken exactly; only the divisions and the square root round, at the
60-digit policy. A sliding window therefore equals, bit for bit, a fresh
`weighted_mean_with_stat` over the same members, and a rolling series
over N points costs O(N) whatever the window. A mean alone needs only
n, sum w and sum wx, which is all the slope-shifted series carry.

The systematic part comes from re-evaluating the pipeline with the
gas-calibration slope shifted by +/- its standard error, one side at a
time.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Overflow,
    getcontext,
    localcontext,
)
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.errors import InsufficientData, WindowTooLarge, ZeroTotalWeight

ZERO = Decimal(0)

# Statistics sum in this context, wide enough that addition, subtraction
# and multiplication never round; Inexact is trapped so a rounded sum
# cannot pass unnoticed. Each use enters it with localcontext() and leaves
# it before returning, and rounds its divisions and square roots in the
# caller's context, so callers keep the 60-digit policy.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, InvalidOperation, Overflow],
)

@dataclass(frozen=True, slots=True)
class WeightedEstimate:
    """A weighted mean with statistical and asymmetric systematic errors."""

    mean: Decimal
    stat_sigma: Decimal
    sys_upper: Decimal
    sys_lower: Decimal
    n: int
    total_weight: Decimal


# The finalisers run inside the exact context on a member set's sums; the
# caller's context `ctx` rounds their divisions and square root.
def _mean(n: int, sw: Decimal, swx: Decimal, ctx: Context) -> Decimal:
    if n < 2:
        raise InsufficientData(f"weighted mean needs >= 2 points, got {n}")
    if sw == 0:
        raise ZeroTotalWeight("all weights are zero")
    return ctx.divide(swx, sw)


def _finalise(
    n: int, sw: Decimal, swx: Decimal, swxx: Decimal, ctx: Context
) -> tuple[Decimal, Decimal]:
    """(mean, weighted standard error)."""
    mean = _mean(n, sw, swx, ctx)
    spread = swxx - 2 * mean * swx + mean * mean * sw  # sum w(x - mean)^2
    return mean, ctx.sqrt(ctx.divide(spread, n * sw))


def _sliding_means(
    values: Iterable[tuple[Decimal | None, Decimal]], window: int, stride: int, spread: bool,
    ctx: Context,
) -> list:
    """Weighted mean of each run of `window` consecutive (x, w) members, every `stride`-th.

    With `spread`, a window gives (mean, weighted standard error, sum w),
    or None when its weights are all zero; without, its mean alone from
    n, sum w and sum wx, or None with fewer than two valued members or
    zero weight. Members whose x is None keep their place in the window
    but add nothing to it. In one exact context, each member's products
    enter running totals once; a window's sums are the difference of the
    totals at its ends, of which only the last window + 1 are kept.
    """
    n, sw, swx, swxx = 0, ZERO, ZERO, ZERO
    totals = deque([(n, sw, swx, swxx)], maxlen=window + 1)
    out = []
    with localcontext(_EXACT):
        for i, (x, w) in enumerate(values):
            if w < 0:
                raise ValueError("weights must be nonnegative")
            if x is not None:
                wx = w * x
                n, sw, swx = n + 1, sw + w, swx + wx
                if spread:
                    swxx += wx * x
            totals.append((n, sw, swx, swxx))
            start = i + 1 - window
            if start < 0 or start % stride:
                continue
            n0, sw0, swx0, swxx0 = totals[0]
            sums = (n - n0, sw - sw0, swx - swx0)
            try:
                if spread:
                    out.append((*_finalise(*sums, swxx - swxx0, ctx), sums[1]))
                else:
                    out.append(_mean(*sums, ctx))
            except (InsufficientData, ZeroTotalWeight):
                out.append(None)
    return out


def weighted_mean_with_stat(
    values: Iterable[tuple[Decimal, Decimal]],
) -> tuple[Decimal, Decimal]:
    """Weighted mean of (x_i, w_i) pairs and its weighted standard error.

    n counts every supplied point, zero-weight ones included, exactly as
    the formula is written.
    """
    ctx = getcontext()
    n, sw, swx, swxx = 0, ZERO, ZERO, ZERO
    with localcontext(_EXACT):
        for x, w in values:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            wx = w * x
            n, sw, swx, swxx = n + 1, sw + w, swx + wx, swxx + wx * x
        return _finalise(n, sw, swx, swxx, ctx)


def systematic_band(
    reevaluate: Callable[[GasCalibration], Decimal],
    cal: GasCalibration,
    multiplier: Decimal | int = 1,
) -> tuple[Decimal, Decimal]:
    """(sys_upper, sys_lower) from re-running the pipeline at beta1 +/- se.

    `reevaluate` must return the weighted mean computed under the given
    calibration. Differences are folded to nonnegative half-widths with
    sides preserved.
    """
    base = reevaluate(cal)
    upper_cal, lower_cal = perturbed_calibrations(cal, multiplier)
    up = reevaluate(upper_cal) - base
    down = base - reevaluate(lower_cal)
    return abs(up), abs(down)


def _shifted_band(shifted: Decimal | None, mean: Decimal) -> Decimal:
    """|shifted mean - mean|; 0 where the shifted slope gives no mean."""
    return ZERO if shifted is None else abs(shifted - mean)


def rolling_by_size(
    points: Sequence[tuple[Decimal, ...]],
    window: int,
    stride: int = 1,
) -> list[tuple[Decimal, WeightedEstimate]]:
    """Rolling weighted estimates over trades sorted by USD size.

    points are (usd_weight, value) or (usd_weight, value, upper, lower)
    tuples, where upper and lower are the value with the calibration
    slope shifted up and down, or None where that slope excludes the
    point. After a stable ascending sort by weight, every `stride`-th
    window of `window` consecutive points yields its median USD size and
    weighted estimate. Membership is fixed by the nominal values; each
    systematic half-width is |shifted mean - mean| over the members
    valued at that slope, and 0 when fewer than two are or their weights
    sum to zero. A window whose weights are all zero is skipped with a
    warning.
    """
    if window < 2:
        raise InsufficientData("rolling window must be >= 2")
    if window > len(points):
        raise WindowTooLarge(f"window {window} exceeds {len(points)} points")
    ordered = sorted(points, key=itemgetter(0))
    ctx = getcontext()

    def series(k: int) -> list:
        values = ((p[k] if len(p) > k else None, p[0]) for p in ordered)
        return _sliding_means(values, window, stride, k == 1, ctx)

    mid = window // 2
    out = []
    starts = range(0, len(ordered) - window + 1, stride)
    for start, nominal, upper, lower in zip(starts, series(1), series(2), series(3)):
        if window % 2:
            median = ordered[start + mid][0]
        else:
            median = (ordered[start + mid - 1][0] + ordered[start + mid][0]) / 2
        if nominal is None:
            warnings.warn(f"skipping rolling window at median {median}: all weights are zero")
            continue
        mean, sigma, sw = nominal
        estimate = WeightedEstimate(
            mean, sigma, _shifted_band(upper, mean), _shifted_band(lower, mean), window, sw
        )
        out.append((median, estimate))
    return out


def grouped_means(
    members: Iterable[tuple[tuple[Hashable, ...], Decimal, Sequence[Decimal | None]]],
    series: int,
) -> list[dict[Hashable, tuple[Decimal, Decimal | None, int, Decimal]]]:
    """Weighted mean of every group in each of `series` value series, in one pass.

    A member (groups, w, values) belongs to each group in `groups` and is
    valued values[k] in series k, or not at all where that is None. Its
    products are formed once per series and added to the exact sums of
    its cell, the members sharing its `groups`; each cell's sums then add
    to all of its groups. Returns, per series, group -> (mean, weighted
    standard error, n, sum w), groups in order of first valued member.
    Series after the first are read for their means alone: they carry n,
    sum w and sum wx, and their standard error is None. A group with fewer
    than two valued members, or whose weights are all zero, is skipped
    with a warning. `members` is drained inside the exact context, so a
    lazy source must do its own arithmetic in a context it enters itself
    (as `pipeline.analysis_pass` does).
    """
    ctx = getcontext()
    cells: dict[tuple[Hashable, ...], list] = {}  # groups -> sums per series
    valued: list[list[tuple]] = [[] for _ in range(series)]  # (groups, sums) in order
    out = []
    with localcontext(_EXACT):
        for groups, w, values in members:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            cell = cells.get(groups)
            if cell is None:
                cell = cells[groups] = [None] * series
            for k, x in enumerate(values):
                if x is None:
                    continue
                wx = w * x
                s = cell[k]
                if s is None:
                    s = cell[k] = [0, ZERO, ZERO] if k else [0, ZERO, ZERO, ZERO]
                    valued[k].append((groups, s))
                s[0] += 1
                s[1] += w
                s[2] += wx
                if not k:
                    s[3] += wx * x
        for series_cells in valued:
            by_group: dict[Hashable, list] = {}
            for groups, sums in series_cells:
                for group in groups:
                    total = by_group.get(group)
                    by_group[group] = sums if total is None else [
                        a + b for a, b in zip(total, sums)
                    ]
            means = {}
            for group, sums in by_group.items():
                n, sw = sums[0], sums[1]
                if n < 2:
                    warnings.warn(f"skipping group {group}: fewer than 2 weighted trades")
                    continue
                try:
                    if len(sums) == 4:
                        mean, sigma = _finalise(*sums, ctx)
                    else:
                        mean, sigma = _mean(*sums, ctx), None
                except ZeroTotalWeight:
                    warnings.warn(f"skipping group {group}: all weights are zero")
                    continue
                means[group] = (mean, sigma, n, sw)
            out.append(means)
    return out
