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
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation
from decimal import Overflow, getcontext, localcontext
from operator import itemgetter, sub
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


def _finalise(
    ctx: Context, n: int, sw: Decimal, swx: Decimal, swxx: Decimal | None = None
) -> tuple[Decimal, Decimal | None]:
    """(mean, weighted standard error) of a set's sums; the error is None without sum wx^2."""
    if n < 2:
        raise InsufficientData(f"weighted mean needs >= 2 points, got {n}")
    if sw == 0:
        raise ZeroTotalWeight("all weights are zero")
    mean = ctx.divide(swx, sw)
    if swxx is None:
        return mean, None
    spread = swxx - 2 * mean * swx + mean * mean * sw  # sum w(x - mean)^2
    return mean, ctx.sqrt(ctx.divide(spread, n * sw))


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
        return _finalise(ctx, n, sw, swx, swxx)


def half_width(shifted: Decimal | None, mean: Decimal) -> Decimal:
    """|shifted mean - mean|; 0 where the shifted slope gives no mean."""
    return ZERO if shifted is None else abs(shifted - mean)


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
    return half_width(reevaluate(upper_cal), base), half_width(reevaluate(lower_cal), base)


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
    # Running sums of the values, the upper and the lower values, in one pass.
    run = [[0, ZERO, ZERO, ZERO], [0, ZERO, ZERO], [0, ZERO, ZERO]]
    totals = deque([(*run[0], *run[1], *run[2])], maxlen=window + 1)
    windows = []  # (start, (mean, sigma, sum w) or None, upper mean, lower mean)
    with localcontext(_EXACT):
        for i, p in enumerate(ordered):
            w = p[0]
            if w < 0:
                raise ValueError("weights must be nonnegative")
            for k in range(1, len(p)):
                x = p[k]
                if x is None:
                    continue
                s = run[k - 1]
                wx = w * x
                s[0] += 1
                s[1] += w
                s[2] += wx
                if k == 1:
                    s[3] += wx * x
            last = (*run[0], *run[1], *run[2])
            totals.append(last)
            start = i + 1 - window
            if start < 0 or start % stride:
                continue
            n, sw, swx, swxx, n_up, sw_up, swx_up, n_low, sw_low, swx_low = map(
                sub, last, totals[0]
            )
            try:
                nominal = (*_finalise(ctx, n, sw, swx, swxx), sw)
            except (InsufficientData, ZeroTotalWeight):
                nominal = None
            upper = ctx.divide(swx_up, sw_up) if n_up >= 2 and sw_up else None
            lower = ctx.divide(swx_low, sw_low) if n_low >= 2 and sw_low else None
            windows.append((start, nominal, upper, lower))
    # The medians and half-widths round in the caller's context.
    out = []
    for start, nominal, upper, lower in windows:
        low, high = ordered[start + (window - 1) // 2][0], ordered[start + window // 2][0]
        median = high if window % 2 else (low + high) / 2
        if nominal is None:
            warnings.warn(f"skipping rolling window at median {median}: all weights are zero")
            continue
        mean, sigma, sw = nominal
        estimate = WeightedEstimate(
            mean, sigma, half_width(upper, mean), half_width(lower, mean), window, sw
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
    than two valued members, or whose weights are all zero, is left out of
    that series; it is warned of only in the first, where the caller drops
    it, since a later series' missing mean is read as such (see
    `half_width`). `members` is drained inside the exact context, so a
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
        for k, series_cells in enumerate(valued):
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
                if n < 2 or sw == 0:
                    if not k:
                        why = "fewer than 2 weighted trades" if n < 2 else "all weights are zero"
                        warnings.warn(f"skipping group {group}: {why}")
                    continue
                means[group] = (*_finalise(ctx, *sums), n, sw)
            out.append(means)
    return out
