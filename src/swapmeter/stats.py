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
n, sum w and sum wx, which is all the slope-shifted series carry. The
plain weighted mean, the group means and the rolling series all add
their members with one kernel (`_add`) and read them with one finaliser
(`_estimate`).

The systematic part comes from re-evaluating the pipeline with the
gas-calibration slope shifted by +/- its standard error, one side at a
time.
"""

from __future__ import annotations

import warnings
from collections import deque
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation
from decimal import Overflow, getcontext, localcontext
from operator import add, itemgetter, sub
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.errors import InsufficientData, ZeroTotalWeight

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

class WeightedEstimate(NamedTuple):
    """A weighted mean with statistical and asymmetric systematic errors."""

    mean: Decimal
    stat_sigma: Decimal
    sys_upper: Decimal
    sys_lower: Decimal
    n: int
    total_weight: Decimal


def _zeros(series: int) -> list:
    """Empty flat sums of `series` value series (see `_add`)."""
    return [0, ZERO, ZERO, ZERO] + [0, ZERO, ZERO] * (series - 1)


def _add(sums: list, w: Decimal, values: Sequence[Decimal | None]) -> None:
    """Add a member of weight w, valued values[k] in series k, to flat sums.

    The sums are n, sum w, sum wx and sum wx^2 of the first series, then
    n, sum w and sum wx of each later one. A None value adds nothing to
    its series. Call in the exact context.
    """
    if w < 0:
        raise ValueError("weights must be nonnegative")
    i = 0  # the series' first slot: 0, 4, 7, ...
    for x in values:
        if x is not None:
            wx = w * x
            sums[i] += 1
            sums[i + 1] += w
            sums[i + 2] += wx
            if not i:
                sums[3] += wx * x
        i += 3 if i else 4


def _estimate(ctx: Context, sums: Sequence) -> tuple | None:
    """(mean, weighted standard error, n, sum w, shifted means...) of flat sums.

    A series with fewer than 2 members or zero total weight has no mean:
    the estimate is None where that is the first series, and a shifted
    mean is None where it is a later one. Call in the exact context; the
    divisions and the square root round in `ctx`.
    """
    means = []
    for i in (0, *range(4, len(sums), 3)):
        n, sw, swx = sums[i : i + 3]
        means.append(ctx.divide(swx, sw) if n >= 2 and sw else None)
    mean = means[0]
    if mean is None:
        return None
    n, sw, swx, swxx = sums[:4]
    spread = swxx - 2 * mean * swx + mean * mean * sw  # sum w(x - mean)^2
    return (mean, ctx.sqrt(ctx.divide(spread, n * sw)), n, sw, *means[1:])


def weighted_mean_with_stat(
    values: Iterable[tuple[Decimal, Decimal]],
) -> tuple[Decimal, Decimal]:
    """Weighted mean of (x_i, w_i) pairs and its weighted standard error.

    n counts every supplied point, zero-weight ones included, exactly as
    the formula is written.
    """
    ctx = getcontext()
    sums = _zeros(1)
    with localcontext(_EXACT):
        for x, w in values:
            _add(sums, w, (x,))
        estimate = _estimate(ctx, sums)
    if estimate is None:
        n = sums[0]
        if n < 2:
            raise InsufficientData(f"weighted mean needs >= 2 points, got {n}")
        raise ZeroTotalWeight("all weights are zero")
    return estimate[0], estimate[1]


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
    upper_cal, lower_cal = perturbed_calibrations(cal, multiplier)
    base = reevaluate(cal)
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
    warning. A window larger than the points is clamped to their count,
    with a warning; fewer than two points give no windows.
    """
    if window < 2:
        raise InsufficientData("rolling window must be >= 2")
    if stride < 1:
        raise InsufficientData("rolling stride must be >= 1")
    if len(points) < 2:
        return []
    if window > len(points):
        warnings.warn(f"rolling window {window} exceeds {len(points)} trades; using {len(points)}")
        window = len(points)
    ordered = sorted(points, key=itemgetter(0))
    ctx = getcontext()
    run = _zeros(3)  # running sums of the values, the upper and the lower values
    totals = deque([tuple(run)], maxlen=window + 1)
    estimates = []  # (start, _estimate of the window)
    with localcontext(_EXACT):
        for i, p in enumerate(ordered):
            _add(run, p[0], p[1:])
            last = tuple(run)
            totals.append(last)
            start = i + 1 - window
            if start >= 0 and not start % stride:
                estimates.append((start, _estimate(ctx, tuple(map(sub, last, totals[0])))))
    # The medians and half-widths round in the caller's context.
    out = []
    for start, estimate in estimates:
        low, high = ordered[start + (window - 1) // 2][0], ordered[start + window // 2][0]
        median = high if window % 2 else (low + high) / 2
        if estimate is None:
            warnings.warn(f"skipping rolling window at median {median}: all weights are zero")
            continue
        mean, sigma, _, sw, upper, lower = estimate
        estimate = WeightedEstimate(
            mean, sigma, half_width(upper, mean), half_width(lower, mean), window, sw
        )
        out.append((median, estimate))
    return out


def grouped_means(
    members: Iterable[tuple[tuple[Hashable, ...], Decimal, Sequence[Decimal | None]]],
) -> dict[Hashable, tuple]:
    """Weighted estimate of every group, over each of its members' value series, in one pass.

    A member (groups, w, values) belongs to each group in `groups` and is
    valued values[k] in series k, or not at all where that is None. It is
    added once to the exact sums of its cell, the members sharing its
    `groups`; each cell's sums then add to all of its groups. Returns
    group -> (mean, weighted standard error, n, sum w, then the mean of
    every later series), groups in order of first member valued in the
    first series. Later series are read for their means alone; a later
    mean is None where fewer than two members are valued in that series
    or their weights sum to zero. A group with no first-series mean by
    that rule is left out, with a warning if any of its members is valued
    there. `members` is drained inside the exact context, so a lazy source
    must do its own arithmetic in a context it enters itself (as
    `pipeline._records` does).
    """
    ctx = getcontext()
    cells: dict[tuple[Hashable, ...], list] = {}  # groups -> sums of the cell
    valued: list[tuple[Hashable, ...]] = []  # cells in order of first first-series value
    with localcontext(_EXACT):
        for groups, w, values in members:
            sums = cells.get(groups)
            if sums is None:
                sums = cells[groups] = _zeros(len(values))
            if not sums[0] and values[0] is not None:
                valued.append(groups)
            _add(sums, w, values)
        by_group: dict[Hashable, list | None] = dict.fromkeys(
            group for groups in valued for group in groups
        )
        for groups, sums in cells.items():
            for group in groups:
                if group in by_group:
                    total = by_group[group]
                    by_group[group] = sums if total is None else list(map(add, total, sums))
        out = {}
        for group, sums in by_group.items():
            estimate = _estimate(ctx, sums)
            if estimate is None:
                why = "fewer than 2 weighted trades" if sums[0] < 2 else "all weights are zero"
                warnings.warn(f"skipping group {group}: {why}")
            else:
                out[group] = estimate
    return out
