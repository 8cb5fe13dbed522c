"""USD-weighted means with statistical and systematic uncertainty.

Every estimate is built from exact running sums over its (x_i, w_i)
members: the count n, sum w, sum wx and sum wx^2. The sums are taken in
a local context wide enough that addition, subtraction and
multiplication never round, so a member can enter or leave a rolling
window without drift. One finaliser turns the sums into the weighted
mean and its weighted standard error,

    xbar = sum wx / sum w
    sigma_stat^2 = sum_i w_i (x_i - xbar)^2 / (n * sum_j w_j)

where sum w(x - xbar)^2 = sum wx^2 - 2 xbar sum wx + xbar^2 sum w is
also taken exactly; only the divisions and the square root round, at the
60-digit policy. A sliding window therefore equals, bit for bit, a fresh
`weighted_mean_with_stat` over the same members, and a rolling series
over N points costs O(N) whatever the window.

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
    localcontext,
)
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.errors import InsufficientData, WindowTooLarge, ZeroTotalWeight

ZERO = Decimal(0)

# Statistics sum in this context, wide enough that addition, subtraction
# and multiplication never round; Inexact is trapped so a rounded sum
# cannot pass unnoticed. Each use enters it with localcontext() and leaves
# it before returning or yielding, so callers keep the 60-digit policy.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, InvalidOperation, Overflow],
)

# (n, sum w, sum wx, sum wx^2)
Sums = tuple[int, Decimal, Decimal, Decimal]


@dataclass(frozen=True, slots=True)
class WeightedEstimate:
    """A weighted mean with statistical and asymmetric systematic errors."""

    mean: Decimal
    stat_sigma: Decimal
    sys_upper: Decimal
    sys_lower: Decimal
    n: int
    total_weight: Decimal


def _sums(values: Iterable[tuple[Decimal, Decimal]]) -> Sums:
    """Exact sums of (x, w) members."""
    n, sw, swx, swxx = 0, ZERO, ZERO, ZERO
    with localcontext(_EXACT):
        for x, w in values:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            wx = w * x
            n, sw, swx, swxx = n + 1, sw + w, swx + wx, swxx + wx * x
    return n, sw, swx, swxx


_NO_MEMBERS = _sums(())


def _sliding_sums(
    values: Iterable[tuple[Decimal | None, Decimal]], window: int, stride: int
) -> Iterator[Sums]:
    """Sums of each run of `window` consecutive (x, w) members, every `stride`-th.

    Members whose x is None keep their place in the window but add
    nothing to its sums. Each step adds one member and removes one, so
    the whole series costs O(len(values)).
    """
    total = _NO_MEMBERS
    members: deque[Sums] = deque()
    for i, (x, w) in enumerate(values):
        entering = _NO_MEMBERS if x is None else _sums(((x, w),))
        members.append(entering)
        leaving = members.popleft() if len(members) > window else _NO_MEMBERS
        with localcontext(_EXACT):
            total = tuple(t + a - b for t, a, b in zip(total, entering, leaving))
        start = i + 1 - window
        if start >= 0 and start % stride == 0:
            yield total


def _mean(n: int, sw: Decimal, swx: Decimal) -> Decimal:
    if n < 2:
        raise InsufficientData(f"weighted mean needs >= 2 points, got {n}")
    if sw == 0:
        raise ZeroTotalWeight("all weights are zero")
    return swx / sw


def _finalise(n: int, sw: Decimal, swx: Decimal, swxx: Decimal) -> tuple[Decimal, Decimal]:
    """(mean, weighted standard error) from a member set's sums."""
    mean = _mean(n, sw, swx)
    with localcontext(_EXACT):
        spread = swxx - 2 * mean * swx + mean * mean * sw  # sum w(x - mean)^2
        scale = n * sw
    return mean, (spread / scale).sqrt()


def weighted_mean_with_stat(
    values: Iterable[tuple[Decimal, Decimal]],
) -> tuple[Decimal, Decimal]:
    """Weighted mean of (x_i, w_i) pairs and its weighted standard error.

    n counts every supplied point, zero-weight ones included, exactly as
    the formula is written.
    """
    return _finalise(*_sums(values))


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


def _shifted_band(sums: Sums, mean: Decimal) -> Decimal:
    """|shifted mean - mean|; 0 with fewer than two valued members or zero weight."""
    try:
        return abs(_mean(*sums[:3]) - mean)
    except (InsufficientData, ZeroTotalWeight):
        return ZERO


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

    def series(k: int) -> Iterator[Sums]:
        return _sliding_sums(
            ((p[k] if len(p) > k else None, p[0]) for p in ordered), window, stride
        )

    mid = window // 2
    out = []
    starts = range(0, len(ordered) - window + 1, stride)
    for start, sums, upper, lower in zip(starts, series(1), series(2), series(3)):
        if window % 2:
            median = ordered[start + mid][0]
        else:
            median = (ordered[start + mid - 1][0] + ordered[start + mid][0]) / 2
        try:
            mean, sigma = _finalise(*sums)
        except ZeroTotalWeight:
            warnings.warn(f"skipping rolling window at median {median}: all weights are zero")
            continue
        estimate = WeightedEstimate(
            mean, sigma, _shifted_band(upper, mean), _shifted_band(lower, mean), window, sums[1]
        )
        out.append((median, estimate))
    return out


def grouped_means(
    members: Iterable[tuple[tuple[Hashable, ...], Decimal, Sequence[Decimal | None]]],
    series: int,
) -> list[dict[Hashable, tuple[Decimal, Decimal, int, Decimal]]]:
    """Weighted mean of every group in each of `series` value series, in one pass.

    A member (groups, w, values) belongs to each group in `groups` and is
    valued values[k] in series k, or not at all where that is None. Its
    w*x and w*x^2 are formed once per series and added to the exact sums
    of its cell, the members sharing its `groups`; each cell's sums then
    add to all of its groups. Returns, per series, group -> (mean,
    weighted standard error, n, sum w), groups in order of first member.
    A group with fewer than two valued members, or whose weights are all
    zero, is skipped with a warning. `members` is drained inside the
    exact context, so a lazy source must do its own arithmetic in a
    context it enters itself (as `pipeline.analysis_pass` does).
    """
    cells: list[dict[tuple[Hashable, ...], list]] = [{} for _ in range(series)]
    group_sums: list[dict[Hashable, list]] = []
    with localcontext(_EXACT):
        for groups, w, values in members:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            for by_cell, x in zip(cells, values):
                if x is None:
                    continue
                wx = w * x
                s = by_cell.get(groups)
                if s is None:
                    s = by_cell[groups] = [0, ZERO, ZERO, ZERO]
                s[0] += 1
                s[1] += w
                s[2] += wx
                s[3] += wx * x
        for by_cell in cells:
            by_group: dict[Hashable, list] = {}
            for groups, sums in by_cell.items():
                for group in groups:
                    total = by_group.get(group)
                    by_group[group] = sums if total is None else [
                        a + b for a, b in zip(total, sums)
                    ]
            group_sums.append(by_group)
    out = []
    for by_group in group_sums:
        means = {}
        for group, (n, sw, swx, swxx) in by_group.items():
            if n < 2:
                warnings.warn(f"skipping group {group}: fewer than 2 weighted trades")
                continue
            try:
                mean, sigma = _finalise(n, sw, swx, swxx)
            except ZeroTotalWeight:
                warnings.warn(f"skipping group {group}: all weights are zero")
                continue
            means[group] = (mean, sigma, n, sw)
        out.append(means)
    return out
