"""Decimal arithmetic policy shared by the whole toolkit.

Onchain quantities (token amounts, gas, wei fees) stay exact integers in
base units; division only happens at price computation, in decimal
arithmetic with 60 significant digits and half-even rounding. Statistics
take their sums exactly (stats.py widens the precision for them), so only
division and sqrt round there. The policy is installed once at import
time so every module computes in the same context and results are
bit-reproducible. Code that can run inside a caller's other context,
such as a generator its consumer drains, enters `POLICY` itself.
"""

import decimal
from decimal import Decimal

PRECISION = 60

decimal.DefaultContext.prec = PRECISION
decimal.DefaultContext.rounding = decimal.ROUND_HALF_EVEN
decimal.setcontext(decimal.DefaultContext.copy())
POLICY = decimal.DefaultContext.copy()

BPS_FACTOR = Decimal(10) ** 4

# Reports quantize bps values to 4 decimal places; internal values are
# never rounded.
_BPS_QUANTUM = Decimal("0.0001")


def format_bps(x: Decimal) -> str:
    """Render a dimensionless ratio as basis points, half-even at 4 dp, every digit kept."""
    bps = x * BPS_FACTOR
    try:
        return str(bps.quantize(_BPS_QUANTUM))
    except decimal.InvalidOperation:  # more digits than the precision holds
        context = decimal.getcontext().copy()
        context.prec = bps.adjusted() + 5  # the integer digits and 4 decimals
        return str(bps.quantize(_BPS_QUANTUM, context=context))
