"""Decimal arithmetic policy shared by the whole toolkit, and the value rules.

Onchain quantities (token amounts, gas, wei fees) stay exact integers in
base units; division only happens at price computation, in decimal
arithmetic with 60 significant digits and half-even rounding. Statistics
take their sums exactly (stats.py widens the precision for them), so only
division and sqrt round there. The policy is installed once at import
time so every module computes in the same context and results are
bit-reproducible. Code that can run inside a caller's other context,
such as a generator its consumer drains, enters `POLICY` itself.

Every number, boolean and direction read from a file or flag goes
through one of the value rules below: each takes a text or JSON value
and its field's name, and raises a ValueError naming the field. Every
JSON text read from a file is decoded by `json_value`.
"""

import decimal
import json
import math
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
_NUMBER_KIND = {Decimal: "a decimal", float: "a finite"}


def format_bps(x: Decimal) -> str:
    """Render a dimensionless ratio as basis points, half-even at 4 dp, every digit kept."""
    bps = x * BPS_FACTOR
    try:
        return str(bps.quantize(_BPS_QUANTUM))
    except decimal.InvalidOperation:  # more digits than the precision holds
        context = decimal.getcontext().copy()
        context.prec = bps.adjusted() + 5  # the integer digits and 4 decimals
        return str(bps.quantize(_BPS_QUANTUM, context=context))


class _RepeatedKey(Exception):
    """A JSON object names a key twice; not a ValueError, which json.loads raises for itself."""


def _object(pairs: list) -> dict:
    """A decoded JSON object's dict; _RepeatedKey names its first repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise _RepeatedKey(next(key for k, key in enumerate(keys) if key in keys[:k]))
    return obj


def json_value(text: str):
    """The value of JSON `text`; a ValueError words its fault the same for every file."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except _RepeatedKey as exc:
        raise ValueError(f"invalid JSON: repeated key {exc.args[0]!r}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past int()'s digit limit
        raise ValueError("invalid JSON: an integer has too many digits") from None


def integer(value, name: str) -> int:
    """A JSON integer, or any text int() takes (a sign, '_', spaces); a bool or float is refused."""
    try:
        return int(value if type(value) is str else str(value))
    except ValueError:
        digits = value.strip() if type(value) is str else ""
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # past int()'s digit limit
            raise ValueError(f"{name} has too many digits ({len(digits)})") from None
        raise ValueError(f"{name} must be an integer") from None


def uint(value, name: str) -> int:
    """A JSON integer >= 0, or decimal digits with surrounding spaces; a bool is refused."""
    if type(value) is str and value.isdecimal():  # a clean CSV field
        text = value
    elif isinstance(value, bool):
        raise ValueError(f"{name} must be an unsigned integer")
    elif isinstance(value, int):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
        return value
    else:
        text = str(value).strip()
        if not text.isdecimal():
            raise ValueError(f"{name} must be an unsigned base-10 integer")
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit
        raise ValueError(f"{name} has too many digits ({len(text)})") from None


def finite_number(value, name: str, kind=Decimal, nonnegative: bool = False):
    """A finite Decimal, or float, read from the text of `value`; a bool or null is refused."""
    try:
        number = kind(value if type(value) is str else str(value))
    except (ValueError, ArithmeticError):
        raise ValueError(f"{name} must be {_NUMBER_KIND[kind]} number") from None
    finite = number.is_finite() if kind is Decimal else math.isfinite(number)
    if nonnegative and not (finite and number >= 0):
        raise ValueError(f"{name} must be a finite nonnegative decimal")
    if not finite:
        raise ValueError(f"{name} must be a finite number")
    return number


def spelled(value, name: str, spellings: dict, expected: str):
    """What `spellings` maps the stripped text of `value` to; lower-case keys match any case."""
    text = str(value).strip()
    for key in (text, text.lower()):
        if key in spellings:
            return spellings[key]
    raise ValueError(f"{name} must be {expected}")
