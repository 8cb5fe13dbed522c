"""Ingestion and serialization of the external file formats.

Trade, quote, and pool-snapshot files are CSV (exact column order,
header required) or JSONL (same field names). Malformed rows are
collected, not fatal, unless strict mode is on. Lines starting with '#'
are provenance comments and are skipped.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import IO, Iterable, Iterator

from swapmeter.errors import DuplicateQuote, EmptyInput, IngestError
from swapmeter.model import (
    Direction,
    GasTerms,
    Pool,
    Quote,
    TokenAmount,
    TradeRecord,
    canonical_interface,
    canonical_path,
)

TRADE_COLUMNS = [
    "trade_id",
    "interface",
    "path",
    "block_number",
    "direction",
    "gas_internalized",
    "amount_in_raw",
    "amount_in_decimals",
    "amount_out_raw",
    "amount_out_decimals",
    "gas_used",
    "base_fee_wei",
    "priority_fee_wei",
    "usd_value",
    "timestamp",
]

QUOTE_COLUMNS = [
    "trade_id",
    "offset",
    "out_estimate_raw",
    "out_estimate_decimals",
    "gas_estimate",
    "provider_id",
]

POOL_COLUMNS = [
    "pool_id",
    "reserve_weth_raw",
    "reserve_token_raw",
    "token_decimals",
    "fee_bps",
    "gas_per_hop",
]

SNAPSHOT_COLUMNS = ["offset"] + POOL_COLUMNS


@dataclass(frozen=True, slots=True)
class MalformedRow:
    """One rejected input row: 1-based data line number plus the reason."""

    line: int
    reason: str


@dataclass(slots=True)
class IngestResult:
    """Accepted records in input order, plus the rejected rows."""

    records: list
    rejects: list[MalformedRow] = field(default_factory=list)

    def __iter__(self) -> Iterator:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class QuoteSet:
    """Quotes keyed by (trade_id, offset, provider_id)."""

    def __init__(self, quotes: Iterable[Quote] = ()):
        self._quotes: dict[tuple[str, int, str], Quote] = {}
        for q in quotes:
            key = (q.trade_id, q.offset, q.provider_id)
            if key in self._quotes:
                raise DuplicateQuote(f"duplicate quote key {key}")
            self._quotes[key] = q

    def get(self, trade_id: str, offset: int, provider_id: str) -> Quote | None:
        return self._quotes.get((trade_id, offset, provider_id))

    def providers(self) -> list[str]:
        return sorted({k[2] for k in self._quotes})

    def offsets(self, provider_id: str | None = None) -> list[int]:
        return sorted(
            {k[1] for k in self._quotes if provider_id is None or k[2] == provider_id}
        )

    def orphans(self, trades: Iterable[TradeRecord]) -> list[tuple[str, int, str]]:
        """Quote keys whose trade_id matches no trade in the given set."""
        known = {t.trade_id for t in trades}
        return sorted(k for k in self._quotes if k[0] not in known)

    def __iter__(self) -> Iterator[Quote]:
        return iter(self._quotes.values())

    def __len__(self) -> int:
        return len(self._quotes)


# ---------------------------------------------------------------------------
# field parsers: each checks a raw CSV or JSONL value's type and sign, naming
# the column; the model's __post_init__ checks ranges, for direct
# construction too.


def _uint(value, name: str) -> int:
    if type(value) is str and value.isdigit():
        return int(value)
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an unsigned integer")
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
        return value
    s = str(value).strip()
    if not s.isdigit():
        raise ValueError(f"{name} must be an unsigned base-10 integer")
    return int(s)


def _int(value, name: str) -> int:
    # int() strips surrounding whitespace itself
    try:
        return int(value if type(value) is str else str(value))
    except ValueError:
        raise ValueError(f"{name} must be an integer") from None


def _nonneg_decimal(value, name: str) -> Decimal:
    # Decimal() strips surrounding whitespace itself
    try:
        d = Decimal(value if type(value) is str else str(value))
    except InvalidOperation:
        raise ValueError(f"{name} must be a decimal number") from None
    if not d.is_finite() or d < 0:
        raise ValueError(f"{name} must be a finite nonnegative decimal")
    return d


def _bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    s = str(value).strip().lower()
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"{name} must be 'true' or 'false'")


def _direction(value) -> Direction:
    try:
        return Direction(str(value).strip())
    except ValueError:
        raise ValueError("direction must be WETH_IN or WETH_OUT") from None


def _build_trade(row: list, require_usd: bool) -> TradeRecord:
    (
        trade_id, interface, path, block_number, direction, gas_internalized,
        in_raw, in_decimals, out_raw, out_decimals, gas_used, base_fee, priority_fee,
        usd_value, timestamp,
    ) = row
    if usd_value is None or str(usd_value).strip() == "":
        if require_usd:
            raise ValueError("usd_value missing (required for aggregate runs)")
        usd = None
    else:
        usd = _nonneg_decimal(usd_value, "usd_value")
    return TradeRecord(
        str(trade_id).strip(),
        canonical_interface(str(interface)),
        canonical_path(str(path)),
        _uint(block_number, "block_number"),
        _direction(direction),
        _bool(gas_internalized, "gas_internalized"),
        TokenAmount(_uint(in_raw, "amount_in_raw"), _uint(in_decimals, "amount_in_decimals")),
        TokenAmount(_uint(out_raw, "amount_out_raw"), _uint(out_decimals, "amount_out_decimals")),
        GasTerms(
            _uint(gas_used, "gas_used"),
            _uint(base_fee, "base_fee_wei"),
            _uint(priority_fee, "priority_fee_wei"),
        ),
        usd,
        _int(timestamp, "timestamp"),
    )


def _build_quote(row: list) -> Quote:
    trade_id, offset, out_raw, out_decimals, gas_estimate, provider_id = row
    return Quote(
        str(trade_id).strip(),
        _int(offset, "offset"),
        TokenAmount(
            _uint(out_raw, "out_estimate_raw"), _uint(out_decimals, "out_estimate_decimals")
        ),
        _nonneg_decimal(gas_estimate, "gas_estimate"),
        str(provider_id).strip(),
    )


def _build_pool(row: list) -> tuple[int, Pool]:
    offset, pool_id, weth_raw, token_raw, token_decimals, fee_bps, gas_per_hop = row
    return _int(offset, "offset"), Pool(
        str(pool_id).strip(),
        TokenAmount(_uint(weth_raw, "reserve_weth_raw"), 18),
        TokenAmount(_uint(token_raw, "reserve_token_raw"), _uint(token_decimals, "token_decimals")),
        _int(fee_bps, "fee_bps"),
        _uint(gas_per_hop, "gas_per_hop"),
    )


# ---------------------------------------------------------------------------
# stream plumbing


def _open_text(source) -> tuple[IO[str], bool]:
    """Return a text stream and whether the caller should close it."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), False
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise IngestError(f"unsupported source type: {type(source)!r}")


def _data_lines(stream: IO[str]) -> Iterator[str]:
    for line in stream:
        if line.startswith("#"):
            continue
        if not line.strip():
            continue
        yield line


def _rows(source, fmt: str, columns: list[str]) -> Iterator[tuple[int, list | str]]:
    """Yield (data_line_number, row) or (line, error-string) pairs.

    A row lists the line's values in column order (None for a JSONL line's
    missing usd_value).
    """
    stream, should_close = _open_text(source)
    try:
        lines = _data_lines(stream)
        if fmt == "csv":
            reader = csv.reader(lines)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyInput("input has no rows") from None
            if header != columns:
                raise IngestError(
                    f"bad header: expected {','.join(columns)!r}, got {','.join(header)!r}"
                )
            n = 0
            for record in reader:
                n += 1
                if len(record) != len(columns):
                    yield n, f"expected {len(columns)} fields, got {len(record)}"
                    continue
                yield n, record
            if n == 0:
                raise EmptyInput("input has no data rows")
        elif fmt == "jsonl":
            n = 0
            for line in lines:
                n += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    yield n, f"invalid JSON: {exc.msg}"
                    continue
                except ValueError as exc:  # an integer literal past int()'s digit limit
                    yield n, f"invalid JSON: {exc}"
                    continue
                if not isinstance(obj, dict):
                    yield n, "JSONL line must be an object"
                    continue
                missing = [c for c in columns if c not in obj and c != "usd_value"]
                if missing:
                    yield n, f"missing fields: {', '.join(missing)}"
                    continue
                yield n, [obj.get(c) for c in columns]
            if n == 0:
                raise EmptyInput("input has no data rows")
        else:
            raise IngestError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")
    finally:
        if should_close:
            stream.close()


def _ingest(source, fmt, columns, builder, strict) -> IngestResult:
    result = IngestResult(records=[])
    for line_no, row in _rows(source, fmt, columns):
        if isinstance(row, str):
            reject = MalformedRow(line_no, row)
        else:
            try:
                result.records.append(builder(row))
                continue
            except ValueError as exc:
                reject = MalformedRow(line_no, str(exc) or repr(exc))
        if strict:
            raise IngestError(f"line {reject.line}: {reject.reason}")
        result.rejects.append(reject)
    return result


# ---------------------------------------------------------------------------
# public API


def ingest_trades(
    source, fmt: str = "csv", *, strict: bool = False, require_usd: bool = False
) -> IngestResult:
    """Parse and validate trade records; rejected rows are reported alongside.

    A trade_id is accepted once: each later row with an accepted id is rejected.
    """
    seen: set[str] = set()

    def build(row: list) -> TradeRecord:
        trade = _build_trade(row, require_usd)
        if trade.trade_id in seen:
            raise ValueError(f"duplicate trade_id {trade.trade_id}")
        seen.add(trade.trade_id)
        return trade

    return _ingest(source, fmt, TRADE_COLUMNS, build, strict)


def ingest_quotes(source, fmt: str = "csv", *, strict: bool = False) -> tuple[QuoteSet, list[MalformedRow]]:
    """Parse quotes into a set keyed by (trade_id, offset, provider_id)."""
    result = _ingest(source, fmt, QUOTE_COLUMNS, _build_quote, strict)
    return QuoteSet(result.records), result.rejects


def ingest_pool_snapshots(
    source, fmt: str = "csv", *, strict: bool = False
) -> tuple[dict[int, list[Pool]], list[MalformedRow]]:
    """Parse per-offset pool snapshots: the pool schema plus a leading offset."""
    result = _ingest(source, fmt, SNAPSHOT_COLUMNS, _build_pool, strict)
    snapshots: dict[int, list[Pool]] = {}
    for offset, pool in result.records:
        snapshots.setdefault(offset, []).append(pool)
    return snapshots, result.rejects


# ---------------------------------------------------------------------------
# canonical serialization (round-trip form)


def trade_to_row(trade: TradeRecord) -> list[str]:
    return [
        trade.trade_id,
        trade.interface,
        trade.path,
        str(trade.block_number),
        trade.direction.value,
        "true" if trade.gas_internalized else "false",
        str(trade.amount_in.raw),
        str(trade.amount_in.decimals),
        str(trade.amount_out.raw),
        str(trade.amount_out.decimals),
        str(trade.gas.gas_used),
        str(trade.gas.base_fee),
        str(trade.gas.priority_fee),
        "" if trade.usd_value is None else str(trade.usd_value),
        str(trade.timestamp),
    ]


def quote_to_row(quote: Quote) -> list[str]:
    return [
        quote.trade_id,
        str(quote.offset),
        str(quote.out_estimate.raw),
        str(quote.out_estimate.decimals),
        str(quote.gas_estimate),
        quote.provider_id,
    ]


def snapshot_to_rows(snapshots: dict[int, list[Pool]]) -> list[list[str]]:
    rows = []
    for offset in sorted(snapshots):
        for pool in snapshots[offset]:
            rows.append(
                [
                    str(offset),
                    pool.pool_id,
                    str(pool.reserve_weth.raw),
                    str(pool.reserve_token.raw),
                    str(pool.reserve_token.decimals),
                    str(pool.fee_bps),
                    str(pool.gas_per_hop),
                ]
            )
    return rows
