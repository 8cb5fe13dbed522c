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
            self.add(q)

    def add(self, quote: Quote) -> None:
        if quote.key in self._quotes:
            raise DuplicateQuote(f"duplicate quote key {quote.key}")
        self._quotes[quote.key] = quote

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
# field parsers


def _uint(value, name: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an unsigned integer")
    if isinstance(value, int):
        n = value
    else:
        s = str(value).strip()
        if not s or s[0] == "-" or not s.isdigit():
            raise ValueError(f"{name} must be an unsigned base-10 integer")
        n = int(s)
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    return n


def _int(value, name: str) -> int:
    try:
        return int(str(value).strip())
    except ValueError:
        raise ValueError(f"{name} must be an integer") from None


def _nonneg_decimal(value, name: str) -> Decimal:
    try:
        d = Decimal(str(value).strip())
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
    s = str(value).strip()
    try:
        return Direction(s)
    except ValueError:
        raise ValueError("direction must be WETH_IN or WETH_OUT") from None


def _build_trade(row: dict, require_usd: bool) -> TradeRecord:
    usd_raw = row.get("usd_value")
    if usd_raw is None or str(usd_raw).strip() == "":
        if require_usd:
            raise ValueError("usd_value missing (required for aggregate runs)")
        usd = None
    else:
        usd = _nonneg_decimal(usd_raw, "usd_value")
    return TradeRecord(
        trade_id=str(row["trade_id"]).strip(),
        interface=canonical_interface(str(row["interface"])),
        path=canonical_path(str(row["path"])),
        block_number=_uint(row["block_number"], "block_number"),
        direction=_direction(row["direction"]),
        gas_internalized=_bool(row["gas_internalized"], "gas_internalized"),
        amount_in=TokenAmount(
            _uint(row["amount_in_raw"], "amount_in_raw"),
            _uint(row["amount_in_decimals"], "amount_in_decimals"),
        ),
        amount_out=TokenAmount(
            _uint(row["amount_out_raw"], "amount_out_raw"),
            _uint(row["amount_out_decimals"], "amount_out_decimals"),
        ),
        gas=GasTerms(
            _uint(row["gas_used"], "gas_used"),
            _uint(row["base_fee_wei"], "base_fee_wei"),
            _uint(row["priority_fee_wei"], "priority_fee_wei"),
        ),
        usd_value=usd,
        timestamp=_int(row["timestamp"], "timestamp"),
    )


def _build_quote(row: dict) -> Quote:
    return Quote(
        trade_id=str(row["trade_id"]).strip(),
        offset=_int(row["offset"], "offset"),
        out_estimate=TokenAmount(
            _uint(row["out_estimate_raw"], "out_estimate_raw"),
            _uint(row["out_estimate_decimals"], "out_estimate_decimals"),
        ),
        gas_estimate=_nonneg_decimal(row["gas_estimate"], "gas_estimate"),
        provider_id=str(row["provider_id"]).strip(),
    )


def _build_pool(row: dict) -> Pool:
    return Pool(
        pool_id=str(row["pool_id"]).strip(),
        reserve_weth=TokenAmount(_uint(row["reserve_weth_raw"], "reserve_weth_raw"), 18),
        reserve_token=TokenAmount(
            _uint(row["reserve_token_raw"], "reserve_token_raw"),
            _uint(row["token_decimals"], "token_decimals"),
        ),
        fee_bps=_int(row["fee_bps"], "fee_bps"),
        gas_per_hop=_uint(row["gas_per_hop"], "gas_per_hop"),
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


def _rows(source, fmt: str, columns: list[str]) -> Iterator[tuple[int, dict | str]]:
    """Yield (data_line_number, row-dict) or (line, error-string) pairs."""
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
                yield n, dict(zip(columns, record))
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
                if not isinstance(obj, dict):
                    yield n, "JSONL line must be an object"
                    continue
                missing = [c for c in columns if c not in obj and c != "usd_value"]
                if missing:
                    yield n, f"missing fields: {', '.join(missing)}"
                    continue
                yield n, obj
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
            except (ValueError, KeyError) as exc:
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

    def build(row: dict) -> TradeRecord:
        trade = _build_trade(row, require_usd)
        if trade.trade_id in seen:
            raise ValueError(f"duplicate trade_id {trade.trade_id}")
        seen.add(trade.trade_id)
        return trade

    return _ingest(source, fmt, TRADE_COLUMNS, build, strict)


def ingest_quotes(source, fmt: str = "csv", *, strict: bool = False) -> tuple[QuoteSet, list[MalformedRow]]:
    """Parse quotes into a set keyed by (trade_id, offset, provider_id)."""
    result = _ingest(source, fmt, QUOTE_COLUMNS, _build_quote, strict)
    quote_set = QuoteSet()
    for q in result.records:
        quote_set.add(q)
    return quote_set, result.rejects


def ingest_pool_snapshots(
    source, fmt: str = "csv", *, strict: bool = False
) -> tuple[dict[int, list[Pool]], list[MalformedRow]]:
    """Parse per-offset pool snapshots: the pool schema plus a leading offset."""

    def build(row: dict) -> tuple[int, Pool]:
        return _int(row["offset"], "offset"), _build_pool(row)

    result = _ingest(source, fmt, SNAPSHOT_COLUMNS, build, strict)
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


def serialize_trades(trades: Iterable[TradeRecord]) -> str:
    """Canonical CSV form; ingest(serialize(ingest(x))) == ingest(x)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRADE_COLUMNS)
    for t in trades:
        writer.writerow(trade_to_row(t))
    return buf.getvalue()
