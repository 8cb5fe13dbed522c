"""Ingestion and serialization of the external file formats.

Trade, quote, and pool-snapshot files are JSONL (one object per line)
when their name ends in `.jsonl`, and CSV otherwise (exact column order,
header required; JSONL uses the same field names). Malformed rows are
collected, not fatal, unless strict mode is on. Lines starting with '#'
before the first row are provenance comments and are skipped, as are
blank lines.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
    check_amount,
    check_gas_estimate,
)
from swapmeter.numeric import finite_number, integer, spelled, uint

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


class QuoteSet:
    """Quotes keyed by (trade_id, offset, provider_id), held as plain values.

    One table per provider_id maps (trade_id, offset) to (out raw, out decimals, gas).
    """

    def __init__(self, quotes: Iterable[Quote] = ()):
        self._tables: dict[str, dict[tuple[str, int], tuple[int, int, Decimal]]] = {}
        self._hold(
            (q.trade_id, q.offset, q.provider_id,
             (q.out_estimate.raw, q.out_estimate.decimals, q.gas_estimate))
            for q in quotes
        )

    def _hold(self, quotes: Iterable[tuple]) -> None:
        """Hold each (trade_id, offset, provider_id, values); then raise on the first repeat."""
        duplicate = None
        for trade_id, offset, provider_id, values in quotes:
            table = self._tables.setdefault(provider_id, {})
            if table.setdefault((trade_id, offset), values) is not values:
                duplicate = duplicate or (trade_id, offset, provider_id)
        if duplicate is not None:
            raise DuplicateQuote(f"duplicate quote key {duplicate}")

    def table(self, provider_id: str) -> dict[tuple[str, int], tuple[int, int, Decimal]]:
        return self._tables.get(provider_id, {})

    def providers(self) -> list[str]:
        return sorted(self._tables)

    def orphans(self, trades: Iterable[TradeRecord]) -> list[tuple[str, int, str]]:
        """Quote keys whose trade_id matches no trade in the given set."""
        known = {t.trade_id for t in trades}
        keys = ((t, o, p) for p, table in self._tables.items() for t, o in table)
        return sorted(key for key in keys if key[0] not in known)

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))


# ---------------------------------------------------------------------------
# row builders: numeric's value rules check each raw CSV or JSONL value's
# type and sign, naming the column; the model's __post_init__ checks
# ranges, for direct construction too.

# Ingest takes only true/false as booleans (any case); config also takes 1/yes/0/no.
_BOOLEANS = {"true": True, "false": False}
_DIRECTIONS = {d.value: d for d in Direction}


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
        usd = finite_number(usd_value, "usd_value", nonnegative=True)
    return TradeRecord(
        str(trade_id).strip(),
        canonical_interface(str(interface)),
        canonical_path(str(path)),
        uint(block_number, "block_number"),
        spelled(direction, "direction", _DIRECTIONS, "WETH_IN or WETH_OUT"),
        spelled(gas_internalized, "gas_internalized", _BOOLEANS, "'true' or 'false'"),
        TokenAmount(uint(in_raw, "amount_in_raw"), uint(in_decimals, "amount_in_decimals")),
        TokenAmount(uint(out_raw, "amount_out_raw"), uint(out_decimals, "amount_out_decimals")),
        GasTerms(
            uint(gas_used, "gas_used"),
            uint(base_fee, "base_fee_wei"),
            uint(priority_fee, "priority_fee_wei"),
        ),
        usd,
        integer(timestamp, "timestamp"),
    )


def _build_quote(row: list) -> tuple[str, int, str, tuple[int, int, Decimal]]:
    """(trade_id, offset, provider_id, (out raw, out decimals, gas)), checked as a `Quote`."""
    trade_id, offset, out_raw, out_decimals, gas_estimate, provider_id = row
    trade_id, offset = str(trade_id).strip(), integer(offset, "offset")
    raw, decimals = uint(out_raw, "out_estimate_raw"), uint(out_decimals, "out_estimate_decimals")
    check_amount(raw, decimals)
    gas = finite_number(gas_estimate, "gas_estimate", nonnegative=True)
    check_gas_estimate(gas)
    return trade_id, offset, str(provider_id).strip(), (raw, decimals, gas)


def _build_pool(row: list) -> tuple[int, Pool]:
    offset, pool_id, weth_raw, token_raw, token_decimals, fee_bps, gas_per_hop = row
    return integer(offset, "offset"), Pool(
        str(pool_id).strip(),
        TokenAmount(uint(weth_raw, "reserve_weth_raw"), 18),
        TokenAmount(uint(token_raw, "reserve_token_raw"), uint(token_decimals, "token_decimals")),
        integer(fee_bps, "fee_bps"),
        uint(gas_per_hop, "gas_per_hop"),
    )


# ---------------------------------------------------------------------------
# file reading


def _rows(path: str | Path, columns: list[str]) -> Iterator[tuple[int, list | str]]:
    """Yield (data_line_number, row) or (line, error-string) pairs.

    A row lists the line's values in column order (None for a JSONL line's
    missing usd_value).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as stream:
        lines = itertools.dropwhile(lambda line: line.startswith("#") or not line.strip(), stream)
        n = 0
        if str(path).endswith(".jsonl"):
            for line in lines:
                if not line.strip():
                    continue
                n += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    yield n, f"invalid JSON: {exc.msg}"
                    continue
                except ValueError:  # an integer literal past int()'s digit limit
                    yield n, "invalid JSON: an integer has too many digits"
                    continue
                except RecursionError:
                    yield n, "invalid JSON: nested too deeply"
                    continue
                if not isinstance(obj, dict):
                    yield n, "JSONL line must be an object"
                    continue
                missing = [c for c in columns if c not in obj and c != "usd_value"]
                if missing:
                    yield n, f"missing fields: {', '.join(missing)}"
                    continue
                yield n, [obj.get(c) for c in columns]
        else:
            reader = csv.reader(lines)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise IngestError(f"bad header: {exc}") from None
            if header is None:
                raise EmptyInput("input has no rows")
            if header != columns:
                raise IngestError(
                    f"bad header: expected {','.join(columns)!r}, got {','.join(header)!r}"
                )
            while True:
                try:
                    record = next(reader, None)
                except csv.Error as exc:  # e.g. a field past the reader's size limit
                    n += 1  # the reader goes on with the next line
                    yield n, f"invalid CSV: {exc}"
                    continue
                if record is None:
                    break
                if len(record) <= 1 and not "".join(record).strip():
                    continue  # a blank line
                n += 1
                if len(record) != len(columns):
                    yield n, f"expected {len(columns)} fields, got {len(record)}"
                    continue
                yield n, record
        if n == 0:
            raise EmptyInput("input has no data rows")


def _accepted(path, columns, build, strict, rejects: list[MalformedRow]) -> Iterator:
    """What `build` makes of each row; each rejected row is added to `rejects`."""
    for line_no, row in _rows(path, columns):
        if isinstance(row, str):
            reject = MalformedRow(line_no, row)
        else:
            try:
                record = build(row)
            except ValueError as exc:
                reject = MalformedRow(line_no, str(exc) or repr(exc))
            else:
                yield record
                continue
        if strict:
            raise IngestError(f"line {reject.line}: {reject.reason}")
        rejects.append(reject)


def _unique(build: Callable[[list], Any], key: Callable[[Any], str]) -> Callable[[list], Any]:
    """`build`, rejecting each row whose key, e.g. "trade_id T1", an accepted row has."""
    seen: set[str] = set()

    def build_once(row: list):
        record = build(row)
        k = key(record)
        if k in seen:
            raise ValueError(f"duplicate {k}")
        seen.add(k)
        return record

    return build_once


# ---------------------------------------------------------------------------
# public API


def ingest_trades(
    path: str | Path, *, strict: bool = False, require_usd: bool = False
) -> IngestResult:
    """Parse and validate trade records; rejected rows are reported alongside.

    A trade_id is accepted once: each later row with an accepted id is rejected.
    """
    build = _unique(lambda row: _build_trade(row, require_usd), lambda t: f"trade_id {t.trade_id}")
    rejects: list[MalformedRow] = []
    return IngestResult(list(_accepted(path, TRADE_COLUMNS, build, strict, rejects)), rejects)


def ingest_quotes(
    path: str | Path, *, strict: bool = False
) -> tuple[QuoteSet, list[MalformedRow]]:
    """Parse quotes into a `QuoteSet`; a repeated key raises DuplicateQuote once all are read."""
    quotes, rejects = QuoteSet(), []
    quotes._hold(_accepted(path, QUOTE_COLUMNS, _build_quote, strict, rejects))
    return quotes, rejects


def ingest_pool_snapshots(
    path: str | Path, *, strict: bool = False
) -> tuple[dict[int, list[Pool]], list[MalformedRow]]:
    """Parse per-offset pool snapshots: the pool schema plus a leading offset.

    A pool_id is accepted once per offset: each later row with it is rejected.
    """
    build = _unique(_build_pool, lambda row: f"pool_id {row[1].pool_id} at offset {row[0]}")
    rejects: list[MalformedRow] = []
    snapshots: dict[int, list[Pool]] = {}
    for offset, pool in _accepted(path, SNAPSHOT_COLUMNS, build, strict, rejects):
        snapshots.setdefault(offset, []).append(pool)
    return snapshots, rejects


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
