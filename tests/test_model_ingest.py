"""Trade/quote/pool types and file ingestion."""

import csv
import io
import json
import os
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmeter.errors import DuplicateQuote, EmptyInput, IngestError
from swapmeter.ingest import (
    QUOTE_COLUMNS,
    SNAPSHOT_COLUMNS,
    TRADE_COLUMNS,
    ingest_pool_snapshots,
    ingest_quotes,
    ingest_trades,
)
from swapmeter.model import (
    MAX_UINT64,
    MAX_UINT128,
    Direction,
    GasTerms,
    Pool,
    Quote,
    TokenAmount,
    canonical_interface,
    canonical_path,
)

from conftest import WETH, make_trade

VALID_HEADER = ",".join(TRADE_COLUMNS)
VALID_ROW = "T1,Uniswap,Classic,18000000,WETH_IN,false,1000000000000000000,18,3000000000,6,150000,20000000000,1000000000,3000,1700000000"


def csv_of(*rows):
    return "\n".join([VALID_HEADER, *rows]) + "\n"


def write_input(directory, text, suffix=".csv") -> Path:
    """A new file in `directory` holding `text`; its suffix picks the ingest format."""
    fd, name = tempfile.mkstemp(suffix=suffix, dir=directory)
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return Path(name)


class TestTypes:
    def test_token_amount_normalized(self):
        assert TokenAmount(3_000_000_000, 6).normalized == Decimal("3000")

    def test_token_amount_rejects_bad_decimals(self):
        with pytest.raises(ValueError):
            TokenAmount(1, 37)
        with pytest.raises(ValueError):
            TokenAmount(-1, 18)

    def test_gas_terms_overflow_guard(self):
        # g = 2^64 and b + f = 2^64 pushes g(b+f) to 2^128 > uint128 max
        with pytest.raises(ValueError, match="overflow"):
            GasTerms(2**64, 2**63, 2**63)
        GasTerms(2**64 - 1, 2**63, 2**63 - 1)  # just under the bound

    def test_quote_gas_estimate_bound(self):
        with pytest.raises(ValueError, match="uint128"):
            Quote("T1", 0, TokenAmount(1, 6), Decimal("1e999999"), "prov")
        Quote("T1", 0, TokenAmount(1, 6), Decimal(2**128 - 1), "prov")  # the bound itself

    def test_internalized_weth_out_gross_output_below_the_raw_bound(self):
        # the pass rebuilds o + g(b+f) as a raw amount: at 10^60 it raised mid-pass
        cost = make_trade().gas.cost_wei
        for internalized, direction in [(True, Direction.WETH_IN), (False, Direction.WETH_OUT)]:
            amount = TokenAmount(10**60 - 1, 18 if direction is Direction.WETH_OUT else 6)
            make_trade(direction=direction, gas_internalized=internalized, amount_out=amount)
        fill = dict(direction=Direction.WETH_OUT, gas_internalized=True)
        make_trade(**fill, amount_out=TokenAmount(10**60 - 1 - cost, 18))
        with pytest.raises(ValueError, match=r"amount_out.raw \+ gas cost must be below 10\^60"):
            make_trade(**fill, amount_out=TokenAmount(10**60 - cost, 18))

    def test_canonical_tags(self):
        assert canonical_interface("oneinch") == "1inch"
        assert canonical_interface("UNISWAP") == "Uniswap"
        assert canonical_interface("NewDex") == "NewDex"
        assert canonical_path("classic") == "Classic"
        assert canonical_path("x") == "X"
        assert canonical_path("Frontier") == "Frontier"


class TestIngestTrades:
    def test_valid_rows_pass_through(self, tmp_path):
        rows = [VALID_ROW, VALID_ROW.replace("T1", "T2"), VALID_ROW.replace("T1", "T3")]
        result = ingest_trades(write_input(tmp_path, csv_of(*rows)))
        assert len(result.records) == 3
        assert not result.rejects
        assert [t.trade_id for t in result.records] == ["T1", "T2", "T3"]

    def test_zero_amount_rejected(self, tmp_path):
        bad = VALID_ROW.replace("1000000000000000000", "0")
        result = ingest_trades(write_input(tmp_path, csv_of(VALID_ROW, bad)))
        assert len(result.records) == 1
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 2
        assert "amount_in" in result.rejects[0].reason

    def test_duplicate_trade_id_rejected(self, tmp_path):
        # every later row with an accepted id is rejected; a rejected row's
        # id does not count as seen
        bad = VALID_ROW.replace("T1,", "T2,").replace("WETH_IN", "SIDEWAYS")
        rows = [VALID_ROW, bad, VALID_ROW, VALID_ROW.replace("T1,", "T2,"), VALID_ROW]
        result = ingest_trades(write_input(tmp_path, csv_of(*rows)))
        assert [t.trade_id for t in result.records] == ["T1", "T2"]
        assert [(r.line, r.reason) for r in result.rejects[1:]] == [
            (3, "duplicate trade_id T1"),
            (5, "duplicate trade_id T1"),
        ]
        with pytest.raises(IngestError, match="line 2: duplicate trade_id T1"):
            ingest_trades(write_input(tmp_path, csv_of(VALID_ROW, VALID_ROW)), strict=True)

    def test_gas_overflow_rejected(self, tmp_path):
        bad = VALID_ROW.replace("150000,20000000000,1000000000", f"{2**64},{2**63},{2**63}")
        result = ingest_trades(write_input(tmp_path, csv_of(bad)))
        assert not result.records
        assert "overflow" in result.rejects[0].reason

    def test_weth_side_decimals_enforced(self, tmp_path):
        bad = VALID_ROW.replace("1000000000000000000,18", "1000000000000000000,17")
        result = ingest_trades(write_input(tmp_path, csv_of(bad)))
        assert "decimals" in result.rejects[0].reason

    def test_empty_input_fatal(self, tmp_path):
        with pytest.raises(EmptyInput):
            ingest_trades(write_input(tmp_path, csv_of()))
        with pytest.raises(EmptyInput):
            ingest_trades(write_input(tmp_path, ""))

    def test_bad_header_fatal(self, tmp_path):
        with pytest.raises(IngestError, match="header"):
            ingest_trades(write_input(tmp_path, "a,b,c\n1,2,3\n"))

    def test_strict_mode_raises(self, tmp_path):
        bad = VALID_ROW.replace("WETH_IN", "SIDEWAYS")
        with pytest.raises(IngestError, match="line 1"):
            ingest_trades(write_input(tmp_path, csv_of(bad)), strict=True)

    def test_missing_usd_accepted_unless_required(self, tmp_path):
        row = VALID_ROW.replace(",3000,", ",,")
        result = ingest_trades(write_input(tmp_path, csv_of(row)))
        assert result.records[0].usd_value is None
        result = ingest_trades(write_input(tmp_path, csv_of(row)), require_usd=True)
        assert not result.records
        assert "usd_value" in result.rejects[0].reason

    def test_comment_lines_skipped(self, tmp_path):
        path = write_input(tmp_path, f"# provenance line\n{VALID_HEADER}\n{VALID_ROW}\n")
        assert len(ingest_trades(path).records) == 1

    def test_comment_line_inside_a_quoted_field_is_data(self, tmp_path):
        # only the lines before the header are comments; blank lines after it
        # are skipped and do not count as data lines
        quoted = VALID_ROW.replace("Uniswap", '"Uni\n#swap"')
        bad = VALID_ROW.replace("T1,", "T2,").replace("WETH_IN", "SIDEWAYS")
        result = ingest_trades(write_input(tmp_path, csv_of(quoted, "", bad)))
        assert [t.interface for t in result.records] == ["Uni\n#swap"]
        assert [(r.line, r.reason) for r in result.rejects] == [
            (2, "direction must be WETH_IN or WETH_OUT")
        ]

    def test_jsonl_roundtrip_fields(self, tmp_path):
        obj = dict(zip(TRADE_COLUMNS, VALID_ROW.split(","))) | {"gas_internalized": False}
        result = ingest_trades(write_input(tmp_path, json.dumps(obj) + "\n", ".jsonl"))
        assert result.records[0].trade_id == "T1"
        assert result.records[0].direction is Direction.WETH_IN


class TestIngestQuotes:
    HEADER = "trade_id,offset,out_estimate_raw,out_estimate_decimals,gas_estimate,provider_id"

    def test_two_offsets(self, tmp_path):
        text = f"{self.HEADER}\nT1,-1,1,6,100,prov\nT1,0,2,6,100,prov\n"
        quotes, rejects = ingest_quotes(write_input(tmp_path, text))
        assert len(quotes) == 2 and not rejects

    def test_duplicate_key_fatal(self, tmp_path):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov\nT1,0,2,6,100,prov\n"
        with pytest.raises(DuplicateQuote):
            ingest_quotes(write_input(tmp_path, text))

    def test_same_key_different_provider_ok(self, tmp_path):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov_a\nT1,0,2,6,100,prov_b\n"
        quotes, _ = ingest_quotes(write_input(tmp_path, text))
        assert quotes.providers() == ["prov_a", "prov_b"]
        assert quotes.table("prov_a") == {("T1", 0): (1, 6, Decimal(100))}
        assert quotes.table("prov_b") == {("T1", 0): (2, 6, Decimal(100))}

    def test_orphan_flagged_during_join(self, tmp_path):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov\nGHOST,0,1,6,100,prov\n"
        quotes, _ = ingest_quotes(write_input(tmp_path, text))
        trades = ingest_trades(write_input(tmp_path, csv_of(VALID_ROW))).records
        assert quotes.orphans(trades) == [("GHOST", 0, "prov")]

    def test_overlong_jsonl_integer_is_a_reject(self, tmp_path):
        # json.loads raises a plain ValueError past int()'s 4300-digit limit
        lines = ['{"trade_id": ' + "9" * 5000 + "}", '{"trade_id": "T1"}']
        _, rejects = ingest_quotes(write_input(tmp_path, "\n".join(lines) + "\n", ".jsonl"))
        assert [r.line for r in rejects] == [1, 2]
        assert rejects[0].reason == "invalid JSON: an integer has too many digits"
        assert rejects[1].reason.startswith("missing fields: offset")


class TestIngestPools:
    def test_snapshot_grouped_by_offset(self, tmp_path):
        text = (
            "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
            "0,P1,1000000000000000000,3000000000,6,30,120000\n"
            "-1,P1,1000000000000000000,3000000000,6,30,120000\n"
            "0,P2,2000000000000000000,6000000000,6,5,120000\n"
        )
        snapshots, rejects = ingest_pool_snapshots(write_input(tmp_path, text))
        assert not rejects
        assert sorted(snapshots) == [-1, 0]
        assert [p.pool_id for p in snapshots[0]] == ["P1", "P2"]

    def test_a_pool_id_is_accepted_once_per_offset(self, tmp_path):
        # a repeated row used to be kept, doubling that pool's liquidity
        text = (
            "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
            "0,P1,1000000000000000000,3000000000,6,30,120000\n"
            "1,P1,1000000000000000000,3000000000,6,30,120000\n"
            "0,P1,2000000000000000000,6000000000,6,5,120000\n"
            "0,P2,2000000000000000000,6000000000,6,5,120000\n"
            "0, P1 ,1000000000000000000,3000000000,6,30,120000\n"
        )
        snapshots, rejects = ingest_pool_snapshots(write_input(tmp_path, text))
        assert [(r.line, r.reason) for r in rejects] == [
            (3, "duplicate pool_id P1 at offset 0"),
            (5, "duplicate pool_id P1 at offset 0"),
        ]
        assert {offset: [p.pool_id for p in pools] for offset, pools in snapshots.items()} == {
            0: ["P1", "P2"], 1: ["P1"]
        }
        assert snapshots[0][0].fee_bps == 30
        with pytest.raises(IngestError, match="^line 3: duplicate pool_id P1 at offset 0$"):
            ingest_pool_snapshots(write_input(tmp_path, text), strict=True)

    def test_zero_reserve_rejected(self, tmp_path):
        text = (
            "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
            "0,P1,0,3000000000,6,30,120000\n"
        )
        snapshots, rejects = ingest_pool_snapshots(write_input(tmp_path, text))
        assert not snapshots and len(rejects) == 1


interface_st = st.sampled_from(["Uniswap", "1inch", "NewVenue"])
path_st = st.sampled_from(["Classic", "X", "Aggregator", "Fusion", "Custom"])
direction_st = st.sampled_from([Direction.WETH_IN, Direction.WETH_OUT])


@st.composite
def trade_rows(draw):
    direction = draw(direction_st)
    in_dec = 18 if direction is Direction.WETH_IN else draw(st.integers(0, 36))
    out_dec = 18 if direction is Direction.WETH_OUT else draw(st.integers(0, 36))
    usd = draw(st.one_of(st.none(), st.integers(0, 10**9)))
    return [
        draw(st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=12)),
        draw(interface_st),
        draw(path_st),
        str(draw(st.integers(0, 10**9))),
        direction.value,
        draw(st.sampled_from(["true", "false"])),
        str(draw(st.integers(1, 10**30))),
        str(in_dec),
        str(draw(st.integers(1, 10**30))),
        str(out_dec),
        str(draw(st.integers(0, 10**7))),
        str(draw(st.integers(0, 10**12))),
        str(draw(st.integers(0, 10**11))),
        "" if usd is None else str(usd),
        str(draw(st.integers(0, 2**31))),
    ]


class TestRoundTrip:
    def test_ingestion_is_deterministic(self, tmp_path):
        text = f"{VALID_HEADER}\n{VALID_ROW}\n{VALID_ROW.replace('T1', 'T2')}\n"
        a = ingest_trades(write_input(tmp_path, text))
        b = ingest_trades(write_input(tmp_path, text))
        assert a.records == b.records


# ---------------------------------------------------------------------------
# reject reasons, pinned per column

# Bad values put into every column, in this order: text in both formats,
# then JSON-native values in JSONL only.
BAD_TEXT = ("", "-1", "1.5", " 7 ", "1e999999", "NaN", "²")
BAD_JSON = (True, 7, -1)

# Reason per bad value, formatted with the column name; None = accepted.
_B10 = "{} must be an unsigned base-10 integer"
_INT = "{} must be an integer"
_DIRECTION = "direction must be WETH_IN or WETH_OUT"
_BOOL = "{} must be 'true' or 'false'"
_DEC = "{} must be a decimal number"
_NONNEG_DEC = "{} must be a finite nonnegative decimal"
TEXT = (None,) * 10
UINT = (
    _B10, _B10, _B10, None, _B10, _B10, _B10,
    "{} must be an unsigned integer", None, "{} must be nonnegative",
)
INT = (_INT, None, _INT, None, _INT, _INT, _INT, _INT, None, None)

EXPECTED_REASONS = {
    "trades": {
        "trade_id": (None,) * 8 + ("duplicate trade_id 7", "duplicate trade_id -1"),
        "interface": TEXT,
        "path": TEXT,
        "block_number": UINT,
        "direction": (_DIRECTION,) * 10,
        "gas_internalized": (_BOOL,) * 7 + (None, _BOOL, _BOOL),
        "amount_in_raw": UINT,
        "amount_in_decimals": UINT[:3]
        + ("WETH_IN trade requires amount_in decimals = 18",)
        + UINT[4:8]
        + ("WETH_IN trade requires amount_in decimals = 18", UINT[9]),
        "amount_out_raw": UINT,
        "amount_out_decimals": UINT,
        "gas_used": UINT,
        "base_fee_wei": UINT,
        "priority_fee_wei": UINT,
        "usd_value": (
            "usd_value missing (required for aggregate runs)", _NONNEG_DEC, None, None, None,
            _NONNEG_DEC, _DEC, _DEC, None, _NONNEG_DEC,
        ),
        "timestamp": INT,
    },
    "quotes": {
        "trade_id": TEXT,
        "offset": INT,
        "out_estimate_raw": UINT,
        "out_estimate_decimals": UINT,
        "gas_estimate": (
            _DEC, _NONNEG_DEC, None, None, "gas_estimate exceeds the uint128 bound 2^128 - 1",
            _NONNEG_DEC, _DEC, _DEC, None, _NONNEG_DEC,
        ),
        "provider_id": TEXT,
    },
    "pools": {
        "offset": INT,
        "pool_id": TEXT,
        "reserve_weth_raw": UINT,
        "reserve_token_raw": UINT,
        "token_decimals": UINT,
        "fee_bps": (_INT, "fee_bps must be in [0, 10000)") + INT[2:9] + ("fee_bps must be in [0, 10000)",),
        "gas_per_hop": UINT,
    },
}

SCHEMA_COLUMNS = {"trades": TRADE_COLUMNS, "quotes": QUOTE_COLUMNS, "pools": SNAPSHOT_COLUMNS}


def _valid_row(schema: str, k: int) -> list:
    """Valid row number k; its trade_id, offset and pool_id differ from every other row's."""
    if schema == "trades":
        return [f"T{k}", *VALID_ROW.split(",")[1:]]
    if schema == "quotes":
        return [f"T{k}", str(k), "2995000000", "6", "150000", "prov"]
    return [str(k), f"P{k}", "1000000000000000000", "3000000000", "6", "30", "120000"]


def _ingest_rejects(schema: str, path: Path) -> list[tuple[int, str]]:
    if schema == "trades":
        rejects = ingest_trades(path, require_usd=True).rejects
    elif schema == "quotes":
        rejects = ingest_quotes(path)[1]
    else:
        rejects = ingest_pool_snapshots(path)[1]
    return [(r.line, r.reason) for r in rejects]


class TestRejectReasons:
    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    @pytest.mark.parametrize("schema", sorted(SCHEMA_COLUMNS))
    def test_each_column_rejects_with_its_reason(self, schema, kind, tmp_path):
        # one row per (column, bad value), the rest of the row valid
        columns = SCHEMA_COLUMNS[schema]
        assert list(EXPECTED_REASONS[schema]) == columns
        values = BAD_TEXT if kind == "csv" else BAD_TEXT + BAD_JSON
        rows, expected = [], []
        for column, reasons in EXPECTED_REASONS[schema].items():
            for value, reason in zip(values, reasons):
                row = _valid_row(schema, len(rows) + 1)
                row[columns.index(column)] = value
                rows.append(row)
                if reason is not None:
                    expected.append((len(rows), reason.format(column)))
        if kind == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
            text = buf.getvalue()
        else:
            text = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
        assert _ingest_rejects(schema, write_input(tmp_path, text, f".{kind}")) == expected


    @pytest.mark.parametrize("schema", sorted(SCHEMA_COLUMNS))
    def test_a_jsonl_key_outside_the_columns_is_a_reject(self, schema, tmp_path):
        # as a CSV header would be: a misspelled usd_value key used to read as a missing
        # usd_value, and any other extra key was dropped without a word
        columns = SCHEMA_COLUMNS[schema]
        objects = [dict(zip(columns, _valid_row(schema, k))) for k in (1, 2, 3, 4)]
        objects[0].pop("usd_value", None)
        objects[0]["usd_vaule"] = "3000"
        objects[1].update(note="", Note=1)
        objects[2][columns[0].upper()] = objects[2].pop(columns[0])  # missing is said first
        path = write_input(tmp_path, _jsonl_text(objects), ".jsonl")
        assert _ingest_rejects(schema, path) == [
            (1, "unknown fields: usd_vaule"),
            (2, "unknown fields: note, Note"),
            (3, f"missing fields: {columns[0]}"),
        ]
        if schema == "trades":  # also where usd_value is optional
            assert [t.trade_id for t in ingest_trades(path).records] == ["T4"]

    @pytest.mark.parametrize("schema", sorted(SCHEMA_COLUMNS))
    def test_a_blank_jsonl_line_between_rows_is_no_row(self, schema, tmp_path):
        # the rows around it are read, and the next row is still line 2
        columns = SCHEMA_COLUMNS[schema]
        objects = [dict(zip(columns, _valid_row(schema, k))) for k in (1, 2, 3)]
        objects[1]["note"] = ""
        first, *rest = _jsonl_text(objects).splitlines(keepends=True)
        path = write_input(tmp_path, "".join([first, "\n", *rest]), ".jsonl")
        assert _ingest_rejects(schema, path) == [(2, "unknown fields: note")]
        if schema == "trades":
            accepted = len(ingest_trades(path).records)
        elif schema == "quotes":
            accepted = len(ingest_quotes(path)[0])
        else:
            accepted = sum(map(len, ingest_pool_snapshots(path)[0].values()))
        assert accepted == 2  # the rows on either side of the blank line

    @pytest.mark.parametrize("schema", sorted(SCHEMA_COLUMNS))
    def test_a_field_past_the_csv_limit_is_a_reject(self, schema, tmp_path):
        # csv.Error used to end the run in a traceback (exit 1)
        columns = SCHEMA_COLUMNS[schema]
        rows = [_valid_row(schema, 1), _valid_row(schema, 2), _valid_row(schema, 3)]
        rows[1][2] = "1" * 200_000
        text = "".join(",".join(row) + "\n" for row in [columns, *rows])
        path = write_input(tmp_path, text)
        assert _ingest_rejects(schema, path) == [
            (2, "invalid CSV: field larger than field limit (131072)")
        ]
        if schema == "trades":
            accepted = len(ingest_trades(path).records)
        elif schema == "quotes":
            accepted = len(ingest_quotes(path)[0])
        else:
            accepted = sum(map(len, ingest_pool_snapshots(path)[0].values()))
        assert accepted == 2  # the rows on either side of the long one

    def test_digits_past_the_int_limit_name_the_column(self, tmp_path):
        # int()'s own "Exceeds the limit (4300 digits) ..." used to be the reason
        row = VALID_ROW.replace("1000000000000000000,18,", "1" * 5000 + ",18,", 1)
        rejects = ingest_trades(write_input(tmp_path, csv_of(row))).rejects
        assert [(r.line, r.reason) for r in rejects] == [(1, "amount_in_raw has too many digits (5000)")]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("schema, column", [("quotes", "offset"), ("trades", "timestamp")])
    def test_signed_digits_past_the_int_limit_name_the_column(self, schema, column, sign, tmp_path):
        # a signed column used to word these as "<column> must be an integer"
        columns = SCHEMA_COLUMNS[schema]
        rows = [_valid_row(schema, 1), _valid_row(schema, 2)]
        rows[0][columns.index(column)] = sign + "7" * 5000
        for kind in ("csv", "jsonl"):
            if kind == "csv":
                text = "".join(",".join(row) + "\n" for row in [columns, *rows])
            else:
                text = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
            path = write_input(tmp_path, text, f".{kind}")
            assert _ingest_rejects(schema, path) == [(1, f"{column} has too many digits (5000)")]

    @pytest.mark.parametrize("schema", sorted(SCHEMA_COLUMNS))
    def test_json_nested_past_the_recursion_limit_is_a_reject(self, schema, tmp_path):
        # RecursionError used to end the run in a traceback (exit 1)
        columns = SCHEMA_COLUMNS[schema]
        lines = ["[" * 3000, json.dumps(dict(zip(columns, _valid_row(schema, 1))))]
        path = write_input(tmp_path, "\n".join(lines) + "\n", ".jsonl")
        assert _ingest_rejects(schema, path) == [(1, "invalid JSON: nested too deeply")]


# ---------------------------------------------------------------------------
# CSV/JSONL parity and model guards

_NUMERIC_COLUMNS = {
    "block_number", "amount_in_raw", "amount_in_decimals", "amount_out_raw",
    "amount_out_decimals", "gas_used", "base_fee_wei", "priority_fee_wei", "usd_value",
    "timestamp", "offset", "out_estimate_raw", "out_estimate_decimals", "gas_estimate",
    "reserve_weth_raw", "reserve_token_raw", "token_decimals", "fee_bps", "gas_per_hop",
}


@st.composite
def jsonl_objects(draw, columns, rows):
    """Each row as a JSON object; numbers and booleans drawn as strings or as JSON values."""
    objects = []
    for row in rows:
        obj = {}
        for column, value in zip(columns, row):
            if column == "usd_value" and value == "":
                form = draw(st.sampled_from(["omit", "null", "text"]))
                if form != "omit":
                    obj[column] = None if form == "null" else value
                continue
            if column in _NUMERIC_COLUMNS and value.lstrip("-").isdigit() and draw(st.booleans()):
                value = int(value)
            elif column == "gas_internalized" and draw(st.booleans()):
                value = value == "true"
            obj[column] = value
        objects.append(obj)
    return objects


@st.composite
def quote_rows(draw):
    return [
        draw(st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=8)),
        str(draw(st.integers(-10, 10))),
        str(draw(st.integers(0, 10**30))),
        str(draw(st.integers(0, 36))),
        draw(st.one_of(st.integers(0, 10**7).map(str), st.sampled_from(["150000.5", "0.25"]))),
        "prov",
    ]


@st.composite
def pool_rows(draw):
    return [
        str(draw(st.integers(-10, 10))),
        draw(st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=8)),
        str(draw(st.integers(1, 10**30))),
        str(draw(st.integers(1, 10**30))),
        str(draw(st.integers(0, 36))),
        str(draw(st.integers(0, 9999))),
        str(draw(st.integers(0, 10**6))),
    ]


def _csv_text(columns, rows) -> str:
    return "\n".join([",".join(columns)] + [",".join(r) for r in rows]) + "\n"


def _jsonl_text(objects) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objects)


class TestCsvJsonlParity:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_trades(self, data):
        rows = data.draw(st.lists(trade_rows(), min_size=1, max_size=5))
        objects = data.draw(jsonl_objects(TRADE_COLUMNS, rows))
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = write_input(tmp, _csv_text(TRADE_COLUMNS, rows))
            jsonl_path = write_input(tmp, _jsonl_text(objects), ".jsonl")
            for require_usd in (False, True):
                a = ingest_trades(csv_path, require_usd=require_usd)
                b = ingest_trades(jsonl_path, require_usd=require_usd)
                assert a.records == b.records
                assert a.rejects == b.rejects

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_quotes(self, data):
        rows = data.draw(
            st.lists(quote_rows(), min_size=1, max_size=5, unique_by=lambda r: (r[0], int(r[1])))
        )
        objects = data.draw(jsonl_objects(QUOTE_COLUMNS, rows))
        with tempfile.TemporaryDirectory() as tmp:
            a, a_rejects = ingest_quotes(write_input(tmp, _csv_text(QUOTE_COLUMNS, rows)))
            b, b_rejects = ingest_quotes(write_input(tmp, _jsonl_text(objects), ".jsonl"))
        assert not a_rejects and not b_rejects
        assert a.providers() == b.providers()
        assert [a.table(p) for p in a.providers()] == [b.table(p) for p in b.providers()]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_pools(self, data):
        rows = data.draw(
            st.lists(pool_rows(), min_size=1, max_size=5, unique_by=lambda r: (int(r[0]), r[1]))
        )
        objects = data.draw(jsonl_objects(SNAPSHOT_COLUMNS, rows))
        with tempfile.TemporaryDirectory() as tmp:
            a, a_rejects = ingest_pool_snapshots(write_input(tmp, _csv_text(SNAPSHOT_COLUMNS, rows)))
            b, b_rejects = ingest_pool_snapshots(write_input(tmp, _jsonl_text(objects), ".jsonl"))
        assert not a_rejects and not b_rejects
        assert a == b


_NEGATIVE = st.integers(max_value=-1)
_NOT_INT = st.sampled_from([Decimal(1), 1.0, "1"])
_DECIMALS_OUT_OF_RANGE = st.one_of(st.integers(max_value=-1), st.integers(min_value=37))
_NOT_18 = st.integers(0, 36).filter(lambda d: d != 18)


def _pool(reserve_weth=TokenAmount(WETH, 18), reserve_token=TokenAmount(10**9, 6),
          fee_bps=30, gas_per_hop=120_000):
    return Pool("P1", reserve_weth, reserve_token, fee_bps, gas_per_hop)


def _quote(gas_estimate):
    return Quote("T1", 0, TokenAmount(1, 6), gas_estimate, "prov")


# (constructor of one out-of-range field value, strategy of such values)
MODEL_GUARDS = {
    "token-raw-negative": (lambda v: TokenAmount(v, 18), _NEGATIVE),
    "token-raw-not-int": (lambda v: TokenAmount(v, 18), _NOT_INT),
    "token-raw-inexact": (lambda v: TokenAmount(v, 18), st.integers(min_value=10**60)),
    "token-decimals": (lambda v: TokenAmount(1, v), _DECIMALS_OUT_OF_RANGE),
    "gas-used": (lambda v: GasTerms(v, 1, 1), st.one_of(_NEGATIVE, _NOT_INT)),
    "base-fee": (lambda v: GasTerms(1, v, 1), st.one_of(_NEGATIVE, _NOT_INT)),
    "priority-fee": (lambda v: GasTerms(1, 1, v), st.one_of(_NEGATIVE, _NOT_INT)),
    "gas-cost-overflow": (lambda v: GasTerms(v, 2**64, 0), st.integers(2**64, 2**80)),
    "quote-gas-negative": (lambda v: _quote(Decimal(v)), _NEGATIVE),
    "quote-gas-above-uint128": (
        lambda v: _quote(Decimal(v)), st.integers(MAX_UINT128 + 1, 2 * MAX_UINT128)
    ),
    "pool-weth-reserve": (lambda v: _pool(reserve_weth=TokenAmount(v, 18)), st.just(0)),
    "pool-token-reserve": (lambda v: _pool(reserve_token=TokenAmount(v, 6)), st.just(0)),
    "pool-weth-decimals": (lambda v: _pool(reserve_weth=TokenAmount(WETH, v)), _NOT_18),
    "pool-fee-bps": (
        lambda v: _pool(fee_bps=v), st.one_of(_NEGATIVE, st.integers(min_value=10000))
    ),
    "pool-gas-per-hop": (lambda v: _pool(gas_per_hop=v), _NEGATIVE),
    "pool-gas-per-hop-above-uint64": (
        lambda v: _pool(gas_per_hop=v), st.integers(MAX_UINT64 + 1, MAX_UINT128)
    ),
    "trade-amount-in": (lambda v: make_trade(amount_in=TokenAmount(v, 18)), st.just(0)),
    "trade-amount-out": (lambda v: make_trade(amount_out=TokenAmount(v, 6)), st.just(0)),
    "trade-weth-in-decimals": (
        lambda v: make_trade(amount_in=TokenAmount(WETH, v)), _NOT_18
    ),
    "trade-weth-out-decimals": (
        lambda v: make_trade(direction=Direction.WETH_OUT, amount_out=TokenAmount(WETH, v)),
        _NOT_18,
    ),
    "trade-internalized-gross-output": (
        lambda v: make_trade(
            direction=Direction.WETH_OUT, gas_internalized=True,
            amount_out=TokenAmount(10**60 - v, 18),
        ),
        st.integers(1, 150_000 * 21 * 10**9),  # the fixture's gas cost
    ),
    "trade-block-number": (lambda v: make_trade(block_number=v), _NEGATIVE),
    "trade-usd-value": (lambda v: make_trade(usd_value=Decimal(v)), _NEGATIVE),
}


class TestModelGuards:
    """Direct construction checks every range, whatever ingest checks first."""

    @pytest.mark.parametrize("guard", sorted(MODEL_GUARDS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_out_of_range_field_raises(self, guard, data):
        build, values = MODEL_GUARDS[guard]
        with pytest.raises(ValueError):
            build(data.draw(values))
