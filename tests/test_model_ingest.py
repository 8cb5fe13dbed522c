"""Trade/quote/pool types and file ingestion."""

import io
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmeter.errors import DuplicateQuote, EmptyInput, IngestError
from swapmeter.ingest import (
    TRADE_COLUMNS,
    ingest_pool_snapshots,
    ingest_quotes,
    ingest_trades,
    serialize_trades,
)
from swapmeter.model import (
    Direction,
    GasTerms,
    Quote,
    TokenAmount,
    canonical_interface,
    canonical_path,
)

VALID_HEADER = ",".join(TRADE_COLUMNS)
VALID_ROW = "T1,Uniswap,Classic,18000000,WETH_IN,false,1000000000000000000,18,3000000000,6,150000,20000000000,1000000000,3000,1700000000"


def csv_of(*rows):
    return io.StringIO("\n".join([VALID_HEADER, *rows]) + "\n")


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

    def test_canonical_tags(self):
        assert canonical_interface("oneinch") == "1inch"
        assert canonical_interface("UNISWAP") == "Uniswap"
        assert canonical_interface("NewDex") == "NewDex"
        assert canonical_path("classic") == "Classic"
        assert canonical_path("x") == "X"
        assert canonical_path("Frontier") == "Frontier"


class TestIngestTrades:
    def test_valid_rows_pass_through(self):
        rows = [VALID_ROW, VALID_ROW.replace("T1", "T2"), VALID_ROW.replace("T1", "T3")]
        result = ingest_trades(csv_of(*rows))
        assert len(result.records) == 3
        assert not result.rejects
        assert [t.trade_id for t in result.records] == ["T1", "T2", "T3"]

    def test_zero_amount_rejected(self):
        bad = VALID_ROW.replace("1000000000000000000", "0")
        result = ingest_trades(csv_of(VALID_ROW, bad))
        assert len(result.records) == 1
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 2
        assert "amount_in" in result.rejects[0].reason

    def test_duplicate_trade_id_rejected(self):
        # every later row with an accepted id is rejected; a rejected row's
        # id does not count as seen
        bad = VALID_ROW.replace("T1,", "T2,").replace("WETH_IN", "SIDEWAYS")
        rows = [VALID_ROW, bad, VALID_ROW, VALID_ROW.replace("T1,", "T2,"), VALID_ROW]
        result = ingest_trades(csv_of(*rows))
        assert [t.trade_id for t in result.records] == ["T1", "T2"]
        assert [(r.line, r.reason) for r in result.rejects[1:]] == [
            (3, "duplicate trade_id T1"),
            (5, "duplicate trade_id T1"),
        ]
        with pytest.raises(IngestError, match="line 2: duplicate trade_id T1"):
            ingest_trades(csv_of(VALID_ROW, VALID_ROW), strict=True)

    def test_gas_overflow_rejected(self):
        bad = VALID_ROW.replace("150000,20000000000,1000000000", f"{2**64},{2**63},{2**63}")
        result = ingest_trades(csv_of(bad))
        assert not result.records
        assert "overflow" in result.rejects[0].reason

    def test_weth_side_decimals_enforced(self):
        bad = VALID_ROW.replace("1000000000000000000,18", "1000000000000000000,17")
        result = ingest_trades(csv_of(bad))
        assert "decimals" in result.rejects[0].reason

    def test_empty_input_fatal(self):
        with pytest.raises(EmptyInput):
            ingest_trades(csv_of())
        with pytest.raises(EmptyInput):
            ingest_trades(io.StringIO(""))

    def test_bad_header_fatal(self):
        with pytest.raises(IngestError, match="header"):
            ingest_trades(io.StringIO("a,b,c\n1,2,3\n"))

    def test_strict_mode_raises(self):
        bad = VALID_ROW.replace("WETH_IN", "SIDEWAYS")
        with pytest.raises(IngestError, match="line 1"):
            ingest_trades(csv_of(bad), strict=True)

    def test_missing_usd_accepted_unless_required(self):
        row = VALID_ROW.replace(",3000,", ",,")
        result = ingest_trades(csv_of(row))
        assert result.records[0].usd_value is None
        result = ingest_trades(csv_of(row), require_usd=True)
        assert not result.records
        assert "usd_value" in result.rejects[0].reason

    def test_comment_lines_skipped(self):
        stream = io.StringIO(f"# provenance line\n{VALID_HEADER}\n{VALID_ROW}\n")
        assert len(ingest_trades(stream).records) == 1

    def test_bytes_source(self):
        data = f"{VALID_HEADER}\n{VALID_ROW}\n".encode()
        assert len(ingest_trades(data).records) == 1

    def test_jsonl_roundtrip_fields(self):
        obj = dict(zip(TRADE_COLUMNS, VALID_ROW.split(","))) | {"gas_internalized": False}
        import json

        result = ingest_trades(io.StringIO(json.dumps(obj) + "\n"), fmt="jsonl")
        assert result.records[0].trade_id == "T1"
        assert result.records[0].direction is Direction.WETH_IN


class TestIngestQuotes:
    HEADER = "trade_id,offset,out_estimate_raw,out_estimate_decimals,gas_estimate,provider_id"

    def test_two_offsets(self):
        text = f"{self.HEADER}\nT1,-1,1,6,100,prov\nT1,0,2,6,100,prov\n"
        quotes, rejects = ingest_quotes(io.StringIO(text))
        assert len(quotes) == 2 and not rejects

    def test_duplicate_key_fatal(self):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov\nT1,0,2,6,100,prov\n"
        with pytest.raises(DuplicateQuote):
            ingest_quotes(io.StringIO(text))

    def test_same_key_different_provider_ok(self):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov_a\nT1,0,2,6,100,prov_b\n"
        quotes, _ = ingest_quotes(io.StringIO(text))
        assert quotes.providers() == ["prov_a", "prov_b"]
        assert quotes.get("T1", 0, "prov_a").out_estimate.raw == 1
        assert quotes.get("T1", 0, "prov_b").out_estimate.raw == 2

    def test_orphan_flagged_during_join(self):
        text = f"{self.HEADER}\nT1,0,1,6,100,prov\nGHOST,0,1,6,100,prov\n"
        quotes, _ = ingest_quotes(io.StringIO(text))
        trades = ingest_trades(csv_of(VALID_ROW)).records
        assert quotes.orphans(trades) == [("GHOST", 0, "prov")]


class TestIngestPools:
    def test_snapshot_grouped_by_offset(self):
        text = (
            "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
            "0,P1,1000000000000000000,3000000000,6,30,120000\n"
            "-1,P1,1000000000000000000,3000000000,6,30,120000\n"
            "0,P2,2000000000000000000,6000000000,6,5,120000\n"
        )
        snapshots, rejects = ingest_pool_snapshots(io.StringIO(text))
        assert not rejects
        assert sorted(snapshots) == [-1, 0]
        assert [p.pool_id for p in snapshots[0]] == ["P1", "P2"]

    def test_zero_reserve_rejected(self):
        text = (
            "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
            "0,P1,0,3000000000,6,30,120000\n"
        )
        snapshots, rejects = ingest_pool_snapshots(io.StringIO(text))
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
    @settings(max_examples=60, deadline=None)
    @given(st.lists(trade_rows(), min_size=1, max_size=6))
    def test_serialize_ingest_identity(self, rows):
        text = "\n".join([VALID_HEADER] + [",".join(r) for r in rows]) + "\n"
        first = ingest_trades(io.StringIO(text))
        canonical = serialize_trades(first.records)
        second = ingest_trades(io.StringIO(canonical)) if first.records else None
        if first.records:
            assert second.records == first.records
            assert not second.rejects

    def test_ingestion_is_deterministic(self):
        text = f"{VALID_HEADER}\n{VALID_ROW}\n{VALID_ROW.replace('T1', 'T2')}\n"
        a = ingest_trades(io.StringIO(text))
        b = ingest_trades(io.StringIO(text))
        assert a.records == b.records
