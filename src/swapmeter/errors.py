"""Exception types raised across the toolkit."""


class SwapmeterError(Exception):
    """Base class for all toolkit errors."""


class IngestError(SwapmeterError):
    """Fatal stream-level ingestion failure (bad header, undecodable input)."""


class EmptyInput(IngestError):
    """The input stream contained no data rows."""


class DuplicateQuote(IngestError):
    """Two quotes share the same (trade_id, offset, provider_id) key."""


class QuoteUnavailable(SwapmeterError):
    """The baseline provider has no quote for (trade_id, offset)."""

    def __init__(self, trade_id: str, offset: int, detail: str = ""):
        msg = f"no quote for trade {trade_id!r} at offset {offset}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SnapshotUnavailable(SwapmeterError):
    """No pool snapshot exists for the requested block offset."""

    def __init__(self, offset: int):
        super().__init__(f"no pool snapshot for offset {offset}")


class NoPools(SwapmeterError):
    """Routing was requested against an empty pool set."""


class NonPositiveAdjustedInput(SwapmeterError):
    """Gas-adjusted input i - g'(b+f') is not positive."""


class NonPositiveBaseline(SwapmeterError):
    """Counterfactual price p' <= 0; price improvement is undefined."""


class InsufficientData(SwapmeterError):
    """Fewer data points than the operation requires."""


class DegenerateRegressor(SwapmeterError):
    """Gas regression cannot be fit (non-positive regressor values)."""


class ZeroTotalWeight(SwapmeterError):
    """Weighted mean requested with all weights zero."""


class InvalidSpec(SwapmeterError):
    """Scenario specification failed validation."""


class ConfigError(SwapmeterError):
    """Run configuration is missing or inconsistent."""


# Errors that exclude one (trade, offset) pair from analysis instead of
# failing the run, each with the reason recorded for it.
EXCLUSION_REASONS: dict[type[SwapmeterError], str] = {
    NonPositiveBaseline: "non_positive_baseline",
    QuoteUnavailable: "quote_unavailable",
    SnapshotUnavailable: "snapshot_unavailable",
    NonPositiveAdjustedInput: "non_positive_adjusted_input",
}
EXCLUDED = tuple(EXCLUSION_REASONS)
