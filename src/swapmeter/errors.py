"""Exception types raised across the toolkit."""


class SwapmeterError(Exception):
    """Base class for all toolkit errors."""


class IngestError(SwapmeterError):
    """Fatal stream-level ingestion failure (bad header, undecodable input)."""


class EmptyInput(IngestError):
    """The input stream contained no data rows."""


class DuplicateQuote(IngestError):
    """Two quotes share the same (trade_id, offset, provider_id) key."""


class Excluded(SwapmeterError):
    """Excludes one (trade, offset) pair from analysis as `reason` instead of failing the run."""

    reason: str


class QuoteUnavailable(Excluded):
    """The baseline provider has no quote for (trade_id, offset)."""

    reason = "quote_unavailable"

    def __init__(self, trade_id: str, offset: int, detail: str = ""):
        msg = f"no quote for trade {trade_id!r} at offset {offset}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SnapshotUnavailable(Excluded):
    """No pool snapshot exists for the requested block offset."""

    reason = "snapshot_unavailable"

    def __init__(self, offset: int):
        super().__init__(f"no pool snapshot for offset {offset}")


class NoPools(SwapmeterError):
    """Routing was requested against an empty pool set."""


class NonPositiveAdjustedInput(Excluded):
    """Gas-adjusted input i - g'(b+f') is not positive."""

    reason = "non_positive_adjusted_input"


class NonPositiveBaseline(Excluded):
    """Counterfactual price p' <= 0; price improvement is undefined."""

    reason = "non_positive_baseline"


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

