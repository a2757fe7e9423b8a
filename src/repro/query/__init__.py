"""Flow queries over segmented archives: predicates + planning engine."""

from repro.query.engine import (
    FlowSummary,
    QueryEngine,
    QueryResult,
    QueryStats,
    flow_summaries,
)
from repro.query.predicates import (
    And,
    DestinationAddress,
    DestinationPrefix,
    FlowKind,
    MatchAll,
    Not,
    Or,
    PacketCountRange,
    Predicate,
    RttRange,
    TimeRange,
)

__all__ = [
    "FlowSummary",
    "QueryEngine",
    "QueryResult",
    "QueryStats",
    "flow_summaries",
    "And",
    "DestinationAddress",
    "DestinationPrefix",
    "FlowKind",
    "MatchAll",
    "Not",
    "Or",
    "PacketCountRange",
    "Predicate",
    "RttRange",
    "TimeRange",
]
