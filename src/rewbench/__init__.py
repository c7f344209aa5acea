"""String rewriting workbench for monoids with zero.

Words are plain strings over a small alphabet; the absorbing zero is
the ZERO sentinel.  The package covers rewriting and normal forms,
critical pairs and completion, a catalog of built-in presentations,
normal-form growth, unit-witness construction and search, bounded
congruence probes, and derivation-area measurements.
"""

from .core import (
    ZERO,
    Alphabet,
    Element,
    Presentation,
    PresentationSyntaxError,
    RewritingSystem,
    Rule,
    ShortlexOrder,
    UnorientableRelationError,
    dump_presentation,
    equal_in_monoid,
    format_element,
    is_zero,
    normalize,
    orient,
    parse_presentation,
    product,
    rewrite_step,
)
from .matcher import FactorMatcher
from .completion import (
    CompletionLimits,
    CompletionOutcome,
    ConfluenceReport,
    CriticalPair,
    Overlap,
    check_local_confluence,
    critical_pairs,
    knuth_bendix,
    overlaps,
)
from .catalog import (
    CatalogEntry,
    build_dehn_example,
    build_mn,
    get_entry,
    list_catalog,
)
from .enumeration import (
    GrowthSeries,
    enumerate_normal_forms,
    growth_series,
    iter_normal_forms,
)
from .witnesses import WitnessPair, unit_witness_mn, unit_witness_search
from .congruence import (
    CollapseTrace,
    ProbeResult,
    ProbeSummary,
    TraceStep,
    probe_all_pairs,
    probe_congruence,
    replay_trace,
)
from .dehn import (
    AreaResult,
    ProfileLimits,
    ProfileResult,
    ProfileRow,
    dehn_area,
    dehn_profile,
    fit_power_law,
)
from .identities import IdentityCheck, all_hold, verify_mn_identities

__version__ = "0.1.0"

__all__ = [
    "ZERO",
    "Alphabet",
    "AreaResult",
    "CatalogEntry",
    "CollapseTrace",
    "CompletionLimits",
    "CompletionOutcome",
    "ConfluenceReport",
    "CriticalPair",
    "Element",
    "FactorMatcher",
    "GrowthSeries",
    "IdentityCheck",
    "Overlap",
    "Presentation",
    "PresentationSyntaxError",
    "ProbeResult",
    "ProbeSummary",
    "ProfileLimits",
    "ProfileResult",
    "ProfileRow",
    "RewritingSystem",
    "Rule",
    "ShortlexOrder",
    "TraceStep",
    "UnorientableRelationError",
    "WitnessPair",
    "all_hold",
    "build_dehn_example",
    "build_mn",
    "check_local_confluence",
    "critical_pairs",
    "dehn_area",
    "dehn_profile",
    "dump_presentation",
    "enumerate_normal_forms",
    "equal_in_monoid",
    "fit_power_law",
    "format_element",
    "get_entry",
    "growth_series",
    "is_zero",
    "iter_normal_forms",
    "knuth_bendix",
    "list_catalog",
    "normalize",
    "orient",
    "overlaps",
    "parse_presentation",
    "probe_all_pairs",
    "probe_congruence",
    "product",
    "replay_trace",
    "rewrite_step",
    "unit_witness_mn",
    "unit_witness_search",
    "verify_mn_identities",
]
