"""gridclear: deterministic wholesale electricity market simulation engine.

Clears energy on DC network models under selectable constraint regimes,
forms prices under uniform / zonal / nodal schemes, runs day-ahead versus
reliability unit-commitment passes, and produces full settlement accounting.
"""

from gridclear.grid import (
    Bus,
    FlowSet,
    Interface,
    Line,
    Network,
    build_ptdf,
    evaluate_flows,
    overloaded_lines,
)
from gridclear.lp import LinearProgram, LpBuilder, LpSolution, solve
from gridclear.dispatch import (
    ConstraintRegime,
    DispatchResult,
    GeneratorSpec,
    clear,
    with_forced_bounds,
)
from gridclear.commitment import (
    UcSchedule,
    run_dauc_ruc,
    single_interval_schedule,
    solve_uc,
)
from gridclear.pricing import (
    MarginalSet,
    PriceComponents,
    PriceReport,
    StackPrice,
    form_prices,
    form_smp,
    stack_price,
)
from gridclear.settlement import (
    SettlementReport,
    compute_uplift,
    price_at,
    settle_energy,
    settle_redispatch,
    summarize,
)
from gridclear.analysis import (
    BidDeviation,
    PriceSeriesStats,
    evaluate_bid_deviation,
    price_stats,
)
from gridclear.scenario import Scenario, ScenarioValidationError, dump_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Bus", "Line", "Interface", "Network", "FlowSet",
    "build_ptdf", "evaluate_flows", "overloaded_lines",
    "LinearProgram", "LpBuilder", "LpSolution", "solve",
    "GeneratorSpec", "ConstraintRegime", "DispatchResult",
    "clear", "with_forced_bounds",
    "UcSchedule",
    "solve_uc", "run_dauc_ruc", "single_interval_schedule",
    "StackPrice", "MarginalSet", "PriceReport", "PriceComponents",
    "stack_price", "form_prices", "form_smp",
    "SettlementReport", "price_at", "settle_energy", "compute_uplift", "settle_redispatch", "summarize",
    "BidDeviation", "PriceSeriesStats",
    "evaluate_bid_deviation", "price_stats",
    "Scenario", "ScenarioValidationError", "load_scenario", "dump_scenario",
    "__version__",
]
