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
    PtdfMatrix,
    build_ptdf,
    evaluate_flows,
    interface_flow,
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
    RedispatchRecord,
    UcGenerator,
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
    form_nodal_prices,
    form_smp,
    form_zonal_prices,
    stack_price,
)
from gridclear.settlement import (
    SettlementReport,
    compute_uplift,
    settle_energy,
    settle_redispatch,
    summarize,
)
from gridclear.analysis import (
    BidDeviation,
    PriceSeriesStats,
    evaluate_bid_deviation,
    price_stats,
    redispatch_summary,
)
from gridclear.scenario import Scenario, ScenarioValidationError, dump_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Bus", "Line", "Interface", "Network", "PtdfMatrix", "FlowSet",
    "build_ptdf", "evaluate_flows", "interface_flow",
    "LinearProgram", "LpBuilder", "LpSolution", "solve",
    "GeneratorSpec", "ConstraintRegime", "DispatchResult",
    "clear", "with_forced_bounds",
    "UcGenerator", "UcSchedule", "RedispatchRecord",
    "solve_uc", "run_dauc_ruc", "single_interval_schedule",
    "StackPrice", "MarginalSet", "PriceReport", "PriceComponents",
    "stack_price", "form_smp", "form_zonal_prices", "form_nodal_prices",
    "SettlementReport", "settle_energy", "compute_uplift", "settle_redispatch", "summarize",
    "BidDeviation", "PriceSeriesStats",
    "evaluate_bid_deviation", "redispatch_summary", "price_stats",
    "Scenario", "ScenarioValidationError", "load_scenario", "dump_scenario",
    "__version__",
]
