"""repro: placement-coupled timing-driven logic replication for FPGAs.

A complete reimplementation of Hrkic, Lillis & Beraudo, *An Approach to
Placement-Coupled Logic Replication* (DAC 2004 / IEEE TCAD 2006),
including every substrate the paper depends on: a LUT/FF netlist model,
an island-style FPGA architecture, static timing analysis, a VPR-style
timing-driven simulated-annealing placer, a PathFinder-style
timing-driven router for post-route evaluation, the optimal fanin-tree
embedding DP, the replication tree, Lex-N/Lex-mc reconvergence-aware
variants, a timing-driven legalizer, and the local-replication baseline
the paper compares against.

Quick start (the :mod:`repro.api` facade)::

    from repro import api

    design = api.load_design(circuit="tseng", scale=0.1)
    placed = api.place(design, seed=1)
    result = api.optimize(design, placed.placement)
    print(placed.critical_delay, "->", result.final_delay)

The lower-level building blocks (schemes, embedder, legalizer, router)
remain importable from their subpackages, e.g. the flow's core entry
point :func:`repro.core.flow.optimize_replication`.
"""

from repro.arch import ElmoreDelayModel, FpgaArch, LinearDelayModel
from repro.core import (
    EmbedderOptions,
    FaninTree,
    FaninTreeEmbedder,
    GridEmbeddingGraph,
    LexMcScheme,
    LexScheme,
    MaxArrivalScheme,
    OptimizationResult,
    ReplicationConfig,
    ReplicationOptimizer,
    scheme_by_name,
)
from repro.core.config import RunConfig
from repro.netlist import Netlist, check_equivalence, validate_netlist
from repro.place import (
    Placement,
    legalize_placement,
    place_timing_driven,
    place_wirelength_driven,
    total_wirelength,
)
from repro.route import route_infinite, route_low_stress, routed_critical_delay
from repro.timing import analyze, build_spt, delay_lower_bound

from repro import api
from repro.api import (
    Design,
    EvalResult,
    OptimizeResult,
    PlaceResult,
    RouteResult,
    campaign_report,
    campaign_resume,
    campaign_run,
    campaign_status,
    evaluate,
    load_design,
    optimize,
    resume,
)

__version__ = "1.1.0"

__all__ = [
    "Design",
    "ElmoreDelayModel",
    "EmbedderOptions",
    "EvalResult",
    "FaninTree",
    "FaninTreeEmbedder",
    "FpgaArch",
    "GridEmbeddingGraph",
    "LexMcScheme",
    "LexScheme",
    "LinearDelayModel",
    "MaxArrivalScheme",
    "Netlist",
    "OptimizationResult",
    "OptimizeResult",
    "PlaceResult",
    "Placement",
    "ReplicationConfig",
    "ReplicationOptimizer",
    "RouteResult",
    "RunConfig",
    "analyze",
    "api",
    "campaign_report",
    "campaign_resume",
    "campaign_run",
    "campaign_status",
    "evaluate",
    "load_design",
    "optimize",
    "resume",
    "build_spt",
    "check_equivalence",
    "delay_lower_bound",
    "legalize_placement",
    "place_timing_driven",
    "place_wirelength_driven",
    "route_infinite",
    "route_low_stress",
    "routed_critical_delay",
    "scheme_by_name",
    "total_wirelength",
    "validate_netlist",
    "__version__",
]
