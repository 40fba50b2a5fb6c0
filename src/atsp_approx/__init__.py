"""Constant-factor ATSP approximation with exact rational LP certificates.

The pipeline: solve the subtour-elimination LP and its dual exactly, massage
the dual into a strongly laminar instance, reduce recursively to vertebrate
pairs, solve those through subtour covers and Svensson's algorithm, and
return a verified tour together with its LP value and cost ratio.  Every
intermediate guarantee is re-checked at run time.
"""

from .checks import Checker
from .errors import (
    AtspError,
    BudgetError,
    ContractViolation,
    InfeasibleInstanceError,
    InputError,
    InternalCheckError,
)
from .graph import (
    ContractionMap,
    Digraph,
    Edge,
    EdgeMultiset,
    LaminarFamily,
    check_laminar,
    contract,
    euler_walk,
    integer_edges,
    is_eulerian_connected,
    scc_topological,
)
from .harness import (
    RunReport,
    gen_instance,
    held_karp_opt,
    parse_instance,
    run_pipeline,
    verify_tour,
)
from .instance import StronglyLaminarInstance
from .lp import build_strongly_laminar_instance, separate_subtour, solve_atsp_lp
from .pair import VertebratePair
from .cover import SubtourCoverInstance, subtour_cover
from .svensson import vertebrate_solve
from .vertebrate import TourCertificate, solve_atsp

__all__ = [
    "AtspError",
    "BudgetError",
    "Checker",
    "ContractViolation",
    "ContractionMap",
    "Digraph",
    "Edge",
    "EdgeMultiset",
    "InfeasibleInstanceError",
    "InputError",
    "InternalCheckError",
    "LaminarFamily",
    "RunReport",
    "StronglyLaminarInstance",
    "SubtourCoverInstance",
    "TourCertificate",
    "VertebratePair",
    "build_strongly_laminar_instance",
    "check_laminar",
    "contract",
    "euler_walk",
    "gen_instance",
    "held_karp_opt",
    "integer_edges",
    "is_eulerian_connected",
    "parse_instance",
    "run_pipeline",
    "scc_topological",
    "separate_subtour",
    "solve_atsp",
    "solve_atsp_lp",
    "subtour_cover",
    "verify_tour",
    "vertebrate_solve",
]
