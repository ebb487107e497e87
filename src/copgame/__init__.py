"""Pursuit games on digraphs.

An exact solver for the k-cop game, the clique substitution and arc
subdivision transformations, forbidden-pattern searches, and batch
verification suites that replay the structural claims tying them together.
"""

from .constructions import (
    clique_substitute_all,
    clique_substitute_vertex,
    gen_claw_orientations,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    subdivide_arcs,
)
from .digraph import (
    Digraph,
    count_sources,
    format_arc_list,
    is_strongly_connected,
    is_weakly_connected,
    parse_arc_list,
    to_dot,
    underlying_girth,
)
from .errors import InputError, StateBudgetExceeded
from .harness import (
    DEFAULT_SUITE_CONFIGS,
    RUN_ORDER,
    ExperimentReport,
    SuiteConfig,
    config_with_overrides,
    iter_all_digraphs,
    replay_instance,
    run_all,
    run_suite,
    write_reports,
)
from .patterns import (
    PatternWitness,
    containment_chain_check,
    find_induced,
    find_pk_star,
    find_pk_subgraph,
)
from .solver import (
    COPS,
    DEFAULT_STATE_BUDGET,
    ROBBER,
    GamePosition,
    GameTrace,
    SolveResult,
    cop_number,
    legal_moves,
    play_trace,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Digraph",
    "is_strongly_connected",
    "is_weakly_connected",
    "count_sources",
    "underlying_girth",
    "parse_arc_list",
    "format_arc_list",
    "to_dot",
    "clique_substitute_vertex",
    "clique_substitute_all",
    "subdivide_arcs",
    "gen_directed_path",
    "gen_directed_cycle",
    "gen_claw_orientations",
    "gen_projective_plane_incidence_doubled",
    "gen_random_digraph",
    "PatternWitness",
    "find_induced",
    "find_pk_subgraph",
    "find_pk_star",
    "containment_chain_check",
    "GamePosition",
    "GameTrace",
    "SolveResult",
    "COPS",
    "ROBBER",
    "legal_moves",
    "solve",
    "cop_number",
    "play_trace",
    "DEFAULT_STATE_BUDGET",
    "SuiteConfig",
    "ExperimentReport",
    "DEFAULT_SUITE_CONFIGS",
    "RUN_ORDER",
    "config_with_overrides",
    "iter_all_digraphs",
    "run_suite",
    "run_all",
    "replay_instance",
    "write_reports",
    "InputError",
    "StateBudgetExceeded",
]
