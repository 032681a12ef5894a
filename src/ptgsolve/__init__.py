"""Exact solver suite for one-clock priced timed games."""

from .numerics import (
    PwlFn,
    INF,
    frac,
    is_inf,
    max_envelope,
    min_envelope,
    wait_closure,
)
from .priced_game import (
    PAction,
    PricedGame,
    Valuation,
    extended_dijkstra,
    strategy_iteration,
)
from .sptg import Sptg, SptgSolution, TimedStrategyProfile, WAIT, solve_sptg
from .ptg import Ptg, PtgResult, TAction, solve_ptg
from .oracle import (
    Play,
    brute_force_priced,
    check_equilibrium,
    generate_random,
    simulate,
    value_iteration_sptg,
)

__all__ = [
    "PwlFn",
    "INF",
    "frac",
    "is_inf",
    "max_envelope",
    "min_envelope",
    "wait_closure",
    "PAction",
    "PricedGame",
    "Valuation",
    "extended_dijkstra",
    "strategy_iteration",
    "Sptg",
    "SptgSolution",
    "TimedStrategyProfile",
    "WAIT",
    "solve_sptg",
    "Ptg",
    "PtgResult",
    "TAction",
    "solve_ptg",
    "Play",
    "brute_force_priced",
    "check_equilibrium",
    "generate_random",
    "simulate",
    "value_iteration_sptg",
]

__version__ = "0.1.0"
