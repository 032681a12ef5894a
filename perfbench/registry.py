"""What the benchmark measures: workloads, metrics and the probes behind them.

BENCHMARK.json lists each gated metric with its unit, direction and
bound; its format has no room for the rest, which lives here: the layer
a metric belongs to, and which end-to-end metric on which workload it
should move.  ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Probe

# Later changes confirm their claims on this seed, which no change may
# tune against.
HELD_OUT_SEED = 7177


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # higher | lower
    layer: str
    # How a traced run computes it: ("self", span), ("total", span),
    # ("calls", span), ("count", counter), ("per", span, counter) is the
    # span's total time per counted unit, ("ratio", counter, counter).
    how: tuple = ()
    moves: tuple = ()  # (end-to-end metric, workload) pairs it should move
    needs: tuple = ()  # probe names whose loss makes it absent
    bound: float = 0.0  # end-to-end only: allowed relative worsening
    gated: bool = True  # end-to-end only: listed in BENCHMARK.json


# Timings on a shared 2-core machine drift by 10-30% over seconds as
# neighbours load it; the timing bounds are set above that drift.
END_TO_END = (
    Metric("docs_per_s", "1/s", "higher", "end-to-end", bound=0.2),
    Metric("doc_p50_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("doc_tail_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", bound=0.1),
    Metric("setup_s", "s", "lower", "end-to-end", bound=0.25),
    # 0 on a healthy tree, so it cannot be gated by a share of its
    # median; the result's "failed"/"attempted" carry it instead.
    Metric("failed_frac", "fraction", "lower", "end-to-end", gated=False),
)

FAN, LADDER, VERIFY = "fan-sweep", "ptg-ladder", "verify-mix"
THROUGHPUT, P50, TAIL = "docs_per_s", "doc_p50_s", "doc_tail_s"

PER_LAYER = (
    Metric("cli.self_s", "s", "lower", "cli", ("self", "cli.main"), ((P50, VERIFY),)),
    Metric("gamedoc.load_s", "s", "lower", "gamedoc", ("self", "gamedoc.load"), ((P50, VERIFY),)),
    Metric("gamedoc.emit_s", "s", "lower", "gamedoc", ("self", "gamedoc.emit"), ((THROUGHPUT, LADDER),)),
    Metric("gamedoc.out_bytes", "bytes", "lower", "gamedoc", ("count", "gamedoc.out_bytes"),
           needs=("gamedoc.emit",)),
    Metric("priced_game.dijkstra_calls", "count", "lower", "priced_game",
           ("calls", "priced_game.dijkstra"), ((THROUGHPUT, FAN), (THROUGHPUT, LADDER))),
    Metric("priced_game.dijkstra_s", "s", "lower", "priced_game",
           ("self", "priced_game.dijkstra"), ((THROUGHPUT, FAN), (THROUGHPUT, LADDER))),
    Metric("priced_game.stabilise_calls", "count", "lower", "priced_game",
           ("calls", "priced_game.stabilise"), ((THROUGHPUT, FAN),)),
    Metric("priced_game.stabilise_s", "s", "lower", "priced_game",
           ("self", "priced_game.stabilise"), ((THROUGHPUT, FAN),)),
    Metric("priced_game.switches", "count", "lower", "priced_game",
           ("count", "priced_game.switches"), needs=("priced_game.stabilise",)),
    Metric("sptg.solves", "count", "lower", "sptg", ("calls", "sptg.solve")),
    Metric("sptg.sweep_steps", "count", "lower", "sptg", ("count", "sptg.sweep_steps"),
           needs=("sptg.solve",)),
    Metric("sptg.event_points", "count", "lower", "sptg", ("count", "sptg.event_points"),
           needs=("sptg.solve",)),
    Metric("sptg.step_s", "s", "lower", "sptg", ("per", "sptg.solve", "sptg.sweep_steps"),
           ((THROUGHPUT, FAN),)),
    # Inclusive: the untimed solve at the horizon is all children.
    Metric("sptg.time_one_s", "s", "lower", "sptg", ("total", "sptg.time_one"), ((THROUGHPUT, FAN),)),
    Metric("sptg.snapshot_build_s", "s", "lower", "sptg", ("self", "sptg.snapshot_build"),
           ((THROUGHPUT, FAN),)),
    Metric("sptg.crossing_s", "s", "lower", "sptg", ("self", "sptg.crossing"), ((THROUGHPUT, FAN),)),
    Metric("sptg.self_s", "s", "lower", "sptg", ("self", "sptg.solve"), ((THROUGHPUT, FAN),)),
    Metric("ptg.layers", "count", "lower", "ptg", ("count", "ptg.layers"), needs=("ptg.solve",)),
    Metric("ptg.interval_solves", "count", "lower", "ptg", ("count", "ptg.interval_solves"),
           needs=("ptg.solve",)),
    Metric("ptg.priced_solves", "count", "lower", "ptg", ("count", "ptg.priced_solves"),
           needs=("ptg.solve",)),
    Metric("ptg.moment_build_s", "s", "lower", "ptg", ("self", "ptg.moment_build"),
           ((THROUGHPUT, LADDER),)),
    Metric("ptg.interval_build_s", "s", "lower", "ptg", ("self", "ptg.interval_build"),
           ((THROUGHPUT, LADDER),)),
    Metric("ptg.self_s", "s", "lower", "ptg", ("self", "ptg.solve"), ((THROUGHPUT, LADDER),)),
    # Sweep steps of the interval SPTGs a PTG solve made, per interval
    # SPTG; 0 when no PTG was solved.
    Metric("ptg.steps_per_interval", "steps/interval", "lower", "ptg",
           ("ratio", "ptg.interval_steps", "ptg.interval_solves"), needs=("ptg.solve", "sptg.solve")),
    Metric("numerics.assembly_s", "s", "lower", "numerics", ("self", "numerics.assembly"),
           ((THROUGHPUT, FAN), (THROUGHPUT, LADDER))),
    Metric("numerics.envelope_s", "s", "lower", "numerics", ("self", "numerics.envelope"),
           ((P50, VERIFY),)),
    Metric("oracle.equilibrium_s", "s", "lower", "oracle", ("self", "oracle.equilibrium"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.simulate_calls", "count", "lower", "oracle", ("calls", "oracle.simulate"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.simulate_s", "s", "lower", "oracle", ("self", "oracle.simulate"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.choice_lookups", "count", "lower", "oracle", ("count", "oracle.choice_lookups"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.replay_checks", "count", "lower", "oracle", ("count", "oracle.replay_checks"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.value_iteration_s", "s", "lower", "oracle", ("self", "oracle.value_iteration"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    Metric("oracle.vi_iterations", "count", "lower", "oracle", ("count", "oracle.vi_iterations"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY)), needs=("oracle.value_iteration",)),
    Metric("oracle.brute_force_s", "s", "lower", "oracle", ("self", "oracle.brute_force"),
           ((THROUGHPUT, VERIFY), (TAIL, VERIFY))),
    # Budget refusals, which `solve --verify` does not report.
    Metric("oracle.brute_force_skipped", "count", "lower", "oracle",
           ("count", "oracle.brute_force_skipped"), ((THROUGHPUT, VERIFY), (TAIL, VERIFY)),
           needs=("oracle.brute_force",)),
    # The benchmark's own correctness checks inside the timed loop.
    Metric("bench.check_s", "s", "lower", "bench", ("self", "bench.check")),
    Metric("trace.wall_s", "s", "lower", "trace", ("bench", "trace.wall_s")),
    # Traced pass wall time minus the median untraced pass.
    Metric("trace.overhead_s", "s", "lower", "trace", ("bench", "trace.overhead_s")),
)


def _out_bytes(tracer, text):
    tracer.add("gamedoc.out_bytes", len(text.encode()))


def _switches(tracer, result):
    tracer.add("priced_game.switches", result[2])


def _sptg_stats(tracer, sol):
    tracer.add("sptg.sweep_steps", sol.stats.sweep_steps)
    tracer.add("sptg.event_points", sol.stats.event_points)
    if tracer.inside("ptg.solve"):
        tracer.add("ptg.interval_steps", sol.stats.sweep_steps)


def _ptg_stats(tracer, res):
    tracer.add("ptg.layers", res.stats.layers)
    tracer.add("ptg.interval_solves", res.stats.oracle_calls)
    tracer.add("ptg.priced_solves", res.stats.priced_solves)


def _vi_iterations(tracer, res):
    tracer.add("oracle.vi_iterations", res.iterations)


def _brute_force_refused(tracer, exc):
    if type(exc).__name__ == "OracleError":
        tracer.add("oracle.brute_force_skipped")


PROBES = (
    Probe("ptgsolve.cli:main", "cli.main"),
    Probe("ptgsolve.gamedoc:parse", "gamedoc.load"),
    Probe("ptgsolve.gamedoc:GameDocument.to_game", "gamedoc.load"),
    Probe("ptgsolve.gamedoc:emit_priced_result", "gamedoc.emit", on_return=_out_bytes),
    Probe("ptgsolve.gamedoc:emit_sptg_result", "gamedoc.emit", on_return=_out_bytes),
    Probe("ptgsolve.gamedoc:emit_ptg_result", "gamedoc.emit", on_return=_out_bytes),
    Probe("ptgsolve.gamedoc:emit_plot", "gamedoc.emit", on_return=_out_bytes),
    Probe("ptgsolve.priced_game:extended_dijkstra", "priced_game.dijkstra"),
    Probe("ptgsolve.priced_game:strategy_iteration", "priced_game.stabilise", on_return=_switches),
    Probe("ptgsolve.priced_game:single_switch_iteration", "priced_game.stabilise",
          on_return=_switches),
    Probe("ptgsolve.sptg:solve_sptg", "sptg.solve", on_return=_sptg_stats),
    Probe("ptgsolve.sptg:solve_at_time_one", "sptg.time_one"),
    Probe("ptgsolve.sptg:build_eps_game", "sptg.snapshot_build"),
    Probe("ptgsolve.sptg:next_event_point", "sptg.crossing"),
    Probe("ptgsolve.ptg:solve_ptg", "ptg.solve", on_return=_ptg_stats),
    Probe("ptgsolve.ptg:build_moment_game", "ptg.moment_build"),
    Probe("ptgsolve.ptg:build_interval_sptg", "ptg.interval_build"),
    Probe("ptgsolve.numerics:PwlFn.from_segments", "numerics.assembly"),
    Probe("ptgsolve.numerics:min_envelope", "numerics.envelope"),
    Probe("ptgsolve.numerics:max_envelope", "numerics.envelope"),
    Probe("ptgsolve.numerics:wait_closure", "numerics.envelope"),
    Probe("ptgsolve.oracle:check_equilibrium", "oracle.equilibrium"),
    Probe("ptgsolve.oracle:simulate", "oracle.simulate"),
    Probe("ptgsolve.oracle:simulate_ptg", "oracle.simulate"),
    Probe("ptgsolve.sptg:TimedStrategyProfile.choice_at", "oracle.choice_lookups", kind="count"),
    Probe("ptgsolve.priced_game:improving_switches", "oracle.replay_checks", kind="count",
          only=("ptgsolve.oracle",)),
    Probe("ptgsolve.oracle:value_iteration_sptg", "oracle.value_iteration",
          on_return=_vi_iterations),
    Probe("ptgsolve.oracle:brute_force_priced", "oracle.brute_force",
          on_raise=_brute_force_refused),
)
# Scalar helpers (is_inf, EpsCost operators) stay unwrapped: a wrapper
# would cost more than the call.  Their cost shows in their callers'
# self time.
