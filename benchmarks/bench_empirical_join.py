"""Empirical twin of Figures 11-13: JOIN strategies on real structures.

Runs the full strategy set (nested loop, tree join, index-supported join,
join index, partition sweep) on simulated storage and checks the study's
orderings on the measured meters: the nested loop pays the full N*M
predicate bill, the tree join prunes it by orders of magnitude, and the
precomputed join index answers with almost no work at query time --
while its *maintenance* bill (bench_update_costs) is where it loses.

Section 4.4 in seconds: each strategy's wall time is printed beside its
metered Table 3 units, and the Figures 11-13 crossovers are printed
under Table 3's charges and under the measured profile's
(``repro.costmodel.profile``).  Nothing is asserted about time.
"""

import time
from dataclasses import replace

import pytest

from repro.core.comparison import StrategyComparison
from repro.costmodel.distributions import make_distribution
from repro.costmodel.join_costs import (
    d_join_index,
    d_nested_loop,
    d_tree_clustered,
    d_tree_unclustered,
)
from repro.costmodel.parameters import PAPER_PARAMETERS
from repro.costmodel.profile import MEASURED_PROFILE
from repro.costmodel.sensitivity import join_crossover
from repro.predicates.theta import Overlaps, WithinDistance
from repro.workloads.assembly import build_indexed_relation

N_R, N_S = 700, 600


@pytest.fixture(scope="module")
def relations():
    ir_r = build_indexed_relation(N_R, seed=301, max_extent=25.0)
    ir_s = build_indexed_relation(N_S, seed=302, max_extent=25.0)
    return ir_r.relation, ir_s.relation


@pytest.fixture(scope="module", params=["overlaps", "within-30"])
def theta(request):
    return Overlaps() if request.param == "overlaps" else WithinDistance(30.0)


def test_join_strategy_comparison(benchmark, relations, theta):
    rel_r, rel_s = relations
    comparison = StrategyComparison()

    report = benchmark.pedantic(
        comparison.compare_join,
        args=(rel_r, "shape", rel_s, "shape", theta),
        rounds=1,
        iterations=1,
    )
    print()
    print(report.format_table())
    print(f"{'strategy':<18}{'total (Table 3)':>18}{'wall ms':>10}")
    for row in sorted(report.rows, key=lambda r: r.total_cost):
        print(f"{row.strategy:<18}{row.total_cost:>18.1f}"
              f"{wall_ms(comparison.executor, relations, theta, row.strategy):>10.1f}")

    scan = report.row("scan")
    tree = report.row("tree")
    index = report.row("join-index")

    # Everyone found the same join.
    assert len({r.matches for r in report.rows}) == 1
    # The paper's orderings on measured work:
    assert scan.predicate_evals == N_R * N_S
    assert tree.predicate_evals < scan.predicate_evals / 5
    assert index.total_cost <= tree.total_cost
    assert tree.total_cost <= scan.total_cost


def wall_ms(executor, relations, theta, strategy: str, reps: int = 3) -> float:
    """Best-of-``reps`` wall time of one strategy's join, in ms."""
    rel_r, rel_s = relations
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        executor.join(rel_r, "shape", rel_s, "shape", theta, strategy=strategy)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


#: Crossovers of Figures 11-13: (cheaper at low p, cheaper at high p).
CROSSOVERS = (("D_III", "D_IIb"), ("D_III", "D_IIa"), ("D_IIa", "D_I"))
FORMULAS = {
    "D_I": lambda dist: d_nested_loop(dist.params),
    "D_IIa": d_tree_unclustered,
    "D_IIb": d_tree_clustered,
    "D_III": d_join_index,
}


def test_figure_crossovers_in_seconds():
    """Where Figures 11-13's curves cross under Table 3's charges
    (C_IO = 1000 C_Theta) and under the measured profile's; with no
    crossover in p in [1e-12, 1], the strategy cheaper throughout."""
    in_seconds = replace(
        PAPER_PARAMETERS, c_theta=MEASURED_PROFILE["theta"], c_io=MEASURED_PROFILE["io"]
    )

    def crossing(dist: str, a: str, b: str, params) -> str:
        p = join_crossover(dist, a, b, params=params)
        if p is not None:
            return f"p = {p:.2e}"
        at = make_distribution(dist, params.with_p(1e-6))
        return f"{min((a, b), key=lambda m: FORMULAS[m](at))} always"

    print()
    print(f"{'figure':<17}{'crossover':<16}{'Table 3 units':>16}{'seconds':>16}")
    for figure, dist in ((11, "uniform"), (12, "no-loc"), (13, "hi-loc")):
        for a, b in CROSSOVERS:
            print(f"{figure:<3}{dist:<14}{a + ' / ' + b:<16}"
                  f"{crossing(dist, a, b, PAPER_PARAMETERS):>16}"
                  f"{crossing(dist, a, b, in_seconds):>16}")
