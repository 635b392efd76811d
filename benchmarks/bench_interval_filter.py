"""Raster-interval second tier on a HI-LOC join replay.

Replays the same join through one executor round after round -- the
approximation store rasterizes once per relation epoch, every round
probes the cached intervals -- and compares the metered work against the
Theta-only (filter-off) replay.  The claim asserted: on clustered
(HI-LOC-style) rectangle data the interval tier resolves at least 30%
of the candidate pairs outright, cutting ``theta_exact_evals`` by at
least that much while producing the byte-identical pair list.

The artifact records, per strategy: exact evals with and without the
filter, probes, sure hits, evals saved, and the wall-clock delta.

``BENCH_INTERVAL_SIZE`` overrides the per-relation cardinality (the
smoke suite sets it tiny; the full run defaults to 600 x 500).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.artifacts import build_clustered_relation, emit_bench_artifact
from repro.core.executor import SpatialQueryExecutor
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter

UNIVERSE = Rect(0.0, 0.0, 1000.0, 1000.0)

#: 128x128 grid: fine enough that HI-LOC rects (extents up to 60 units)
#: contain FULL cells, which is what turns candidates into sure hits.
SPEC = IntervalSpec(universe=UNIVERSE, level=7)

N_R = int(os.environ.get("BENCH_INTERVAL_SIZE", "600"))
N_S = max(2, N_R * 5 // 6)
ROUNDS = 3

#: The acceptance bound: the filter must remove at least this fraction
#: of the Theta-only exact evaluations on the HI-LOC replay.
MIN_REDUCTION = 0.30

STRATEGIES = ("tree", "partition", "zorder")


@pytest.fixture(scope="module")
def relations():
    return (
        build_clustered_relation("r", N_R, seed=301, clusters=8, max_width=60.0),
        build_clustered_relation("s", N_S, seed=302, clusters=8, max_width=60.0),
    )


def replay(relations, strategy: str, interval):
    """ROUNDS identical joins through one executor; cumulative meter."""
    rel_r, rel_s = relations
    executor = SpatialQueryExecutor(memory_pages=4000)
    meter = CostMeter()
    started = time.perf_counter()
    for _ in range(ROUNDS):
        result = executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy=strategy, meter=meter, interval=interval,
        )
    return result, meter, time.perf_counter() - started


def run_comparison(relations, strategy: str) -> dict:
    plain_result, plain_meter, plain_wall = replay(relations, strategy, None)
    flt_result, flt_meter, flt_wall = replay(relations, strategy, SPEC)

    assert sorted(flt_result.pairs) == sorted(plain_result.pairs), strategy
    assert plain_meter.theta_exact_evals > 0, strategy

    saved = plain_meter.theta_exact_evals - flt_meter.theta_exact_evals
    reduction = saved / plain_meter.theta_exact_evals
    return {
        "strategy": strategy,
        "pairs": len(plain_result.pairs),
        "exact_evals_theta_only": plain_meter.theta_exact_evals,
        "exact_evals_filtered": flt_meter.theta_exact_evals,
        "exact_evals_saved": saved,
        "reduction": round(reduction, 4),
        "interval_probes": flt_meter.interval_probes,
        "interval_sure_hits": flt_meter.interval_sure_hits,
        "interval_evals_saved": flt_meter.interval_evals_saved,
        "wall_theta_only": round(plain_wall, 4),
        "wall_filtered": round(flt_wall, 4),
        "wall_delta": round(flt_wall - plain_wall, 4),
    }


def check_rows(rows) -> None:
    print()
    header = (
        f"{'strategy':<12}{'exact off':>11}{'exact on':>10}{'saved':>8}"
        f"{'cut':>7}{'probes':>8}{'wall off':>10}{'wall on':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['strategy']:<12}{row['exact_evals_theta_only']:>11}"
            f"{row['exact_evals_filtered']:>10}{row['exact_evals_saved']:>8}"
            f"{row['reduction']:>7.0%}{row['interval_probes']:>8}"
            f"{row['wall_theta_only']:>10.3f}{row['wall_filtered']:>9.3f}"
        )
    for row in rows:
        assert row["reduction"] >= MIN_REDUCTION, (
            f"{row['strategy']}: interval tier saved only "
            f"{row['reduction']:.0%} of exact evals (< {MIN_REDUCTION:.0%})"
        )
        # Accounting identity: every probe either saved an exact eval or
        # fell through to one (all HI-LOC rects are in-universe, so no
        # unprobed exact path exists).
        assert (
            row["interval_probes"] - row["interval_evals_saved"]
            == row["exact_evals_filtered"]
        ), row["strategy"]


def test_hiloc_interval_replay(benchmark, relations):
    rows = benchmark.pedantic(
        lambda: [run_comparison(relations, s) for s in STRATEGIES],
        rounds=1, iterations=1,
    )
    check_rows(rows)
    emit_bench_artifact("bench_interval_filter", "hiloc_replay", {
        "n_r": N_R, "n_s": N_S, "rounds": ROUNDS,
        "level": SPEC.level, "min_reduction": MIN_REDUCTION,
        "rows": rows,
    })


@pytest.mark.smoke
def test_interval_filter_smoke(relations):
    """Tiny single-strategy pass: the bound holds even at smoke sizes."""
    row = run_comparison(relations, "partition")
    check_rows([row])
    emit_bench_artifact("bench_interval_filter", "smoke", row)
