"""``repro calibrate``: the fit, the committed profile and the report.

Nothing here reads a clock's value: the fit is checked on synthetic
runs whose seconds are an exact linear function of their work, and the
measured report only for its shape.
"""

import pytest

from repro.core import calibration
from repro.core.calibration import (
    Cell,
    Run,
    calibrate,
    fit,
    grid,
    measure,
    write_profile,
)
from repro.core.optimizer import executable_strategy
from repro.costmodel import profile as profile_module
from repro.costmodel.profile import MEASURED_PROFILE, WORK_KINDS, predicate_kinds

CELL = Cell("rect", "uniform", 40)


def synthetic(truth: dict[str, float], works: list[dict[str, float]]) -> list[Run]:
    return [
        Run(CELL, 1, "tree", (sum(truth[k] * v for k, v in work.items()),), work)
        for work in works
    ]


def test_fit_recovers_the_constants_behind_exact_timings():
    truth = {"io": 2e-5, "theta": 5e-6, "probe": 1e-4}
    runs = synthetic(truth, [
        {"io": 100.0, "theta": 1000.0},
        {"io": 10.0, "theta": 5000.0, "probe": 30.0},
        {"io": 400.0, "theta": 200.0, "probe": 3.0},
        {"theta": 70.0, "probe": 90.0},
    ])
    fitted = fit(runs)
    for kind, value in truth.items():
        assert fitted[kind] == pytest.approx(value, rel=1e-9)
    # A kind no run exercised keeps the committed constant.
    assert fitted["sweep_row"] == MEASURED_PROFILE["sweep_row"]


def test_fit_never_prices_work_below_zero():
    # The second kind only ever lowers the time: least squares would
    # give it a negative constant; the fit drops it to zero instead.
    runs = [
        Run(CELL, 1, "tree", (1.0,), {"io": 1.0, "theta": 0.0}),
        Run(CELL, 1, "tree", (1.5,), {"io": 2.0, "theta": 1.0}),
        Run(CELL, 1, "tree", (3.0,), {"io": 3.0, "theta": 0.0}),
    ]
    fitted = fit(runs)
    assert fitted["theta"] == 0.0
    assert fitted["io"] > 0.0


def test_write_profile_rewrites_only_the_fitted_block(tmp_path):
    path = tmp_path / "profile.py"
    original = open(profile_module.__file__).read()
    path.write_text(original)
    doubled = {kind: 2 * value for kind, value in MEASURED_PROFILE.items()}
    write_profile(doubled, path)
    text = path.read_text()
    namespace: dict = {}
    exec(compile(text, str(path), "exec"), namespace)
    assert namespace["MEASURED_PROFILE"] == pytest.approx(doubled, rel=1e-3)
    head, tail = original.split("# BEGIN FITTED PROFILE")[0], original.split("# END FITTED PROFILE")[1]
    assert text.startswith(head) and text.endswith(tail)


def test_the_committed_profile_prices_every_kind():
    assert list(MEASURED_PROFILE) == list(WORK_KINDS)
    assert all(value >= 0.0 for value in MEASURED_PROFILE.values())


def test_predicate_kinds():
    from repro.predicates.theta import Overlaps, WithinDistance
    from repro.relational.schema import ColumnType

    rect, poly = ColumnType.RECT, ColumnType.POLYGON
    assert predicate_kinds(Overlaps(), rect, rect) == ("exact.overlaps.rect", "pair.overlaps.rect")
    assert predicate_kinds(Overlaps(), rect, poly) == ("exact.overlaps.polygon", "pair.overlaps.polygon")
    assert predicate_kinds(WithinDistance(1.0), poly, poly) == ("exact.other.polygon", "pair.other.polygon")


@pytest.mark.parametrize("cell", grid(tiny=True), ids=Cell.label)
def test_a_measured_cell_picks_what_plan_join_picks(cell):
    result = measure(cell, seed=7, reps=1)
    assert result.pick(MEASURED_PROFILE) == executable_strategy(result.plan)
    timed = {run.strategy for run in result.runs}
    assert result.fastest().strategy in timed
    assert "+INT" not in result.fastest().strategy
    if cell.join_index:
        assert "join-index" in timed


def test_reps_are_taken_round_robin(monkeypatch):
    """One rep of every strategy, then the next round: a slow phase of
    the host lands on every strategy alike."""
    order = []
    real = calibration._time

    def recording(executor, ops, strategy, interval=False):
        order.append((strategy, bool(interval)))
        return real(executor, ops, strategy, interval)

    monkeypatch.setattr(calibration, "_time", recording)
    cell = Cell("polygon", "hiloc", 30, interval=True)
    result = measure(cell, seed=7, reps=2)
    labels = [run.strategy for run in result.runs]
    assert labels[-2:] == ["partition+INT cold", "partition+INT"]
    one_round = [(run.strategy.split("+")[0], "+INT" in run.strategy) for run in result.runs]
    # Two rounds of everything, then the warm grid's extra rep.
    assert order == one_round + one_round + [("partition", True)]
    assert [len(run.times) for run in result.runs] == [2] * (len(labels) - 1) + [3]
    for run in result.runs:
        assert run.seconds == min(run.times)
        assert run.spread == max(run.times) / min(run.times) >= 1.0


def test_the_regret_table_shows_the_fastest_strategys_spread():
    result = measure(Cell("rect", "uniform", 30), seed=7, reps=2)
    header, row = calibration.format_regret([result], MEASURED_PROFILE).splitlines()
    assert "spread" in header.split()
    assert f"{result.fastest().spread:6.2f}" in row


def test_check_reports_the_profile_and_every_cell_at_both_seeds():
    text = calibrate(check=True, tiny=True)
    assert text.startswith("committed profile")
    for kind in WORK_KINDS:
        assert kind in text
    rows = [line for line in text.splitlines() if " 1993 " in line or " 4242 " in line]
    assert len(rows) == 2 * len(grid(tiny=True))
