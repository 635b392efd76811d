"""Tests for the materializing algebra (Section 2.1's pipeline)."""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.theta import WithinDistance
from repro.relational.algebra import (
    equijoin_into,
    project_into,
    select_into,
    theta_join_into,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk

from tests import oracle


@pytest.fixture
def pool():
    return BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())


@pytest.fixture
def customer_order(pool):
    """The paper's Section 2.1 example relations."""
    customer = Relation(
        "customer",
        Schema(
            [
                Column("cno", ColumnType.INT),
                Column("cname", ColumnType.STR),
                Column("ccity", ColumnType.STR),
            ]
        ),
        pool,
    )
    order = Relation(
        "order",
        Schema(
            [
                Column("custno", ColumnType.INT),
                Column("partno", ColumnType.INT),
                Column("quantity", ColumnType.INT),
            ]
        ),
        pool,
    )
    customer.insert_all(
        [
            [1, "ada", "New York"],
            [2, "bob", "Boston"],
            [3, "cyd", "New York"],
            [4, "dee", "Chicago"],
        ]
    )
    order.insert_all(
        [
            [1, 100, 5],
            [1, 101, 2],
            [3, 100, 1],
            [4, 102, 9],
            [9, 103, 1],  # dangling customer number
        ]
    )
    return customer, order


class TestSelectProject:
    def test_select_into(self, customer_order):
        customer, _ = customer_order
        ny = select_into(customer, lambda t: t["ccity"] == "New York", "nycustomer")
        assert len(ny) == 2
        assert {t["cname"] for t in ny.scan()} == {"ada", "cyd"}
        assert ny.schema == customer.schema

    def test_project_into(self, customer_order):
        customer, _ = customer_order
        names = project_into(customer, ["cname"], "names")
        assert names.schema.column_names == ("cname",)
        assert len(names) == 4

    def test_project_keeps_duplicates(self, customer_order):
        customer, _ = customer_order
        cities = project_into(customer, ["ccity"], "cities")
        assert len(cities) == 4  # bag semantics


class TestEquijoin:
    def test_nyorders_pipeline(self, customer_order):
        """The paper's walk-through: select NY customers, join orders,
        project the result."""
        customer, order = customer_order
        ny = select_into(customer, lambda t: t["ccity"] == "New York", "nycustomer")
        joined = equijoin_into(ny, "cno", order, "custno", "nyjoined")
        assert len(joined) == 3  # ada x2, cyd x1
        nyorders = project_into(
            joined, ["cno", "cname", "partno", "quantity"], "nyorders"
        )
        rows = {(t["cno"], t["partno"]) for t in nyorders.scan()}
        assert rows == {(1, 100), (1, 101), (3, 100)}

    def test_equijoin_symmetric(self, customer_order):
        customer, order = customer_order
        a = equijoin_into(customer, "cno", order, "custno", "a")
        b = equijoin_into(order, "custno", customer, "cno", "b")
        assert len(a) == len(b) == 4

    def test_clashing_columns_renamed(self, pool):
        schema = Schema([Column("k", ColumnType.INT), Column("v", ColumnType.INT)])
        r = Relation("r", schema, pool)
        s = Relation("s", schema, pool)
        r.insert([1, 10])
        s.insert([1, 20])
        joined = equijoin_into(r, "k", s, "k", "j")
        assert joined.schema.column_names == ("k", "v", "k_2", "v_2")
        row = next(joined.scan())
        assert (row["v"], row["v_2"]) == (10, 20)


class TestSpatialThetaJoin:
    def test_materialized_spatial_join(self, pool):
        houses = Relation(
            "house",
            Schema([Column("hid", ColumnType.INT), Column("loc", ColumnType.POINT)]),
            pool,
        )
        lakes = Relation(
            "lake",
            Schema([Column("lid", ColumnType.INT), Column("area", ColumnType.RECT)]),
            pool,
        )
        houses.insert_all([[0, Point(1, 1)], [1, Point(50, 50)], [2, Point(10, 9)]])
        lakes.insert_all([[0, Rect(0, 0, 5, 5)], [1, Rect(8, 8, 12, 12)]])
        theta = WithinDistance(4.0)

        joined = theta_join_into(
            SpatialQueryExecutor(), houses, "loc", lakes, "area", theta, "near",
        )
        rows = {(t["hid"], t["lid"]) for t in joined.scan()}
        assert rows == {(0, 0), (2, 1)}
        # Joined schema carries both sides' columns.
        assert set(joined.schema.column_names) == {"hid", "loc", "lid", "area"}

    def test_selection_before_join_shrinks_work(self, pool):
        """Section 4.5: joins typically run after selections; the algebra
        makes the pipeline explicit and the meter shows the saving."""
        schema = Schema([Column("oid", ColumnType.INT), Column("loc", ColumnType.POINT)])
        big_r = Relation("r", schema, pool)
        big_s = Relation("s", schema, pool)
        import random

        rng = random.Random(9)
        for i in range(200):
            big_r.insert([i, Point(rng.uniform(0, 100), rng.uniform(0, 100))])
            big_s.insert([i, Point(rng.uniform(0, 100), rng.uniform(0, 100))])

        executor = SpatialQueryExecutor()
        theta = WithinDistance(5.0)

        full_meter = CostMeter()
        theta_join_into(
            executor, big_r, "loc", big_s, "loc", theta, "full",
            strategy="scan", meter=full_meter,
        )

        west = lambda t: t["loc"].x < 30  # noqa: E731
        small_r = select_into(big_r, west, "r_west")
        small_s = select_into(big_s, west, "s_west")
        small_meter = CostMeter()
        reduced = theta_join_into(
            executor, small_r, "loc", small_s, "loc", theta, "reduced",
            strategy="scan", meter=small_meter,
        )
        assert small_meter.theta_exact_evals < full_meter.theta_exact_evals / 5
        # Every reduced match appears in the full join (restricted).
        assert sorted((t["oid"], t["oid_2"]) for t in reduced.scan()) == oracle.join(
            {t["oid"]: t["loc"] for t in big_r.scan() if west(t)},
            {t["oid"]: t["loc"] for t in big_s.scan() if west(t)},
            theta,
        )
