"""The route oracle's failure path."""

from repro import Warehouse
from repro.types import Route

from perfbench.oracle import Oracle

WAREHOUSE = Warehouse.from_ascii("......\n.##.#.\n......")


def test_clean_routes_pass():
    oracle = Oracle()
    oracle.check_routes("t", [Route(0, [(0, 0), (0, 1)], 0), Route(0, [(2, 0), (2, 1)], 1)], WAREHOUSE)
    assert oracle.ok and oracle.routes_checked == 2


def test_vertex_collision_fails():
    oracle = Oracle()
    a = Route(0, [(0, 0), (0, 1), (0, 2)], 0)
    b = Route(0, [(0, 4), (0, 3), (0, 2)], 1)
    oracle.check_routes("t", [a, b], WAREHOUSE)
    assert not oracle.ok
    assert any("conflict" in v and "vertex" in v for v in oracle.violations)


def test_swap_collision_fails():
    oracle = Oracle()
    a = Route(3, [(0, 0), (0, 1)], 0)
    b = Route(3, [(0, 1), (0, 0)], 1)
    oracle.check_routes("t", [a, b], WAREHOUSE)
    assert any("swap" in v for v in oracle.violations)


def test_rack_cell_and_teleport_fail():
    oracle = Oracle()
    oracle.check_routes("t", [Route(0, [(0, 1), (1, 1), (2, 1)], 0)], WAREHOUSE)
    assert any("illegal cell" in v for v in oracle.violations)
    oracle = Oracle()
    oracle.check_routes("t", [Route(0, [(0, 0), (0, 2)], 0)], WAREHOUSE)
    assert any("unit speed" in v for v in oracle.violations)


def test_require_records_failed_conditions():
    oracle = Oracle()
    oracle.require("stranded robots", True)
    assert oracle.ok
    oracle.require("stranded robots", False, "2 robots stranded")
    assert oracle.violations == ["stranded robots: 2 robots stranded"]
