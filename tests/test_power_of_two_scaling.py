"""Clearing commutes with power-of-two scaling, which is exact in binary
floating point: doubling every cost (``ic``, ``nlc``, ``suc``, ``wtp``)
doubles every price bit for bit and leaves the dispatch as it was, and
doubling every MW figure (loads, unit bounds, line limits, ``ttc_mw``,
reserve and ``min_sync`` requirements) doubles every dispatch bit for bit
and leaves the prices as they were.  Checked in every regime of each bundled
scenario and of seeded meshes of the benchmark's generator, and under copper
plate."""
import copy
import json
from pathlib import Path

import pytest

from gridclear.dispatch import ConstraintRegime, clear
from gridclear.scenario import parse_scenario

ROOT = Path(__file__).parent.parent
BUNDLED = sorted(p.stem for p in (ROOT / "scenarios").glob("*.scn"))
MESHES = 40


def _doubled(doc: dict, costs: bool) -> dict:
    doc = copy.deepcopy(doc)
    net = doc["network"]
    if costs:
        fields = [(net["buses"], ("wtp",)), (doc["generators"], ("ic", "nlc", "suc"))]
    else:
        fields = [(net["buses"], ("load_mw",)), (doc["generators"], ("p_min", "p_max")),
                  (net["lines"], ("limit_mw",)), (net["interfaces"], ("ttc_mw",)),
                  (doc["regimes"].values(), ("reserve_req_mw", "min_sync_mw"))]
    for items, keys in fields:
        for item in items:
            for key in keys:
                item[key] *= 2
    return doc


def _clearings(doc: dict):
    sc = parse_scenario(doc)
    regimes = [*sc.regimes.values(), ConstraintRegime(mode="copper_plate")]
    return [clear(sc.network, sc.generators, r) for r in regimes]


def _twice(values: dict) -> str:
    return repr({k: 2 * v for k, v in values.items()})


def _check_scaling(doc: dict) -> None:
    base = _clearings(doc)
    for costs in (True, False):
        for want, got in zip(base, _clearings(_doubled(doc, costs)), strict=True):
            prices, dispatch = repr(got.balance_duals), repr(got.gen_mw)
            if costs:
                assert got.violations == want.violations
                assert (prices, dispatch) == (_twice(want.balance_duals), repr(want.gen_mw))
            else:  # a violation names its MW
                assert (got.feasible, len(got.violations)) == (want.feasible, len(want.violations))
                assert (prices, dispatch) == (repr(want.balance_duals), _twice(want.gen_mw))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_clearings_commute_with_doubling(name):
    _check_scaling(json.loads((ROOT / "scenarios" / f"{name}.scn").read_text()))


def test_mesh_clearings_commute_with_doubling(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    for k in range(MESHES):
        _check_scaling(gen.mesh_doc(1, k, 10 + k % 11))
