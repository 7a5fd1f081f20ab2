"""Seeded instance generators for the benchmark.

Every generator takes ``(seed, k)`` and returns a scenario document (the JSON
form ``gridclear.scenario.load_scenario`` reads).  The same ``(seed, k)``
always gives the same document, and ``write_doc`` serialises it to the same
bytes.  The properties the workloads rely on hold by construction, never by
discarding instances after the fact:

* ``mesh_doc``: every load bus has a local unit whose capacity is at least
  its load, so nodal clearing never curtails; cheap units elsewhere push flow
  through lines sized below their merit-order flow, so some lines bind.
* ``uc_doc``: the units other than the peaker cannot cover the lowest hourly
  load, and the peaker at a load bus can cover the highest, so every hour has
  an unscreened marginal unit and no hour curtails; the day-ahead monitored
  line set is non-empty and a strict subset of the reliability set.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

N_ZONES = 3
LOAD_WTP = 1000.0  # far above every offer, so curtailment is never economic


def _rng(kind: str, seed: int, k: int) -> random.Random:
    # str seeds are hashed with sha512, so the stream does not depend on
    # PYTHONHASHSEED or on the platform
    return random.Random(f"{kind}:{seed}:{k}")


def _unit(gid, bus, p_max, ic, nlc=0.0, suc=0.0, min_up=1, min_down=1,
          initially_on=True, initial_hours=24):
    return {
        "id": gid, "bus": bus, "p_min": 0.0, "p_max": p_max, "ic": ic,
        "nlc": nlc, "suc": suc, "min_up_h": min_up, "min_down_h": min_down,
        "initially_on": initially_on, "initial_hours": initial_hours,
        "synchronous": True,
    }


def btheta_flows(bus_ids, slack, lines, injections):
    """DC line flows (MW) from net bus injections by a reduced B-theta solve.

    ``lines`` is a sequence of ``(from_bus, to_bus, reactance)``; the result
    is one flow per line, positive from ``from_bus`` to ``to_bus``."""
    idx = {b: i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)
    b_mat = np.zeros((n, n))
    for f, t, x in lines:
        y = 1.0 / x
        i, j = idx[f], idx[t]
        b_mat[i, i] += y
        b_mat[j, j] += y
        b_mat[i, j] -= y
        b_mat[j, i] -= y
    keep = [i for i in range(n) if i != idx[slack]]
    p = np.array([injections.get(b, 0.0) for b in bus_ids])
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(b_mat[np.ix_(keep, keep)], p[keep])
    return [(theta[idx[f]] - theta[idx[t]]) / x for f, t, x in lines]


# ---------------------------------------------------------------------------
# meshed networks for nodal clearing
# ---------------------------------------------------------------------------

def mesh_doc(seed: int, k: int, n_buses: int) -> dict:
    """A meshed three-zone network of ``n_buses`` buses: a spanning tree plus
    about ``0.5 * n_buses`` extra lines, an interface on each inter-zone line,
    and line limits drawn around the copper-plate merit-order flows."""
    rng = _rng("nodal_mesh", seed, k)
    n = n_buses
    ids = [f"b{i}" for i in range(n)]
    zone = [f"Z{i * N_ZONES // n}" for i in range(n)]
    first = {}
    for i, z in enumerate(zone):
        first.setdefault(z, i)

    pairs = []
    for i in range(1, n):
        if first[zone[i]] == i:  # first bus of a zone: tie it to the previous zone
            j = rng.randrange(first[zone[i - 1]], i)
        else:
            j = rng.randrange(first[zone[i]], i)
        pairs.append((j, i))
    linked = set(pairs)
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in linked]
    pairs += sorted(rng.sample(spare, round(0.5 * n)))
    reactance = [round(rng.uniform(0.05, 0.3), 3) for _ in pairs]

    load = [round(rng.uniform(20.0, 120.0), 1) if rng.random() < 0.7 else 0.0 for _ in ids]
    for i in rng.sample(range(n), 2):  # at least two load buses
        load[i] = load[i] or round(rng.uniform(20.0, 120.0), 1)

    units = []
    for i, mw in enumerate(load):
        if mw > 0:  # local cover: nodal clearing can always serve this bus
            units.append(_unit(f"L{i}", ids[i], round(mw * rng.uniform(1.05, 1.4) + 0.05, 1),
                               round(rng.uniform(45.0, 95.0), 2)))
    for c in range(n // 2):
        units.append(_unit(f"C{c}", ids[rng.randrange(n)], round(rng.uniform(80.0, 250.0), 1),
                           round(rng.uniform(5.0, 35.0), 2)))

    # limits scaled from the flows of the merit-order dispatch that ignores
    # the network, so a share of lines cannot carry what merit order wants
    need = sum(load)
    inj = {b: -mw for b, mw in zip(ids, load)}
    for u in sorted(units, key=lambda u: u["ic"]):
        q = min(u["p_max"], need)
        inj[u["bus"]] += q
        need -= q
    flows = btheta_flows(ids, ids[0], [(ids[a], ids[b], x) for (a, b), x in zip(pairs, reactance)], inj)
    limits = [max(10.0, round(abs(f) * rng.uniform(0.5, 1.5), 1)) for f in flows]

    lines, interfaces = [], []
    for li, ((a, b), x, lim) in enumerate(zip(pairs, reactance, limits)):
        lid = f"l{li}"
        lines.append({"id": lid, "from": ids[a], "to": ids[b], "reactance": x,
                      "limit_mw": lim, "monitored_in": ["nodal"]})
        if zone[a] != zone[b]:
            interfaces.append({"id": f"if_{lid}", "members": [{"line": lid, "direction": 1}],
                               "ttc_mw": round(lim * rng.uniform(1.05, 1.3), 1)})

    return {
        "name": f"mesh_{n}b_s{seed}_k{k}",
        "currency": "$/MWh",
        "metadata": {"season": "none", "time_of_day": "none"},
        "network": {
            "slack_bus": ids[0],
            "zones": sorted(set(zone)),
            "buses": [{"id": b, "zone": z, "load_mw": mw, "wtp": LOAD_WTP if mw else 0.0}
                      for b, z, mw in zip(ids, zone, load)],
            "lines": lines,
            "interfaces": interfaces,
        },
        "generators": units,
        "regimes": {
            "nodal": {"mode": "nodal", "monitored_profile": "nodal", "enforce_interfaces": True,
                      "reserve_req_mw": 0.0, "min_sync_mw": 0.0},
        },
        "run": {"schemes": ["nodal"], "horizon": 1},
    }


# ---------------------------------------------------------------------------
# unit-commitment instances on a five-bus, two-zone network
# ---------------------------------------------------------------------------

UC_OTHER_BUSES = ("e1", "e2", "e3", "i2")
# (n, hours): the first n units other than the peaker get that minimum up
# and down time, the rest (and the peaker) 1 h.  With a long initial state
# this fixes the size of the day-ahead search for every seed: the product
# over units of their feasible on/off sequences (2**hours for a 1 h unit).
# Chosen so that the search, not the LP, takes most of the time overall.
UC_TIGHT_UNITS = {
    (3, 3): (0, 1), (3, 4): (0, 1), (3, 5): (1, 2), (4, 3): (0, 1),
    (4, 4): (2, 2), (4, 5): (3, 3), (5, 3): (1, 2), (5, 4): (4, 3),
}


def uc_doc(seed: int, k: int, n_units: int, hours: int) -> dict:
    """Day-ahead / reliability commitment instance: one peaker at load bus
    ``i1`` that is marginal in every hour, ``n_units - 1`` cheaper units with
    start-up, no-load and min up/down times, and hourly loads at ``i1``/``i2``.
    The reliability pass monitors one export-zone line the day-ahead pass
    does not."""
    rng = _rng("uc_horizon", seed, k)
    n_tight, min_h = UC_TIGHT_UNITS[n_units, hours]  # units * hours <= 20 keeps the search under the cap

    others = []
    for j in range(n_units - 1):
        others.append(_unit(
            f"G{j}", rng.choice(UC_OTHER_BUSES), round(rng.uniform(60.0, 200.0), 1),
            round(rng.uniform(8.0, 40.0), 2), nlc=round(rng.uniform(50.0, 150.0), 1),
            suc=round(rng.uniform(100.0, 600.0), 1), min_up=min_h if j < n_tight else 1,
            min_down=min_h if j < n_tight else 1, initially_on=rng.random() < 0.5,
        ))
    cap_others = sum(u["p_max"] for u in others)

    # the others can never cover an hour alone: the peaker runs strictly
    # inside its range every hour and sets the price at i1 (and i2)
    base = cap_others + rng.uniform(30.0, 120.0)
    total = [round(base * rng.uniform(1.0, 1.5), 1) for _ in range(hours)]
    split = [rng.uniform(0.4, 0.7) for _ in range(hours)]
    i1 = [round(t * s, 1) for t, s in zip(total, split)]
    i2 = [round(t - a, 1) for t, a in zip(total, i1)]
    peak = max(a + b for a, b in zip(i1, i2))
    peaker = _unit("P", "i1", round(peak * 1.1 + 1.0, 1), round(rng.uniform(70.0, 95.0), 2),
                   nlc=round(rng.uniform(20.0, 60.0), 1), suc=round(rng.uniform(100.0, 300.0), 1))

    cap_export = sum(u["p_max"] for u in others if u["bus"].startswith("e")) or 100.0
    ruc_only = rng.choice(("le1", "le2"))
    da_lines = {"tie", "li"} | ({"le1", "le2"} - {ruc_only} if rng.random() < 0.5 else set())
    spec = [
        ("le1", "e1", "e3", 0.1, round(rng.uniform(40.0, 120.0), 1)),
        ("le2", "e2", "e3", 0.1, round(rng.uniform(40.0, 120.0), 1)),
        ("tie", "e3", "i1", 0.05, round(cap_export * rng.uniform(0.5, 0.9) + 10.0, 1)),
        ("li", "i1", "i2", 0.1, round(peak * 1.5, 1)),  # never binds: i1 and i2 share a price
    ]
    lines = [{"id": lid, "from": f, "to": t, "reactance": x, "limit_mw": lim,
              "monitored_in": ["DAUC", "RUC"] if lid in da_lines else ["RUC"]}
             for lid, f, t, x, lim in spec]
    tie_limit = spec[2][4]

    zone = {"e1": "ZE", "e2": "ZE", "e3": "ZE", "i1": "ZI", "i2": "ZI"}
    hour0 = {"i1": i1[0], "i2": i2[0]}
    regime = {"mode": "nodal", "enforce_interfaces": True, "reserve_req_mw": 0.0, "min_sync_mw": 0.0}
    return {
        "name": f"uc_{n_units}u{hours}h_s{seed}_k{k}",
        "currency": "$/MWh",
        "metadata": {"season": "none", "time_of_day": "none"},
        "network": {
            "slack_bus": "i1",
            "zones": ["ZE", "ZI"],
            "buses": [{"id": b, "zone": z, "load_mw": hour0.get(b, 0.0),
                       "wtp": LOAD_WTP if b in hour0 else 0.0} for b, z in zone.items()],
            "lines": lines,
            "interfaces": [{"id": "export", "members": [{"line": "tie", "direction": 1}],
                            "ttc_mw": tie_limit}],
        },
        "generators": others + [peaker],
        "loads": {"i1": i1, "i2": i2},
        "regimes": {
            "DAUC": dict(regime, monitored_profile="DAUC"),
            "RUC": dict(regime, monitored_profile="RUC"),
        },
        "run": {"schemes": ["nodal"], "horizon": hours, "dauc_regime": "DAUC", "ruc_regime": "RUC"},
    }


def price_csv(seed: int, n_hours: int = 168) -> str:
    """An hourly ``timestamp,price`` series for the ``stats`` subcommand."""
    rng = _rng("price_csv", seed, 0)
    rows = ["timestamp,price"]
    for h in range(n_hours):
        daily = 40.0 + 25.0 * (1 if 8 <= h % 24 < 20 else 0)
        rows.append(f"2026-01-{1 + h // 24:02d}T{h % 24:02d}:00,{daily + rng.uniform(-15.0, 35.0):.2f}")
    return "\n".join(rows) + "\n"


def write_doc(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
