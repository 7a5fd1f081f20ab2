"""DC network data model: buses, lines, zones, interfaces, and flow sensitivities.

The network is lossless. Line flows are linear in bus injections through the
power transfer distribution factor (PTDF) matrix, computed from the reduced
susceptance matrix relative to a slack bus. All types are immutable after
construction and all operations are pure functions, so they are safe to share
across threads.  A network computes its PTDF matrix and its id lookups once,
on first use.

Every figure an engine object holds lies in one numeric domain, checked where
the object is built: each MW, price and cost within ``MAGNITUDE`` (1e9) of
zero and each reactance in ``REACTANCE`` (1e-6 to 1e6 p.u.).  Sums, products
and PTDFs of such figures stay finite, so nothing downstream checks them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

MW_TOL = 1e-6
MAGNITUDE = 1e9  # bound on |MW|, |price| and |cost| (currency/MWh, /h or /start)
REACTANCE = (1e-6, 1e6)  # per unit


def out_of_range(figures: Mapping[str, float | None], lo: float = -MAGNITUDE,
                 hi: float = MAGNITUDE) -> str:
    """The first of ``figures`` (name -> value; None is absent) outside
    ``[lo, hi]``, NaN included, as a message, or "" when all lie within."""
    for name, v in figures.items():
        if v is not None and not lo <= v <= hi:
            return f"{name} {v!r} outside [{lo:g}, {hi:g}]"
    return ""


class GridStructureError(ValueError):
    """Raised when a network violates a structural invariant (bad reference,
    disconnected graph, a figure out of range, ...)."""


class GridNumericalError(ArithmeticError):
    """Raised when the reduced susceptance matrix cannot be factorized."""


class UnbalancedInjectionError(ValueError):
    """Raised when an injection vector does not sum to zero within tolerance."""


@dataclass(frozen=True)
class Bus:
    id: str
    zone_id: str
    load_mw: float = 0.0
    wtp: float = 0.0  # willingness to pay, currency/MWh; must be > 0 when load > 0

    def __post_init__(self):
        if bad := out_of_range({"load_mw": self.load_mw, "wtp": self.wtp}):
            raise GridStructureError(f"bus {self.id}: {bad}")
        if self.load_mw < 0:
            raise GridStructureError(f"bus {self.id}: load_mw must be >= 0")
        if self.load_mw > 0 and self.wtp <= 0:
            raise GridStructureError(f"bus {self.id}: wtp must be > 0 when load_mw > 0")


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    reactance: float  # per-unit, > 0
    limit_mw: float
    monitored_in: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise GridStructureError(f"line {self.id}: from_bus and to_bus coincide")
        if bad := (out_of_range({"reactance": self.reactance}, *REACTANCE)
                   or out_of_range({"limit_mw": self.limit_mw})):
            raise GridStructureError(f"line {self.id}: {bad}")
        if self.limit_mw <= 0:
            raise GridStructureError(f"line {self.id}: limit_mw must be > 0")


@dataclass(frozen=True)
class Interface:
    """A directed transfer limit over a set of member lines.

    ``member_lines`` holds (line_id, sign) pairs; a sign of +1 counts the
    line's from->to flow as positive interface flow.  This also represents a
    flowgate: the constrained quantity is the signed sum of member flows.
    """

    id: str
    member_lines: tuple[tuple[str, int], ...]
    ttc_mw: float

    def __post_init__(self):
        if not self.member_lines:
            raise GridStructureError(f"interface {self.id}: member_lines empty")
        if bad := out_of_range({"ttc_mw": self.ttc_mw}):
            raise GridStructureError(f"interface {self.id}: {bad}")
        if self.ttc_mw <= 0:
            raise GridStructureError(f"interface {self.id}: ttc_mw must be > 0")
        for _, sign in self.member_lines:
            if sign not in (1, -1):
                raise GridStructureError(f"interface {self.id}: signs must be +1/-1")


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    zones: tuple[str, ...]
    interfaces: tuple[Interface, ...]
    slack_bus: str

    def __post_init__(self):
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise GridStructureError("duplicate bus ids")
        if len(set(l.id for l in self.lines)) != len(self.lines):
            raise GridStructureError("duplicate line ids")
        if len(set(i.id for i in self.interfaces)) != len(self.interfaces):
            raise GridStructureError("duplicate interface ids")
        known = set(bus_ids)
        if self.slack_bus not in known:
            raise GridStructureError(f"slack bus {self.slack_bus!r} not in network")
        zone_set = set(self.zones)
        if len(zone_set) != len(self.zones):
            raise GridStructureError("duplicate zone ids")
        for b in self.buses:
            if b.zone_id not in zone_set:
                raise GridStructureError(f"bus {b.id}: unknown zone {b.zone_id!r}")
        used_zones = {b.zone_id for b in self.buses}
        missing = zone_set - used_zones
        if missing:
            raise GridStructureError(f"zones with no buses: {sorted(missing)}")
        line_ids = {l.id for l in self.lines}
        for l in self.lines:
            if l.from_bus not in known or l.to_bus not in known:
                raise GridStructureError(f"line {l.id}: endpoint not in network")
        for itf in self.interfaces:
            for lid, _ in itf.member_lines:
                if lid not in line_ids:
                    raise GridStructureError(f"interface {itf.id}: unknown line {lid!r}")
        if not _connected(self):
            raise GridStructureError("network graph is not connected")

    # -- lookups -----------------------------------------------------------
    def bus(self, bus_id: str) -> Bus:
        return self._buses_by_id[bus_id]

    def line(self, line_id: str) -> Line:
        return self._lines_by_id[line_id]

    def interface(self, interface_id: str) -> Interface:
        for i in self.interfaces:
            if i.id == interface_id:
                return i
        raise KeyError(interface_id)

    def buses_in_zone(self, zone_id: str) -> tuple[Bus, ...]:
        return tuple(b for b in self.buses if b.zone_id == zone_id)

    def zone_of(self, bus_id: str) -> str:
        return self.bus(bus_id).zone_id

    @cached_property
    def ptdf(self) -> PtdfMatrix:
        """The network's PTDF matrix, built on first use and kept; not a
        field, so equality, hashing and ``dataclasses.replace`` ignore it."""
        return build_ptdf(self)

    @cached_property
    def _buses_by_id(self) -> dict[str, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def _lines_by_id(self) -> dict[str, Line]:
        return {l.id: l for l in self.lines}


def _connected(net: Network) -> bool:
    if not net.buses:
        return False
    adj: dict[str, list[str]] = {b.id: [] for b in net.buses}
    for l in net.lines:
        adj[l.from_bus].append(l.to_bus)
        adj[l.to_bus].append(l.from_bus)
    seen = {net.buses[0].id}
    stack = [net.buses[0].id]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(net.buses)


@dataclass(frozen=True)
class PtdfMatrix:
    """Sensitivity of each line flow to a 1 MW injection at each bus,
    withdrawn at the slack bus.  The slack column is identically zero."""

    line_ids: tuple[str, ...]
    bus_ids: tuple[str, ...]
    slack_bus: str
    matrix: np.ndarray  # shape (n_lines, n_buses), read-only

    def sensitivity(self, line_id: str, bus_id: str) -> float:
        return float(self.matrix[self.line_ids.index(line_id), self.bus_ids.index(bus_id)])

    def injection_vector(self, injections: Mapping[str, float]) -> np.ndarray:
        """Per-bus injections (MW) in ``bus_ids`` order; absent buses are 0."""
        index = {b: i for i, b in enumerate(self.bus_ids)}
        vec = np.zeros(len(self.bus_ids))
        for bus_id, mw in injections.items():
            if bus_id not in index:
                raise KeyError(f"unknown bus in injection vector: {bus_id!r}")
            vec[index[bus_id]] = mw
        return vec


@dataclass(frozen=True)
class FlowSet:
    """Signed per-line and per-interface flows with line-limit violation flags."""

    flows_mw: dict[str, float]
    interface_flows_mw: dict[str, float]
    violations: tuple[str, ...]  # line ids with |flow| > limit + tolerance

    def flow(self, line_id: str) -> float:
        return self.flows_mw[line_id]


def build_ptdf(net: Network) -> PtdfMatrix:
    """Compute the PTDF matrix of a connected network via the reduced
    susceptance matrix (slack row/column removed)."""
    bus_ids = tuple(b.id for b in net.buses)
    idx = {b: i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)
    slack = idx[net.slack_bus]

    b_mat = np.zeros((n, n))
    for l in net.lines:
        y = 1.0 / l.reactance
        f, t = idx[l.from_bus], idx[l.to_bus]
        b_mat[f, f] += y
        b_mat[t, t] += y
        b_mat[f, t] -= y
        b_mat[t, f] -= y

    keep = [i for i in range(n) if i != slack]
    b_red = b_mat[np.ix_(keep, keep)]
    try:
        x_red = np.linalg.solve(b_red, np.eye(n - 1)) if n > 1 else np.zeros((0, 0))
    except np.linalg.LinAlgError as exc:
        raise GridNumericalError(f"singular reduced susceptance matrix: {exc}") from exc

    # pad back to full bus dimension; slack row/col of the inverse are zero
    x_full = np.zeros((n, n))
    for a, ia in enumerate(keep):
        for b, ib in enumerate(keep):
            x_full[ia, ib] = x_red[a, b]

    mat = np.zeros((len(net.lines), n))
    for li, l in enumerate(net.lines):
        y = 1.0 / l.reactance
        f, t = idx[l.from_bus], idx[l.to_bus]
        mat[li, :] = y * (x_full[f, :] - x_full[t, :])
    mat[:, slack] = 0.0
    mat.setflags(write=False)
    return PtdfMatrix(tuple(l.id for l in net.lines), bus_ids, net.slack_bus, mat)


def overloaded_lines(net: Network, flows_mw: Mapping[str, float], tol: float) -> tuple[str, ...]:
    """Ids of the lines whose |flow| exceeds their thermal limit by more than
    ``tol`` MW, in network order."""
    return tuple(l.id for l in net.lines if abs(flows_mw[l.id]) > l.limit_mw + tol)


def evaluate_flows(
    net: Network,
    ptdf: PtdfMatrix,
    injections: Mapping[str, float],
) -> FlowSet:
    """Superpose per-bus net injections (MW, must balance to zero) into signed
    line and interface flows, flagging lines loaded beyond their thermal
    limit.  Interface flow is the signed sum of its member line flows."""
    vec = ptdf.injection_vector(injections)
    imbalance = float(vec.sum())
    if abs(imbalance) > MW_TOL:
        raise UnbalancedInjectionError(
            f"injections sum to {imbalance:.6g} MW, expected 0 within {MW_TOL:g}"
        )
    raw = ptdf.matrix @ vec
    flows = {lid: float(raw[i]) for i, lid in enumerate(ptdf.line_ids)}
    iface = {
        itf.id: sum(sign * flows[lid] for lid, sign in itf.member_lines)
        for itf in net.interfaces
    }
    return FlowSet(flows, iface, overloaded_lines(net, flows, MW_TOL))
