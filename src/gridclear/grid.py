"""DC network data model: buses, lines, zones, interfaces, and flow sensitivities.

The network is lossless. Line flows are linear in bus injections through the
power transfer distribution factor (PTDF) matrix, computed from the reduced
susceptance matrix relative to a slack bus. All types are immutable after
construction and all operations are pure functions, so they are safe to share
across threads.

A ``Network`` is the one index of its buses and lines: ``Network.ptdf`` is a
plain read-only array with a row per line and a column per bus, both in the
network's own order, and ``Network.bus_index`` gives each bus id's position
(its PTDF column).  Both are built once per network, on first use.

Every figure an engine object holds lies in one numeric domain, checked where
the object is built: each MW, price and cost within ``MAGNITUDE`` (1e9) of
zero and each reactance in ``REACTANCE`` (1e-6 to 1e6 p.u.).  Sums, products
and PTDFs of such figures stay finite, so nothing downstream checks them.
``format_number`` prints every such figure that a report or message shows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

MW_TOL = 1e-6
MAGNITUDE = 1e9  # bound on |MW|, |price| and |cost| (currency/MWh, /h or /start)
REACTANCE = (1e-6, 1e6)  # per unit


def format_number(v: float) -> str:
    """A number as every report and message prints it: two decimals."""
    return f"{v:.2f}"


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
        if len(dict(self.member_lines)) != len(self.member_lines):
            raise GridStructureError(f"interface {self.id}: a member line is listed twice")


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    zones: tuple[str, ...]
    interfaces: tuple[Interface, ...]
    slack_bus: str

    def __post_init__(self):
        if len(self.bus_index) != len(self.buses):
            raise GridStructureError("duplicate bus ids")
        if len(set(l.id for l in self.lines)) != len(self.lines):
            raise GridStructureError("duplicate line ids")
        if len(set(i.id for i in self.interfaces)) != len(self.interfaces):
            raise GridStructureError("duplicate interface ids")
        known = self.bus_index
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
        return self.buses[self.bus_index[bus_id]]

    def line(self, line_id: str) -> Line:
        return self._lines_by_id[line_id]

    def zone_of(self, bus_id: str) -> str:
        return self.bus(bus_id).zone_id

    @cached_property
    def ptdf(self) -> np.ndarray:
        """The network's PTDF matrix (``build_ptdf``), built on first use and
        kept; not a field, so equality, hashing and ``dataclasses.replace``
        ignore it."""
        return build_ptdf(self)

    @cached_property
    def bus_index(self) -> dict[str, int]:
        """Each bus id's position in ``buses``, which is its PTDF column."""
        return {b.id: i for i, b in enumerate(self.buses)}

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
class FlowSet:
    """Signed per-line and per-interface flows with line-limit violation flags."""

    flows_mw: dict[str, float]
    interface_flows_mw: dict[str, float]
    violations: tuple[str, ...]  # line ids with |flow| > limit + tolerance


def build_ptdf(net: Network) -> np.ndarray:
    """The PTDF matrix of a connected network: the flow on each line (rows, in
    ``net.lines`` order) per MW injected at each bus (columns, in ``net.buses``
    order) and withdrawn at the slack bus, whose column is zero.  Computed via
    the inverse of the reduced susceptance matrix (slack row and column
    removed); read-only."""
    n = len(net.buses)
    slack = net.bus_index[net.slack_bus]
    f = np.array([net.bus_index[l.from_bus] for l in net.lines], dtype=np.intp)
    t = np.array([net.bus_index[l.to_bus] for l in net.lines], dtype=np.intp)
    y = 1.0 / np.array([l.reactance for l in net.lines], dtype=float)

    # each entry sums its lines' terms in line order: add.at applies them in
    # sequence, and the four terms of a line are adjacent
    b_mat = np.zeros((n, n))
    rows, cols = np.stack([f, t, f, t], axis=1).ravel(), np.stack([f, t, t, f], axis=1).ravel()
    np.add.at(b_mat, (rows, cols), np.stack([y, y, -y, -y], axis=1).ravel())

    keep = np.flatnonzero(np.arange(n) != slack)
    try:
        x_red = np.linalg.solve(b_mat[np.ix_(keep, keep)], np.eye(n - 1)) if n > 1 else np.zeros((0, 0))
    except np.linalg.LinAlgError as exc:
        raise GridNumericalError(f"singular reduced susceptance matrix: {exc}") from exc
    x_full = np.zeros((n, n))  # the slack row and column of the inverse are zero
    x_full[np.ix_(keep, keep)] = x_red

    mat = y[:, None] * (x_full[f] - x_full[t])
    mat[:, slack] = 0.0
    mat.setflags(write=False)
    return mat


def injection_vector(net: Network, injections: Mapping[str, float]) -> np.ndarray:
    """Per-bus injections (MW) in ``net.buses`` order; absent buses are 0."""
    vec = np.zeros(len(net.buses))
    for bus_id, mw in injections.items():
        if bus_id not in net.bus_index:
            raise KeyError(f"unknown bus in injection vector: {bus_id!r}")
        vec[net.bus_index[bus_id]] = mw
    return vec


def overloaded_lines(net: Network, flows_mw: Mapping[str, float], tol: float) -> tuple[str, ...]:
    """Ids of the lines whose |flow| exceeds their thermal limit by more than
    ``tol`` MW, in network order."""
    return tuple(l.id for l in net.lines if abs(flows_mw[l.id]) > l.limit_mw + tol)


def evaluate_flows(net: Network, injections: Mapping[str, float]) -> FlowSet:
    """Superpose per-bus net injections (MW, must balance to zero) through
    ``net.ptdf`` into signed line and interface flows, flagging lines loaded
    beyond their thermal limit.  Interface flow is the signed sum of its
    member line flows."""
    vec = injection_vector(net, injections)
    imbalance = float(vec.sum())
    if abs(imbalance) > MW_TOL:
        raise UnbalancedInjectionError(
            f"injections sum to {imbalance:.6g} MW, expected 0 within {MW_TOL:g}"
        )
    raw = net.ptdf @ vec
    flows = {l.id: float(raw[i]) for i, l in enumerate(net.lines)}
    iface = {
        itf.id: sum(sign * flows[lid] for lid, sign in itf.member_lines)
        for itf in net.interfaces
    }
    return FlowSet(flows, iface, overloaded_lines(net, flows, MW_TOL))
