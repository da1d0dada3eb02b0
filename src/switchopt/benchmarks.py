"""Executable builders for the two test problems.

``build_fuller`` is a double integrator whose acceleration sign is switched,
with a quadratic running cost kept as an extra quadrature state so that the
objective is purely terminal.

``build_translines`` assembles a network of counter-propagating transport
lines (an upwind finite-volume semi-discretization of 2x2 damped linear
transport on every line) into one large switched linear ODE.  Binary controls
deactivate groups of lines in the node routing; continuous controls inject
power at producer nodes; the objective tracks consumer demand profiles
through another quadrature state.  The shipped network parameters are
synthetic defaults, documented here, not calibrated reference data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    COMPONENTWISE,
    MODEWISE,
    CombinatorialSpec,
    TimeGrid,
    _is_int,
    dwell_intervals,
    enumerate_modes,
)
from .errors import ConfigurationError
from .simulate import EULER, RK4, SwitchedSystem


@dataclass(frozen=True)
class FullerConfig:
    tau_min: float = 0.05
    n_intervals: int = 200

    def __post_init__(self):
        if not 0 < self.tau_min <= 0.5:
            raise ConfigurationError(f"tau_min must lie in (0, 0.5], got {self.tau_min}")
        if self.n_intervals < 1:
            raise ConfigurationError("n_intervals must be >= 1")


def build_fuller(config: FullerConfig = FullerConfig()):
    """Switched double integrator with tracked quadratic running cost.

    States: y1 (position), y2 (velocity, slope +1 or -1 by switch state),
    y3 (accumulated y1^2).  Terminal cost y3 + (y1 - 1/100)^2 + y2^2,
    started from (1/100, 0, 0) on the unit horizon.
    """
    grid = TimeGrid(0.0, 1.0, config.n_intervals)
    modes = enumerate_modes(1)

    def rhs(t, y, u, r):
        return np.array([y[1], 1.0 - 2.0 * r[0], y[0] * y[0]])

    jac_pattern = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])

    def rhs_jac_state(t, y, u, r):
        jac = jac_pattern.copy()
        jac[2, 0] = 2.0 * y[0]
        return jac

    def rhs_jac_control(t, y, u, r):
        return np.zeros((3, 0))

    def terminal_cost(y):
        return y[2] + (y[0] - 0.01) ** 2 + y[1] ** 2

    def terminal_cost_gradient(y):
        return np.array([2.0 * (y[0] - 0.01), 2.0 * y[1], 1.0])

    def rhs_stack(t, y, u):
        # Rows must match rhs(t, y, u, r) bitwise: 1 - 2*0 = 1, 1 - 2*1 = -1.
        slope, square = y[1], y[0] * y[0]
        return np.array([[slope, 1.0, square], [slope, -1.0, square]])

    def combined_jac_state(t, y, u, weights):
        # The state Jacobian is mode-independent and the weights sum to one.
        return rhs_jac_state(t, y, u, None)

    system = SwitchedSystem(
        state_dim=3,
        control_dim=0,
        modes=modes,
        rhs=rhs,
        rhs_jac_state=rhs_jac_state,
        rhs_jac_control=rhs_jac_control,
        terminal_cost=terminal_cost,
        terminal_cost_gradient=terminal_cost_gradient,
        initial_state=np.array([0.01, 0.0, 0.0]),
        control_lower=np.zeros(0),
        control_upper=np.zeros(0),
        integrator=RK4,
        state_names=("y1", "y2", "running_cost"),
        rhs_stack=rhs_stack,
        combined_jac_state=combined_jac_state,
    )
    spec = CombinatorialSpec.uniform(1, dwell_intervals(config.tau_min, grid))
    return system, grid, spec


# ---------------------------------------------------------------------------
# Transmission-line network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransLine:
    start: str
    end: str
    length: float = 1.0


@dataclass(frozen=True)
class TranslinesConfig:
    """Network description plus discretization and dwell settings.

    ``switch_groups`` lists, per binary control component, the indices of the
    lines that component activates (bit 1) or disconnects (bit 0); lines in
    no group are always active.  ``consumers`` carry piecewise-linear demand
    tables as (time, value) breakpoints covering the horizon.
    """

    nodes: tuple
    lines: tuple
    switch_groups: tuple
    producers: tuple  # (node, lower bound, upper bound)
    consumers: tuple  # (node, ((t, value), ...))
    lambda_plus: float = 1.0
    lambda_minus: float = 1.0
    damping: tuple = ((0.1, 0.05), (0.05, 0.1))
    volumes_per_line: int = 4
    n_time_steps: int = 104
    t_end: float = 26.0
    tau_min: float = 1.0
    representation: str = COMPONENTWISE

    def __post_init__(self):
        if not (0 < self.lambda_plus < np.inf and 0 < self.lambda_minus < np.inf):
            raise ConfigurationError("propagation speeds must be positive and finite")
        b = np.asarray(self.damping, dtype=np.float64)
        if b.shape != (2, 2) or not np.allclose(b, b.T) or (b < 0).any():
            raise ConfigurationError("damping must be a symmetric non-negative 2x2 matrix")
        if not all(map(_is_int, (self.volumes_per_line, self.n_time_steps))):
            raise ConfigurationError("volume and time-step counts must be integers")
        if self.volumes_per_line < 1 or self.n_time_steps < 1 or self.t_end <= 0:
            raise ConfigurationError("discretization settings must be positive")
        names = set(self.nodes)
        for line in self.lines:
            if line.start not in names or line.end not in names:
                raise ConfigurationError(f"line {line} references unknown nodes")
            if not 0 < line.length < np.inf:
                raise ConfigurationError("line lengths must be positive and finite")
        n_lines = len(self.lines)
        for group in self.switch_groups:
            for idx in group:
                if not (_is_int(idx) and 0 <= idx < n_lines):
                    raise ConfigurationError(f"switch group entry {idx} is not a line")
        for node, lower, upper in self.producers:
            if node not in names:
                raise ConfigurationError(f"producer node {node} unknown")
            if not (np.isfinite([lower, upper]).all() and lower <= upper):
                raise ConfigurationError(f"producer {node} needs finite lower <= upper")
        for node, table in self.consumers:
            if node not in names:
                raise ConfigurationError(f"consumer node {node} unknown")
            if not np.isfinite(np.asarray(table, dtype=np.float64)).all():
                raise ConfigurationError(f"demand table of {node} must be finite")
            ts = [t for t, _ in table]
            if not table or sorted(ts) != ts:
                raise ConfigurationError("demand tables need sorted breakpoints")
            if ts[0] > 0 or ts[-1] < self.t_end:
                raise ConfigurationError("demand tables must cover the horizon")
        if not 0 < self.tau_min < np.inf:
            raise ConfigurationError("tau_min must be positive and finite")
        if self.representation not in (COMPONENTWISE, MODEWISE):
            raise ConfigurationError(f"unknown representation {self.representation!r}")


def _demand_profile(table):
    ts = np.array([t for t, _ in table], dtype=np.float64)
    qs = np.array([q for _, q in table], dtype=np.float64)
    return ts, qs


def build_translines(config: TranslinesConfig):
    """Assemble the switched finite-volume network ODE.

    State layout: per line, forward volumes then backward volumes; one
    tracking-cost quadrature state at the end.  Per mode the wave part is
    linear, ``A[mode] @ xi + B[mode] @ u``: disconnected lines receive no
    inflow, contribute nothing to node routing or delivery, and keep
    advecting their remaining content out.  Node routing splits the incoming
    forward flux equally over the active outgoing lines; backward travelers
    leave the network at the nodes (no reflection) and are excited only
    through the damping coupling.  Time integration is forward Euler, and
    any line with Courant number above one is rejected.
    """
    n_lines = len(config.lines)
    volumes = config.volumes_per_line
    grid = TimeGrid(0.0, config.t_end, config.n_time_steps)
    dt = grid.step
    lam_p, lam_m = config.lambda_plus, config.lambda_minus
    for idx, line in enumerate(config.lines):
        dx = line.length / volumes
        courant = max(lam_p, lam_m) * dt / dx
        if courant > 1.0 + 1e-12:
            raise ConfigurationError(
                f"line {idx} ({line.start}->{line.end}) violates the CFL "
                f"condition: Courant number {courant:.3f} > 1"
            )

    n_groups = len(config.switch_groups)
    modes = enumerate_modes(n_groups) if n_groups else None
    if modes is None:
        raise ConfigurationError("at least one switch group is required")
    b = np.asarray(config.damping, dtype=np.float64)
    m_u = len(config.producers)
    wave_dim = 2 * volumes * n_lines
    state_dim = wave_dim + 1

    group_of_line = [[] for _ in range(n_lines)]
    for g, group in enumerate(config.switch_groups):
        for idx in group:
            group_of_line[idx].append(g)

    producer_channels = {}
    for ch, (node, _, _) in enumerate(config.producers):
        producer_channels.setdefault(node, []).append(ch)

    def fwd(line, j):
        return line * 2 * volumes + j

    def bwd(line, j):
        return line * 2 * volumes + volumes + j

    def line_active(line_idx, mode_row):
        return all(mode_row[g] == 1 for g in group_of_line[line_idx])

    # Per mode the operators fill one row of each stack, in place.
    n_modes = modes.n_modes
    a_stack = np.zeros((n_modes, wave_dim, wave_dim))
    b_stack = np.zeros((n_modes, wave_dim, m_u))
    delivery_stack = np.zeros((n_modes, len(config.consumers), wave_dim))
    for mode_row, a, bu, rows in zip(modes.values, a_stack, b_stack, delivery_stack):
        active = [line_active(r, mode_row) for r in range(n_lines)]
        for r, line in enumerate(config.lines):
            dx = line.length / volumes
            for j in range(volumes):
                f, w = fwd(r, j), bwd(r, j)
                a[f, f] -= lam_p / dx + b[0, 0]
                a[f, w] -= b[0, 1]
                if j > 0:
                    a[f, fwd(r, j - 1)] += lam_p / dx
                a[w, w] -= lam_m / dx + b[1, 1]
                a[w, f] -= b[1, 0]
                if j < volumes - 1:
                    a[w, bwd(r, j + 1)] += lam_m / dx
            if not active[r]:
                continue
            # Forward inflow at the left boundary from the start node's flux.
            node = line.start
            outgoing = [
                q for q, other in enumerate(config.lines)
                if other.start == node and active[q]
            ]
            share = len(outgoing)
            for q, other in enumerate(config.lines):
                if other.end == node and active[q]:
                    a[fwd(r, 0), fwd(q, volumes - 1)] += lam_p / (share * dx)
            for ch in producer_channels.get(node, ()):
                bu[fwd(r, 0), ch] += 1.0 / (share * dx)
        # Delivery functionals: per consumer, sum of arriving forward values.
        for s, (node, _) in enumerate(config.consumers):
            for q, other in enumerate(config.lines):
                if other.end == node and active[q]:
                    rows[s, fwd(q, volumes - 1)] += 1.0

    demand_tables = [_demand_profile(table) for _, table in config.consumers]
    mode_weights = 1 << np.arange(n_groups - 1, -1, -1)
    # Flat views, so each weight-combined Jacobian is one vector-matrix product.
    a_flat = a_stack.reshape(n_modes, -1)
    b_flat = b_stack.reshape(n_modes, -1)
    delivery_rows = delivery_stack.reshape(-1, wave_dim)

    def mode_index(r):
        return int(np.dot(r, mode_weights))

    @lru_cache(maxsize=4096)
    def demands(t):
        # Fields are evaluated at the same few grid times over and over.
        out = np.array([np.interp(t, ts, qs) for ts, qs in demand_tables])
        out.flags.writeable = False
        return out

    def rhs(t, y, u, r):
        i = mode_index(r)
        wave = y[:wave_dim]
        dy = np.empty(state_dim)
        dy[:wave_dim] = a_stack[i] @ wave
        if m_u:
            dy[:wave_dim] += b_stack[i] @ u
        gap = demands(t) - delivery_stack[i] @ wave
        dy[wave_dim] = 0.5 * float(gap @ gap)
        return dy

    def rhs_jac_state(t, y, u, r):
        i = mode_index(r)
        wave = y[:wave_dim]
        jac = np.zeros((state_dim, state_dim))
        jac[:wave_dim, :wave_dim] = a_stack[i]
        gap = demands(t) - delivery_stack[i] @ wave
        jac[wave_dim, :wave_dim] = -(gap @ delivery_stack[i])
        return jac

    def rhs_jac_control(t, y, u, r):
        i = mode_index(r)
        jac = np.zeros((state_dim, m_u))
        jac[:wave_dim] = b_stack[i]
        return jac

    def terminal_cost(y):
        return y[wave_dim]

    def terminal_cost_gradient(y):
        g = np.zeros(state_dim)
        g[wave_dim] = 1.0
        return g

    def rhs_stack(t, y, u):
        wave = y[:wave_dim]
        out = np.empty((n_modes, state_dim))
        out[:, :wave_dim] = a_stack @ wave
        if m_u:
            out[:, :wave_dim] += b_stack @ u
        gaps = demands(t)[None, :] - delivery_stack @ wave
        out[:, wave_dim] = 0.5 * (gaps * gaps).sum(axis=1)
        return out

    def combined_jac_state(t, y, u, weights):
        wave = y[:wave_dim]
        jac = np.zeros((state_dim, state_dim))
        jac[:wave_dim, :wave_dim] = (weights @ a_flat).reshape(wave_dim, wave_dim)
        gaps = demands(t)[None, :] - delivery_stack @ wave
        jac[wave_dim, :wave_dim] = -((weights[:, None] * gaps).reshape(-1) @ delivery_rows)
        return jac

    def combined_jac_control(t, y, u, weights):
        jac = np.zeros((state_dim, m_u))
        jac[:wave_dim] = (weights @ b_flat).reshape(wave_dim, m_u)
        return jac

    names = []
    for r in range(n_lines):
        names.extend(f"line{r}_fwd{j}" for j in range(volumes))
        names.extend(f"line{r}_bwd{j}" for j in range(volumes))
    names.append("tracking_cost")

    system = SwitchedSystem(
        state_dim=state_dim,
        control_dim=m_u,
        modes=modes,
        rhs=rhs,
        rhs_jac_state=rhs_jac_state,
        rhs_jac_control=rhs_jac_control,
        terminal_cost=terminal_cost,
        terminal_cost_gradient=terminal_cost_gradient,
        initial_state=np.zeros(state_dim),
        control_lower=np.array([lo for _, lo, _ in config.producers], dtype=np.float64),
        control_upper=np.array([hi for _, _, hi in config.producers], dtype=np.float64),
        integrator=EULER,
        state_names=tuple(names),
        rhs_stack=rhs_stack,
        combined_jac_state=combined_jac_state,
        combined_jac_control=combined_jac_control,
    )
    d = dwell_intervals(config.tau_min, grid)
    if config.representation == COMPONENTWISE:
        spec = CombinatorialSpec.uniform(n_groups, d)
    else:
        spec = CombinatorialSpec.uniform(1, d, representation=MODEWISE)
    return system, grid, spec


def _subgrid_topology():
    nodes = (
        "gen1", "gen2", "top1", "sub1", "sub2", "sub3", "mid1",
        "bottom1", "bottom2", "cons1", "cons2", "cons3", "cons4", "cons5",
    )
    lines = (
        TransLine("gen1", "top1"),       # 0
        TransLine("gen2", "bottom1"),    # 1
        TransLine("top1", "cons3"),      # 2
        TransLine("top1", "sub1"),       # 3, group 0
        TransLine("bottom1", "sub3"),    # 4, group 0
        TransLine("bottom1", "cons1"),   # 5
        TransLine("sub1", "sub2"),       # 6
        TransLine("sub3", "sub2"),       # 7
        TransLine("bottom1", "bottom2"), # 8
        TransLine("sub2", "mid1"),       # 9, group 0
        TransLine("bottom2", "mid1"),    # 10, group 1
        TransLine("mid1", "cons4"),      # 11
        TransLine("mid1", "cons5"),      # 12
        TransLine("bottom2", "cons2"),   # 13
    )
    return nodes, lines


def translines_subgrid_config(volumes_per_line: int = 4, n_time_steps: int = 104,
                              tau_min: float = 1.0,
                              representation: str = COMPONENTWISE) -> TranslinesConfig:
    """Two producers feeding five consumers through one islandable subgrid.

    One switch group gates the three-line corridor into the junction node and
    a second gates the direct link into it, so demand at the far consumers
    can be met through either corridor or not at all.
    """
    nodes, lines = _subgrid_topology()
    ramp = 0.5  # breakpoint spacing of demand transitions
    consumers = (
        ("cons1", ((0.0, 0.40), (26.0, 0.40))),
        ("cons2", ((0.0, 0.25), (9.0, 0.25), (9.0 + ramp, 0.45), (26.0, 0.45))),
        ("cons3", ((0.0, 0.50), (26.0, 0.50))),
        ("cons4", ((0.0, 0.05), (8.0, 0.05), (8.0 + ramp, 0.60),
                   (17.0, 0.60), (17.0 + ramp, 0.15), (26.0, 0.15))),
        ("cons5", ((0.0, 0.30), (12.0, 0.30), (12.0 + ramp, 0.02),
                   (20.0, 0.02), (20.0 + ramp, 0.40), (26.0, 0.40))),
    )
    return TranslinesConfig(
        nodes=nodes,
        lines=lines,
        switch_groups=((3, 4, 9), (10,)),
        producers=(("gen1", 0.0, 2.0), ("gen2", 0.0, 2.0)),
        consumers=consumers,
        volumes_per_line=volumes_per_line,
        n_time_steps=n_time_steps,
        tau_min=tau_min,
        representation=representation,
    )
