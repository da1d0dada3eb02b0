"""Reference computations written apart from switchopt.

Nothing here imports the program: the benchmark compares the program's
outputs with these closed forms, checkers and exhaustive or dynamic-programming
minima.  Each ``check_*`` function returns a list of failure messages, empty
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

# Fuller test problem: y1' = y2, y2' = 1 - 2 v, y3' = y1^2 on [0, 1] from
# (1/100, 0, 0); cost y3 + (y1 - 1/100)^2 + y2^2.
FULLER_Y0 = 0.01

# Absolute tolerance of objective comparisons that should agree to rounding.
ROUNDING_ATOL = 1e-13


def dwell_count(tau: float, horizon: float, n_intervals: int) -> int:
    """Intervals a dwell time covers, ignoring quotient noise below 1e-9."""
    return max(1, math.ceil(tau * n_intervals / horizon - 1e-9))


def dwell_violations(sequence, min_dwell: int, budget=None) -> list:
    """Broken dwell and switch-budget rules of one value sequence.

    A switch is a change between consecutive intervals.  Two consecutive
    switches must be at least ``min_dwell`` intervals apart; the runs before
    the first and after the last switch are exempt.
    """
    seq = np.asarray(sequence)
    switches = [k for k in range(1, len(seq)) if seq[k] != seq[k - 1]]
    found = [
        f"switches at {a} and {b} are {b - a} < {min_dwell} intervals apart"
        for a, b in zip(switches, switches[1:]) if b - a < min_dwell
    ]
    if budget is not None and len(switches) > budget:
        found.append(f"{len(switches)} switches exceed the budget {budget}")
    return found


def fuller_exact_costs(paths: np.ndarray, h: float) -> np.ndarray:
    """Exact Fuller cost of each row of a (paths, N) array of 0/1 controls.

    On an interval with acceleration a the position is a quadratic in time,
    so the running cost integrates in closed form.
    """
    v = np.asarray(paths, dtype=np.float64)
    y1 = np.full(v.shape[0], FULLER_Y0)
    y2 = np.zeros(v.shape[0])
    y3 = np.zeros(v.shape[0])
    for k in range(v.shape[1]):
        a = 1.0 - 2.0 * v[:, k]
        y3 = (y3 + y1 * y1 * h + y1 * y2 * h ** 2 + (y2 * y2 + y1 * a) * h ** 3 / 3.0
              + y2 * a * h ** 4 / 4.0 + a * a * h ** 5 / 20.0)
        y1 = y1 + y2 * h + 0.5 * a * h * h
        y2 = y2 + a * h
    return y3 + (y1 - FULLER_Y0) ** 2 + y2 ** 2


def fuller_rk4_excess(n_intervals: int) -> float:
    """Amount by which RK4 overestimates the Fuller cost of any +-1 path.

    One classical RK4 step integrates the quartic running cost with error
    h^5/80 per interval whatever the interval's sign.
    """
    h = 1.0 / n_intervals
    return n_intervals * h ** 5 / 80.0


def check_fuller(path, objective: float, tau: float, label: str) -> list:
    """Closed-form objective and dwell feasibility of one Fuller result."""
    path = np.asarray(path)
    n = path.size
    failures = [f"{label}: {msg}" for msg in dwell_violations(path, dwell_count(tau, 1.0, n))]
    if not np.isin(path, (0, 1)).all():
        failures.append(f"{label}: control values outside {{0, 1}}")
        return failures
    exact = float(fuller_exact_costs(path[None, :], 1.0 / n)[0]) + fuller_rk4_excess(n)
    if abs(objective - exact) > ROUNDING_ATOL:
        failures.append(
            f"{label}: recorded objective {objective!r} != closed form {exact!r}"
        )
    return failures


def fuller_feasible_paths(n_intervals: int, min_dwell: int) -> np.ndarray:
    """Every dwell-feasible 0/1 path, in lexicographic order."""
    # Rows: (path prefix, last run length capped at min_dwell, in first run).
    paths = np.array([[0], [1]], dtype=np.int8)
    runs = np.ones(2, dtype=np.int64)
    first = np.ones(2, dtype=bool)
    for _ in range(1, n_intervals):
        may_switch = first | (runs >= min_dwell)
        stay = np.concatenate([paths, paths[:, -1:]], axis=1)
        flip = np.concatenate([paths, 1 - paths[:, -1:]], axis=1)[may_switch]
        paths = np.concatenate([stay, flip])
        runs = np.concatenate([np.minimum(runs + 1, min_dwell), np.ones(len(flip), dtype=np.int64)])
        first = np.concatenate([first, np.zeros(len(flip), dtype=bool)])
        order = np.lexsort(paths.T[::-1])
        paths, runs, first = paths[order], runs[order], first[order]
    return paths


def check_oracle(path, value: float, n_intervals: int, tau: float, reference) -> list:
    """Oracle optimum against the minimum over the benchmark's own enumeration.

    ``reference`` is what ``fuller_oracle_reference`` returns.
    """
    best_cost, best_path, _ = reference
    failures = [f"oracle: {msg}" for msg in dwell_violations(path, dwell_count(tau, 1.0, n_intervals))]
    own = float(fuller_exact_costs(np.asarray(path)[None, :], 1.0 / n_intervals)[0])
    exact = value - fuller_rk4_excess(n_intervals)
    if abs(exact - best_cost) > ROUNDING_ATOL:
        failures.append(f"oracle: optimum {exact!r} != enumerated minimum {best_cost!r}")
    if abs(own - best_cost) > ROUNDING_ATOL:
        failures.append(
            f"oracle: returned path costs {own!r}, enumerated minimum {best_cost!r} "
            f"is attained by {''.join(map(str, best_path))}"
        )
    return failures


def fuller_oracle_reference(n_intervals: int, tau: float):
    """(least exact cost, a path attaining it, number of feasible paths)."""
    paths = fuller_feasible_paths(n_intervals, dwell_count(tau, 1.0, n_intervals))
    costs = fuller_exact_costs(paths, 1.0 / n_intervals)
    best = int(np.argmin(costs))
    return float(costs[best]), paths[best].tolist(), len(paths)


def euler_objective(system, h: float, v, u) -> float:
    """Forward Euler over the per-mode right-hand side of a binary path."""
    y = np.array(system.initial_state, dtype=np.float64)
    for k in range(len(v)):
        y = y + h * np.asarray(system.rhs(k * h, y, u[k], v[k]), dtype=np.float64)
    return float(system.terminal_cost(y))


def check_translines(system, h, v, u, objective: float, min_dwell: int, label: str,
                     rtol: float = 1e-9) -> list:
    """Re-simulated objective, dwell feasibility and control bounds."""
    v = np.asarray(v, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    failures = []
    for c in range(v.shape[1]):
        failures.extend(f"{label}: component {c + 1}: {msg}"
                        for msg in dwell_violations(v[:, c], min_dwell))
    lo = np.asarray(system.control_lower)
    hi = np.asarray(system.control_upper)
    if (u < lo).any() or (u > hi).any():
        failures.append(f"{label}: producer controls leave [{lo.tolist()}, {hi.tolist()}]")
    own = euler_objective(system, h, v, u)
    if abs(own - objective) > rtol * abs(own):
        failures.append(f"{label}: recorded objective {objective!r} != re-simulated {own!r}")
    return failures


def read_controls_csv(path):
    """Columns of a controls CSV as {header: array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    data = np.array(rows, dtype=np.float64)
    return {name: data[:, i] for i, name in enumerate(header)}


def numbered_columns(columns, prefix):
    names = sorted((n for n in columns if n[0] == prefix and n[1:].isdigit()),
                   key=lambda n: int(n[1:]))
    return np.column_stack([columns[n] for n in names])


# ---------------------------------------------------------------------------
# Integer side
# ---------------------------------------------------------------------------


def dwell_dp_minimum(costs: np.ndarray, min_dwell: int, budget=None) -> float:
    """Least sum of costs[k, value_k] over dwell- and budget-feasible sequences.

    The table is indexed (first-run flag, run length capped at the dwell,
    switches used, value) and advanced one interval at a time with array
    operations; a switch takes the cheapest eligible source with a different
    value, found from the best and second-best source per switch level.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    d = min_dwell
    levels = 1 if budget is None else budget + 1
    table = np.full((2, d, levels, m), np.inf)
    table[1, 0, 0, :] = costs[0]
    for k in range(1, n):
        new = np.full_like(table, np.inf)
        new[:, 1:] = table[:, :-1]
        new[:, d - 1] = np.minimum(new[:, d - 1], table[:, d - 1])
        source = np.minimum(table[1].min(axis=0), table[0, d - 1])  # (levels, m)
        order = np.argsort(source, axis=1, kind="stable")
        best = np.take_along_axis(source, order[:, :1], axis=1)
        second = np.take_along_axis(source, order[:, 1:2], axis=1) if m > 1 else np.full_like(best, np.inf)
        other = np.where(np.arange(m)[None, :] == order[:, :1], second, best)
        if budget is None:
            new[0, 0] = np.minimum(new[0, 0], other)
        else:
            new[0, 0, 1:] = np.minimum(new[0, 0, 1:], other[:-1])
        table = new + costs[k][None, None, None, :]
    return float(table.min())


def onehot_rows(values: np.ndarray) -> bool:
    return bool(np.isin(values, (0.0, 1.0)).all() and (values.sum(axis=1) == 1).all())


def weighted_gap(w: np.ndarray, modes: np.ndarray, path: np.ndarray, h: float) -> float:
    """h * sum_k sum_i w[k, i] |r^i - v_k|_1 for a path of mode configurations."""
    dist = np.abs(modes[None, :, :] - path[:, None, :]).sum(axis=2)
    return float(h * (w * dist).sum())


def check_dwell_projection(w, modes, path, h, min_dwell, budget, modewise, label) -> list:
    """Feasibility and exact optimality of one weighted dwell projection."""
    w = np.asarray(w, dtype=np.float64)
    modes = np.asarray(modes)
    path = np.asarray(path)
    failures = []
    if modewise:
        match = (path[:, None, :] == modes[None, :, :]).all(axis=2)
        if not (match.sum(axis=1) == 1).all():
            return [f"{label}: rows are not mode configurations"]
        sequences = [match.argmax(axis=1)]
        tables = [h * (w @ np.abs(modes[:, None, :] - modes[None, :, :]).sum(axis=2))]
    else:
        if not np.isin(path, (0, 1)).all():
            return [f"{label}: values outside {{0, 1}}"]
        sequences = list(path.T)
        marginals = w @ modes
        tables = [h * np.column_stack((marginals[:, c], 1.0 - marginals[:, c]))
                  for c in range(modes.shape[1])]
    for c, seq in enumerate(sequences):
        failures.extend(f"{label}: component {c + 1}: {msg}"
                        for msg in dwell_violations(seq, min_dwell, budget))
    best = sum(dwell_dp_minimum(t, min_dwell, budget) for t in tables)
    cost = weighted_gap(w, modes, path, h)
    if abs(cost - best) > 1e-10 * max(1.0, abs(best)):
        failures.append(f"{label}: projection cost {cost!r} != reference minimum {best!r}")
    return failures


def max_deviation(w: np.ndarray, onehot: np.ndarray, h: float) -> float:
    """Largest accumulated integral gap between multipliers and a one-hot path."""
    return float(np.abs(np.cumsum((w - onehot) * h, axis=0)).max())


def dwell_greedy_rounding(w: np.ndarray, h: float, min_dwell: int) -> np.ndarray:
    """Integral-gap rounding that only switches when the dwell lock allows."""
    n, m = w.shape
    out = np.zeros((n, m))
    gap = np.zeros(m)
    mode, run, first = -1, 0, True
    for k in range(n):
        gap += w[k] * h
        want = int(np.argmax(gap))
        if mode < 0 or (want != mode and (first or run >= min_dwell)):
            first = mode < 0
            mode, run = want, 0
        run += 1
        out[k, mode] = 1.0
        gap[mode] -= h
    return out


def own_feasible_paths(w: np.ndarray, h: float, min_dwell: int):
    """Dwell-feasible one-hot paths built without the program."""
    n, m = w.shape
    yield dwell_greedy_rounding(w, h, min_dwell)
    for mode in range(m):
        hold = np.zeros((n, m))
        hold[:, mode] = 1.0
        yield hold


def check_ciap(w, control, deviation, proven, h, min_dwell, budget, label) -> list:
    """Feasibility, reported deviation and (when proven) optimality of CIAP."""
    w = np.asarray(w, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if not onehot_rows(control):
        return [f"{label}: rows are not one-hot"]
    failures = [f"{label}: {msg}"
                for msg in dwell_violations(control.argmax(axis=1), min_dwell, budget)]
    own = max_deviation(w, control, h)
    if abs(own - deviation) > 1e-12:
        failures.append(f"{label}: reported deviation {deviation!r} != recomputed {own!r}")
    if proven:
        for path in own_feasible_paths(w, h, min_dwell):
            if dwell_violations(path.argmax(axis=1), min_dwell, budget):
                continue
            if deviation > max_deviation(w, path, h) + 1e-12:
                failures.append(f"{label}: proven optimum {deviation!r} beaten by a feasible path")
                break
    return failures


def exhaustive_ciap_minimum(w: np.ndarray, h: float, min_dwell: int) -> float:
    """Least max deviation over every dwell-feasible mode sequence."""
    n, m = w.shape
    seqs = np.array(np.meshgrid(*[np.arange(m)] * n, indexing="ij")).reshape(n, -1).T
    changed = seqs[:, 1:] != seqs[:, :-1]
    ok = np.ones(len(seqs), dtype=bool)
    last = np.full(len(seqs), -1)
    for k in range(1, n):
        sw = changed[:, k - 1]
        ok &= ~(sw & (last >= 0) & (k - last < min_dwell))
        last = np.where(sw, k, last)
    seqs = seqs[ok]
    onehot = np.eye(m)[seqs]  # (S, n, m)
    gaps = np.cumsum((w[None, :, :] - onehot) * h, axis=1)
    return float(np.abs(gaps).max(axis=(1, 2)).min())


def check_ciap_exhaustive(w, deviation, proven, h, min_dwell, label) -> list:
    """A small CIAP instance must be solved to the exhaustive minimum."""
    best = exhaustive_ciap_minimum(np.asarray(w, dtype=np.float64), h, min_dwell)
    if not proven or abs(deviation - best) > 1e-12:
        return [f"{label}: deviation {deviation!r} != exhaustive minimum {best!r}"]
    return []


def reference_sum_up_rounding(w: np.ndarray) -> np.ndarray:
    n, m = w.shape
    out = np.zeros((n, m))
    gap = np.zeros(m)
    for k in range(n):
        gap += w[k]
        pick = int(np.argmax(gap))
        out[k, pick] = 1.0
        gap[pick] -= 1.0
    return out


def check_sur(w, control, label) -> list:
    if not np.array_equal(np.asarray(control), reference_sum_up_rounding(np.asarray(w))):
        return [f"{label}: rounding differs from the integral-gap rule"]
    return []
