"""Exact solvers for the screen scheduling program.

Three independent methods over the same model:

* ``solve_assignment`` exploits the structure directly: screens are left
  nodes, film configurations right nodes, and the program is a rectangular
  max-weight assignment, solved by shortest augmenting paths in exact
  integer arithmetic.
* ``solve_branch_and_bound`` is a depth-first search over screens with an
  additive upper bound, knowing nothing about assignment structure.
* ``solve_brute_force`` enumerates every injective screen-to-configuration
  map; guarded to small instances, it is the ground-truth oracle.

``certify`` runs them against each other and only then calls a result
optimal.  All three agree on the objective by construction of the tests,
never by fiat; a disagreement raises instead of picking a winner.

Tie handling: ``solve_assignment`` and ``solve_brute_force`` return the
lexicographically smallest optimal schedule (ordered by screen id, then
film id, then configuration index).  Brute force gets it from its
enumeration order; the assignment solver gets it in the same single solve,
by adding to each integer weight a tie-break term too small to outweigh
any difference in attendance (see ``solve_assignment``).  Branch and bound
keeps the first optimum its search order finds, which the certifier
compares by objective only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .domain import MILLI
from .formulation import BilpModel, VariableRef, check_feasible

ORACLE_MAX_SCREENS = 8
ORACLE_MAX_COLUMNS = 10


class OracleGuardError(Exception):
    """Brute force was asked to enumerate more than it is allowed to."""


class CertificationError(Exception):
    """Two supposedly exact solvers disagreed; a bug, not a bad instance."""


@dataclass
class Schedule:
    """Per-screen choice of (film_id, config_index)."""

    choices: Dict[int, Tuple[int, int]]

    def items(self) -> List[Tuple[int, Tuple[int, int]]]:
        return sorted(self.choices.items())

    def variables(self) -> List[VariableRef]:
        return [VariableRef(sid, fid, cidx) for sid, (fid, cidx) in self.items()]


@dataclass
class SolveStats:
    nodes: int = 0            # search nodes, enumerated assignments, or augmentations
    wall_time: float = 0.0


@dataclass
class SolveReport:
    status: str               # "Optimal" or "Infeasible"
    method: str
    schedule: Optional[Schedule] = None
    objective: Optional[Fraction] = None
    stats: SolveStats = field(default_factory=SolveStats, compare=False)
    certified: bool = False
    diagnostic: Optional[str] = None


def _pigeonhole_message(screens: int, columns: int) -> str:
    return (
        f"pigeonhole: more screens ({screens}) than film configurations"
        f" ({columns}); every screen needs its own configuration"
    )


_SPARSE_PIGEONHOLE = (
    "pigeonhole: some cluster's screens outnumber the film configurations"
    " available to them"
)


def _augment_min_cost(
    cost: Sequence[Sequence[Optional[int]]], stats: SolveStats
) -> Optional[List[int]]:
    """Min-cost rectangular assignment by shortest augmenting paths.

    ``cost`` is n rows by m columns of exact integers, n <= m, with None
    marking a forbidden cell.  Returns the column index chosen per row, or
    None when no assignment of every row uses allowed cells only.  Each
    completed augmentation counts one node in ``stats``.  Potentials stay
    integral throughout, so the optimum is exact.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)            # p[j]: row matched to column j, 1-based
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: List[Optional[int]] = [None] * (m + 1)   # None: not reached yet
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta: Optional[int] = None
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                if row[j - 1] is not None:
                    cur = row[j - 1] - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                # no free column reachable: by Berge's lemma rows 1..i
                # have no complete matching
                return None
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
        stats.nodes += 1
    row_to_col = [-1] * n
    for j in range(1, m + 1):
        if p[j]:
            row_to_col[p[j] - 1] = j - 1
    return row_to_col


def _cell_weights(model: BilpModel) -> Dict[Tuple[int, int], int]:
    """(screen index, column index) -> coefficient in milliunits; absent cells forbidden."""
    weights = {}
    for si, sid in enumerate(model.screen_ids):
        for ci, key in enumerate(model.column_keys):
            var = model.cell(sid, key)
            if var is not None:
                weights[(si, ci)] = model.objective[var]
    return weights


# A search gets the cell weights, the screen count, the column indices in
# ascending (film, config) order and the stats to count its effort in; it
# returns the chosen column index per screen, or None when no complete
# schedule exists.
Search = Callable[[Dict[Tuple[int, int], int], int, List[int], SolveStats], Optional[List[int]]]


def _solve(model: BilpModel, method: str, search: Search) -> SolveReport:
    """Report of ``search`` on ``model``: pigeonhole check, timing, schedule."""
    started = time.perf_counter()
    n = len(model.screen_ids)
    m = len(model.column_keys)
    report = SolveReport(status="Infeasible", method=method)
    if n > m:
        report.diagnostic = _pigeonhole_message(n, m)
    else:
        weights = _cell_weights(model)
        column_order = sorted(range(m), key=lambda ci: model.column_keys[ci][-2:])
        choice = search(weights, n, column_order, report.stats)
        if choice is None:
            report.diagnostic = _SPARSE_PIGEONHOLE
        else:
            report.status = "Optimal"
            report.schedule = Schedule(
                {model.screen_ids[si]: model.column_keys[ci][-2:] for si, ci in enumerate(choice)}
            )
            report.objective = Fraction(
                sum(weights[(si, ci)] for si, ci in enumerate(choice)), MILLI
            )
    report.stats.wall_time = time.perf_counter() - started
    return report


def _assignment_search(weights, n, column_order, stats):
    m = len(column_order)
    scale = m**n
    place = [m ** (n - 1 - si) for si in range(n)]
    tie = [0] * m
    for rank, ci in enumerate(column_order):
        tie[ci] = m - 1 - rank
    cost: List[List[Optional[int]]] = [[None] * m for _ in range(n)]
    for (si, ci), w in weights.items():
        cost[si][ci] = -(w * scale + tie[ci] * place[si])
    return _augment_min_cost(cost, stats)


def solve_assignment(model: BilpModel) -> SolveReport:
    """Optimal schedule via the rectangular assignment reduction.

    One shortest-augmenting-path solve on perturbed integer weights, one
    augmentation per screen.  With n screens and m columns, the cell of
    screen index s and the column of rank r in (film, config) order weighs
    ``w * m**n + (m - 1 - r) * m**(n - 1 - s)``.  The tie-break terms of a
    schedule read as an n-digit base-m number below ``m**n``, so they never
    outweigh a difference in attendance, and among optimal schedules they
    are largest for the lexicographically smallest one, which is therefore
    the unique perturbed optimum.  The objective sums the original weights.
    """
    return _solve(model, "assignment", _assignment_search)


def _branch_and_bound_search(weights, n, column_order, stats):
    candidates: List[List[Tuple[int, int]]] = []
    for si in range(n):
        row = [(weights[(si, ci)], ci) for ci in column_order if (si, ci) in weights]
        row.sort(key=lambda wc: -wc[0])   # stable: ties keep (film, config) order
        candidates.append(row)

    used = [False] * len(column_order)
    best_value: Optional[int] = None
    best_choice: Optional[List[int]] = None
    choice = [-1] * n

    def dfs(si: int, value: int) -> None:
        nonlocal best_value, best_choice
        stats.nodes += 1
        if si == n:
            if best_value is None or value > best_value:
                best_value = value
                best_choice = choice[:]
            return
        # optimistic completion: every later screen takes its best free column
        bound = value
        for sj in range(si, n):
            best_free = None
            for w, ci in candidates[sj]:
                if not used[ci]:
                    best_free = w
                    break
            if best_free is None:
                return
            bound += best_free
        if best_value is not None and bound <= best_value:
            return
        for w, ci in candidates[si]:
            if used[ci]:
                continue
            used[ci] = True
            choice[si] = ci
            dfs(si + 1, value + w)
            used[ci] = False
        choice[si] = -1

    dfs(0, 0)
    return best_choice


def solve_branch_and_bound(model: BilpModel) -> SolveReport:
    """Optimal schedule by depth-first branch and bound over screens.

    Screens are processed in ascending id order; each screen's candidate
    configurations are tried in descending coefficient order (ties by
    ascending film then configuration index).  The bound adds, for every
    unassigned screen, the best still-available coefficient; branches
    whose bound cannot beat the incumbent are pruned.
    """
    return _solve(model, "branch-and-bound", _branch_and_bound_search)


def _brute_force_search(weights, n, column_order, stats):
    used = [False] * len(column_order)
    best_value: Optional[int] = None
    best_choice: Optional[List[int]] = None
    choice = [-1] * n

    def enumerate_from(si: int, value: int) -> None:
        nonlocal best_value, best_choice
        if si == n:
            stats.nodes += 1
            if best_value is None or value > best_value:
                best_value = value
                best_choice = choice[:]
            return
        for ci in column_order:
            if used[ci] or (si, ci) not in weights:
                continue
            used[ci] = True
            choice[si] = ci
            enumerate_from(si + 1, value + weights[(si, ci)])
            used[ci] = False
        choice[si] = -1

    enumerate_from(0, 0)
    return best_choice


def solve_brute_force(model: BilpModel) -> SolveReport:
    """Oracle: enumerate all injective screen-to-configuration maps.

    Guarded to 8 screens and 10 configurations; bigger instances raise
    rather than run for hours.  The stats node count is the number of
    complete assignments enumerated.
    """
    n = len(model.screen_ids)
    m = len(model.column_keys)
    if n > ORACLE_MAX_SCREENS or m > ORACLE_MAX_COLUMNS:
        raise OracleGuardError(
            f"instance too large for oracle: {n} screens x {m} configurations"
            f" (limit {ORACLE_MAX_SCREENS} x {ORACLE_MAX_COLUMNS})"
        )

    return _solve(model, "brute-force", _brute_force_search)


def within_oracle_guard(model: BilpModel) -> bool:
    return (
        len(model.screen_ids) <= ORACLE_MAX_SCREENS
        and len(model.column_keys) <= ORACLE_MAX_COLUMNS
    )


def certify(model: BilpModel) -> SolveReport:
    """Solve by independent methods and demand exact agreement.

    Returns the assignment-method report marked certified.  On instances
    small enough for the oracle, brute force must agree as well.  Any
    mismatch in status, objective, or feasibility raises
    :class:`CertificationError` naming both sides.
    """
    first = solve_assignment(model)
    second = solve_branch_and_bound(model)
    reports = [first, second]
    if within_oracle_guard(model):
        reports.append(solve_brute_force(model))

    statuses = {r.status for r in reports}
    if len(statuses) != 1:
        raise CertificationError(
            "solver status disagreement: "
            + ", ".join(f"{r.method}={r.status}" for r in reports)
        )
    if first.status == "Optimal":
        objectives = {r.objective for r in reports}
        if len(objectives) != 1:
            raise CertificationError(
                "solver objective disagreement: "
                + ", ".join(f"{r.method}={r.objective}" for r in reports)
            )
        for report in reports:
            feasibility = check_feasible(model, report.schedule.variables())
            if not feasibility.feasible:
                raise CertificationError(
                    f"{report.method} returned an infeasible schedule: "
                    + "; ".join(str(row) for row in feasibility.failures())
                )
    return replace(first, certified=True)
