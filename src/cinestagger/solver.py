"""Exact solvers for the screen scheduling program, and the proof check.

Three independent methods over the same model:

* ``solve_assignment`` exploits the structure directly: screens are left
  nodes, film configurations right nodes, and the program is a rectangular
  max-weight assignment.  It is solved by shortest augmenting paths in
  exact integer arithmetic on the weights themselves: one Dijkstra search
  per screen over the columns it has not reached yet, with the duals
  settled once per augmentation rather than at every step (Jonker &
  Volgenant 1987; Crouse 2016, the method behind scipy's
  ``linear_sum_assignment``).  The matcher's final duals are its
  ``lp-dual`` certificate as they stand.
* ``solve_branch_and_bound`` is a depth-first search over screens with an
  additive upper bound, knowing nothing about assignment structure.
* ``solve_brute_force`` enumerates every injective screen-to-configuration
  map; guarded to small instances, it is the ground-truth oracle.

``certify`` runs ``solve_assignment`` and then ``check_certificate``, which
proves the reported status in exact integers from the model, the schedule
and the certificate alone, trusting nothing the search computed.  The
program's constraint matrix is an assignment matrix, so LP duality proves
optimality (Kuhn 1955; Burkard, Dell'Amico & Martello, *Assignment
Problems*, SIAM 2009, ch. 4).  The certificates are:

* ``lp-dual`` (Optimal): the schedule gives every screen of the model one
  of its own allowed cells and no column twice, and scores the reported
  objective on the weight matrix; a value ``U`` per screen and ``V`` per
  column has ``U + V`` at least the cell's weight on every allowed cell,
  ``V >= 0``, ``V == 0`` on unused columns, and ``sum(U) + sum(V)`` equal
  to the schedule's weight.  Every schedule weighs at most the dual sum,
  so the one that reaches it is optimal.
* ``pigeonhole`` (Infeasible): more screens than columns.
* ``hall-set`` (Infeasible): screens whose allowed cells all lie in fewer
  columns than there are screens, so by Hall's theorem no schedule gives
  each of them its own column.

The check reads only the model's screen ids, column keys and weight
matrix, and the tie-broken weights derived from those three, and costs
O(screens x configurations).  Branch and bound and brute
force never run on this path; they stay as the oracles the tests compare
against, and disagreement with them is a bug, never settled by fiat.

Tie handling: ``solve_assignment`` and ``solve_brute_force`` return the
lexicographically smallest optimal schedule (ordered by screen id, then
film id, then configuration index).  Brute force gets it from its
enumeration order; the assignment solver gets it in the same single solve,
by adding to each integer weight a tie-break term too small to outweigh
any difference in attendance (see ``solve_assignment``).  The ``lp-dual``
certificate is checked on those perturbed weights, so it also proves the
schedule is the canonical optimum.  Branch and bound keeps the first
optimum its search order finds.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .domain import MILLI
# check_feasible is unused here, but perfbench/tracing.py patches it on this module by getattr
from .formulation import BilpModel, VariableRef, Weights, check_feasible  # noqa: F401

ORACLE_MAX_SCREENS = 8
ORACLE_MAX_COLUMNS = 10

CERTIFICATE_KINDS = ("lp-dual", "pigeonhole", "hall-set")


class OracleGuardError(Exception):
    """Brute force was asked to enumerate more than it is allowed to."""


class CertificationError(Exception):
    """A solver's report failed its proof check; a bug, not a bad instance."""


class Schedule(namedtuple("Schedule", "choices")):
    """Per-screen choice of (film_id, config_index)."""

    __slots__ = ()    # choices: Dict[int, Tuple[int, int]]

    def items(self) -> List[Tuple[int, Tuple[int, int]]]:
        return sorted(self.choices.items())

    def variables(self) -> List[VariableRef]:
        return [VariableRef(sid, fid, cidx) for sid, (fid, cidx) in self.items()]


class Certificate(namedtuple("Certificate", "kind screen_duals column_duals screens columns", defaults=((),) * 4)):
    """Proof of a report's status; indices follow the model's screen and column order.

    ``kind`` is "lp-dual", "pigeonhole" or "hall-set".  The rest are int tuples: lp-dual's
    ``screen_duals`` (U per screen, perturbed weights) and ``column_duals`` (V per column),
    hall-set's ``screens`` (screen indices) and ``columns`` (every column those screens allow).
    """

    __slots__ = ()


class SolveStats:
    def __init__(self, nodes: int = 0) -> None:
        self.nodes = nodes    # search nodes, enumerated assignments, or augmentations

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.nodes == other.nodes


class SolveReport:
    """A solver's result; equality ignores ``stats``, which count effort, not results."""

    def __init__(
        self,
        status: str,          # "Optimal" or "Infeasible"
        method: str,
        schedule: Optional[Schedule] = None,
        objective: Optional[Fraction] = None,
        stats: Optional[SolveStats] = None,     # a fresh SolveStats when None
        certified: bool = False,
        diagnostic: Optional[str] = None,
        certificate: Optional[Certificate] = None,
    ) -> None:
        self.status = status
        self.method = method
        self.schedule = schedule
        self.objective = objective
        self.stats = SolveStats() if stats is None else stats
        self.certified = certified
        self.diagnostic = diagnostic
        self.certificate = certificate

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return {**vars(self), "stats": None} == {**vars(other), "stats": None}


def _pigeonhole_message(screens: int, columns: int) -> str:
    return (
        f"pigeonhole: more screens ({screens}) than film configurations"
        f" ({columns}); every screen needs its own configuration"
    )


_SPARSE_PIGEONHOLE = (
    "pigeonhole: some cluster's screens outnumber the film configurations"
    " available to them"
)


_UNREACHED = float("inf")   # slack of a column no reached row allows; compared with ints, never added to one


def _augment_max_weight(
    weights: Weights, m: int, stats: SolveStats
) -> Tuple[Optional[List[int]], List[int], List[int]]:
    """Max-weight rectangular assignment by shortest augmenting paths.

    ``weights`` is n rows by ``m`` columns of exact integers, n <= m, with
    None marking a forbidden cell.  Returns ``(choice, u, v)``: the column
    index chosen per row, and row and column duals with
    ``u[i] + v[j] >= weights[i][j]`` on every allowed cell, equality on the
    chosen cells, ``v[j] >= 0``, and ``v[j] == 0`` on unchosen columns.
    When no assignment of every row uses allowed cells only, returns
    ``(None, rows, columns)``: what the last search reached, a set of rows
    with no allowed cell outside a smaller set of columns.  Each completed
    augmentation counts one node in ``stats``.  Duals stay integral
    throughout, so the optimum is exact.

    Rows join the matching one at a time.  Each join is a Dijkstra search
    from the new row over the reduced costs ``u[i] + v[j] - weights[i][j]``,
    which are nonnegative on every matched row, and the duals stay fixed
    while it runs (Jonker & Volgenant 1987; Crouse 2016, the method of
    scipy's ``linear_sum_assignment``).  ``slack[j]`` is the shortest path
    found so far to column j.  Each step scans only the columns not yet
    reached: it relaxes them through the row just reached and picks the
    nearest in the same pass, the lowest column index on a tie.  When the
    search reaches a free column at distance ``dist``, the new row's dual
    falls by ``dist`` and each reached column j and its row move by
    ``dist - slack[j]``, once.  That is the sum of the per-step shifts of
    the Hungarian method, which moves every reached dual at every step
    (Kuhn 1955), so both give the same duals.  The slack, path and
    matching lists live across augmentations; slack is reset in place
    after each one.
    """
    n = len(weights)
    u = [0] * n
    v = [0] * m
    row_of = [-1] * m            # row matched to each column, -1 while free
    col_of = [-1] * n            # column matched to each row
    unreached = [_UNREACHED] * m
    slack = unreached[:]
    via = [0] * m                # the row through which slack[j] was last lowered
    for root in range(n):
        free = list(range(m))    # columns not reached yet, ascending
        reached = []             # matched columns reached so far
        i, dist = root, 0
        while True:
            row = weights[i]
            base = dist + u[i]
            low = _UNREACHED
            for j in free:
                w = row[j]
                if w is not None:
                    s = base + v[j] - w
                    if s < slack[j]:
                        slack[j] = s
                        via[j] = i
                        if s < low:
                            low = s
                            nearest = j
                        continue         # s is slack[j] now, already compared
                s = slack[j]
                if s < low:
                    low = s
                    nearest = j
            if low == _UNREACHED:
                # every reached row has been expanded and no unreached
                # column is next to one: the reached rows outnumber the
                # reached columns by one (the new row), a Hall violator
                return None, sorted([root] + [row_of[j] for j in reached]), sorted(reached)
            dist = low
            free.remove(nearest)
            i = row_of[nearest]
            if i < 0:
                break
            reached.append(nearest)
        u[root] -= dist
        for j in reached:
            delta = dist - slack[j]
            u[row_of[j]] -= delta
            v[j] += delta
        # a dense row touches every column, so one slice write beats a per-entry reset
        slack[:] = unreached
        j = nearest
        while True:              # flip the path, from the free column back to the new row
            i = via[j]
            row_of[j] = i
            j, col_of[i] = col_of[i], j
            if i == root:
                break
        stats.nodes += 1
    return col_of, u, v


def _column_order(model: BilpModel) -> List[int]:
    """Column indices in ascending (film, config) order."""
    return sorted(range(len(model.column_keys)), key=lambda ci: model.column_keys[ci][-2:])


def _perturbed_weights(weights: Weights, column_order: List[int]) -> Weights:
    """Weights with the lexicographic tie-break folded in (see ``solve_assignment``)."""
    n, m = len(weights), len(column_order)
    scale = m**n
    tie = [0] * m
    for rank, ci in enumerate(column_order):
        tie[ci] = m - 1 - rank
    place = [m ** (n - 1 - si) for si in range(n)]
    return [
        [None if w is None else w * scale + tie[ci] * place[si] for ci, w in enumerate(row)]
        for si, row in enumerate(weights)
    ]


def _tie_broken(model: BilpModel) -> Weights:
    """The model's perturbed weights, built once and kept on the model; read only.

    Derived from its screen ids, column keys and weights alone, so the
    search and the certificate check can share it.
    """
    cache = vars(model)
    if "_tie_broken" not in cache:
        cache["_tie_broken"] = _perturbed_weights(model.weights, _column_order(model))
    return cache["_tie_broken"]


# A search gets the model and the stats to count its effort in; it returns
# the chosen column index per screen, or None when no complete schedule
# exists, and a certificate of that result if it has one.
# builtin generics and X | None: typing caches a subscription, so it would keep this copy alive after a re-import
Search = Callable[[BilpModel, SolveStats], tuple[list[int] | None, Certificate | None]]


def _solve(model: BilpModel, method: str, search: Search) -> SolveReport:
    """Report of ``search`` on ``model``: pigeonhole check, schedule."""
    n = len(model.screen_ids)
    m = len(model.column_keys)
    report = SolveReport(status="Infeasible", method=method)
    if n > m:
        report.diagnostic = _pigeonhole_message(n, m)
        report.certificate = Certificate("pigeonhole")
    else:
        weights = model.weights
        choice, report.certificate = search(model, report.stats)
        if choice is None:
            report.diagnostic = _SPARSE_PIGEONHOLE
        else:
            report.status = "Optimal"
            report.schedule = Schedule(
                {model.screen_ids[si]: model.column_keys[ci][-2:] for si, ci in enumerate(choice)}
            )
            report.objective = Fraction(
                sum(weights[si][ci] for si, ci in enumerate(choice)), MILLI
            )
    return report


def _assignment_search(model, stats):
    choice, left, right = _augment_max_weight(_tie_broken(model), len(model.column_keys), stats)
    if choice is None:
        return None, Certificate("hall-set", screens=tuple(left), columns=tuple(right))
    return choice, Certificate("lp-dual", screen_duals=tuple(left), column_duals=tuple(right))


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

    The report's certificate is the matcher's final duals, an ``lp-dual``
    certificate on the perturbed weights, ``pigeonhole`` when
    screens outnumber columns, or the ``hall-set`` its last search reached
    when no complete schedule exists.  ``check_certificate`` checks it.
    """
    return _solve(model, "assignment", _assignment_search)


def _branch_and_bound_search(model, stats):
    weights, column_order = model.weights, _column_order(model)
    n = len(weights)
    candidates: List[List[Tuple[int, int]]] = []
    for row in weights:
        cells = [(row[ci], ci) for ci in column_order if row[ci] is not None]
        cells.sort(key=lambda wc: -wc[0])   # stable: ties keep (film, config) order
        candidates.append(cells)

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
    return best_choice, None


def solve_branch_and_bound(model: BilpModel) -> SolveReport:
    """Optimal schedule by depth-first branch and bound over screens.

    Screens are processed in ascending id order; each screen's candidate
    configurations are tried in descending coefficient order (ties by
    ascending film then configuration index).  The bound adds, for every
    unassigned screen, the best still-available coefficient; branches
    whose bound cannot beat the incumbent are pruned.
    """
    return _solve(model, "branch-and-bound", _branch_and_bound_search)


def _brute_force_search(model, stats):
    weights, column_order = model.weights, _column_order(model)
    n = len(weights)
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
        row = weights[si]
        for ci in column_order:
            if used[ci] or row[ci] is None:
                continue
            used[ci] = True
            choice[si] = ci
            enumerate_from(si + 1, value + row[ci])
            used[ci] = False
        choice[si] = -1

    enumerate_from(0, 0)
    return best_choice, None


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


def _cell_name(model: BilpModel, si: int, ci: int) -> str:
    film_id, config_index = model.column_keys[ci][-2:]
    return f"screen {model.screen_ids[si]} with film {film_id} config {config_index}"


def _check_lp_dual(model: BilpModel, report: SolveReport) -> None:
    if report.schedule is None:
        raise CertificationError(f"{report.method} reported Optimal without a schedule")
    n, m = len(model.screen_ids), len(model.column_keys)
    u, v = report.certificate.screen_duals, report.certificate.column_duals
    choices, weights = report.schedule.choices, model.weights
    if len(choices) != n or len(u) != n or len(v) != m:
        raise CertificationError(
            f"{report.method} scheduled {len(choices)} screens, with {len(u)} screen and"
            f" {len(v)} column duals, for {n} screens and {m} columns"
        )
    # each screen's (film, config) must name exactly one of its own allowed
    # cells: in a joint model the same (film, config) heads one column per cluster
    columns_of: Dict[Tuple[int, int], List[int]] = {}
    for ci, key in enumerate(model.column_keys):
        columns_of.setdefault(key[-2:], []).append(ci)
    chosen: List[int] = []                           # column index per screen
    for si, sid in enumerate(model.screen_ids):
        cells = [ci for ci in columns_of.get(choices.get(sid), ()) if weights[si][ci] is not None]
        if len(cells) != 1:
            raise CertificationError(
                f"{report.method} gave screen {sid} {choices.get(sid)}, not one of its cells"
            )
        chosen.append(cells[0])
    used = set(chosen)
    if len(used) != n:
        raise CertificationError(f"{report.method} gave two screens one column")
    score = Fraction(sum(weights[si][ci] for si, ci in enumerate(chosen)), MILLI)
    if report.objective != score:
        raise CertificationError(
            f"{report.method} reported objective {report.objective},"
            f" but its schedule scores {score}"
        )

    perturbed = _tie_broken(model)
    for si, row in enumerate(perturbed):
        for ci, w in enumerate(row):
            if w is not None and u[si] + v[ci] < w:
                raise CertificationError(
                    f"lp-dual certificate infeasible at {_cell_name(model, si, ci)}:"
                    f" {u[si]} + {v[ci]} < {w}"
                )
    for ci, dual in enumerate(v):
        if dual < 0 or (dual and ci not in used):
            raise CertificationError(
                f"lp-dual certificate gives column {model.column_keys[ci]}"
                f" the dual {dual}, {'negative' if dual < 0 else 'but it is unused'}"
            )
    primal = sum(perturbed[si][ci] for si, ci in enumerate(chosen))
    if primal != sum(u) + sum(v):
        raise CertificationError(
            f"lp-dual certificate: dual objective {sum(u) + sum(v)}"
            f" != perturbed schedule weight {primal}"
        )


def _check_hall_set(model: BilpModel, certificate: Certificate) -> None:
    screens, columns = set(certificate.screens), set(certificate.columns)
    if not screens <= set(range(len(model.screen_ids))) or len(columns) >= len(screens):
        raise CertificationError(
            f"hall-set certificate of screens {sorted(screens)} and columns"
            f" {sorted(columns)} is not a Hall violator"
        )
    for si in sorted(screens):
        for ci, w in enumerate(model.weights[si]):
            if w is not None and ci not in columns:
                raise CertificationError(
                    f"hall-set certificate misses the allowed cell {_cell_name(model, si, ci)}"
                )


def check_certificate(model: BilpModel, report: SolveReport) -> None:
    """Prove ``report``'s status on ``model`` or raise :class:`CertificationError`.

    Reads only the report and the model's ``screen_ids``, ``column_keys``
    and ``weights``, in exact integers, and the tie-broken weights that
    ``_tie_broken`` builds from those three and caches on the model, shared
    with the search that made the report.  Optimal needs a schedule giving
    each of the model's screens, and no other, one of its own allowed cells
    and no column twice, scoring the reported objective on the matrix, and
    an ``lp-dual`` certificate that holds on the perturbed weights, which
    proves the schedule is the canonical optimum.  Infeasible needs a
    ``pigeonhole`` count or a ``hall-set``.
    """
    kind = report.certificate.kind if report.certificate is not None else None
    n, m = len(model.screen_ids), len(model.column_keys)
    if report.status == "Optimal" and kind == "lp-dual":
        _check_lp_dual(model, report)
    elif report.status == "Infeasible" and kind == "pigeonhole":
        if n <= m:
            raise CertificationError(
                f"pigeonhole certificate, but {n} screens fit {m} configurations"
            )
    elif report.status == "Infeasible" and kind == "hall-set":
        _check_hall_set(model, report.certificate)
    else:
        raise CertificationError(
            f"{report.method} reported {report.status} with certificate {kind}"
        )


def certify(model: BilpModel) -> SolveReport:
    """Solve by the assignment method and check its certificate.

    Returns the assignment-method report marked certified, after
    ``check_certificate`` has proved its status; a failed check raises
    :class:`CertificationError`.  Polynomial time: one matching solve and
    an O(screens x configurations) check.
    """
    report = solve_assignment(model)
    check_certificate(model, report)
    report.certified = True
    return report
