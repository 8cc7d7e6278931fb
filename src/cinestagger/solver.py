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
  ``lp-dual`` certificate as they stand, in milliunits.
* ``solve_branch_and_bound`` is a depth-first search over screens with an
  additive upper bound, knowing nothing about assignment structure.
* ``solve_brute_force`` enumerates every injective screen-to-configuration
  map; guarded to small instances, it is the ground-truth oracle.

Each returns a :class:`SolveReport`, a named tuple built in one call once its
search ends.

``certify`` runs ``solve_assignment`` and then ``check_certificate``, which
proves the reported status in exact integers from the model, the schedule
and the certificate.  Inside ``certify`` the check reads the one
derivation of tight cells and core (``_derive``) that the search made from
the very dual tuples the certificate carries; any other report, such as a
tampered copy or one with new tuples, is re-derived from its own duals.
The program's constraint matrix is an assignment matrix, so LP duality
proves optimality (Kuhn 1955; Burkard, Dell'Amico & Martello, *Assignment
Problems*, SIAM 2009, ch. 4).  The certificates are:

* ``lp-dual`` (Optimal): the schedule gives every screen of the model one
  of its own allowed cells and no column twice, and scores the reported
  objective.  Optimality: a value ``U`` per screen and ``V`` per column has
  ``U + V`` at least the weight on every allowed cell and equal to it on
  the schedule's, ``V >= 0`` and ``V == 0`` on unused columns, so no
  schedule outweighs ``sum(U) + sum(V)``, which this one reaches.
  Canonicality: tie duals meet the same conditions on the tie-break
  weights of the core those duals leave open (``_core``).
* ``pigeonhole`` (Infeasible): more screens than columns.
* ``hall-set`` (Infeasible): screens whose allowed cells all lie in fewer
  columns than there are screens, so by Hall's theorem no schedule gives
  each of them its own column.

The check reads only the model's screen ids, column keys and weight
matrix, and costs O(screens x configurations) plus the core.  Branch and
bound and brute force never run on this path; they stay as the oracles
the tests compare against, and disagreement with them is a bug, never
settled by fiat.

Tie handling: ``solve_assignment`` and ``solve_brute_force`` return the
lexicographically smallest optimal schedule (ordered by screen id, then
film id, then configuration index).  Brute force gets it from its
enumeration order; the assignment solver from a second solve on the core
alone, whose weights and duals are the only big integers on its path (see
``solve_assignment``).  Branch and bound keeps the first optimum its
search order finds.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Tuple

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


class Certificate(namedtuple("Certificate", "kind screen_duals column_duals screens columns"
                             " tie_screen_duals tie_column_duals", defaults=((),) * 6)):
    """Proof of a report's status; indices follow the model's screen and column order.

    ``kind`` is "lp-dual", "pigeonhole" or "hall-set".  The rest are int tuples: lp-dual's
    ``screen_duals`` (U per screen) and ``column_duals`` (V per column) in milliunits, and its
    ``tie_screen_duals`` and ``tie_column_duals`` on the core's tie-break weights, empty when
    the core is; hall-set's ``screens`` (screen indices) and ``columns`` (every column those
    screens allow).
    """

    __slots__ = ()


class SolveStats(namedtuple("SolveStats", "nodes", defaults=(0,))):
    """A search's effort: its search nodes, enumerated assignments, or augmentations."""

    __slots__ = ()


class SolveReport(namedtuple(
    "SolveReport", "status method schedule objective stats certified diagnostic certificate",
    defaults=(None, None, None, False, None, None),
)):
    """A solver's result.

    ``status`` is "Optimal", with a ``schedule`` and its ``objective``, or
    "Infeasible", with a ``diagnostic``.  ``stats`` is the search's
    :class:`SolveStats`; ``certificate`` proves the status.
    """

    __slots__ = ()


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


def _augment_max_weight(weights: Weights, m: int) -> Tuple[Optional[List[int]], List[int], List[int]]:
    """Max-weight rectangular assignment by shortest augmenting paths.

    ``weights`` is n rows by ``m`` columns of exact integers, n <= m, with
    None marking a forbidden cell.  Returns ``(choice, u, v)``: the column
    index chosen per row, and row and column duals with
    ``u[i] + v[j] >= weights[i][j]`` on every allowed cell, equality on the
    chosen cells, ``v[j] >= 0``, and ``v[j] == 0`` on unchosen columns.
    When no assignment of every row uses allowed cells only, returns
    ``(None, rows, columns)``: what the last search reached, a set of rows
    with no allowed cell outside a smaller set of columns.  Duals stay
    integral throughout, so the optimum is exact.

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
    return col_of, u, v


def _column_order(model: BilpModel) -> List[int]:
    """Column indices in ascending (film, config) order."""
    return sorted(range(len(model.column_keys)), key=lambda ci: model.column_keys[ci][-2:])


def _core(model: BilpModel, u, v) -> Tuple[List[List[int]], List[int], List[int]]:
    """``(tight, core, columns)``: the screens whose optimal cell the duals ``(u, v)`` leave open.

    ``tight[s]`` lists screen s's columns where ``u + v`` equals the weight;
    a cell where it falls short raises, so this pass proves the duals
    feasible.  Every optimal schedule uses tight cells only (complementary
    slackness), so the peel fixes, while one exists, a screen with exactly
    one tight cell in a column no fixed screen holds.  ``core`` lists the
    screens left, ascending; ``columns`` the columns no fixed screen holds
    that are tight for one of them, in (film, config) order.
    """
    tight, held, core = [], set(), []
    columns = range(len(v))
    for si, row in enumerate(model.weights):
        base = u[si]
        cells = [ci for ci in columns if row[ci] is not None and base + v[ci] <= row[ci]]
        for ci in cells:
            if base + v[ci] < row[ci]:
                raise CertificationError(f"lp-dual certificate infeasible at {_cell_name(model, si, ci)}:"
                                         f" {base} + {v[ci]} < {row[ci]}")
        tight.append(cells)
        if len(cells) == 1:
            held.add(cells[0])
        else:
            core.append(si)
    while core:
        left = []
        for si in core:
            free = [ci for ci in tight[si] if ci not in held]
            if len(free) == 1:
                held.add(free[0])
            else:
                left.append(si)
        if len(left) == len(core):
            break
        core = left
    reached = {ci for si in core for ci in tight[si]} - held
    return tight, core, [ci for ci in _column_order(model) if ci in reached] if core else []


def _tie_weights(v, tight, core: List[int], columns: List[int]) -> Weights:
    """The core's tie-break weights (see ``solve_assignment``); None off its tight cells."""
    k, mm = len(core), len(columns)
    rank = {ci: r for r, ci in enumerate(columns)}
    rows = [[None] * mm for _ in core]
    for x, si in enumerate(core):
        for ci in set(tight[si]) & rank.keys():
            rows[x][rank[ci]] = (mm - 1 - rank[ci]) * mm ** (k - 1 - x) + (mm**k if v[ci] else 0)
    return rows


def _derive(model: BilpModel, u, v) -> Tuple[List[List[int]], List[int], List[int], Optional[Weights]]:
    """``_core(model, u, v)`` and, when the core is non-empty, its ``_tie_weights``, else None."""
    tight, core, columns = _core(model, u, v)
    return tight, core, columns, _tie_weights(v, tight, core, columns) if core else None


# (model, u, v, _derive(model, u, v)) of the last assignment search, until a
# check takes it.  It is replaced whole, so a race between threads costs only
# a recompute; nothing in it is mutated after it is made.
_searched = (None, None, None, None)


def _derivation(model: BilpModel, u, v):
    """``_derive(model, u, v)``: the search's own when it was made from these very objects.

    A model is immutable once built and tuples always are, so a hit is
    exactly what a recompute would give.
    """
    global _searched
    searched = _searched
    if searched[0] is model and searched[1] is u and searched[2] is v:
        _searched = (None, None, None, None)
        return searched[3]
    return _derive(model, u, v)


def _solve(model: BilpModel, method: str, search) -> SolveReport:
    """Report of ``search`` on ``model``: pigeonhole check, schedule.

    A search gets the model; it returns the chosen column index per screen,
    or None when no complete schedule exists, a certificate of that result
    if it has one, and the nodes it counted.
    """
    n = len(model.screen_ids)
    m = len(model.column_keys)
    if n > m:
        diagnostic, certificate = _pigeonhole_message(n, m), Certificate("pigeonhole")
        return SolveReport("Infeasible", method, stats=SolveStats(), diagnostic=diagnostic, certificate=certificate)
    choice, certificate, nodes = search(model)
    stats = SolveStats(nodes)
    if choice is None:
        return SolveReport("Infeasible", method, stats=stats, diagnostic=_SPARSE_PIGEONHOLE, certificate=certificate)
    weights = model.weights
    return SolveReport(
        "Optimal",
        method,
        Schedule({model.screen_ids[si]: model.column_keys[ci][-2:] for si, ci in enumerate(choice)}),
        Fraction(sum(weights[si][ci] for si, ci in enumerate(choice)), MILLI),
        stats,
        certificate=certificate,
    )


def _assignment_search(model):
    global _searched
    choice, u, v = _augment_max_weight(model.weights, len(model.column_keys))
    if choice is None:
        # rows join in order, so the row that failed, the highest in the Hall set, counts the augmentations done
        return None, Certificate("hall-set", screens=tuple(u), columns=tuple(v)), u[-1]
    u, v = tuple(u), tuple(v)     # the certificate's own tuples, which the check matches by identity
    derived = _derive(model, u, v)
    _searched = (model, u, v, derived)
    _, core, columns, tie_weights = derived
    tie_u = tie_v = ()
    if core:
        ties, tie_u, tie_v = _augment_max_weight(tie_weights, len(columns))
        for si, r in zip(core, ties):
            choice[si] = columns[r]
    return choice, Certificate("lp-dual", u, v, (), (), tuple(tie_u), tuple(tie_v)), len(choice)


def solve_assignment(model: BilpModel) -> SolveReport:
    """Optimal schedule via the rectangular assignment reduction.

    Phase 1 is one shortest-augmenting-path solve on the model's weights,
    one counted augmentation per screen, whose final duals ``(u, v)`` are the
    ``lp-dual`` certificate.  Phase 2 solves the ``_core`` those duals leave
    open, if any: with k core screens and mm core columns, the tight cell of
    core screen x in the column of (film, config) rank r weighs
    ``(mm - 1 - r) * mm**(k - 1 - x)``, plus ``mm**k`` if ``v > 0`` there.
    The bonus outweighs all tie terms, so a solution uses every such column
    and is optimal; among optima the terms, a k-digit base-mm number, are
    largest for the lexicographically smallest.  Its duals are the tie
    layer.  Otherwise the certificate is ``pigeonhole`` when screens
    outnumber columns, or phase 1's last search's ``hall-set``.
    """
    return _solve(model, "assignment", _assignment_search)


def _branch_and_bound_search(model):
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
    nodes = 0

    def dfs(si: int, value: int) -> None:
        nonlocal best_value, best_choice, nodes
        nodes += 1
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
    return best_choice, None, nodes


def solve_branch_and_bound(model: BilpModel) -> SolveReport:
    """Optimal schedule by depth-first branch and bound over screens.

    Screens are processed in ascending id order; each screen's candidate
    configurations are tried in descending coefficient order (ties by
    ascending film then configuration index).  The bound adds, for every
    unassigned screen, the best still-available coefficient; branches
    whose bound cannot beat the incumbent are pruned.
    """
    return _solve(model, "branch-and-bound", _branch_and_bound_search)


def _brute_force_search(model):
    weights, column_order = model.weights, _column_order(model)
    n = len(weights)
    used = [False] * len(column_order)
    best_value: Optional[int] = None
    best_choice: Optional[List[int]] = None
    choice = [-1] * n
    nodes = 0

    def enumerate_from(si: int, value: int) -> None:
        nonlocal best_value, best_choice, nodes
        if si == n:
            nodes += 1
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
    return best_choice, None, nodes


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
    tight, core, columns, tie_weights = _derivation(model, u, v)    # the optimality layer's dual feasibility
    # each screen's (film, config) must name one of its own tight cells: in a
    # joint model the same (film, config) heads one column per cluster
    keys = model.column_keys
    chosen: List[int] = []                           # column index per screen
    for si, sid in enumerate(model.screen_ids):
        choice = choices.get(sid)
        cells = [ci for ci in tight[si] if keys[ci][-2:] == choice]
        if len(cells) != 1:
            raise CertificationError(f"{report.method} gave screen {sid} {choice}, not one of its tight cells")
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
    # every chosen cell is tight, so with these the duals sum to the schedule's weight
    _check_column_duals("lp-dual", v, used, model.column_keys)
    # the same conditions on the core's tie-break weights prove the schedule canonical
    tie_u, tie_v = report.certificate.tie_screen_duals, report.certificate.tie_column_duals  # big: never printed
    if len(tie_u) != len(core) or len(tie_v) != len(columns):
        raise CertificationError(f"tie certificate has {len(tie_u)} screen and {len(tie_v)} column duals,"
                                 f" for a core of {len(core)} screens and {len(columns)} columns")
    if not core:
        return
    mine = [columns.index(chosen[si]) for si in core]   # an optimal schedule keeps the core in its columns
    for x, row in enumerate(tie_weights):
        for r, w in enumerate(row):
            if w is not None and tie_u[x] + tie_v[r] < w:
                raise CertificationError(f"tie certificate infeasible at {_cell_name(model, core[x], columns[r])}")
        if tie_u[x] + tie_v[mine[x]] != row[mine[x]]:
            raise CertificationError(f"tie certificate: {_cell_name(model, core[x], columns[mine[x]])} is not"
                                     " tight, so the schedule is not the lexicographically smallest optimum")
    _check_column_duals("tie", tie_v, set(mine), [model.column_keys[ci] for ci in columns])


def _check_column_duals(kind: str, duals, used, keys) -> None:
    for ci, dual in enumerate(duals):
        if dual < 0 or (dual and ci not in used):
            problem = "a negative dual" if dual < 0 else "a dual, but the schedule leaves it unused"
            raise CertificationError(f"{kind} certificate gives column {keys[ci]} {problem}")


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
    and ``weights``, in exact integers; a dual or Hall index that is not an
    ``int`` is refused.  Optimal needs a schedule giving each of the
    model's screens, and no other, one of its own allowed cells and no
    column twice, scoring the reported objective on the matrix, and an
    ``lp-dual`` certificate in two layers.  Its duals hold on every allowed
    cell and are tight on the schedule's, which proves it optimal.  Then the
    tie duals hold on the core's tie-break weights and are tight on the
    schedule's core cells, which proves it the canonical optimum.  The tight
    cells, the core and its weights are the search's own derivation when
    the report carries the very dual tuples the last assignment search made
    on this model, as inside ``certify``; for any other report they are
    derived here from its duals.  Infeasible needs a ``pigeonhole`` count or
    a ``hall-set``.
    """
    kind = report.certificate.kind if report.certificate is not None else None
    for bad in set(map(type, chain.from_iterable(report.certificate[1:] if kind else ()))) - {int}:
        raise CertificationError(f"{kind} certificate holds a {bad.__name__}, not an int")
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

    Returns a copy of the assignment-method report marked certified, after
    ``check_certificate`` has proved its status; a failed check raises
    :class:`CertificationError`.  Polynomial time: one matching solve, a
    second on the core when there is one, and an O(screens x
    configurations) check.  The tight cells and the core are derived once,
    from the duals the certificate carries, and both the second solve and
    the check read that derivation.
    """
    report = solve_assignment(model)
    check_certificate(model, report)
    return report._replace(certified=True)
