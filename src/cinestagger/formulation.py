"""Binary program formulation, for one cluster or for all clusters at once.

One binary variable per (screen, film, configuration) triple.  Each screen
gets an equality row forcing exactly one choice; each film configuration
gets an inequality row allowing at most one screen, which is what keeps
showtimes staggered across the cluster.  The objective sums the forecast
attendance of the chosen variables.

A cluster's model is dense (every screen pairs with every configuration).
The joint model of several clusters keys its columns by (cluster, film,
config) and pairs each screen only with its own cluster's columns, so it
is block-diagonal and sparse; everything below handles both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .domain import MILLI, ClusterInstance, MultiClusterInstance, format_attendance

# column key: (film_id, config_index), with a leading cluster id in joint models
ColumnKey = Tuple


class VariableRef(NamedTuple):
    screen_id: int
    film_id: int
    config_index: int

    @property
    def name(self) -> str:
        return f"X_s{self.screen_id}_f{self.film_id}_c{self.config_index}"


@dataclass
class BilpModel:
    """Immutable once built."""

    variables: Tuple[VariableRef, ...]
    objective: Dict[VariableRef, int]                         # milliunits
    equality_rows: Tuple[Tuple[int, Tuple[VariableRef, ...]], ...]
    inequality_rows: Tuple[Tuple[ColumnKey, Tuple[VariableRef, ...]], ...]

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    @cached_property
    def screen_ids(self) -> Tuple[int, ...]:
        return tuple(sid for sid, _ in self.equality_rows)

    @cached_property
    def column_keys(self) -> Tuple[ColumnKey, ...]:
        return tuple(key for key, _ in self.inequality_rows)

    @cached_property
    def weights(self) -> List[List[Optional[int]]]:
        """Coefficient in milliunits per (screen index, column index).

        None where no variable pairs the screen with the column.  Read
        only: every solver and the certificate check share this matrix.
        """
        screen_index = {sid: si for si, sid in enumerate(self.screen_ids)}
        m = len(self.inequality_rows)
        matrix: List[List[Optional[int]]] = [[None] * m for _ in screen_index]
        for ci, (_, row) in enumerate(self.inequality_rows):
            for var in row:
                matrix[screen_index[var.screen_id]][ci] = self.objective[var]
        return matrix


def _assemble(blocks: Sequence[Tuple[Tuple, ClusterInstance]]) -> BilpModel:
    """Lay out the model of ``(key prefix, cluster)`` blocks.

    Columns follow the blocks, then ascending (film, config) within a
    block, keyed ``prefix + (film, config)``.  Variables and equality rows
    follow ascending screen id, and each screen pairs only with its own
    block's columns.
    """
    by_column: Dict[ColumnKey, List[VariableRef]] = {}
    screens = []
    for prefix, cluster in blocks:
        columns = []
        for config in sorted(cluster.configurations, key=lambda c: c.key()):
            key = prefix + config.key()
            by_column[key] = []
            columns.append((by_column[key], config.film_id, config.config_index))
        screens.extend((s.screen_id, cluster.forecast, columns) for s in cluster.screens)
    screens.sort(key=lambda screen: screen[0])

    variables: List[VariableRef] = []
    objective: Dict[VariableRef, int] = {}
    equality_rows = []
    for screen_id, forecast, columns in screens:
        row = []
        for column, film_id, config_index in columns:
            var = VariableRef(screen_id, film_id, config_index)
            objective[var] = forecast.get(*var)
            row.append(var)
            column.append(var)
        variables.extend(row)
        equality_rows.append((screen_id, tuple(row)))

    return BilpModel(
        variables=tuple(variables),
        objective=objective,
        equality_rows=tuple(equality_rows),
        inequality_rows=tuple((key, tuple(row)) for key, row in by_column.items()),
    )


def build_model(instance: ClusterInstance) -> BilpModel:
    """Formulate the cluster's scheduling problem.

    Deterministic layout: variables ascend by (screen, film, config);
    equality rows follow screen order, inequality rows (film, config).
    """
    return _assemble([((), instance)])


def build_joint_model(instance: MultiClusterInstance) -> BilpModel:
    """One model over all clusters at once.

    Every screen keeps its equality row; staggering rows are keyed by
    (cluster, film, config) so the same film configuration in two
    different clusters stays two separate columns.  A screen only pairs
    with its own cluster's configurations, which is exactly what makes
    the model block-diagonal.
    """
    clusters = sorted(instance.clusters, key=lambda c: c.cluster_id)
    return _assemble([((c.cluster_id,), c) for c in clusters])


def _lp_name(token) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", str(token))


def _row_name(key: ColumnKey) -> str:
    if len(key) == 2:
        return f"stagger_f{key[0]}_c{key[1]}"
    return f"stagger_{_lp_name(key[0])}_f{key[1]}_c{key[2]}"


def export_lp_text(model: BilpModel) -> str:
    """Model as LP-format text, byte-identical for equal models.

    Terms follow the model's variable order: ascending screen id, then
    film id, then configuration index.  Zero coefficients are kept so the
    objective always lists every variable.
    """
    variables = model.variables
    # each name is built once, from its screen's prefix and its column's suffix
    prefixes = {sid: f"X_s{sid}_" for sid in model.screen_ids}
    suffixes = {key[-2:]: f"f{key[-2]}_c{key[-1]}" for key in model.column_keys}
    names = [prefixes[sid] + suffixes[film_id, config_index] for sid, film_id, config_index in variables]
    name_of = dict(zip(variables, names)).__getitem__
    terms = [
        (str(milli // MILLI) if milli % MILLI == 0 else format_attendance(milli)) + " " + name
        for milli, name in zip(map(model.objective.__getitem__, variables), names)
    ]
    lines = [
        "\\ Screen scheduling model: maximize forecast attendance",
        "\\ Terms ordered by ascending (screen, film, configuration)",
        "Maximize",
        " obj: " + " + ".join(terms),
        "Subject To",
    ]
    for sid, row in model.equality_rows:
        lines.append(f" screen_{sid}: " + " + ".join(map(name_of, row)) + " = 1")
    for key, row in model.inequality_rows:
        lines.append(f" {_row_name(key)}: " + " + ".join(map(name_of, row)) + " <= 1")
    lines.append("Binary")
    lines.extend(" " + name for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def evaluate(model: BilpModel, assignment: Iterable[VariableRef]) -> Fraction:
    """Objective value of a variable selection, exact; no feasibility check."""
    chosen = set(assignment)
    milli = 0
    for var in chosen:
        if var not in model.objective:
            raise ValueError(f"variable {var.name} is not in the model")
        milli += model.objective[var]
    return Fraction(milli, MILLI)


@dataclass(frozen=True)
class RowCheck:
    kind: str         # "equality" or "inequality"
    key: object       # screen id, or configuration column key
    chosen: int
    ok: bool

    def __str__(self) -> str:
        if self.kind == "equality":
            where = f"screen {self.key}"
            want = "exactly 1"
        else:
            film_id, config_index = self.key[-2], self.key[-1]
            where = f"film {film_id} config {config_index}"
            want = "at most 1"
        verdict = "ok" if self.ok else f"violated (want {want})"
        return f"{self.kind} row {where}: {self.chosen} chosen, {verdict}"


@dataclass
class FeasibilityReport:
    feasible: bool
    rows: Tuple[RowCheck, ...]

    def failures(self) -> List[RowCheck]:
        return [r for r in self.rows if not r.ok]


def check_feasible(model: BilpModel, assignment: Iterable[VariableRef]) -> FeasibilityReport:
    """Row-by-row constraint check of a variable selection."""
    chosen = set(assignment)
    for var in chosen:
        if var not in model.objective:
            raise ValueError(f"variable {var.name} is not in the model")
    rows: List[RowCheck] = []
    for sid, row in model.equality_rows:
        count = sum(1 for v in row if v in chosen)
        rows.append(RowCheck("equality", sid, count, count == 1))
    for key, row in model.inequality_rows:
        count = sum(1 for v in row if v in chosen)
        rows.append(RowCheck("inequality", key, count, count <= 1))
    return FeasibilityReport(feasible=all(r.ok for r in rows), rows=tuple(rows))
