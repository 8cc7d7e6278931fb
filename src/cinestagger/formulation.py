"""Binary program formulation for one cluster.

One binary variable per (screen, film, configuration) triple.  Each screen
gets an equality row forcing exactly one choice; each film configuration
gets an inequality row allowing at most one screen, which is what keeps
showtimes staggered across the cluster.  The objective sums the forecast
attendance of the chosen variables.

Models built here are dense (every screen pairs with every configuration).
The same containers also carry sparse joint models assembled by the
cluster module, where a variable exists only when the screen and the
configuration belong to the same cluster; everything below handles both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .domain import MILLI, ClusterInstance, format_attendance

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
    """Immutable once built; safe to share across concurrent solves."""

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
    def _cells(self) -> Dict[Tuple[int, ColumnKey], VariableRef]:
        # keyed by the full column key: in a joint model, a film without a
        # cluster scope has one column per cluster for each configuration
        return {(var.screen_id, key): var for key, row in self.inequality_rows for var in row}

    def cell(self, screen_id: int, column_key: ColumnKey) -> Optional[VariableRef]:
        """The variable pairing this screen with this column, if it exists."""
        return self._cells.get((screen_id, column_key))


def build_model(instance: ClusterInstance) -> BilpModel:
    """Formulate the cluster's scheduling problem.

    Deterministic layout: variables ascend by (screen, film, config);
    equality rows follow screen order, inequality rows (film, config).
    """
    screens = sorted(instance.screens, key=lambda s: s.screen_id)
    configs = sorted(instance.configurations, key=lambda c: c.key())

    variables: List[VariableRef] = []
    objective: Dict[VariableRef, int] = {}
    by_screen: Dict[int, List[VariableRef]] = {s.screen_id: [] for s in screens}
    by_config: Dict[ColumnKey, List[VariableRef]] = {c.key(): [] for c in configs}
    for screen in screens:
        for config in configs:
            var = VariableRef(screen.screen_id, config.film_id, config.config_index)
            variables.append(var)
            objective[var] = instance.forecast.get(*var)
            by_screen[screen.screen_id].append(var)
            by_config[config.key()].append(var)

    return BilpModel(
        variables=tuple(variables),
        objective=objective,
        equality_rows=tuple((s.screen_id, tuple(by_screen[s.screen_id])) for s in screens),
        inequality_rows=tuple((c.key(), tuple(by_config[c.key()])) for c in configs),
    )


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
    lines = [
        "\\ Screen scheduling model: maximize forecast attendance",
        "\\ Terms ordered by ascending (screen, film, configuration)",
        "Maximize",
        " obj: "
        + " + ".join(
            f"{format_attendance(model.objective[v])} {v.name}" for v in model.variables
        ),
        "Subject To",
    ]
    for sid, row in model.equality_rows:
        lines.append(f" screen_{sid}: " + " + ".join(v.name for v in row) + " = 1")
    for key, row in model.inequality_rows:
        lines.append(f" {_row_name(key)}: " + " + ".join(v.name for v in row) + " <= 1")
    lines.append("Binary")
    lines.extend(f" {v.name}" for v in model.variables)
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
