"""Binary program formulation, for one cluster or for all clusters at once.

One binary variable per (screen, film, configuration) triple.  Each screen
gets an equality row forcing exactly one choice; each film configuration
gets an inequality row allowing at most one screen, which is what keeps
showtimes staggered across the cluster.  The objective sums the forecast
attendance of the chosen variables.

That makes the program an assignment problem, so a screens x columns
weight matrix describes all of it, and the matrix is what a model stores.
The variables, the objective and both kinds of row are views derived from
the matrix on first access.

A cluster's model is dense (every screen pairs with every configuration).
The joint model of several clusters is the direct sum of the cluster
models: its columns are keyed by (cluster, film, config) and each screen
pairs only with its own cluster's columns, so it is block-diagonal and
sparse.  ``direct_sum`` lays those blocks out as one model, and
``export_lp_text`` writes the blocks one by one, without that model;
everything else handles both kinds of model.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .domain import MILLI, ClusterInstance, Instance, format_attendance

# column key: (film_id, config_index), with a leading cluster id in joint models
ColumnKey = Tuple

# (screen index, column index) -> coefficient in milliunits; None where no variable exists
Weights = List[List[Optional[int]]]

_VIEWS = ("variables", "objective", "equality_rows", "inequality_rows")
_FIELDS = ("screen_ids", "column_keys", "weights") + _VIEWS


class VariableRef(namedtuple("VariableRef", "screen_id film_id config_index")):
    __slots__ = ()    # screen_id: int, film_id: int, config_index: int

    @property
    def name(self) -> str:
        return f"X_s{self.screen_id}_f{self.film_id}_c{self.config_index}"


class BilpModel:
    """The program as a weight matrix; immutable once built.

    The data are ``screen_ids`` (one matrix row each), ``column_keys``
    (one staggering row each) and ``weights``, the coefficient in
    milliunits per (screen index, column index), None where no variable
    pairs the screen with the column.  Every solver and the certificate
    check read only these three.

    ``variables``, ``objective``, ``equality_rows`` and ``inequality_rows``
    are views of the matrix, built on first access and then cached.

    ``BilpModel(variables=..., objective=..., equality_rows=...,
    inequality_rows=...)`` builds a model from those four instead and
    derives its matrix from them: row i holds the variables of the i-th
    equality row, each in the column of the staggering row that lists it.
    Two models are equal when the matrix and all four views are.
    """

    screen_ids: Tuple[int, ...]
    column_keys: Tuple[ColumnKey, ...]
    weights: Weights
    variables: Tuple[VariableRef, ...]
    objective: Dict[VariableRef, int]                         # milliunits
    equality_rows: Tuple[Tuple[int, Tuple[VariableRef, ...]], ...]
    inequality_rows: Tuple[Tuple[ColumnKey, Tuple[VariableRef, ...]], ...]

    def __init__(self, variables, objective, equality_rows, inequality_rows) -> None:
        self.variables = variables
        self.objective = objective
        self.equality_rows = equality_rows
        self.inequality_rows = inequality_rows
        self.screen_ids = tuple(sid for sid, _ in equality_rows)
        self.column_keys = tuple(key for key, _ in inequality_rows)
        row_of = {var: si for si, (_, row) in enumerate(equality_rows) for var in row}
        self.weights = [[None] * len(inequality_rows) for _ in equality_rows]
        for ci, (_, row) in enumerate(inequality_rows):
            for var in row:
                self.weights[row_of[var]][ci] = objective[var]

    @classmethod
    def from_matrix(
        cls, screen_ids: Tuple[int, ...], column_keys: Tuple[ColumnKey, ...], weights: Weights
    ) -> BilpModel:
        """A model of the matrix alone; its views are derived when first read."""
        model = cls.__new__(cls)
        model.screen_ids, model.column_keys, model.weights = screen_ids, column_keys, weights
        return model

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _FIELDS)

    def __getattr__(self, name: str):
        # reached only for attributes not set yet: a matrix-built model's views
        if name not in _VIEWS:
            raise AttributeError(name)
        self._derive_views()
        return self.__dict__[name]

    def _derive_views(self) -> None:
        film_configs = [key[-2:] for key in self.column_keys]
        columns: List[List[VariableRef]] = [[] for _ in film_configs]
        variables: List[VariableRef] = []
        objective: Dict[VariableRef, int] = {}
        equality_rows = []
        for sid, cells in zip(self.screen_ids, self.weights):
            row = []
            for ci, milli in enumerate(cells):
                if milli is not None:
                    var = VariableRef(sid, *film_configs[ci])
                    objective[var] = milli
                    row.append(var)
                    columns[ci].append(var)
            variables.extend(row)
            equality_rows.append((sid, tuple(row)))
        self.variables = tuple(variables)
        self.objective = objective
        self.equality_rows = tuple(equality_rows)
        self.inequality_rows = tuple(
            (key, tuple(column)) for key, column in zip(self.column_keys, columns)
        )

    @property
    def variable_count(self) -> int:
        """Allowed cells of the matrix, counted without building ``variables``."""
        return sum(len(row) - row.count(None) for row in self.weights)


def build_model(instance: ClusterInstance) -> BilpModel:
    """Formulate the cluster's scheduling problem.

    The model wraps the cluster's forecast matrix and shares its rows:
    rows follow ascending screen id, columns ascending (film, config), and
    every screen pairs with every configuration.  Raises ``ValueError``
    when the matrix does not cover the cluster's screens and
    configurations with a value in every cell.
    """
    forecast = instance.forecast
    if (
        forecast.screen_ids != tuple(sorted(s.screen_id for s in instance.screens))
        or forecast.column_keys != tuple(sorted(c.key() for c in instance.configurations))
        or any(None in row for row in forecast.rows)
    ):
        raise ValueError(
            f"cluster {instance.cluster_id!r}: the forecast does not give every screen"
            " and configuration a value"
        )
    return BilpModel.from_matrix(forecast.screen_ids, forecast.column_keys, forecast.rows)


def direct_sum(blocks: Sequence[Tuple[str, BilpModel]]) -> BilpModel:
    """The block-diagonal model of ``(cluster id, model)`` pairs, in order.

    Each block's column keys gain its cluster id as a prefix, so the same
    film configuration in two clusters stays two columns.  Rows follow
    ascending screen id; each screen's row holds its own block's weights
    in that block's columns and None everywhere else.  Pairs, not a dict,
    so a repeated cluster id is kept as two blocks.
    """
    column_keys: List[ColumnKey] = []
    placed = []
    for cluster_id, model in blocks:
        start = len(column_keys)
        column_keys.extend((cluster_id,) + key for key in model.column_keys)
        placed.extend((sid, start, cells) for sid, cells in zip(model.screen_ids, model.weights))
    placed.sort(key=itemgetter(0))
    width = len(column_keys)
    weights = [
        [None] * start + cells + [None] * (width - start - len(cells)) for _, start, cells in placed
    ]
    return BilpModel.from_matrix(tuple(sid for sid, _, _ in placed), tuple(column_keys), weights)


def build_joint_model(instance: Instance) -> BilpModel:
    """One model over all the instance's clusters at once: the direct sum of the cluster models."""
    clusters = sorted(instance.clusters, key=lambda c: c.cluster_id)
    return direct_sum([(c.cluster_id, build_model(c)) for c in clusters])


def _lp_name(token) -> str:
    """``token`` in LP name characters, injectively: ASCII letters and digits
    stay, ``_`` is doubled, and any other character becomes ``_x<hex>_``."""
    return re.sub(
        r"[^A-Za-z0-9]",
        lambda match: "__" if match.group() == "_" else f"_x{ord(match.group()):x}_",
        str(token),
    )


def _row_name(key: ColumnKey) -> str:
    if len(key) == 2:
        return f"stagger_f{key[0]}_c{key[1]}"
    return f"stagger_{_lp_name(key[0])}_f{key[1]}_c{key[2]}"


def export_lp_text(model: Union[BilpModel, Sequence[Tuple[str, BilpModel]]]) -> str:
    """Model as LP-format text, byte-identical for equal models.

    Written straight from the matrix.  Terms follow the variable order:
    ascending screen id, then film id, then configuration index.  Zero
    coefficients are kept so the objective always lists every variable.

    ``model`` may also be a sequence of ``(cluster id, model)`` blocks.  The
    text is then ``export_lp_text(direct_sum(blocks))``, written block by
    block without building the sum and its empty off-diagonal blocks:
    screen rows ascend across all blocks, staggering rows follow the blocks.
    """
    blocks = [((), model)] if isinstance(model, BilpModel) else [((cluster_id,), block) for cluster_id, block in model]
    rows = []          # (screen id, its variables' names, their coefficients)
    stagger_lines = []
    for prefix, block in blocks:
        suffixes = [f"f{key[-2]}_c{key[-1]}" for key in block.column_keys]
        cells = []      # per screen, each cell's variable name; None where it has no variable
        # rows ascend, and so do the terms of each column's staggering row
        for sid, weights in sorted(zip(block.screen_ids, block.weights), key=itemgetter(0)):
            head = f"X_s{sid}_"
            if None in weights:     # a sparse model: a variable only where a weight is
                named = [None if milli is None else head + suffix for milli, suffix in zip(weights, suffixes)]
                rows.append((sid, [n for n in named if n is not None], [m for m in weights if m is not None]))
            else:
                named = list(map(head.__add__, suffixes))
                rows.append((sid, named, weights))
            cells.append(named)
        stagger_lines += [
            f" {_row_name(prefix + key)}: " + " + ".join(filter(None, column)) + " <= 1"
            for key, column in zip(block.column_keys, list(zip(*cells)) or [()] * len(suffixes))
        ]
    rows.sort(key=itemgetter(0))
    names = list(chain.from_iterable(row for _, row, _ in rows))
    coefficients = list(chain.from_iterable(weights for _, _, weights in rows))
    # each coefficient's text, with the space before its variable's name
    literal = {milli: format_attendance(milli) + " " for milli in set(coefficients)}
    lines = [
        "\\ Screen scheduling model: maximize forecast attendance",
        "\\ Terms ordered by ascending (screen, film, configuration)",
        "Maximize",
        " obj: " + " + ".join(map(add, map(literal.__getitem__, coefficients), names)),
        "Subject To",
    ]
    lines += [f" screen_{sid}: " + " + ".join(row) + " = 1" for sid, row, _ in rows]
    lines += stagger_lines
    lines.append("Binary")
    if names:
        lines.append(" " + "\n ".join(names))
    lines.append("End\n")
    return "\n".join(lines)


def evaluate(model: BilpModel, assignment: Iterable[VariableRef]) -> Fraction:
    """Objective value of a variable selection, exact; no feasibility check."""
    chosen = set(assignment)
    milli = 0
    for var in chosen:
        if var not in model.objective:
            raise ValueError(f"variable {var.name} is not in the model")
        milli += model.objective[var]
    return Fraction(milli, MILLI)


class RowCheck(namedtuple("RowCheck", "kind key chosen ok")):
    __slots__ = ()    # kind: "equality" or "inequality"; key: screen id or column key; chosen: int; ok: bool

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


class FeasibilityReport(namedtuple("FeasibilityReport", "feasible rows")):
    __slots__ = ()    # feasible: bool, rows: Tuple[RowCheck, ...]

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
