"""Builders shared across the test suite.

Instances are constructed as documents and pushed through load_instance so
every test also exercises the parsing and validation path.
"""

import copy
import inspect
import random
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from cinestagger import (
    BilpModel,
    ClusterInstance,
    ForecastMatrix,
    InstanceDataError,
    InstanceError,
    InstanceFormatError,
    MultiClusterInstance,
    dumps_json,
    load_instance,
    validate_instance,
)
from cinestagger.domain import (
    ATTENDANCE_LIMIT,
    MILLI,
    Film,
    Location,
    Screen,
    ShowtimeConfiguration,
    Violation,
    _as_list,
    _cluster_key,
    _ClusterParts,
    _forecast_ids,
    _require,
    _require_int,
    _require_str,
    default_configurations,
    format_attendance,
    format_hhmm,
    json_array,
    parse_attendance,
    parse_hhmm,
)
from cinestagger.formulation import _row_name
from cinestagger.solver import Schedule, _augment_max_weight, _column_order

WINDOW_OPEN = 720
WINDOW_LAST = 1380

# documented optimal schedule of the bundled example instance
KNOWN_BEST_SCHEDULE = {
    1: (5, 4),
    2: (5, 1),
    3: (3, 2),
    4: (3, 4),
    5: (2, 1),
    6: (1, 2),
    7: (3, 1),
    8: (5, 2),
    9: (4, 4),
}
KNOWN_BEST_VALUE = 2615


def replace(record, **changes):
    """A copy of a package record with ``changes``, as ``dataclasses.replace`` made one.

    A NamedTuple record is copied by its ``_replace``; any other record by
    its constructor, called with its current value for every parameter.
    """
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    current = {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}
    return type(record)(**{**current, **changes})


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def column_layout(configs_per_film: Sequence[int]) -> List[Tuple[int, int]]:
    """[(film_id, config_index)] for a per-film configuration count list."""
    columns = []
    for film_index, count in enumerate(configs_per_film, start=1):
        for config_index in range(1, count + 1):
            columns.append((film_index, config_index))
    return columns


def matrix_document(
    weights: Sequence[Sequence[int]],
    configs_per_film: Optional[Sequence[int]] = None,
    cluster_id: str = "t",
    first_location: int = 1,
    first_screen: int = 1,
    first_film: int = 1,
    scoped_films: bool = False,
) -> dict:
    """Document for a cluster whose coefficient matrix is ``weights``.

    Rows are screens, columns are film configurations laid out by
    ``configs_per_film`` (default: one film owning every column).  Each
    configuration gets a distinct single showtime so instances validate.
    """
    screens = len(weights)
    columns = len(weights[0]) if screens else 0
    if configs_per_film is None:
        configs_per_film = [columns]
    assert sum(configs_per_film) == columns

    layout = column_layout(configs_per_film)
    doc = {
        "stagger_interval_minutes": 30,
        "locations": [
            {
                "id": first_location,
                "name": f"Location {first_location}",
                "cluster_id": cluster_id,
                "open_time": _hhmm(WINDOW_OPEN),
                "last_showtime": _hhmm(WINDOW_LAST),
            }
        ],
        "screens": [
            {"id": first_screen + i, "location_id": first_location} for i in range(screens)
        ],
        "films": [],
        "configurations": [],
        "forecast": [],
    }
    for film_index, _ in enumerate(configs_per_film, start=1):
        entry = {
            "id": first_film + film_index - 1,
            "title": f"Film {first_film + film_index - 1}",
            "runtime_minutes": 90,
        }
        if scoped_films:
            entry["cluster_id"] = cluster_id
        doc["films"].append(entry)
    for column_index, (film_index, config_index) in enumerate(layout):
        doc["configurations"].append(
            {
                "film_id": first_film + film_index - 1,
                "config_index": config_index,
                "showtimes": [_hhmm(WINDOW_OPEN + 30 * column_index)],
            }
        )
    for i in range(screens):
        for column_index, (film_index, config_index) in enumerate(layout):
            doc["forecast"].append(
                {
                    "screen_id": first_screen + i,
                    "film_id": first_film + film_index - 1,
                    "config_index": config_index,
                    "attendance": weights[i][column_index],
                }
            )
    return doc


def matrix_instance(
    weights: Sequence[Sequence[int]],
    configs_per_film: Optional[Sequence[int]] = None,
) -> ClusterInstance:
    return load_instance(matrix_document(weights, configs_per_film))


def random_split(rng: random.Random, total: int) -> List[int]:
    """Partition ``total`` columns into film config counts, each >= 1."""
    films = rng.randint(1, total)
    counts = [1] * films
    for _ in range(total - films):
        counts[rng.randrange(films)] += 1
    return counts


def random_matrix_instance(
    rng: random.Random,
    max_screens: int = 7,
    max_columns: int = 9,
    lo: int = 200,
    hi: int = 299,
) -> ClusterInstance:
    """Feasible random cluster within the brute-force oracle guard."""
    screens = rng.randint(1, max_screens)
    columns = rng.randint(screens, max_columns)
    weights = [[rng.randint(lo, hi) for _ in range(columns)] for _ in range(screens)]
    return matrix_instance(weights, random_split(rng, columns))


def random_multi_document(
    rng: random.Random,
    clusters: int,
    max_screens: int = 4,
    max_columns: int = 6,
    lo: int = 200,
    hi: int = 299,
) -> dict:
    """Multi-cluster document; every cluster stays within the oracle guard."""
    doc = None
    next_screen = 1
    next_film = 1
    for k in range(1, clusters + 1):
        screens = rng.randint(1, max_screens)
        columns = rng.randint(screens, max_columns)
        weights = [[rng.randint(lo, hi) for _ in range(columns)] for _ in range(screens)]
        part = matrix_document(
            weights,
            random_split(rng, columns),
            cluster_id=f"c{k}",
            first_location=k,
            first_screen=next_screen,
            first_film=next_film,
            scoped_films=True,
        )
        next_screen += screens
        next_film += len(part["films"])
        if doc is None:
            doc = part
        else:
            for key in ("locations", "screens", "films", "configurations", "forecast"):
                doc[key].extend(part[key])
    return doc


def load_multi(doc: dict) -> MultiClusterInstance:
    instance = load_instance(doc)
    assert isinstance(instance, MultiClusterInstance)
    return instance


def shared_film_copies(example_document: dict) -> dict:
    """The bundled example twice, as clusters c1 and c2 playing the same unscoped films."""
    doc = copy.deepcopy(example_document)
    second = copy.deepcopy(example_document)
    for location in second["locations"]:
        location["id"] += 3
        location["cluster_id"] = "c2"
        location["name"] += " B"
    for screen in second["screens"]:
        screen["id"] += 9
        screen["location_id"] += 3
    for row in second["forecast"]:
        row["screen_id"] += 9
    for key in ("locations", "screens", "forecast"):
        doc[key].extend(second[key])
    return doc


def without_variables(model: BilpModel, banned) -> BilpModel:
    """Copy of the model with the ``banned`` variables removed."""

    def keep(row):
        return tuple(v for v in row if v not in banned)

    return BilpModel(
        variables=keep(model.variables),
        objective={v: c for v, c in model.objective.items() if v not in banned},
        equality_rows=tuple((sid, keep(row)) for sid, row in model.equality_rows),
        inequality_rows=tuple((key, keep(row)) for key, row in model.inequality_rows),
    )


def perturbed_weights(weights, column_order):
    """Weights with the lexicographic tie-break folded into every cell.

    With n screens and m columns, the cell of screen index s and the column
    of rank r in ``column_order`` weighs ``w * m**n + (m - 1 - r) * m**(n - 1 - s)``.
    A schedule's tie-break terms read as an n-digit base-m number below
    ``m**n``, so they never outweigh a difference in attendance, and among
    optimal schedules they are largest for the lexicographically smallest
    one, which is therefore the unique perturbed optimum.
    """
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


def single_solve(model: BilpModel):
    """``(status, schedule, objective)`` of one matcher run on the perturbed weights.

    The reference the two-phase ``certify`` must agree with: the canonical
    optimum, found by a single search over every cell in big integers.
    """
    n, m = len(model.screen_ids), len(model.column_keys)
    choice = None
    if n <= m:
        choice, _, _ = _augment_max_weight(perturbed_weights(model.weights, _column_order(model)), m)
    if choice is None:
        return "Infeasible", None, None
    schedule = Schedule({model.screen_ids[si]: model.column_keys[ci][-2:] for si, ci in enumerate(choice)})
    return "Optimal", schedule, Fraction(sum(model.weights[si][ci] for si, ci in enumerate(choice)), MILLI)


def forecast_matrix(screen_ids, column_keys, entries: dict) -> ForecastMatrix:
    """The forecast matrix of ``entries``, keyed by (screen, film, config), over
    the given screens and (film, config) columns; entries outside them, and
    negative ones, are flagged in the order given."""
    screen_ids = tuple(sorted(set(screen_ids)))
    column_keys = tuple(sorted(set(column_keys)))
    row_of = {sid: i for i, sid in enumerate(screen_ids)}
    column_of = {key: j for j, key in enumerate(column_keys)}
    rows = [[None] * len(column_keys) for _ in screen_ids]
    flagged = []
    for (sid, film_id, config_index), milli in entries.items():
        i, j = row_of.get(sid), column_of.get((film_id, config_index))
        if i is None or j is None or milli < 0:
            flagged.append((sid, film_id, config_index, milli))
        if i is not None and j is not None:
            rows[i][j] = milli
    return ForecastMatrix(screen_ids, column_keys, rows, tuple(flagged))


def forecast_cells(matrix: ForecastMatrix) -> Dict[Tuple[int, int, int], int]:
    """The matrix's cells that hold a value, by (screen, film, config), in matrix order."""
    return {
        (sid, *key): milli
        for sid, row in zip(matrix.screen_ids, matrix.rows)
        for key, milli in zip(matrix.column_keys, row)
        if milli is not None
    }


def milli_to_json(milli: int):
    """Milliunits as an exact JSON number: an int when whole, else a Decimal.

    The Decimal is built from ``format_attendance``, so it never prints in
    exponent notation; ``dumps_json`` writes it as that text, the text
    ``dumps_instance`` writes for the value.
    """
    if milli % MILLI == 0:
        return milli // MILLI
    return Decimal(format_attendance(milli))


def reference_document(instance, forecasts: Optional[Dict[str, dict]] = None) -> dict:
    """The instance as a document dict, built entry by entry.

    The reference that ``dumps_instance``'s text is checked against:
    ``dumps_json`` of this dict is the document it must write.  With
    ``forecasts``, each cluster's forecast rows are taken from that
    cluster id's dict keyed by (screen, film, config).
    """
    clusters = instance.clusters

    staggers = {c.stagger_interval_minutes for c in clusters}
    if len(staggers) != 1:
        raise ValueError("cannot serialize clusters with different stagger intervals into one document")

    doc: dict = {"stagger_interval_minutes": staggers.pop()}
    doc["locations"] = [
        {
            "id": loc.location_id,
            "name": loc.name,
            "cluster_id": loc.cluster_id,
            "open_time": format_hhmm(loc.open_time),
            "last_showtime": format_hhmm(loc.last_showtime),
        }
        for cluster in clusters
        for loc in cluster.locations
    ]

    screens = sorted(
        (s for cluster in clusters for s in cluster.screens), key=lambda s: s.screen_id
    )
    doc["screens"] = [{"id": s.source_id, "location_id": s.location_id} for s in screens]

    film_clusters: Dict[int, List[str]] = {}
    film_objects: Dict[int, Film] = {}
    for cluster in clusters:
        for film in cluster.films:
            film_clusters.setdefault(film.film_id, []).append(cluster.cluster_id)
            film_objects[film.film_id] = film
    doc["films"] = []
    for film_id in sorted(film_clusters):
        film = film_objects[film_id]
        entry = {"id": film.film_id, "title": film.title, "runtime_minutes": film.runtime_minutes}
        owners = film_clusters[film_id]
        if len(owners) == 1 and len(clusters) > 1:
            entry["cluster_id"] = owners[0]
        elif len(owners) != len(clusters):
            raise ValueError(
                f"film {film_id} plays in {len(owners)} of {len(clusters)} clusters;"
                " only global or single-cluster films serialize"
            )
        doc["films"].append(entry)

    seen_configs = set()
    doc["configurations"] = []
    for cluster in clusters:
        for config in cluster.configurations:
            if config.key() in seen_configs:
                continue
            seen_configs.add(config.key())
            doc["configurations"].append(
                {
                    "film_id": config.film_id,
                    "config_index": config.config_index,
                    "showtimes": [format_hhmm(t) for t in config.showtimes],
                }
            )
    doc["configurations"].sort(key=lambda c: (c["film_id"], c["config_index"]))

    internal_to_external = {s.screen_id: s.source_id for s in screens}
    rows = sorted(
        (key, milli)
        for cluster in clusters
        for key, milli in (
            forecast_cells(cluster.forecast) if forecasts is None else forecasts[cluster.cluster_id]
        ).items()
    )
    doc["forecast"] = [
        {
            "screen_id": internal_to_external[sid],
            "film_id": film_id,
            "config_index": config_index,
            "attendance": milli_to_json(milli),
        }
        for (sid, film_id, config_index), milli in rows
    ]
    return doc


def reference_schedule_rows(instance, report) -> Dict[str, List[tuple]]:
    """Each Optimal cluster's schedule, by cluster id, built from the solve report.

    One row per screen, in screen order: (the document's screen id, location
    name, film id, film title, config index, tuple of "HH:MM" showtimes).
    """
    clusters = instance.clusters
    schedules = {}
    for cluster in clusters:
        cluster_report = report.per_cluster[cluster.cluster_id]
        if cluster_report.status != "Optimal":
            continue
        screens = {s.screen_id: s for s in cluster.screens}
        names = {loc.location_id: loc.name for loc in cluster.locations}
        titles = {film.film_id: film.title for film in cluster.films}
        showtimes = {c.key(): tuple(_hhmm(t) for t in c.showtimes) for c in cluster.configurations}
        schedules[cluster.cluster_id] = [
            (
                screens[sid].source_id,
                names[screens[sid].location_id],
                film_id,
                titles[film_id],
                config_index,
                showtimes[(film_id, config_index)],
            )
            for sid, (film_id, config_index) in sorted(cluster_report.schedule.choices.items())
        ]
    return schedules


def reference_solve_document(instance, report) -> dict:
    """The document ``solve --format json`` prints, as a dict built entry by entry."""
    schedules = reference_schedule_rows(instance, report)
    fields = ("screen_id", "location", "film_id", "film_title", "config_index", "showtimes")
    doc = {
        "status": report.overall_status,
        "objective": (
            None if report.combined_objective is None
            else milli_to_json(int(report.combined_objective * 1000))
        ),
        "clusters": [],
    }
    for cluster_id in sorted(report.per_cluster):
        cluster_report = report.per_cluster[cluster_id]
        entry = {
            "cluster_id": cluster_id,
            "status": cluster_report.status,
            "method": cluster_report.method,
            "certified": cluster_report.certified,
        }
        if cluster_id in schedules:
            entry["objective"] = milli_to_json(int(cluster_report.objective * 1000))
            entry["schedule"] = [
                dict(zip(fields, row[:-1] + (list(row[-1]),))) for row in schedules[cluster_id]
            ]
        else:
            entry["diagnostic"] = cluster_report.diagnostic
        doc["clusters"].append(entry)
    return doc


# the dict-based forecast path the matrix loader replaced: the parse's
# forecast loop, the validator's forecast checks and build_model's copy

GENERATION_CODES = {"bad_stagger_interval", "bad_runtime", "window_inverted"}


def _row_label(ext_sid: int, film_id: int, config_index: int) -> str:
    return f"forecast entry (screen {ext_sid}, film {film_id}, config {config_index})"


def _labelled_attendance(value, label: str) -> int:
    """``parse_attendance(value)``, its format errors naming the forecast row."""
    try:
        return parse_attendance(value)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{exc} in {label}") from None


def reference_forecast_pass(doc: dict, allow_partial: bool = False):
    """Each cluster's forecast rows as a dict keyed by (screen, film, config),
    from ``doc``, whose other blocks parse; raises what the loop raised, and
    returns the first row outside its cluster's films (or None) beside them."""
    cluster_of_location = {
        loc["id"]: str(loc["cluster_id"]) for loc in doc["locations"]
    }
    screen_route = {
        s["id"]: (position, cluster_of_location[s["location_id"]])
        for position, s in enumerate(doc["screens"], start=1)
    }
    every = set(cluster_of_location.values())
    film_owners = {
        f["id"]: {str(f["cluster_id"])} if "cluster_id" in f else every for f in doc["films"]
    }
    forecasts: Dict[str, dict] = {cluster_id: {} for cluster_id in sorted(every)}

    forecast_raw = doc.get("forecast")
    if forecast_raw is None:
        if not allow_partial:
            raise InstanceFormatError("document: missing key 'forecast'")
        forecast_raw = []
    outside = None
    for entry in forecast_raw:
        ext_sid = _require_int(_require(entry, "screen_id", "forecast entry"), "forecast screen_id")
        film_id = _require_int(_require(entry, "film_id", "forecast entry"), "forecast film_id")
        config_index = _require_int(_require(entry, "config_index", "forecast entry"), "forecast config_index")
        label = _row_label(ext_sid, film_id, config_index)
        if ext_sid not in screen_route:
            raise InstanceDataError([Violation("unknown_screen", f"{label} references an unknown screen")])
        sid, cluster_id = screen_route[ext_sid]
        if film_id not in film_owners:
            raise InstanceDataError([Violation("unknown_film", f"{label} references an unknown film")])
        if cluster_id not in film_owners[film_id] and outside is None:
            outside = (ext_sid, film_id, config_index)
        entries = forecasts[cluster_id]
        key = (sid, film_id, config_index)
        if key in entries:
            raise InstanceDataError([Violation("duplicate_forecast_entry", f"{label} appears more than once")])
        if "attendance" not in entry:
            raise InstanceFormatError(f"{label}: missing key 'attendance'")
        entries[key] = _labelled_attendance(entry["attendance"], label)
    return forecasts, outside


def reference_forecast_violations(
    cluster: ClusterInstance, entries: dict, check_forecast: bool = True
) -> List[str]:
    """The validator's forecast lines for ``cluster`` with ``entries`` as its forecast."""
    lines = []
    source_ids = {s.screen_id: s.source_id for s in cluster.screens}
    config_keys = {c.key() for c in cluster.configurations}
    for (sid, film_id, config_index), milli in entries.items():
        label = _row_label(source_ids.get(sid, sid), film_id, config_index)
        if milli < 0:
            lines.append(f"negative_coefficient: {label} is negative ({format_attendance(milli)})")
        if (film_id, config_index) not in config_keys:
            lines.append(f"unknown_configuration: {label} references an unknown configuration")
        if sid not in source_ids:
            lines.append(f"unknown_screen: {label} references an unknown screen")
    if check_forecast:
        for screen in cluster.screens:
            for config in cluster.configurations:
                if (screen.screen_id, config.film_id, config.config_index) not in entries:
                    lines.append(
                        f"missing_forecast_entry: no forecast entry for (screen {screen.source_id},"
                        f" film {config.film_id}, config {config.config_index})"
                    )
    return lines


def reference_weights(cluster: ClusterInstance, entries: dict):
    """(screen ids, column keys, weights) of the cluster's model, copied cell by cell from ``entries``."""
    configs = sorted(config.key() for config in cluster.configurations)
    screen_ids = tuple(sorted(s.screen_id for s in cluster.screens))
    weights = [[entries[sid, film_id, config_index] for film_id, config_index in configs] for sid in screen_ids]
    return screen_ids, tuple(configs), weights


def reference_load(doc: dict, allow_partial: bool = False, turnover_minutes: int = 0):
    """What loading ``doc`` gives along the dict-based forecast path.

    ``("error", type, text)`` when parsing raises; ``("invalid", lines)``
    for the validator's violation lines; else ``("ok", models, text)``: each
    cluster's (screen ids, column keys, weights), None with
    ``allow_partial``, and the ``dumps_instance`` text.
    """
    try:
        try:
            skeleton = reference_parse_document(
                {**doc, "forecast": []}, allow_partial=True, turnover_minutes=turnover_minutes
            )
            held = None
        except (InstanceDataError, ValueError) as exc:
            # a configuration generation error is raised after the forecast rows' errors
            if isinstance(exc, InstanceDataError) and {v.code for v in exc.violations} - GENERATION_CODES:
                raise
            skeleton, held = None, exc
        forecasts, outside = reference_forecast_pass(doc, allow_partial)
        if held is not None:
            raise held
        if outside is not None:
            raise InstanceDataError(
                [Violation("unknown_film", f"{_row_label(*outside)} pairs a screen with a film outside its cluster")]
            )
    except (InstanceError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    lines = []
    for cluster in skeleton.clusters:
        lines.extend(str(v) for v in validate_instance(cluster, check_forecast=False))
        lines.extend(reference_forecast_violations(cluster, forecasts[cluster.cluster_id], not allow_partial))
    if lines:
        return ("invalid", lines)
    models = None if allow_partial else [
        reference_weights(cluster, forecasts[cluster.cluster_id]) for cluster in skeleton.clusters
    ]
    return ("ok", models, dumps_json(reference_document(skeleton, forecasts)) + "\n")


def _named_time(text, label: str) -> int:
    """parse_hhmm(text), its error ending in the name of the field the text came from."""
    try:
        return parse_hhmm(text)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{exc} in {label}") from None


# the loader before it read each block's fields through typed fast paths and
# parsed each distinct showtime list once: every field through the checking
# helpers, every time through parse_hhmm

def reference_parse_document(
    obj, allow_partial: bool = False, turnover_minutes: int = 0
) -> MultiClusterInstance:
    """What ``parse_document`` returns or raises for ``obj``, field by field."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance document must be a JSON object")

    stagger = _require_int(
        _require(obj, "stagger_interval_minutes", "document"),
        "stagger_interval_minutes",
    )

    locations = []
    for entry in _as_list(_require(obj, "locations", "document"), "locations"):
        loc_id = _require_int(_require(entry, "id", "location"), "location id")
        locations.append(
            Location(
                location_id=loc_id,
                name=_require_str(_require(entry, "name", f"location {loc_id}"), f"location {loc_id} name"),
                cluster_id=_cluster_key(_require(entry, "cluster_id", f"location {loc_id}"), f"location {loc_id}"),
                open_time=_named_time(_require(entry, "open_time", f"location {loc_id}"), f"location {loc_id} open_time"),
                last_showtime=_named_time(
                    _require(entry, "last_showtime", f"location {loc_id}"), f"location {loc_id} last_showtime"
                ),
            )
        )
    if not locations:
        raise InstanceDataError([Violation("no_locations", "document defines no locations")])
    location_by_id = {}
    for loc in locations:
        if loc.location_id in location_by_id:
            raise InstanceDataError(
                [Violation("duplicate_location_id", f"location id {loc.location_id} appears more than once")]
            )
        location_by_id[loc.location_id] = loc

    parts = {cluster_id: _ClusterParts() for cluster_id in sorted({loc.cluster_id for loc in locations})}
    for loc in locations:
        parts[loc.cluster_id].locations.append(loc)
    every_cluster = tuple(parts.values())

    seen_screens = set()
    for position, entry in enumerate(_as_list(_require(obj, "screens", "document"), "screens"), start=1):
        ext_id = _require_int(_require(entry, "id", "screen"), "screen id")
        loc_id = _require_int(_require(entry, "location_id", f"screen {ext_id}"), f"screen {ext_id} location_id")
        if ext_id in seen_screens:
            raise InstanceDataError(
                [Violation("duplicate_screen_id", f"screen id {ext_id} appears more than once")]
            )
        if loc_id not in location_by_id:
            raise InstanceDataError(
                [Violation("unknown_location", f"screen {ext_id} references unknown location {loc_id}")]
            )
        part = parts[location_by_id[loc_id].cluster_id]
        part.screens.append(Screen(screen_id=position, location_id=loc_id, external_id=ext_id))
        seen_screens.add(ext_id)

    film_owners = {}
    for entry in _as_list(_require(obj, "films", "document"), "films"):
        film_id = _require_int(_require(entry, "id", "film"), "film id")
        if film_id in film_owners:
            raise InstanceDataError(
                [Violation("duplicate_film_id", f"film id {film_id} appears more than once")]
            )
        film = Film(
            film_id=film_id,
            title=_require_str(_require(entry, "title", f"film {film_id}"), f"film {film_id} title"),
            runtime_minutes=_require_int(
                _require(entry, "runtime_minutes", f"film {film_id}"), f"film {film_id} runtime"
            ),
        )
        if "cluster_id" in entry:
            scope = _cluster_key(entry["cluster_id"], f"film {film_id}")
            if scope not in parts:
                raise InstanceDataError(
                    [Violation("unknown_cluster", f"film {film_id} references unknown cluster {scope!r}")]
                )
            owners = (parts[scope],)
        else:
            owners = every_cluster
        film_owners[film_id] = owners
        for part in owners:
            part.films.append(film)

    config_rows = _as_list(obj.get("configurations", []), "configurations")
    for entry in config_rows:
        film_id = _require_int(_require(entry, "film_id", "configuration"), "configuration film_id")
        config_index = _require_int(
            _require(entry, "config_index", f"film {film_id} configuration"), "config_index"
        )
        if film_id not in film_owners:
            raise InstanceDataError(
                [Violation("unknown_film", f"configuration {config_index} references unknown film {film_id}")]
            )
        raw_times = _require(entry, "showtimes", f"film {film_id} config {config_index}")
        if not isinstance(raw_times, list):
            raise InstanceFormatError(
                f"film {film_id} config {config_index} showtimes:"
                f" expected a list, got {type(raw_times).__name__}"
            )
        config = ShowtimeConfiguration(
            film_id=film_id,
            config_index=config_index,
            showtimes=tuple(_named_time(t, f"film {film_id} config {config_index} showtimes") for t in raw_times),
        )
        for part in film_owners[film_id]:
            part.configurations.append(config)

    clusters = []
    generation_error = None
    for cluster_id, part in parts.items():
        cluster = ClusterInstance(
            cluster_id=cluster_id,
            locations=tuple(part.locations),
            screens=tuple(part.screens),
            films=tuple(part.films),
            configurations=tuple(part.configurations),
            stagger_interval_minutes=stagger,
            forecast=ForecastMatrix((), (), []),
        )
        if not config_rows:
            try:
                cluster = cluster._replace(configurations=default_configurations(cluster, turnover_minutes))
            except (InstanceDataError, ValueError) as exc:
                generation_error = generation_error or exc
        part.columns = tuple(sorted({config.key() for config in cluster.configurations}))
        part.columns_of = {film.film_id: {} for film in part.films}
        for column, (film_id, config_index) in enumerate(part.columns):
            part.columns_of[film_id][config_index] = column
        part.rows = [[None] * len(part.columns) for _ in part.screens]
        clusters.append(cluster)
    row_route = {
        screen.external_id: (screen.screen_id, row, part.columns_of, part.flagged)
        for part in every_cluster
        for screen, row in zip(part.screens, part.rows)
    }

    forecast_raw = obj.get("forecast")
    if forecast_raw is None:
        if not allow_partial:
            raise InstanceFormatError("document: missing key 'forecast'")
        forecast_raw = []
    outside = None
    stray = set()
    for entry in _as_list(forecast_raw, "forecast"):
        ext_sid = entry.get("screen_id")
        film_id = entry.get("film_id")
        config_index = entry.get("config_index")
        if type(ext_sid) is not int or type(film_id) is not int or type(config_index) is not int:
            ext_sid, film_id, config_index = _forecast_ids(entry)
        try:
            sid, row, columns_of, flagged = row_route[ext_sid]
            column = columns_of[film_id][config_index]
        except KeyError:
            column = None
        if column is not None:
            if row[column] is not None:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("duplicate_forecast_entry", f"{label} appears more than once")])
            attendance = entry.get("attendance")
            if type(attendance) is int and 0 <= attendance < ATTENDANCE_LIMIT:
                row[column] = attendance * MILLI
                continue
        else:
            route = row_route.get(ext_sid)
            if route is None:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("unknown_screen", f"{label} references an unknown screen")])
            sid, row, columns_of, flagged = route
            if film_id not in columns_of:
                if film_id not in film_owners:
                    label = _row_label(ext_sid, film_id, config_index)
                    raise InstanceDataError([Violation("unknown_film", f"{label} references an unknown film")])
                if outside is None:
                    outside = (ext_sid, film_id, config_index)
            if (sid, film_id, config_index) in stray:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("duplicate_forecast_entry", f"{label} appears more than once")])
            stray.add((sid, film_id, config_index))
        label = _row_label(ext_sid, film_id, config_index)
        milli = _labelled_attendance(_require(entry, "attendance", label), label)
        if column is not None:
            row[column] = milli
        if column is None or milli < 0:
            flagged.append((sid, film_id, config_index, milli))

    for i, (cluster, part) in enumerate(zip(clusters, every_cluster)):
        screen_ids = tuple(screen.screen_id for screen in part.screens)
        forecast = ForecastMatrix(screen_ids, part.columns, part.rows, tuple(part.flagged))
        clusters[i] = cluster._replace(forecast=forecast)
    if generation_error is not None:
        raise generation_error
    if outside is not None:
        label = _row_label(*outside)
        raise InstanceDataError([Violation("unknown_film", f"{label} pairs a screen with a film outside its cluster")])

    return MultiClusterInstance(clusters=tuple(clusters))


# the writers the block-by-block LP text and the joined document text replaced

def reference_export_lp_text(model: BilpModel) -> str:
    """The LP writer that walked one model's whole matrix; a sum of
    cluster models is passed as one model, with its empty blocks.

    Written straight from the matrix.  Terms follow the variable order:
    ascending screen id, then film id, then configuration index.  Zero
    coefficients are kept so the objective always lists every variable.
    """
    suffixes = [f"f{key[-2]}_c{key[-1]}" for key in model.column_keys]
    # each variable's name, in its cell; None where the matrix has no variable
    cells = [
        [None if milli is None else prefix + suffix for milli, suffix in zip(row, suffixes)]
        for prefix, row in zip([f"X_s{sid}_" for sid in model.screen_ids], model.weights)
    ]
    names = [name for row in cells for name in row if name is not None]
    coefficients = [milli for row in model.weights for milli in row if milli is not None]
    literal = {milli: format_attendance(milli) for milli in set(coefficients)}
    columns = list(zip(*cells)) or [()] * len(model.column_keys)
    lines = [
        "\\ Screen scheduling model: maximize forecast attendance",
        "\\ Terms ordered by ascending (screen, film, configuration)",
        "Maximize",
        " obj: " + " + ".join([literal[milli] + " " + name for milli, name in zip(coefficients, names)]),
        "Subject To",
    ]
    for sid, row in zip(model.screen_ids, cells):
        lines.append(f" screen_{sid}: " + " + ".join(filter(None, row)) + " = 1")
    for key, column in zip(model.column_keys, columns):
        lines.append(f" {_row_name(key)}: " + " + ".join(filter(None, column)) + " <= 1")
    lines.append("Binary")
    lines.extend(" " + name for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def reference_dumps_instance(instance) -> str:
    """The document writer that built every showtime array and forecast row
    text on its own and chained the blocks with ``+``.

    Byte-deterministic for equal instances, laid out as :func:`dumps_json`
    lays out the document.  Raises ``ValueError`` when the clusters cannot
    share one document: different stagger intervals, a film playing in some
    but not all of several clusters, or a (film, config) key with different
    showtimes in two clusters.
    """
    clusters = instance.clusters

    staggers = {c.stagger_interval_minutes for c in clusters}
    if len(staggers) != 1:
        raise ValueError("cannot serialize clusters with different stagger intervals into one document")

    doc: dict = {"stagger_interval_minutes": staggers.pop()}
    doc["locations"] = [
        {
            "id": loc.location_id,
            "name": loc.name,
            "cluster_id": loc.cluster_id,
            "open_time": format_hhmm(loc.open_time),
            "last_showtime": format_hhmm(loc.last_showtime),
        }
        for cluster in clusters
        for loc in cluster.locations
    ]

    screens = sorted(
        (s for cluster in clusters for s in cluster.screens), key=lambda s: s.screen_id
    )
    doc["screens"] = [{"id": s.source_id, "location_id": s.location_id} for s in screens]

    # films playing in every cluster are written once unscoped; films seen in
    # exactly one cluster carry that cluster's id
    film_clusters: Dict[int, List[str]] = {}
    film_objects: Dict[int, Film] = {}
    for cluster in clusters:
        for film in cluster.films:
            film_clusters.setdefault(film.film_id, []).append(cluster.cluster_id)
            film_objects[film.film_id] = film
    doc["films"] = []
    for film_id in sorted(film_clusters):
        film = film_objects[film_id]
        entry = {"id": film.film_id, "title": film.title, "runtime_minutes": film.runtime_minutes}
        owners = film_clusters[film_id]
        if len(owners) == 1 and len(clusters) > 1:
            entry["cluster_id"] = owners[0]
        elif len(owners) != len(clusters):
            raise ValueError(
                f"film {film_id} plays in {len(owners)} of {len(clusters)} clusters;"
                " only global or single-cluster films serialize"
            )
        doc["films"].append(entry)

    # a configuration shared by several clusters is written once, so it must
    # have the same showtimes in each
    first_seen: Dict[Tuple[int, int], Tuple[ShowtimeConfiguration, str]] = {}
    for cluster in clusters:
        for config in cluster.configurations:
            seen = first_seen.setdefault(config.key(), (config, cluster.cluster_id))
            if seen[0].showtimes != config.showtimes:
                raise ValueError(
                    f"film {config.film_id} config {config.config_index} has different showtimes"
                    f" in clusters {seen[1]!r} and {cluster.cluster_id!r};"
                    " a document lists each configuration once"
                )
    # written as dumps_json would write each configuration's dict
    configurations = [
        f'\n    {{\n      "film_id": {config.film_id},\n      "config_index": {config.config_index},'
        '\n      "showtimes": ' + json_array([f'\n        "{format_hhmm(t)}"' for t in config.showtimes], "\n      ")
        + "\n    }"
        for config, _ in sorted(first_seen.values(), key=lambda seen: seen[0].key())
    ]

    # the forecast is most of the document's bytes, so its rows are written
    # as dumps_json would write each row's dict, from one text per screen, per
    # column and per distinct value; the matrices' cells are already in
    # (film, config) order within each screen
    external = {s.screen_id: s.source_id for s in screens}
    matrix_rows = []     # (screen id, its row, the row's column texts), one per screen
    for cluster in clusters:
        matrix = cluster.forecast
        if matrix.stray_rows:
            sid, film_id, config_index, _ = matrix.stray_rows[0]
            raise ValueError(
                f"{_row_label(external.get(sid, sid), film_id, config_index)} is outside"
                f" cluster {cluster.cluster_id!r}'s screens and configurations;"
                " only rows of its forecast matrix serialize"
            )
        heads = [
            f'      "film_id": {film_id},\n      "config_index": {config_index},\n      "attendance": '
            for film_id, config_index in matrix.column_keys
        ]
        matrix_rows.extend((sid, row, heads) for sid, row in zip(matrix.screen_ids, matrix.rows))
    matrix_rows.sort(key=itemgetter(0))
    values = set().union(*(row for _, row, _ in matrix_rows))
    values.discard(None)
    literal = {milli: format_attendance(milli) + "\n    }" for milli in values}
    pieces = []
    for sid, row, heads in matrix_rows:
        prefix = f'\n    {{\n      "screen_id": {external[sid]},\n'
        pieces.extend([prefix + head + literal[milli] for head, milli in zip(heads, row) if milli is not None])
    # doc holds every block before the configurations; a non-empty object, its text ends "\n}"
    return (
        dumps_json(doc)[:-2]
        + ',\n  "configurations": ' + json_array(configurations, "\n  ")
        + ',\n  "forecast": ' + json_array(pieces, "\n  ")
        + "\n}\n"
    )
