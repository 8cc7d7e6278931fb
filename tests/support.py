"""Builders shared across the test suite.

Instances are constructed as documents and pushed through load_instance so
every test also exercises the parsing and validation path.
"""

import copy
import random
from typing import Dict, List, Optional, Sequence, Tuple

from cinestagger import BilpModel, ClusterInstance, MultiClusterInstance, load_instance

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
