"""Synthetic instance generation for testing and benchmarking.

Instances are fully determined by the seed and the shape arguments, so
two runs with the same parameters emit byte-identical documents.  Every
cluster gets the requested number of screens and films; films, screens,
and locations are numbered globally so the document loads unchanged.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .confgen import generate_configurations
from .domain import ATTENDANCE_LIMIT, Film, format_hhmm

WINDOW = (720, 1380)        # 12:00 .. 23:00, matching the bundled example
STAGGER = 30
RUNTIME_RANGE = (80, 180)


def generate_document(
    screens: int,
    films: int,
    clusters: int = 1,
    seed: int = 0,
    coeff_range: Tuple[int, int] = (200, 299),
) -> dict:
    """Random instance document: ``screens`` screens and ``films`` films per cluster."""
    if screens < 1 or films < 1 or clusters < 1:
        raise ValueError("screens, films and clusters must all be >= 1")
    lo, hi = coeff_range
    if lo > hi or lo < 0 or hi >= ATTENDANCE_LIMIT:
        raise ValueError(f"bad coefficient range {lo}..{hi}")

    rng = random.Random(seed)
    doc: dict = {
        "stagger_interval_minutes": STAGGER,
        "locations": [],
        "screens": [],
        "films": [],
        "configurations": [],
        "forecast": [],
    }

    next_location = 1
    next_screen = 1
    next_film = 1
    for ci in range(1, clusters + 1):
        cluster_id = f"c{ci}"

        location_count = rng.randint(1, min(3, screens))
        location_ids = []
        for _ in range(location_count):
            doc["locations"].append(
                {
                    "id": next_location,
                    "name": f"Location {next_location}",
                    "cluster_id": cluster_id,
                    "open_time": format_hhmm(WINDOW[0]),
                    "last_showtime": format_hhmm(WINDOW[1]),
                }
            )
            location_ids.append(next_location)
            next_location += 1

        screen_ids = []
        for k in range(screens):
            doc["screens"].append(
                {"id": next_screen, "location_id": location_ids[k % location_count]}
            )
            screen_ids.append(next_screen)
            next_screen += 1

        cluster_configs: List[dict] = []
        for _ in range(films):
            film = Film(
                film_id=next_film,
                title=f"Film {next_film}",
                runtime_minutes=rng.randint(*RUNTIME_RANGE),
            )
            entry = {
                "id": film.film_id,
                "title": film.title,
                "runtime_minutes": film.runtime_minutes,
            }
            if clusters > 1:
                entry["cluster_id"] = cluster_id
            doc["films"].append(entry)
            for config in generate_configurations(film, WINDOW, STAGGER):
                cluster_configs.append(
                    {
                        "film_id": config.film_id,
                        "config_index": config.config_index,
                        "showtimes": [format_hhmm(t) for t in config.showtimes],
                    }
                )
            next_film += 1
        doc["configurations"].extend(cluster_configs)

        for sid in screen_ids:
            for config in cluster_configs:
                doc["forecast"].append(
                    {
                        "screen_id": sid,
                        "film_id": config["film_id"],
                        "config_index": config["config_index"],
                        "attendance": rng.randint(lo, hi),
                    }
                )
    return doc
