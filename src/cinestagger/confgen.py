"""Showtime configuration generation.

A film's daily schedule on a screen repeats on a fixed cycle: its runtime
(plus optional turnover buffer) rounded up to the stagger interval.  Every
configuration is that cycle shifted by a multiple of the stagger interval
from opening time, so configurations of one film never collide and two
screens showing the same film in different configurations stay staggered.
"""

from __future__ import annotations

from typing import List, Tuple

from .domain import Film, ShowtimeConfiguration


def cycle_length(runtime_minutes: int, stagger_interval: int, turnover_minutes: int = 0) -> int:
    """Minutes between consecutive showtimes of one configuration.

    Smallest multiple of the stagger interval covering runtime plus
    turnover, e.g. a 100 minute film on a 30 minute stagger cycles
    every 120 minutes.
    """
    if runtime_minutes < 1:
        raise ValueError(f"runtime must be >= 1, got {runtime_minutes}")
    if stagger_interval < 1:
        raise ValueError(f"stagger interval must be >= 1, got {stagger_interval}")
    if turnover_minutes < 0:
        raise ValueError(f"turnover must be >= 0, got {turnover_minutes}")
    block = runtime_minutes + turnover_minutes
    return -(-block // stagger_interval) * stagger_interval


def generate_configurations(
    film: Film,
    window: Tuple[int, int],
    stagger_interval: int,
    turnover_minutes: int = 0,
) -> List[ShowtimeConfiguration]:
    """All showtime configurations of ``film`` within ``window``.

    One configuration per stagger offset of the film's cycle: offset o
    yields showtimes open+o, open+o+L, ... up to the last allowed start.
    Ordered by ascending first showtime, config_index counting from 1.
    A window that opens after its last showtime raises ValueError; any
    other window admits offset 0, so the list is never empty.
    """
    open_time, last_showtime = window
    if open_time > last_showtime:
        raise ValueError(
            f"window opens at {open_time} after its last showtime {last_showtime}"
        )
    cycle = cycle_length(film.runtime_minutes, stagger_interval, turnover_minutes)
    configs: List[ShowtimeConfiguration] = []
    for offset in range(0, cycle, stagger_interval):
        showtimes = tuple(range(open_time + offset, last_showtime + 1, cycle))
        if not showtimes:
            break   # offsets only grow, so every later one is past the last showtime too
        configs.append(
            ShowtimeConfiguration(
                film_id=film.film_id,
                config_index=len(configs) + 1,
                showtimes=showtimes,
            )
        )
    return configs
