import random
import signal

import pytest

from cinestagger import Film, cycle_length, generate_configurations
from cinestagger.domain import parse_hhmm

WINDOW = (720, 1380)


def times(*texts):
    return tuple(parse_hhmm(t) for t in texts)


def test_cycle_length_values():
    assert cycle_length(90, 30) == 90
    assert cycle_length(100, 30) == 120
    assert cycle_length(120, 30) == 120
    assert cycle_length(85, 30) == 90


def test_cycle_length_with_turnover():
    assert cycle_length(90, 30, 30) == 120
    assert cycle_length(90, 30, 1) == 120
    assert cycle_length(89, 30, 1) == 90


def test_cycle_length_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cycle_length(0, 30)
    with pytest.raises(ValueError):
        cycle_length(90, 0)
    with pytest.raises(ValueError):
        cycle_length(90, 30, -1)


def test_ninety_minute_film():
    film = Film(film_id=1, title="Film 1", runtime_minutes=90)
    configs = generate_configurations(film, WINDOW, 30)
    assert [c.config_index for c in configs] == [1, 2, 3]
    assert [c.showtimes[0] for c in configs] == [720, 750, 780]
    assert [len(c.showtimes) for c in configs] == [8, 8, 7]
    assert {c.showtimes for c in configs} == {
        times("12:30", "14:00", "15:30", "17:00", "18:30", "20:00", "21:30", "23:00"),
        times("12:00", "13:30", "15:00", "16:30", "18:00", "19:30", "21:00", "22:30"),
        times("13:00", "14:30", "16:00", "17:30", "19:00", "20:30", "22:00"),
    }


def test_eighty_five_minute_film_shares_the_ninety_minute_grid():
    short = Film(film_id=2, title="Film 2", runtime_minutes=85)
    long = Film(film_id=1, title="Film 1", runtime_minutes=90)
    assert [c.showtimes for c in generate_configurations(short, WINDOW, 30)] == [
        c.showtimes for c in generate_configurations(long, WINDOW, 30)
    ]


def test_hundred_minute_film():
    film = Film(film_id=3, title="Film 3", runtime_minutes=100)
    configs = generate_configurations(film, WINDOW, 30)
    assert [c.showtimes[0] for c in configs] == [720, 750, 780, 810]
    assert {c.showtimes for c in configs} == {
        times("13:00", "15:00", "17:00", "19:00", "21:00", "23:00"),
        times("12:30", "14:30", "16:30", "18:30", "20:30", "22:30"),
        times("12:00", "14:00", "16:00", "18:00", "20:00", "22:00"),
        times("13:30", "15:30", "17:30", "19:30", "21:30"),
    }


def test_single_slot_window():
    film = Film(film_id=1, title="Short", runtime_minutes=30)
    configs = generate_configurations(film, (720, 720), 30)
    assert len(configs) == 1
    assert configs[0].showtimes == (720,)
    assert configs[0].config_index == 1


def test_huge_cycle_stops_at_the_last_showtime():
    # offsets past the last showtime yield nothing; the alarm fails the test
    # instead of hanging it if the loop walks the whole cycle anyway
    def expired(signum, frame):
        raise TimeoutError("generate_configurations walked the whole cycle")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(5)
    try:
        def configs(runtime, turnover=0):
            film = Film(film_id=1, title="Long", runtime_minutes=runtime)
            return generate_configurations(film, WINDOW, 30, turnover)

        assert configs(10**30) == configs(10**6)
        assert configs(90, 10**12) == configs(90, 10**6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_inverted_window_rejected():
    film = Film(film_id=1, title="Any", runtime_minutes=90)
    with pytest.raises(ValueError):
        generate_configurations(film, (800, 700), 30)


def test_generated_configuration_properties():
    rng = random.Random(404)
    for _ in range(200):
        runtime = rng.randint(30, 240)
        stagger = rng.choice([10, 15, 20, 30, 45, 60])
        open_time = rng.randrange(0, 900, 5)
        last = open_time + rng.randrange(0, 700, 5)
        film = Film(film_id=1, title="P", runtime_minutes=runtime)
        cycle = cycle_length(runtime, stagger)
        configs = generate_configurations(film, (open_time, last), stagger)

        assert [c.config_index for c in configs] == list(range(1, len(configs) + 1))
        firsts = [c.showtimes[0] for c in configs]
        assert firsts == sorted(firsts)
        assert len(configs) <= cycle // stagger
        if last - open_time >= cycle:
            assert len(configs) == cycle // stagger
        seen = set()
        for config in configs:
            for a, b in zip(config.showtimes, config.showtimes[1:]):
                assert b - a == cycle
            for t in config.showtimes:
                assert open_time <= t <= last
                assert t not in seen  # configurations of one film never collide
                seen.add(t)

        again = generate_configurations(film, (open_time, last), stagger)
        assert again == configs
