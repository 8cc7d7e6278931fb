import copy
import json
import random
import time
from collections import OrderedDict
from support import replace
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from cinestagger import (
    ClusterInstance,
    InstanceDataError,
    InstanceError,
    InstanceFormatError,
    MultiClusterInstance,
    build_joint_model,
    build_model,
    dumps_instance,
    load_instance,
    solve_all,
    validate_instance,
    verify_decomposition,
)
from cinestagger.domain import (
    ATTENDANCE_LIMIT,
    MAX_MINUTES,
    MILLI,
    Film,
    Location,
    Screen,
    ShowtimeConfiguration,
    dumps_json,
    format_attendance,
    format_hhmm,
    json_array,
    parse_attendance,
    parse_document,
    parse_hhmm,
    serialize_instance,
)
from cinestagger.synth import generate_document


def test_parse_hhmm_basic():
    assert parse_hhmm("00:00") == 0
    assert parse_hhmm("12:30") == 750
    assert parse_hhmm("23:00") == 1380


def test_parse_hhmm_past_midnight():
    # late shows stay on the same scheduling day, up to 27:59
    assert parse_hhmm("24:00") == 1440
    assert parse_hhmm("27:59") == MAX_MINUTES
    with pytest.raises(InstanceFormatError):
        parse_hhmm("28:00")


@pytest.mark.parametrize(
    "bad",
    # other scripts' digits (Arabic-Indic, fullwidth) and underscores are no ASCII digits
    ["noon", "12", "12:5", "12:61", "1230", "", "12:30:00", 730, "١٢:3٠", "１２:30", "1_2:30", "12:3_0"],
)
def test_parse_hhmm_rejects(bad):
    with pytest.raises(InstanceFormatError, match="^bad time "):
        parse_hhmm(bad)


def test_format_hhmm_round_trip():
    for minutes in range(0, MAX_MINUTES + 1, 7):
        assert parse_hhmm(format_hhmm(minutes)) == minutes


def test_parse_attendance_exact():
    assert parse_attendance(226) == 226000
    assert parse_attendance(Decimal("226.5")) == 226500
    assert parse_attendance("0.001") == 1
    assert parse_attendance(0) == 0


def test_parse_attendance_rejects():
    for bad in ["1.2345", Decimal("0.0005"), "abc", True, None, [1]]:
        with pytest.raises(InstanceFormatError):
            parse_attendance(bad)


@pytest.mark.parametrize(
    "bad",
    [
        float("inf"), float("-inf"), float("nan"), "Infinity", "-Infinity", "NaN", Decimal("Infinity"), "1e999999",
        "١٢", "１２", "1_000", "0.5_0",
    ],
)
def test_parse_attendance_rejects_non_finite_and_overflow(bad):
    with pytest.raises(InstanceFormatError, match="^bad attendance value "):
        parse_attendance(bad)


def test_parse_attendance_bounds_magnitude():
    # an exact int of 10**999993 milliunits would take about 40 s to build
    for bad in ["1e999990", "1e18", Decimal("-1e18")]:
        started = time.perf_counter()
        with pytest.raises(InstanceFormatError, match="^bad attendance value "):
            parse_attendance(bad)
        assert time.perf_counter() - started < 0.1
    assert parse_attendance("999999999999999999.999") == 999999999999999999999
    assert parse_attendance(Decimal("5000000000000000")) == 5 * 10**18
    assert parse_attendance("1e16") == 10**19


def test_parse_attendance_past_decimal_context():
    # exponents past the context's Emax and digits past its 28 must not be
    # rounded (or trapped as Overflow) before the magnitude check
    for bad in ["1e1000000", "-1e1000000", Decimal("1e999999999")]:
        with pytest.raises(InstanceFormatError, match="^bad attendance value "):
            parse_attendance(bad)
    with pytest.raises(InstanceFormatError, match="more than 3 decimal places"):
        parse_attendance("999999999999999999.99999999999")


def test_format_attendance():
    assert format_attendance(226000) == "226"
    assert format_attendance(226500) == "226.5"
    assert format_attendance(1) == "0.001"
    assert format_attendance(-1500) == "-1.5"


def test_example_instance_shape(example_instance):
    assert isinstance(example_instance, ClusterInstance)
    assert example_instance.cluster_id == "c1"
    assert len(example_instance.locations) == 3
    assert example_instance.screen_count == 9
    assert len(example_instance.films) == 5
    assert example_instance.configuration_count == 16
    assert example_instance.stagger_interval_minutes == 30
    assert len(example_instance.forecast.entries) == 144
    assert example_instance.window() == (720, 1380)


def test_example_instance_screen_layout(example_instance):
    by_location = {}
    for screen in example_instance.screens:
        by_location.setdefault(screen.location_id, []).append(screen.screen_id)
    assert by_location == {1: [1, 2, 3], 2: [4, 5], 3: [6, 7, 8, 9]}


def test_example_instance_config_counts(example_instance):
    counts = {}
    for config in example_instance.configurations:
        counts[config.film_id] = counts.get(config.film_id, 0) + 1
    assert counts == {1: 2, 2: 2, 3: 4, 4: 4, 5: 4}


def test_example_instance_validates(example_instance):
    assert validate_instance(example_instance) == []


def test_round_trip(example_instance, example_path):
    text = dumps_instance(example_instance)
    reloaded = load_instance(json.loads(text))
    assert dumps_instance(reloaded) == text
    assert reloaded.forecast.entries == example_instance.forecast.entries
    assert reloaded.configurations == example_instance.configurations
    assert reloaded.screens == example_instance.screens


def test_screen_reindexing():
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["screens"] = [{"id": 30, "location_id": 1}, {"id": 10, "location_id": 1}]
    for row in doc["forecast"]:
        row["screen_id"] = {1: 30, 2: 10}[row["screen_id"]]
    instance = load_instance(doc)
    # internal ids follow file order; document ids are kept for output
    assert [s.screen_id for s in instance.screens] == [1, 2]
    assert [s.source_id for s in instance.screens] == [30, 10]
    assert instance.forecast.get(1, 1, 1) == 5000
    assert instance.forecast.get(2, 1, 1) == 7000
    out = json.loads(dumps_instance(instance))
    assert [s["id"] for s in out["screens"]] == [30, 10]


def test_multi_cluster_loading():
    doc = support.random_multi_document(__import__("random").Random(5), clusters=2)
    instance = load_instance(doc)
    assert isinstance(instance, MultiClusterInstance)
    assert instance.cluster_ids == ("c1", "c2")
    for cluster in instance.clusters:
        locations = {loc.location_id: loc for loc in cluster.locations}
        for screen in cluster.screens:
            assert locations[screen.location_id].cluster_id == cluster.cluster_id
    assert validate_instance(instance) == []


def test_global_films_play_in_every_cluster():
    a = support.matrix_document([[5]], cluster_id="a")
    b = support.matrix_document(
        [[6]], cluster_id="b", first_location=2, first_screen=2
    )
    doc = a
    doc["locations"].extend(b["locations"])
    doc["screens"].extend(b["screens"])
    doc["forecast"].extend(b["forecast"])
    instance = load_instance(doc)
    assert [len(c.films) for c in instance.clusters] == [1, 1]
    assert instance.cluster("a").films == instance.cluster("b").films


def test_every_instance_answers_clusters(example_instance):
    assert example_instance.clusters == (example_instance,)
    assert example_instance.clusters[0] is example_instance
    multi = MultiClusterInstance(example_instance.clusters)
    assert multi.clusters == (example_instance,)
    assert multi.cluster_ids == (example_instance.cluster_id,)


@pytest.mark.parametrize(
    "call",
    [validate_instance, dumps_instance, serialize_instance, solve_all, verify_decomposition, build_joint_model],
    ids=lambda call: call.__name__,
)
@pytest.mark.parametrize(
    "document",
    [
        lambda example: example,
        lambda example: support.matrix_document([[5, 6], [7, 8], [9, 4]]),     # infeasible
        lambda example: support.matrix_document([[5, 6], [7, 8]], configs_per_film=[1, 1], cluster_id="x"),
    ],
    ids=["example", "infeasible", "two-films"],
)
def test_a_cluster_and_its_one_cluster_multi_instance_give_equal_results(example_document, call, document):
    cluster = load_instance(copy.deepcopy(document(example_document)))
    assert isinstance(cluster, ClusterInstance)
    assert call(cluster) == call(MultiClusterInstance(cluster.clusters))


def test_a_parsed_cluster_refuses_assignment(example_document):
    cluster = parse_document(copy.deepcopy(example_document)).clusters[0]
    assert isinstance(cluster, tuple)
    for name, value in [("stagger_interval_minutes", 20), ("configurations", ()), ("film_by_id", {})]:
        with pytest.raises(AttributeError):
            setattr(cluster, name, value)
    assert cluster == load_instance(copy.deepcopy(example_document))


def violation_codes(doc):
    try:
        load_instance(doc)
    except InstanceDataError as exc:
        return {v.code for v in exc.violations}
    return set()


def test_violation_non_increasing_showtimes():
    doc = support.matrix_document([[5, 6]])
    doc["configurations"][0]["showtimes"] = ["14:00", "13:00"]
    assert "non_increasing_showtimes" in violation_codes(doc)


def test_violation_showtime_outside_window():
    doc = support.matrix_document([[5]])
    doc["configurations"][0]["showtimes"] = ["11:00"]
    assert "showtime_outside_window" in violation_codes(doc)


def test_violation_window_inverted():
    doc = support.matrix_document([[5]])
    doc["locations"][0]["open_time"] = "23:30"
    assert "window_inverted" in violation_codes(doc)


def test_violation_film_without_configurations():
    doc = support.matrix_document([[5, 6]], configs_per_film=[2])
    doc["films"].append({"id": 2, "title": "Silent", "runtime_minutes": 95})
    assert "film_without_configurations" in violation_codes(doc)


def test_violation_missing_forecast_entry():
    doc = support.matrix_document([[5, 6]])
    del doc["forecast"][1]
    assert "missing_forecast_entry" in violation_codes(doc)


def test_violation_negative_coefficient():
    doc = support.matrix_document([[5]])
    doc["forecast"][0]["attendance"] = -2
    assert "negative_coefficient" in violation_codes(doc)


def test_violation_unknown_configuration():
    doc = support.matrix_document([[5]])
    doc["forecast"].append(
        {"screen_id": 1, "film_id": 1, "config_index": 9, "attendance": 3}
    )
    assert "unknown_configuration" in violation_codes(doc)


def test_violation_no_films():
    doc = support.matrix_document([[5]])
    doc["films"] = []
    doc["configurations"] = []
    doc["forecast"] = []
    assert "no_films" in violation_codes(doc)


def test_violation_screen_outside_cluster(example_instance):
    from support import replace

    from cinestagger import Screen

    stray = example_instance.screens[:-1] + (Screen(screen_id=9, location_id=77),)
    broken = replace(example_instance, screens=stray)
    codes = {v.code for v in validate_instance(broken)}
    assert "screen_outside_cluster" in codes


def test_violation_bad_stagger():
    doc = support.matrix_document([[5]])
    doc["stagger_interval_minutes"] = 0
    assert "bad_stagger_interval" in violation_codes(doc)


def test_violation_bad_runtime():
    doc = support.matrix_document([[5]])
    doc["films"][0]["runtime_minutes"] = 0
    assert "bad_runtime" in violation_codes(doc)


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda d: d["screens"].append({"id": 1, "location_id": 1}), "duplicate_screen_id"),
        (lambda d: d["films"].append(dict(d["films"][0])), "duplicate_film_id"),
        (lambda d: d["locations"].append(dict(d["locations"][0])), "duplicate_location_id"),
        (lambda d: d["forecast"].append(dict(d["forecast"][0])), "duplicate_forecast_entry"),
        (lambda d: d["screens"].append({"id": 9, "location_id": 42}), "unknown_location"),
        (
            lambda d: d["forecast"].append(
                {"screen_id": 77, "film_id": 1, "config_index": 1, "attendance": 1}
            ),
            "unknown_screen",
        ),
        (
            lambda d: d["forecast"].append(
                {"screen_id": 1, "film_id": 77, "config_index": 1, "attendance": 1}
            ),
            "unknown_film",
        ),
        (
            lambda d: d["films"].append(
                {"id": 99, "title": "Ghost", "runtime_minutes": 90, "cluster_id": "nowhere"}
            ),
            "unknown_cluster",
        ),
    ],
)
def test_parse_stage_data_errors(mutate, code):
    doc = support.matrix_document([[5, 6], [7, 8]])
    mutate(doc)
    with pytest.raises(InstanceDataError) as err:
        load_instance(doc)
    assert any(v.code == code for v in err.value.violations)


@pytest.mark.parametrize("clusters", [2, 3, 5])
def test_each_cluster_validates_on_its_own(clusters):
    # screen ids continue across clusters, so only the first cluster's start at 1
    multi = load_instance(generate_document(3, 2, clusters=clusters, seed=1))
    assert [validate_instance(cluster) for cluster in multi.clusters] == [[]] * clusters


def test_forecast_violations_name_the_documents_screen(example_document):
    doc = copy.deepcopy(example_document)
    for screen in doc["screens"]:
        screen["id"] += 100
    for entry in doc["forecast"]:
        entry["screen_id"] += 100
    doc["forecast"][0]["attendance"] = -2                   # screen 101, film 1, config 1
    doc["forecast"].append({"screen_id": 101, "film_id": 1, "config_index": 9, "attendance": 3})
    del doc["forecast"][1]                                   # screen 101, film 1, config 2
    with pytest.raises(InstanceDataError) as err:
        load_instance(doc)
    assert [str(v) for v in err.value.violations] == [
        "negative_coefficient: forecast entry (screen 101, film 1, config 1) is negative (-2)",
        "unknown_configuration: forecast entry (screen 101, film 1, config 9)"
        " references an unknown configuration",
        "missing_forecast_entry: no forecast entry for (screen 101, film 1, config 2)",
    ]


def _shift_screens(cluster, by):
    """``cluster`` with every screen id, and its forecast rows, moved by ``by``."""
    screens = tuple(replace(s, screen_id=s.screen_id + by) for s in cluster.screens)
    forecast = {
        (sid + by, film_id, config_index): milli
        for (sid, film_id, config_index), milli in cluster.forecast.entries.items()
    }
    return replace(cluster, screens=screens, forecast=_matrix_of(cluster, forecast, screens))


def _stray_row(cluster):
    return replace(cluster, forecast=_matrix_of(cluster, {**cluster.forecast.entries, (7, 1, 1): 3000}))


def _unknown_film_config(cluster):
    """``cluster`` with a configuration, and its forecast, of a film the cluster does not have."""
    cluster = replace(cluster, configurations=cluster.configurations + (ShowtimeConfiguration(9, 1, (720,)),))
    return replace(cluster, forecast=_matrix_of(cluster, {**cluster.forecast.entries, (1, 9, 1): 3000}))


def _matrix_of(cluster, entries, screens=None):
    """``entries`` as a forecast matrix over the cluster's (or ``screens``') screens and configurations."""
    screens = cluster.screens if screens is None else screens
    return support.forecast_matrix(
        [s.screen_id for s in screens], [c.key() for c in cluster.configurations], entries
    )


@pytest.mark.parametrize(
    "wrap", [lambda cluster: cluster, lambda cluster: MultiClusterInstance(cluster.clusters)], ids=["cluster", "multi"]
)
@pytest.mark.parametrize(
    "spoil, line",
    [
        (lambda cluster: _shift_screens(cluster, -1), "bad_screen_id: screen id 0 must be positive"),
        # a screen the cluster does not have is named by the id the row holds
        (_stray_row, "unknown_screen: forecast entry (screen 7, film 1, config 1) references an unknown screen"),
        (
            lambda cluster: replace(cluster, locations=cluster.locations * 2),
            "duplicate_location_id: location id 1 appears more than once",
        ),
        (lambda cluster: replace(cluster, films=cluster.films * 2), "duplicate_film_id: film id 1 appears more than once"),
        (_unknown_film_config, "unknown_film: film 9 config 1 references an unknown film"),
    ],
    ids=["zero-screen", "stray-row", "duplicate-location", "duplicate-film", "unknown-film-config"],
)
def test_hand_built_cluster_violations(wrap, spoil, line):
    cluster = spoil(support.matrix_instance([[5]]))
    assert [str(v) for v in validate_instance(wrap(cluster))] == [line]


@pytest.mark.parametrize(
    "spoil, lines",
    [
        (
            lambda cluster: MultiClusterInstance((cluster, cluster)),
            [
                "duplicate_cluster_id: cluster id 't' appears more than once",
                "duplicate_screen_id: screen ids are not globally unique across clusters",
            ],
        ),
        (
            lambda cluster: replace(cluster, locations=()),
            [
                "no_locations: cluster 't' has no locations",
                "screen_outside_cluster: screen 1 references location 1 outside cluster 't'",
            ],
        ),
        (
            lambda cluster: replace(cluster, locations=(replace(cluster.locations[0], cluster_id="u"),)),
            ["location_outside_cluster: location 1 belongs to cluster 'u', not 't'"],
        ),
        (
            lambda cluster: replace(cluster, locations=(replace(cluster.locations[0], open_time=-1),)),
            ["time_out_of_range: location 1: time -1 out of range"],
        ),
    ],
    ids=["repeated-cluster", "no-locations", "foreign-location", "time-before-midnight"],
)
def test_hand_built_instance_violations(spoil, lines):
    instance = spoil(support.matrix_instance([[5]]))
    assert [str(v) for v in validate_instance(instance)] == lines


@pytest.mark.parametrize(
    "spoil, line",
    [
        # cluster b's screens 3 and 4 become 1 and 2, cluster a's ids
        (lambda a, b: (a, _shift_screens(b, -2)),
         "duplicate_screen_id: screen ids are not globally unique across clusters"),
        (lambda a, b: (replace(a, screens=a.screens[:1] + a.screens), b),
         "duplicate_screen_id: screen id 1 appears more than once"),
    ],
    ids=["across-clusters", "within-a-cluster"],
)
def test_a_repeated_screen_id_is_reported_once(spoil, line):
    multi = load_instance(two_cluster_document())
    assert validate_instance(multi) == []
    spoiled = MultiClusterInstance(spoil(*multi.clusters))
    assert [str(v) for v in validate_instance(spoiled)] == [line]


def test_format_errors():
    base = support.matrix_document([[5]])

    doc = copy.deepcopy(base)
    del doc["locations"]
    with pytest.raises(InstanceFormatError):
        load_instance(doc)

    doc = copy.deepcopy(base)
    doc["locations"][0]["open_time"] = "sometime"
    with pytest.raises(InstanceFormatError):
        load_instance(doc)

    doc = copy.deepcopy(base)
    doc["forecast"][0]["attendance"] = "much"
    with pytest.raises(InstanceFormatError):
        load_instance(doc)

    with pytest.raises(InstanceFormatError):
        load_instance(["not", "an", "object"])


def test_missing_forecast_needs_allow_partial():
    doc = support.matrix_document([[5]])
    del doc["forecast"]
    with pytest.raises(InstanceFormatError):
        load_instance(doc)
    partial = load_instance(doc, allow_partial=True)
    assert partial.forecast.entries == {}


def test_missing_configurations_are_generated():
    doc = support.matrix_document([[5]])
    del doc["configurations"]
    del doc["forecast"]
    instance = load_instance(doc, allow_partial=True)
    # 90 minute film, 30 minute stagger: three offsets of a 90 minute cycle
    assert [c.showtimes[0] for c in instance.configurations] == [720, 750, 780]


def test_load_from_file(tmp_path):
    doc = support.matrix_document([[5]])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    instance = load_instance(path)
    assert instance.screen_count == 1

    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError):
        load_instance(bad)


def test_fractional_attendance_survives_round_trip():
    doc = support.matrix_document([[5]])
    doc["forecast"][0]["attendance"] = 226.5
    instance = load_instance(json.loads(json.dumps(doc), parse_float=Decimal))
    assert instance.forecast.get(1, 1, 1) == 226500
    out = json.loads(dumps_instance(instance))
    assert out["forecast"][0]["attendance"] == 226.5


def test_dumps_instance_refuses_rows_outside_the_matrix():
    # only an unvalidated parse keeps such a row, and the writer writes the matrix alone
    doc = support.matrix_document([[5]])
    doc["forecast"].append({"screen_id": 1, "film_id": 1, "config_index": 9, "attendance": 3})
    multi = parse_document(doc)
    assert [r for c in multi.clusters for r in c.forecast.stray_rows] == [(1, 1, 9, 3000)]
    with pytest.raises(ValueError) as err:
        dumps_instance(multi)
    assert str(err.value) == (
        "forecast entry (screen 1, film 1, config 9) is outside cluster 't''s screens and"
        " configurations; only rows of its forecast matrix serialize"
    )


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(
            lambda a, b: (a, replace(b, stagger_interval_minutes=15)),
            "cannot serialize clusters with different stagger intervals into one document",
            id="stagger",
        ),
        pytest.param(
            lambda a, b: (a, replace(b, films=b.films + a.films[:1])),
            "film 1 plays in 2 of 3 clusters; only global or single-cluster films serialize",
            id="film-in-some-clusters",
        ),
    ],
)
def test_dumps_instance_refuses_clusters_that_share_no_document(spoil, message):
    first, second, third = support.load_multi(support.random_multi_document(random.Random(1), clusters=3)).clusters
    with pytest.raises(ValueError) as err:
        dumps_instance(MultiClusterInstance((*spoil(first, second), third)))
    assert str(err.value) == message


def test_entries_may_be_dict_subclasses(example_document):
    # a block's entry types are compared in one pass first; a subclass takes the item-by-item check
    doc = {
        key: list(map(OrderedDict, value)) if type(value) is list else value
        for key, value in example_document.items()
    }
    assert load_instance(doc) == load_instance(example_document)


def test_load_instance_refuses_a_negative_turnover():
    doc = support.matrix_document([[5]])
    del doc["configurations"]
    with pytest.raises(ValueError) as err:
        load_instance(doc, turnover_minutes=-1)
    assert not isinstance(err.value, InstanceError)
    assert str(err.value) == "turnover must be >= 0, got -1"


def test_parse_document_without_validation():
    doc = support.matrix_document([[5]])
    doc["configurations"][0]["showtimes"] = ["14:00", "13:00"]
    multi = parse_document(doc)
    codes = {v.code for v in validate_instance(multi)}
    assert codes == {"non_increasing_showtimes"}


def one_screen_cluster(cluster_id, screen_id, window, showtimes):
    """A cluster of one screen, open over ``window`` (HH:MM pair), whose film 1
    plays each of ``showtimes`` as configurations 1, 2, ..., every cell forecast."""
    configs = tuple(ShowtimeConfiguration(1, index, times) for index, times in enumerate(showtimes, start=1))
    return ClusterInstance(
        cluster_id=cluster_id,
        locations=(Location(screen_id, "Hall", cluster_id, *map(parse_hhmm, window)),),
        screens=(Screen(screen_id, screen_id),),
        films=(Film(1, "Shared", 90),),
        configurations=configs,
        stagger_interval_minutes=30,
        forecast=support.forecast_matrix(
            [screen_id], [c.key() for c in configs], {(screen_id, *c.key()): 5 * MILLI for c in configs}
        ),
    )


def test_a_shared_showtime_list_is_checked_against_each_clusters_window():
    times = (parse_hhmm("12:00"), parse_hhmm("15:00"))
    inside = one_screen_cluster("a", 1, ("10:00", "22:00"), [times, times])
    outside = one_screen_cluster("b", 2, ("13:00", "22:00"), [times, times])
    assert validate_instance(inside) == []
    assert [str(v) for v in validate_instance(MultiClusterInstance((inside, outside)))] == [
        f"showtime_outside_window: film 1 config {index}: showtime 12:00 is outside the cluster window 13:00..22:00"
        for index in (1, 2)
    ]


@pytest.mark.parametrize(
    "times, codes",
    [
        (["12:00", "15:00"], []),
        ([], ["empty_configuration"]),
        (["15:00", "12:00"], ["non_increasing_showtimes"]),
        (["09:00", "12:00"], ["showtime_outside_window"]),
    ],
    ids=["fine", "empty", "non-increasing", "outside"],
)
def test_a_showtime_list_validates_as_its_tuple(times, codes):
    as_list, as_tuple = (
        one_screen_cluster("a", 1, ("10:00", "22:00"), [kind(map(parse_hhmm, times))]) for kind in (list, tuple)
    )
    assert [v.code for v in validate_instance(as_tuple)] == codes
    assert validate_instance(as_list) == validate_instance(as_tuple)


def two_cluster_document():
    """Clusters a (screens 101-102, film 1) and b (screens 103-104, film 2), two configs each."""
    doc = support.matrix_document([[5, 6], [7, 8]], cluster_id="a", first_screen=101, scoped_films=True)
    b = support.matrix_document(
        [[1, 2], [3, 4]], cluster_id="b", first_location=2, first_screen=103, first_film=2, scoped_films=True
    )
    for key in ("locations", "screens", "films", "configurations", "forecast"):
        doc[key].extend(b[key])
    return doc


def row(screen_id, film_id, config_index=1, attendance=1):
    return {"screen_id": screen_id, "film_id": film_id, "config_index": config_index, "attendance": attendance}


def set_first_row(key, value):
    return lambda d: d["forecast"][0].__setitem__(key, value)


def drop_first_row_key(key):
    return lambda d: d["forecast"][0].pop(key)


def append_rows(*rows):
    return lambda d: d["forecast"].extend(rows)


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        pytest.param(
            set_first_row("screen_id", True), InstanceFormatError,
            "forecast screen_id: expected an integer, got True", id="bool-screen-id",
        ),
        pytest.param(
            set_first_row("film_id", "1"), InstanceFormatError,
            "forecast film_id: expected an integer, got '1'", id="string-film-id",
        ),
        pytest.param(
            set_first_row("config_index", False), InstanceFormatError,
            "forecast config_index: expected an integer, got False", id="bool-config-index",
        ),
        pytest.param(
            drop_first_row_key("screen_id"), InstanceFormatError,
            "forecast entry: missing key 'screen_id'", id="missing-screen-id",
        ),
        pytest.param(
            drop_first_row_key("attendance"), InstanceFormatError,
            "forecast entry (screen 101, film 1, config 1): missing key 'attendance'", id="missing-attendance",
        ),
        pytest.param(
            append_rows(row(999, 1)), InstanceDataError,
            "unknown_screen: forecast entry (screen 999, film 1, config 1) references an unknown screen",
            id="unknown-screen",
        ),
        pytest.param(
            append_rows(row(101, 77)), InstanceDataError,
            "unknown_film: forecast entry (screen 101, film 77, config 1) references an unknown film",
            id="unknown-film",
        ),
        pytest.param(
            append_rows(row(103, 2, 2)), InstanceDataError,
            "duplicate_forecast_entry: forecast entry (screen 103, film 2, config 2) appears more than once",
            id="duplicate-row",
        ),
        # the diagnostic names the document's screen id, like every other forecast diagnostic
        pytest.param(
            append_rows(row(104, 1), row(101, 2)), InstanceDataError,
            "unknown_film: forecast entry (screen 104, film 1, config 1)"
            " pairs a screen with a film outside its cluster",
            id="outside-cluster",
        ),
        # rows are parsed to the end before an outside-cluster row is reported
        pytest.param(
            append_rows(row(104, 1), row(101, 1, 2)), InstanceDataError,
            "duplicate_forecast_entry: forecast entry (screen 101, film 1, config 2) appears more than once",
            id="duplicate-after-outside-cluster",
        ),
        pytest.param(
            append_rows(row(104, 1), row(101, 1, 3, attendance="many")), InstanceFormatError,
            "bad attendance value 'many' in forecast entry (screen 101, film 1, config 3)",
            id="bad-attendance-after-outside-cluster",
        ),
    ],
)
def test_parse_document_forecast_errors(mutate, error, message):
    doc = two_cluster_document()
    mutate(doc)
    with pytest.raises(InstanceError) as err:
        parse_document(doc)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("clusters", range(1, 17))
def test_forecast_rows_go_to_their_screens_cluster(clusters):
    rng = random.Random(clusters)
    doc = generate_document(rng.randint(1, 5), rng.randint(1, 3), clusters=clusters, seed=clusters)
    # one unscoped film besides the per-cluster ones (synth scopes films only with > 1 cluster)
    film_id = max(f["id"] for f in doc["films"]) + 1
    doc["films"].append({"id": film_id, "title": "Everywhere", "runtime_minutes": 90})
    doc["configurations"].append({"film_id": film_id, "config_index": 1, "showtimes": ["12:00"]})
    doc["forecast"].extend(row(s["id"], film_id, attendance=rng.randint(0, 9)) for s in doc["screens"])
    rng.shuffle(doc["forecast"])

    multi = parse_document(doc)
    internal = {s["id"]: position for position, s in enumerate(doc["screens"], start=1)}
    assert len(multi.clusters) == clusters
    for cluster in multi.clusters:
        screen_ids = {s.screen_id for s in cluster.screens}
        expected = [
            ((internal[r["screen_id"]], r["film_id"], r["config_index"]), r["attendance"] * MILLI)
            for r in doc["forecast"]
            if internal[r["screen_id"]] in screen_ids
        ]
        # the matrix lists its cells in (screen, film, config) order
        assert list(cluster.forecast.entries.items()) == sorted(expected)
        assert film_id in {f.film_id for f in cluster.films}


def test_parse_attendance_one_rule_for_every_form():
    # a sub-milliunit value must not underflow or round onto a milliunit
    for bad in ["1e-999999999", Decimal("1e-4"), "1.00000000000000000000000000001"]:
        with pytest.raises(InstanceFormatError, match="has more than 3 decimal places$"):
            parse_attendance(bad)
    # integers share the decimals' magnitude bound
    for bad in [ATTENDANCE_LIMIT, -ATTENDANCE_LIMIT, 10**5000]:
        with pytest.raises(InstanceFormatError, match="^bad attendance value "):
            parse_attendance(bad)
    assert parse_attendance(ATTENDANCE_LIMIT - 1) == (ATTENDANCE_LIMIT - 1) * MILLI
    assert parse_attendance("0e-999999999") == 0
    assert parse_attendance("0.0010") == 1


def test_parse_document_bounds_integer_attendance():
    doc = support.matrix_document([[5, 6]])
    doc["forecast"][1]["attendance"] = ATTENDANCE_LIMIT
    with pytest.raises(InstanceFormatError) as err:
        parse_document(doc)
    assert str(err.value) == (
        "bad attendance value (an integer of magnitude 10**18 or more)"
        " in forecast entry (screen 1, film 1, config 2)"
    )
    doc["forecast"][1]["attendance"] = ATTENDANCE_LIMIT - 1
    assert parse_document(doc).clusters[0].forecast.get(1, 1, 2) == (ATTENDANCE_LIMIT - 1) * MILLI


# text reaching past ASCII: accents, control characters, lone surrogates, astral planes
json_text = st.text(st.characters(max_codepoint=0x1F600, blacklist_categories=()), max_size=6)
json_scalars = st.none() | st.booleans() | st.integers() | json_text
ROW_KEYS = ["screen_id", "film_id", "attendance", "%s", "caf\u00e9", "line\nbreak", ""]
# flat rows of a few shared keys in varying orders, some holding a nested list
flat_rows = st.lists(
    st.dictionaries(
        st.sampled_from(ROW_KEYS),
        json_scalars | st.lists(json_scalars, max_size=2),
        max_size=4,
    ),
    max_size=6,
)
json_values = st.recursive(
    json_scalars | flat_rows,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_text, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(value=json_values)
@example(value=[])
@example(value={})
@example(value={"": [{}, [], {"a": []}]})
@example(value=[True, 1, False, 0, None, -1])
@example(value=[{"a": 1, "b": True}, {"b": 2, "a": "x"}, {"a": 1, "b": [2]}, {"a": 3, "b": 4}])
@example(value={"\x00\u2028\ud800\U0001f600": "\x1f\"\\/\u00e9"})
def test_dumps_json_matches_indented_json_dumps(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


def test_dumps_json_decimals_and_other_types():
    rows = [{"id": 1, "attendance": Decimal("226.5")}, {"id": 2, "attendance": Decimal("0.001")}]
    assert dumps_json(rows) == (
        '[\n  {\n    "id": 1,\n    "attendance": 226.5\n  },'
        '\n  {\n    "id": 2,\n    "attendance": 0.001\n  }\n]'
    )
    for bad in [1.5, {1: "int key"}, [{"a": {1, 2}}], (1, ()), object()]:
        with pytest.raises(TypeError):
            dumps_json(bad)


@pytest.mark.parametrize("showtimes", [(), (0,), (720, 930, MAX_MINUTES)])
def test_json_array_lays_out_a_nested_list(showtimes):
    texts = [format_hhmm(t) for t in showtimes]
    items = [f'\n    "{t}"' for t in texts]
    # nested, so the list's own indent is not the top level's
    assert dumps_json({"showtimes": texts}) == '{\n  "showtimes": ' + json_array(items, "\n  ") + "\n}"


@pytest.mark.parametrize("clusters", range(1, 17))
def test_dumps_instance_matches_indented_json_dumps(clusters, example_instance):
    rng = random.Random(clusters)
    doc = generate_document(rng.randint(1, 6), rng.randint(1, 4), clusters=clusters, seed=clusters)
    if clusters % 2:
        del doc["configurations"]
    for instance in (load_instance(doc), example_instance):
        assert dumps_instance(instance) == json.dumps(serialize_instance(instance), indent=2) + "\n"


def test_dumps_instance_writes_empty_blocks_as_dumps_json_does(example_instance):
    bare = replace(example_instance, configurations=(), forecast=example_instance.forecast.with_columns(()))
    text = dumps_instance(bare)
    assert text.endswith('\n  "configurations": [],\n  "forecast": []\n}\n')
    assert text == dumps_json(support.reference_document(bare)) + "\n"


EXTREME_MILLI = [
    12345678901234567500,       # 12345678901234567.5: past float's 17 digits
    99999999999999999,          # 99999999999999.999: float rounds it up to a whole number
    ATTENDANCE_LIMIT * MILLI - 1,  # 999999999999999999.999, the largest value accepted
    1,                          # 0.001, the smallest fraction
    5 * 10**18 + 7,             # inside the 5e15..1e16 reproducer range
    0,
]


@settings(max_examples=200, deadline=None)
@given(milli=st.lists(st.integers(0, ATTENDANCE_LIMIT * MILLI - 1), min_size=2, max_size=2))
@example(milli=EXTREME_MILLI[:2])
@example(milli=EXTREME_MILLI[2:4])
@example(milli=EXTREME_MILLI[4:])
def test_dumps_instance_round_trips_exact_attendance(milli):
    doc = support.matrix_document([[5, 6], [7, 8]])
    for row, value in zip(doc["forecast"], milli):
        row["attendance"] = Decimal(format_attendance(value))
    instance = load_instance(doc)
    assert [instance.forecast.get(1, 1, c) for c in (1, 2)] == milli
    assert load_instance(json.loads(dumps_instance(instance), parse_float=Decimal)) == instance


# names past ASCII, but no lone surrogates: JSON text joins two adjacent ones into one character
names = st.text(st.characters(max_codepoint=0x1F600, blacklist_categories=("Cs",)), max_size=6)
# zero, negative, fractional and the largest accepted magnitude, besides any other milliunits
milli_values = st.sampled_from([0, -1, 1, 226500, -226500, ATTENDANCE_LIMIT * MILLI - 1]) | st.integers(
    -(ATTENDANCE_LIMIT * MILLI - 1), ATTENDANCE_LIMIT * MILLI - 1
)


@st.composite
def hand_built_instances(draw):
    """1-4 clusters built without the loader: screen ids that are not file
    positions, films shared by every cluster or scoped to one, and empty or
    partial forecasts."""
    count = draw(st.integers(1, 4))
    cluster_ids = draw(st.lists(names.filter(bool), min_size=count, max_size=count, unique=True))
    screens_per_cluster = [draw(st.integers(0, 3)) for _ in range(count)]
    positions = draw(st.permutations(range(1, sum(screens_per_cluster) + 1)))
    external_ids = draw(
        st.lists(st.integers(1, 10**9), min_size=len(positions), max_size=len(positions), unique=True)
    )
    film_ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True))
    location_ids = iter(
        draw(st.lists(st.integers(1, 10**6), min_size=2 * count, max_size=2 * count, unique=True))
    )

    films_of = [[] for _ in range(count)]
    configs_of = [[] for _ in range(count)]
    for film_id in film_ids:
        film = Film(film_id, draw(names), draw(st.integers(1, 300)))
        configs = [
            ShowtimeConfiguration(
                film_id,
                index,
                tuple(sorted(draw(st.sets(st.integers(0, MAX_MINUTES), min_size=1, max_size=4)))),
            )
            for index in range(1, draw(st.integers(1, 3)) + 1)
        ]
        owners = range(count) if draw(st.booleans()) else [draw(st.integers(0, count - 1))]
        for k in owners:
            films_of[k].append(film)
            configs_of[k].extend(configs)

    clusters = []
    screen_ids = iter(zip(positions, external_ids))
    for k, cluster_id in enumerate(cluster_ids):
        locations = []
        for _ in range(draw(st.integers(1, 2))):
            window = sorted(draw(st.lists(st.integers(0, MAX_MINUTES), min_size=2, max_size=2)))
            locations.append(Location(next(location_ids), draw(names), cluster_id, *window))
        screens = tuple(
            Screen(position, draw(st.sampled_from(locations)).location_id, external)
            for position, external in (next(screen_ids) for _ in range(screens_per_cluster[k]))
        )
        cells = [(s.screen_id, *c.key()) for s in screens for c in configs_of[k]]
        keys = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
        clusters.append(
            ClusterInstance(
                cluster_id=cluster_id,
                locations=tuple(locations),
                screens=screens,
                films=tuple(films_of[k]),
                configurations=tuple(draw(st.permutations(configs_of[k]))),
                stagger_interval_minutes=30,
                forecast=support.forecast_matrix(
                    [s.screen_id for s in screens],
                    [c.key() for c in configs_of[k]],
                    {key: draw(milli_values) for key in keys},
                ),
            )
        )
    if count == 1 and draw(st.booleans()):
        return clusters[0]
    return MultiClusterInstance(clusters=tuple(clusters))


@settings(max_examples=300, deadline=None)
@given(instance=hand_built_instances())
def test_dumps_instance_writes_the_reference_document(instance):
    reference = support.reference_document(instance)
    assert dumps_instance(instance) == dumps_json(reference) + "\n"
    # the same values of the same types, Decimal where fractional
    assert repr(serialize_instance(instance)) == repr(reference)


# values a typed fast path must send back to the checking code
_BAD_IDS = ["7", True, False, 1.0, Decimal("1"), None]


@st.composite
def mutated_synth_documents(draw):
    """``synth`` documents of 1-6 clusters, valid or spoiled: shuffled rows,
    fractional attendance, omitted configurations, and negative, duplicate,
    missing, unknown-configuration and other-cluster-film rows, rows with a
    mistyped id or attendance and rows missing a key, alone or together."""
    clusters = draw(st.integers(1, 6))
    doc = generate_document(
        draw(st.integers(1, 4)), draw(st.integers(1, 3)), clusters=clusters,
        seed=draw(st.integers(0, 10**6)), coeff_range=draw(st.sampled_from([(0, 9), (200, 299)])),
    )
    rows = doc["forecast"]

    def some_rows(most):
        """Up to ``most`` row indices, none three times in four."""
        if not draw(st.sampled_from([False, False, False, True])):
            return []
        return draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=most))

    for i in some_rows(3):
        rows[i]["attendance"] = Decimal(rows[i]["attendance"]) + Decimal(draw(st.sampled_from(["0.5", "0.001"])))
    if draw(st.booleans()):
        del doc["configurations"]
        if draw(st.integers(0, 5)) == 0:
            doc["films"][-1]["runtime_minutes"] = 0      # generation fails
    for i in some_rows(3):
        rows[i]["attendance"] = -draw(st.integers(1, 9))
    for i in some_rows(2):
        rows.append(dict(rows[i]))                      # duplicate
    for i in some_rows(2):
        rows.append({**rows[i], "config_index": draw(st.sampled_from([0, 50, 99]))})
    if clusters > 1:
        for i in some_rows(2):
            rows.append({**rows[i], "film_id": draw(st.sampled_from(doc["films"]))["id"]})
    # rows the subscript path must hand to the checking code
    for i in some_rows(2):
        rows[i][draw(st.sampled_from(["screen_id", "film_id", "config_index"]))] = draw(st.sampled_from(_BAD_IDS))
    for i in some_rows(2):
        rows[i]["attendance"] = draw(st.sampled_from([True, "5", Decimal("5"), None, [5], 10**18]))
    for i in some_rows(2):
        rows[i].pop(draw(st.sampled_from(["screen_id", "film_id", "config_index", "attendance"])), None)
    for i in sorted(set(some_rows(3)), reverse=True):
        del rows[i]                                     # missing
    if draw(st.booleans()):
        draw(st.randoms()).shuffle(rows)
    return doc


def matrix_load(doc: dict, allow_partial: bool = False, turnover_minutes: int = 0):
    """What the matrix loader gives for ``doc``, in the form of ``support.reference_load``."""
    try:
        multi = parse_document(doc, allow_partial=allow_partial, turnover_minutes=turnover_minutes)
    except (InstanceError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    lines = [str(v) for v in validate_instance(multi, check_forecast=not allow_partial)]
    if lines:
        return ("invalid", lines)
    models = None if allow_partial else [
        (m.screen_ids, m.column_keys, m.weights) for m in map(build_model, multi.clusters)
    ]
    return ("ok", models, dumps_instance(multi))


@settings(max_examples=250, deadline=None)
@given(doc=mutated_synth_documents(), partial=st.booleans(), turnover=st.sampled_from([0, 20]))
def test_matrix_loader_matches_the_dict_reference(doc, partial, turnover):
    if partial and turnover:
        doc.pop("forecast")
    expected = support.reference_load(doc, partial, turnover)
    assert matrix_load(copy.deepcopy(doc), partial, turnover) == expected


_BAD_TIMES = [720, None, True, " 12:00", "12:00 ", "1200", "28:00", "12:60", "１２:00"]


@st.composite
def mutated_block_documents(draw):
    """``synth`` documents of 1-6 clusters with 1-3 edits to the locations,
    screens, films and configurations blocks: a mistyped id, an int cluster
    id, a missing key, a bad time or showtimes entry, a bad time in a list
    several configurations share, or a duplicated configuration."""
    clusters = draw(st.integers(1, 6))
    doc = generate_document(
        draw(st.integers(1, 4)), draw(st.integers(1, 3)), clusters=clusters, seed=draw(st.integers(0, 10**6)),
    )
    configs = doc["configurations"]

    def pick(block):
        return draw(st.sampled_from(doc[block]))

    kinds = draw(st.lists(st.sampled_from(
        ["id", "cluster", "missing", "location time", "showtime", "entry", "shared", "duplicate"]
    ), min_size=1, max_size=3))
    # keys are deleted last, so every other edit finds its block
    for kind in sorted(kinds, key=lambda kind: kind == "missing"):
        if kind == "id":
            block, key = draw(st.sampled_from([
                ("locations", "id"), ("screens", "id"), ("screens", "location_id"), ("films", "id"),
                ("films", "runtime_minutes"), ("configurations", "film_id"), ("configurations", "config_index"),
            ]))
            pick(block)[key] = draw(st.sampled_from(_BAD_IDS))
        elif kind == "cluster":
            block = draw(st.sampled_from(["locations", "films"]))
            pick(block)["cluster_id"] = draw(st.sampled_from([0, 1, 2, True]))
        elif kind == "missing":
            block = draw(st.sampled_from(["document", "locations", "screens", "films", "configurations"]))
            # an earlier "missing" edit may have deleted the whole block
            entry = doc if block == "document" else (pick(block) if doc.get(block) else None)
            if entry:
                del entry[draw(st.sampled_from(sorted(entry)))]
        elif kind == "location time":
            pick("locations")[draw(st.sampled_from(["open_time", "last_showtime"]))] = draw(st.sampled_from(_BAD_TIMES))
        elif kind == "showtime":
            times = pick("configurations")["showtimes"]
            times[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from(_BAD_TIMES))
        elif kind == "entry":
            times = pick("configurations")["showtimes"]
            times[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from([["12:00"], {}, {"at": "12:00"}]))
        elif kind == "shared":
            times = list(pick("configurations")["showtimes"])
            times[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from(_BAD_TIMES))
            for index in draw(st.lists(st.integers(0, len(configs) - 1), min_size=1, max_size=4)):
                configs[index]["showtimes"] = times if draw(st.booleans()) else list(times)
        else:
            configs.insert(draw(st.integers(0, len(configs))), copy.deepcopy(pick("configurations")))
    return doc


def _parsed(parse, doc, partial, turnover):
    try:
        return parse(copy.deepcopy(doc), allow_partial=partial, turnover_minutes=turnover)
    except (InstanceError, ValueError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=250, deadline=None)
@given(doc=mutated_block_documents(), partial=st.booleans(), turnover=st.sampled_from([0, 20]))
def test_parse_document_matches_the_field_by_field_reference(doc, partial, turnover):
    expected = _parsed(support.reference_parse_document, doc, partial, turnover)
    assert _parsed(parse_document, doc, partial, turnover) == expected
