import copy
import csv
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from support import replace
from decimal import Decimal
from pathlib import Path

import pytest

import support
from cinestagger import (
    build_joint_model,
    build_model,
    dumps_instance,
    export_lp_text,
    load_instance,
    solve_all,
)
from cinestagger.cli import build_parser, main
from cinestagger.domain import dumps_json
from cinestagger.formulation import direct_sum
from cinestagger.synth import generate_document


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def infeasible_path(tmp_path):
    return write_doc(tmp_path, support.matrix_document([[5], [4]]))


def test_validate_ok(example_path, capsys):
    assert main(["validate", str(example_path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_violations(tmp_path, capsys):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["screens"].append({"id": 1, "location_id": 1})
    assert main(["validate", write_doc(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "duplicate_screen_id" in out
    assert len(out.strip().splitlines()) == 1


def test_validate_missing_file(capsys):
    assert main(["validate", "definitely_not_here.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# strings of other scripts' digits or with underscores, which Decimal() reads as numbers
@pytest.mark.parametrize("attendance", ["Infinity", "-Infinity", "NaN", '"Infinity"', '"١٢"', '"１２"', '"1_000"'])
def test_validate_non_finite_attendance(tmp_path, capsys, attendance):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["forecast"][1]["attendance"] = "@"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc).replace('"@"', attendance), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad attendance value ")
    assert len(err.splitlines()) == 1


def test_validate_huge_attendance(tmp_path, capsys):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["forecast"][1]["attendance"] = "1e999990"
    assert main(["validate", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad attendance value '1e999990' in forecast entry (screen 1, film 1, config 2)\n"


@pytest.mark.parametrize("attendance", ["1e1000000", '"1e1000000"', "-1e999999999"])
def test_validate_attendance_past_decimal_emax(tmp_path, capsys, attendance):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["forecast"][1]["attendance"] = "@"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc).replace('"@"', attendance), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad attendance value ")
    assert len(err.splitlines()) == 1


def test_validate_integer_past_digit_limit(tmp_path, capsys):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["forecast"][1]["attendance"] = "@"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc).replace('"@"', "9" * 5000), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_validate_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"locations": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid JSON" in err
    assert len(err.splitlines()) == 1


def _renumber(doc, key, old, new):
    """Each ``key`` ("screen_id", "film_id" or "config_index") equal to ``old``
    set to ``new``, in the configurations and the forecast, and in the screens
    or films for their own id."""
    owners = {"screen_id": "screens", "film_id": "films"}
    for entry in doc.get(owners.get(key), ()):
        entry["id"] = new if entry["id"] == old else entry["id"]
    for entry in doc["configurations"] + doc["forecast"]:
        if key in entry:
            entry[key] = new if entry[key] == old else entry[key]


def _set_first(block, key, value):
    return lambda doc: doc[block][0].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, lines",
    [
        pytest.param(
            lambda d: _renumber(d, "film_id", 1, 0), ["bad_film_id: film id 0 must be positive"], id="film-0",
        ),
        # a loaded screen's own id is its position in the document, so the document's id is checked
        pytest.param(
            lambda d: _renumber(d, "screen_id", 1, 0), ["bad_screen_id: screen id 0 must be positive"],
            id="screen-0",
        ),
        pytest.param(
            lambda d: _renumber(d, "screen_id", 1, -3), ["bad_screen_id: screen id -3 must be positive"],
            id="screen-minus-3",
        ),
        pytest.param(
            lambda d: d["configurations"].append(dict(d["configurations"][1])),
            ["duplicate_config_index: film 1 config 2 appears more than once"],
            id="repeated-config",
        ),
        pytest.param(
            lambda d: _renumber(d, "config_index", 2, 0),
            ["bad_config_index: film 1 config 0: config index must be positive"],
            id="config-0",
        ),
        pytest.param(
            _set_first("configurations", "showtimes", []),
            ["empty_configuration: film 1 config 1 has no showtimes"],
            id="no-showtimes",
        ),
        pytest.param(
            _set_first("locations", "cluster_id", ""),
            ["empty_cluster_id: cluster id is empty", "empty_cluster_id: location 1 has an empty cluster id"],
            id="empty-cluster-id",
        ),
        pytest.param(
            _set_first("configurations", "film_id", 99),
            ["unknown_film: configuration 1 references unknown film 99"],
            id="unknown-film",
        ),
        pytest.param(lambda d: d.__setitem__("locations", []), ["no_locations: document defines no locations"], id="no-locations"),
    ],
)
def test_validate_lists_each_violation(tmp_path, capsys, mutate, lines):
    doc = support.matrix_document([[5, 6], [7, 8]])
    mutate(doc)
    assert main(["validate", write_doc(tmp_path, doc)]) == 1
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize(
    "mutate, line",
    [
        pytest.param(lambda d: d.__setitem__("screens", {}), "screens: expected a list, got dict", id="not-a-list"),
        pytest.param(
            lambda d: d["screens"].__setitem__(0, 1), "screens: entries must be objects", id="not-an-object",
        ),
        pytest.param(
            _set_first("configurations", "showtimes", "12:00"),
            "film 1 config 1 showtimes: expected a list, got str",
            id="showtimes-not-a-list",
        ),
        pytest.param(
            _set_first("films", "title", 7), "film 1 title: expected a string, got 7", id="title-not-a-string",
        ),
        pytest.param(
            _set_first("locations", "cluster_id", True), "location 1: bad cluster_id True", id="bool-cluster-id",
        ),
        pytest.param(
            _set_first("locations", "open_time", "١٢:00"), 'bad time \'١٢:00\': expected "HH:MM"',
            id="arabic-indic-time",
        ),
        pytest.param(
            _set_first("forecast", "screen_id", "1"), "forecast screen_id: expected an integer, got '1'",
            id="string-screen-id",
        ),
        pytest.param(
            _set_first("forecast", "film_id", True), "forecast film_id: expected an integer, got True", id="bool-film-id",
        ),
        pytest.param(
            lambda d: d["forecast"][0].pop("config_index"), "forecast entry: missing key 'config_index'",
            id="missing-config-index",
        ),
        # a JSON number that is not an integer loads as a Decimal and is printed as a number
        pytest.param(
            _set_first("forecast", "screen_id", 1.5), "forecast screen_id: expected an integer, got 1.5",
            id="fractional-screen-id",
        ),
        pytest.param(
            _set_first("films", "title", 2.5), "film 1 title: expected a string, got 2.5", id="number-title",
        ),
        pytest.param(
            _set_first("locations", "cluster_id", 30.0), "location 1: expected a string, got 30.0",
            id="fractional-cluster-id",
        ),
        pytest.param(
            lambda d: d["forecast"][1].__setitem__("attendance", 1e18),
            "bad attendance value 1E+18 in forecast entry (screen 1, film 1, config 2)",
            id="attendance-past-limit",
        ),
    ],
)
def test_validate_rejects_a_malformed_document(tmp_path, capsys, mutate, line):
    doc = support.matrix_document([[5, 6], [7, 8]])
    mutate(doc)
    assert main(["validate", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_an_integer_cluster_id_loads_and_is_written_as_a_string(tmp_path, capsys):
    doc = support.matrix_document([[5, 6], [7, 8]])
    doc["locations"][0]["cluster_id"] = 7
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == ("ok\n", "")
    assert main(["generate-configs", path]) == 0
    assert json.loads(capsys.readouterr().out)["locations"][0]["cluster_id"] == "7"


@pytest.mark.parametrize(
    "attendance",
    ["12345678901234567.5", "99999999999999.999", "999999999999999999.999", "0.001", "7234567890123456"],
)
def test_solve_json_objective_is_exact(tmp_path, capsys, attendance):
    doc = support.matrix_document([[0]])
    doc["forecast"][0]["attendance"] = "@"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc).replace('"@"', attendance), encoding="utf-8")
    assert main(["solve", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count(f'"objective": {attendance},') == 2
    assert json.loads(out, parse_float=Decimal)["objective"] == Decimal(attendance)


def test_solve_table(example_path, capsys):
    assert main(["solve", str(example_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split() == ["Screen", "Location", "Film", "Configuration", "Showtimes"]
    assert len(lines) == 1 + 9 + 1
    assert lines[-1] == "Objective: 2615"
    assert lines[1].startswith("1")
    assert "Film 5" in lines[1]
    assert "ms" in captured.err


def test_solve_csv(example_path, capsys):
    assert main(["solve", str(example_path), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["screen_id", "location", "film_id", "film_title", "config_index", "showtimes"]
    assert len(rows) == 1 + 9
    assert rows[1][0] == "1"


def test_solve_json_round_trips(example_path, capsys):
    assert main(["solve", str(example_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Optimal"
    assert doc["objective"] == 2615
    (cluster,) = doc["clusters"]
    assert cluster["certified"] is True
    rebuilt = {
        row["screen_id"]: (row["film_id"], row["config_index"])
        for row in cluster["schedule"]
    }
    report = solve_all(load_instance(example_path))
    assert rebuilt == report.per_cluster["c1"].schedule.choices


def test_solve_rejects_seed_and_parallel(example_path, capsys):
    for removed in (["--parallel"], ["--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(example_path), *removed])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_export_lp(example_path, tmp_path, capsys):
    target = tmp_path / "model.lp"
    assert main(["solve", str(example_path), "--export-lp", str(target)]) == 0
    capsys.readouterr()
    text = target.read_text(encoding="utf-8")
    assert text.startswith("\\ ")
    assert "Maximize" in text and text.rstrip().endswith("End")
    assert "226 X_s1_f1_c1" in text


def test_solve_export_lp_unwritable(example_path, tmp_path, capsys):
    assert main(["solve", str(example_path), "--export-lp", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_solve_infeasible_exit_code(infeasible_path, capsys):
    assert main(["solve", infeasible_path]) == 3
    captured = capsys.readouterr()
    assert "Status: Infeasible" in captured.out
    assert "pigeonhole" in captured.err


def test_solve_json_infeasible(infeasible_path, capsys):
    assert main(["solve", infeasible_path, "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Infeasible"
    assert doc["objective"] is None
    assert doc["clusters"] == [
        {
            "cluster_id": "t",
            "status": "Infeasible",
            "method": "assignment",
            "certified": True,
            "diagnostic": "pigeonhole: more screens (2) than film configurations (1);"
            " every screen needs its own configuration",
        }
    ]


def _merged(*parts):
    """One document of the ``matrix_document`` parts, in order."""
    doc = copy.deepcopy(parts[0])
    for part in parts[1:]:
        for key in ("locations", "screens", "films", "configurations", "forecast"):
            doc[key].extend(part[key])
    return doc


def _empty_cluster(example_document):
    # a cluster whose one location holds no screens: Optimal with nothing to schedule
    doc = copy.deepcopy(example_document)
    for location in doc["locations"]:
        location["cluster_id"] = "c1"
    doc["locations"].append(dict(doc["locations"][0], id=99, cluster_id="c0"))
    doc["films"] = [dict(film, cluster_id="c1") for film in doc["films"]]
    doc["films"].append({"id": 99, "title": "Unseen", "runtime_minutes": 90, "cluster_id": "c0"})
    doc["configurations"].append({"film_id": 99, "config_index": 1, "showtimes": ["12:00"]})
    return doc


def _awkward_names(example_document):
    doc = copy.deepcopy(example_document)
    for location in doc["locations"]:
        location["name"] = f'Hall "{location["id"]}" \\ Zoë\u2028☃'
    for film in doc["films"]:
        film["title"] = f'Film\u2028"{film["id"]}"\\ Amélie 🎬'
    return doc


def _infeasible_beside_optimal(example_document):
    return _merged(
        support.matrix_document([[5, 7], [6, 2]], cluster_id="a", scoped_films=True),
        support.matrix_document(
            [[1], [2]], cluster_id="b", first_location=2, first_screen=3, first_film=2, scoped_films=True,
        ),
    )


def _fractional(example_document):
    doc = copy.deepcopy(example_document)
    for row in doc["forecast"]:
        row["attendance"] += 0.25
    return doc


@pytest.mark.parametrize(
    "build", [_empty_cluster, _awkward_names, _infeasible_beside_optimal, _fractional]
)
def test_every_format_writes_the_reported_schedule(example_document, tmp_path, capsys, build):
    path = write_doc(tmp_path, build(example_document))
    instance = load_instance(path)
    report = solve_all(instance)
    expected = support.reference_solve_document(instance, report)
    schedules = support.reference_schedule_rows(instance, report)
    code = 0 if report.overall_status == "Optimal" else 3

    assert main(["solve", path, "--format", "json"]) == code
    out = capsys.readouterr().out
    assert out == dumps_json(json.loads(out, parse_float=Decimal)) + "\n"
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out == dumps_json(expected) + "\n"

    rows = sorted(row for schedule in schedules.values() for row in schedule)
    assert main(["solve", path, "--format", "csv"]) == code
    header, *lines = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["screen_id", "location", "film_id", "film_title", "config_index", "showtimes"]
    assert [
        (int(sid), location, int(film_id), title, int(config_index), tuple(showtimes.split(" ")))
        for sid, location, film_id, title, config_index, showtimes in lines
    ] == rows

    assert main(["solve", path]) == code
    table = capsys.readouterr().out
    if code:
        assert table == "Status: Infeasible\n"
        return
    # the columns start where the header's words do; split on "\n" alone, as U+2028 ends a line for splitlines
    head, *body, total = table[:-1].split("\n")
    starts = [head.index(word) for word in head.split()] + [None]
    cells = [[line[a:b].rstrip() for a, b in zip(starts, starts[1:])] for line in body]
    assert cells == [
        [str(sid), location, title, str(config_index), " ".join(showtimes)]
        for sid, location, _, title, config_index, showtimes in rows
    ]
    assert total == f"Objective: {expected['objective']}"


def test_solve_invalid_instance(tmp_path, capsys):
    doc = support.matrix_document([[5]])
    doc["forecast"][0]["attendance"] = -1
    assert main(["solve", write_doc(tmp_path, doc)]) == 1
    assert "negative_coefficient" in capsys.readouterr().err


def test_solve_certification_error_exit_code(example_path, monkeypatch, capsys):
    import cinestagger.solver as solver_module

    honest = solver_module.solve_assignment

    def lying(model):
        report = honest(model)
        duals = report.certificate.screen_duals
        lowered = replace(report.certificate, screen_duals=(duals[0] - 1,) + duals[1:])
        return replace(report, certificate=lowered)

    monkeypatch.setattr(solver_module, "solve_assignment", lying)
    assert main(["solve", str(example_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: internal: lp-dual certificate infeasible")


def test_generate_configs(tmp_path, capsys):
    doc = support.matrix_document([[5]])
    del doc["configurations"]
    del doc["forecast"]
    path = write_doc(tmp_path, doc)

    assert main(["generate-configs", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["showtimes"][0] for c in out["configurations"]] == ["12:00", "12:30", "13:00"]
    instance = load_instance(out, allow_partial=True)
    assert instance.configuration_count == 3

    assert main(["generate-configs", path, "--turnover", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["configurations"]) == 4  # 90 + 30 rounds up to a 120 minute cycle


def test_generate_configs_drops_stale_forecast_rows(tmp_path, capsys):
    doc = support.matrix_document([[5, 6, 7]])  # config indices 1..3 of one film
    path = write_doc(tmp_path, doc)
    assert main(["generate-configs", path]) == 0
    out = json.loads(capsys.readouterr().out)
    # regenerated configurations replace the hand-written single-showtime ones
    kept = {(r["film_id"], r["config_index"]) for r in out["forecast"]}
    valid = {(c["film_id"], c["config_index"]) for c in out["configurations"]}
    assert kept <= valid


def test_generate_configs_keeps_each_forecast_with_its_showtimes(example_document, tmp_path, capsys):
    # the example lists film 1's 12:30 showtimes as config 1 and its 12:00 ones as
    # config 2; generation numbers them the other way and adds a 13:00 config 3
    doc = copy.deepcopy(example_document)
    # a later listed copy of the 12:00 showtimes: the lower index keeps its forecast
    doc["configurations"].append({**doc["configurations"][1], "config_index": 9})
    doc["forecast"].append({"screen_id": 1, "film_id": 1, "config_index": 9, "attendance": 7})
    for document in (example_document, doc):
        assert main(["generate-configs", write_doc(tmp_path, document)]) == 0
        out = json.loads(capsys.readouterr().out)
        firsts = {c["config_index"]: c["showtimes"][0] for c in out["configurations"] if c["film_id"] == 1}
        assert firsts == {1: "12:00", 2: "12:30", 3: "13:00"}
        cells = {r["config_index"]: r["attendance"] for r in out["forecast"] if r["screen_id"] == 1 and r["film_id"] == 1}
        assert cells == {1: 245, 2: 226}


def test_generate_configs_checks_the_forecast_against_the_turnover(example_document, tmp_path, capsys):
    # film 1 runs 90 minutes: 3 configurations at turnover 0, 4 at turnover 30
    doc = copy.deepcopy(example_document)
    del doc["configurations"]
    doc["forecast"] = [row for row in doc["forecast"] if row["config_index"] == 1]
    doc["forecast"].append({"screen_id": 1, "film_id": 1, "config_index": 4, "attendance": 7})
    path = write_doc(tmp_path, doc)
    assert main(["generate-configs", path, "--turnover", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {"screen_id": 1, "film_id": 1, "config_index": 4, "attendance": 7} in out["forecast"]
    assert max(c["config_index"] for c in out["configurations"] if c["film_id"] == 1) == 4
    assert main(["generate-configs", path]) == 1
    assert "references an unknown configuration" in capsys.readouterr().err


@pytest.mark.parametrize("listed", [True, False])
def test_generate_configs_refuses_a_negative_turnover_before_reading(example_document, tmp_path, capsys, listed):
    doc = copy.deepcopy(example_document)
    if not listed:
        del doc["configurations"]
    assert main(["generate-configs", write_doc(tmp_path, doc), "--turnover", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: turnover must be >= 0, got -5\n")
    # before the document is read: a missing file gives the same line
    assert main(["generate-configs", str(tmp_path / "missing.json"), "--turnover", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: turnover must be >= 0, got -5\n")


@pytest.mark.parametrize("listed", [True, False])
def test_generate_configs_generates_each_film_once_per_cluster(tmp_path, capsys, monkeypatch, listed):
    import cinestagger.cli as cli_module
    import cinestagger.confgen as confgen_module

    doc = generate_document(screens=4, films=3, clusters=3, seed=5)
    for film in doc["films"][:2]:
        del film["cluster_id"]               # two films play in all three clusters
    if not listed:
        del doc["configurations"]
    path = write_doc(tmp_path, doc)
    assert main(["generate-configs", path, "--turnover", "15"]) == 0
    expected = capsys.readouterr().out
    clusters = load_instance(path, allow_partial=True).clusters

    calls = []
    honest = confgen_module.generate_configurations

    def counting(film, *args):
        calls.append(film.film_id)
        return honest(film, *args)

    monkeypatch.setattr(confgen_module, "generate_configurations", counting)
    monkeypatch.setattr(cli_module, "generate_configurations", counting)
    assert main(["generate-configs", path, "--turnover", "15"]) == 0
    assert capsys.readouterr().out == expected
    assert sorted(calls) == sorted(f.film_id for c in clusters for f in c.films)
    assert len(calls) == 2 * 3 + len(doc["films"]) - 2


def _invert_windows(doc):
    for location in doc["locations"]:
        location["open_time"], location["last_showtime"] = "23:00", "12:00"


@pytest.mark.parametrize(
    "spoil, line",
    [
        (lambda doc: doc["films"][2].update(runtime_minutes=0),
         "bad_runtime: film 3: runtime must be >= 1, got 0"),
        (_invert_windows, "window_inverted: location 1: open time 23:00 is after last showtime 12:00"),
        (lambda doc: doc.update(stagger_interval_minutes=0),
         "bad_stagger_interval: stagger interval must be >= 1, got 0"),
    ],
    ids=["runtime", "window", "stagger"],
)
def test_generation_errors_read_like_validate(example_document, tmp_path, capsys, spoil, line):
    # with configurations listed, validate names the fault; without, loading reports the same
    listed = copy.deepcopy(example_document)
    spoil(listed)
    assert main(["validate", write_doc(tmp_path, listed, "listed.json")]) == 1
    reported = capsys.readouterr().out.splitlines()
    assert line in reported
    omitted = copy.deepcopy(listed)
    del omitted["configurations"]
    path = write_doc(tmp_path, omitted)
    for argv in (["solve", path], ["build", path], ["generate-configs", path, "--turnover", "20"]):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert line in lines
        assert set(lines) <= set(reported)


def test_a_film_scoped_to_an_unknown_cluster_is_rejected(example_document, tmp_path, capsys):
    doc = copy.deepcopy(example_document)
    doc["films"].append({"id": 99, "title": "Ghost", "runtime_minutes": 90, "cluster_id": "nowhere"})
    line = "unknown_cluster: film 99 references unknown cluster 'nowhere'"
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines() == [line]
    assert main(["generate-configs", path, "--turnover", "20"]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_export_lp_row_names_are_distinct(example_document, tmp_path, capsys):
    # "a-b" and "a_b" once both became "a_b" in the staggering row names
    doc = copy.deepcopy(example_document)
    for location in doc["locations"]:
        location["cluster_id"] = "a-b" if location["id"] == 1 else "a_b"
    lp = tmp_path / "joint.lp"
    assert main(["build", write_doc(tmp_path, doc), "--export-lp", str(lp)]) == 0
    rows = [line.split(":")[0].strip() for line in lp.read_text().splitlines() if line.startswith(" stagger_")]
    assert len(rows) == 32
    assert len(set(rows)) == len(rows)
    assert "stagger_a_x2d_b_f1_c1" in rows and "stagger_a__b_f1_c1" in rows


def _count_model_builds(monkeypatch):
    """Calls of build_model and build_joint_model, by name, wherever the package looks them up."""
    import cinestagger.cli as cli_module
    import cinestagger.cluster as cluster_module
    import cinestagger.formulation as formulation_module

    calls = Counter()
    for module in (formulation_module, cluster_module, cli_module):
        for name in ("build_model", "build_joint_model"):
            if not hasattr(module, name):
                continue

            def counting(*args, _honest=getattr(module, name), _name=name):
                calls[_name] += 1
                return _honest(*args)

            monkeypatch.setattr(module, name, counting)
    return calls


def test_solve_export_lp_builds_each_cluster_model_once(example_path, tmp_path, capsys, monkeypatch):
    three = write_doc(tmp_path, generate_document(4, 2, clusters=3, seed=8))
    reference = {}
    for path in (str(example_path), three):
        instance = load_instance(path)
        model = build_model(instance) if len(instance.clusters) == 1 else build_joint_model(instance)
        reference[path] = export_lp_text(model)
    calls = _count_model_builds(monkeypatch)
    target = tmp_path / "model.lp"

    assert main(["solve", str(example_path), "--export-lp", str(target)]) == 0
    assert calls == {"build_model": 1}
    assert target.read_text(encoding="utf-8") == reference[str(example_path)]

    calls.clear()
    assert main(["solve", three, "--format", "json", "--export-lp", str(target)]) == 0
    assert calls == {"build_model": 3}
    assert target.read_text(encoding="utf-8") == reference[three]


def test_build_export_lp_builds_each_cluster_model_once(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, generate_document(5, 3, clusters=3, seed=9))
    joint = build_joint_model(load_instance(path))
    expected = export_lp_text(joint)
    calls = _count_model_builds(monkeypatch)
    target = tmp_path / "joint.lp"
    assert main(["build", path, "--export-lp", str(target)]) == 0
    assert calls == {"build_model": 3}
    assert target.read_text(encoding="utf-8") == expected
    # the cluster models' counts add up to the joint model's
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"total: {joint.variable_count} variables, {len(joint.screen_ids)} equality rows,"
        f" {len(joint.column_keys)} inequality rows"
    )


def test_build_stats(example_path, capsys):
    assert main(["build", str(example_path)]) == 0
    out = capsys.readouterr().out
    assert "cluster c1: 144 variables, 9 equality rows, 16 inequality rows" in out
    assert "total: 144 variables, 9 equality rows, 16 inequality rows" in out


@pytest.mark.parametrize("clusters", [1, 2, 3, 5])
def test_build_counts_match_build_model(tmp_path, capsys, clusters):
    rng = random.Random(clusters)
    doc = generate_document(rng.randint(1, 8), rng.randint(1, 4), clusters=clusters, seed=clusters)
    path = write_doc(tmp_path, doc)
    assert main(["build", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    totals = [0, 0, 0]
    expected = []
    for cluster in load_instance(path).clusters:
        model = build_model(cluster)
        counts = [model.variable_count, len(model.equality_rows), len(model.inequality_rows)]
        totals = [t + c for t, c in zip(totals, counts)]
        expected.append((f"cluster {cluster.cluster_id}", *counts))
    expected.append(("total", *totals))
    assert lines == [
        f"{label}: {v} variables, {e} equality rows, {i} inequality rows" for label, v, e, i in expected
    ]


def test_build_export_lp(example_path, tmp_path, capsys):
    target = tmp_path / "model.lp"
    assert main(["build", str(example_path), "--export-lp", str(target)]) == 0
    capsys.readouterr()
    assert "Binary" in target.read_text(encoding="utf-8")


def test_build_export_lp_unwritable(example_path, tmp_path, capsys):
    target = tmp_path / "missing" / "model.lp"
    assert main(["build", str(example_path), "--export-lp", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_synth_deterministic(capsys):
    args = ["synth", "--screens", "9", "--films", "5", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_synth_output_is_solvable(capsys):
    assert main(["synth", "--screens", "4", "--films", "3", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["forecast"]:
        assert 200 <= row["attendance"] <= 299
    report = solve_all(load_instance(doc))
    assert report.overall_status == "Optimal"


def test_synth_multi_cluster(capsys):
    assert main(["synth", "--screens", "2", "--films", "2", "--clusters", "2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {l["cluster_id"] for l in doc["locations"]} == {"c1", "c2"}


def test_synth_bad_range(capsys):
    assert main(["synth", "--screens", "2", "--films", "2", "--coeff-range", "nope"]) == 2
    assert "coeff-range" in capsys.readouterr().err
    assert main(["synth", "--screens", "2", "--films", "2", "--coeff-range", "300..200"]) == 2
    capsys.readouterr()
    assert main(["synth", "--screens", "0", "--films", "1"]) == 2
    assert capsys.readouterr() == ("", "error: screens, films and clusters must all be >= 1\n")
    # a bound past the interpreter's 4300-digit limit on reading an int
    assert main(["synth", "--screens", "2", "--films", "1", "--coeff-range", "1.." + "9" * 5000]) == 2
    assert capsys.readouterr() == ("", "error: bad --coeff-range, a bound has too many digits\n")


def test_synth_range_digits_are_ascii(capsys):
    args = ["synth", "--screens", "2", "--films", "1", "--coeff-range", "١..٩"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad --coeff-range '١..٩', expected LO..HI\n"


def test_synth_range_stays_loadable(capsys):
    # the loader rejects attendance of 10**18 or more, so synth must not write it
    args = ["synth", "--screens", "2", "--films", "1", "--coeff-range"]
    assert main([*args, "0..1000000000000000000"]) == 2
    assert capsys.readouterr().err == "error: bad coefficient range 0..1000000000000000000\n"
    assert main([*args, "999999999999999999..999999999999999999"]) == 0
    assert load_instance(json.loads(capsys.readouterr().out)).forecast.get(1, 1, 1) == 999999999999999999000


def test_verify_decomposition_command(example_path, capsys):
    assert main(["verify-decomposition", str(example_path)]) == 0
    out = capsys.readouterr().out
    assert "sum of cluster optima: 2615\n" in out
    assert "decomposition: no two clusters share a screen, so the joint optimum is the sum of cluster optima\n" in out
    assert "joint model optimum" not in out


def test_verify_decomposition_films_shared_across_clusters(tmp_path, example_document, capsys):
    path = write_doc(tmp_path, support.shared_film_copies(example_document))
    assert main(["verify-decomposition", path]) == 0
    out = capsys.readouterr().out
    assert "sum of cluster optima: 5230\n" in out
    assert "joint model optimum" not in out
    # the sum is the objective solve reports for the same document
    assert main(["solve", path, "--format", "json"]) == 0
    objective = json.loads(capsys.readouterr().out, parse_float=str)["objective"]
    assert f"sum of cluster optima: {objective}\n" in out


def test_verify_decomposition_realistic_chain(tmp_path, capsys):
    # 3 clusters x 40 screens x 15 films: a joint model of 8720 variables
    assert main(["synth", "--screens", "40", "--films", "15", "--clusters", "3", "--seed", "1"]) == 0
    path = tmp_path / "chain.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify-decomposition", str(path)]) == 0
    assert "so the joint optimum is the sum of cluster optima\n" in capsys.readouterr().out


def test_verify_decomposition_twelve_cluster_chain(tmp_path, capsys):
    # 12 clusters x 60 screens x 25 films: no joint solve, so no size limit
    assert main(["synth", "--screens", "60", "--films", "25", "--clusters", "12", "--seed", "1"]) == 0
    path = tmp_path / "chain.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify-decomposition", str(path)]) == 0
    assert "so the joint optimum is the sum of cluster optima\n" in capsys.readouterr().out


def test_verify_decomposition_infeasible(infeasible_path, capsys):
    assert main(["verify-decomposition", infeasible_path]) == 3
    out = capsys.readouterr().out
    assert "so the joint model is infeasible because a cluster is\n" in out
    assert "joint model optimum" not in out


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cinestagger", *args],
        capture_output=True,
        timeout=60,
    )


def test_solve_byte_identical_across_processes(example_path):
    first = run_cli("solve", str(example_path))
    second = run_cli("solve", str(example_path))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert b"Objective: 2615" in first.stdout


def _two_windows(open_time):
    """synth's 3 locations split into clusters a (location 1) and b (2-3, opening at
    ``open_time``), configurations generated on load and the forecast filled for them."""
    doc = generate_document(screens=6, films=3, seed=5)
    for location in doc["locations"]:
        if location["id"] == 1:
            location["cluster_id"] = "a"
        else:
            location.update(cluster_id="b", open_time=open_time)
    del doc["configurations"]
    doc["forecast"] = [
        {"screen_id": screen.source_id, "film_id": film_id, "config_index": config_index, "attendance": 5}
        for cluster in load_instance(doc, allow_partial=True).clusters
        for screen in cluster.screens
        for film_id, config_index in (c.key() for c in cluster.configurations)
    ]
    return doc


@pytest.mark.parametrize("open_time", ["12:30", "11:30"])
def test_generate_configs_refuses_showtimes_that_differ_between_clusters(tmp_path, capsys, open_time):
    # one document lists each (film, config) once, so it cannot carry both clusters' showtimes
    path = write_doc(tmp_path, _two_windows(open_time))
    assert main(["validate", path]) == 0
    assert main(["solve", path]) == 0
    capsys.readouterr()
    assert main(["generate-configs", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: film 1 config 1 has different showtimes in clusters 'a' and 'b';"
        " a document lists each configuration once"
    ]


@pytest.mark.parametrize("turnover", ["0", "20"])
@pytest.mark.parametrize("source", ["example", "synth"])
def test_generate_configs_is_a_fixed_point(example_path, tmp_path, capsys, source, turnover):
    if source == "example":
        path = str(example_path)
    else:
        path = write_doc(tmp_path, generate_document(screens=8, films=4, clusters=3, seed=2))
    assert main(["generate-configs", path, "--turnover", turnover]) == 0
    first = capsys.readouterr().out
    again = tmp_path / "again.json"
    again.write_text(first, encoding="utf-8")
    assert main(["generate-configs", str(again), "--turnover", turnover]) == 0
    assert capsys.readouterr().out == first
    if (source, turnover) == ("synth", "0"):
        # elsewhere the new configurations leave columns without forecast rows, which validate refuses
        assert main(["validate", str(again)]) == 0
        assert capsys.readouterr().out == "ok\n"


def _closed_reader_run(argv, lines_read, err_path):
    """Exit code and stderr of the console module writing to a pipe whose reader
    closes after ``lines_read`` lines; stderr goes to a file, which never blocks."""
    command = [sys.executable, "-m", "cinestagger", *argv]
    with open(err_path, "wb") as err:
        if lines_read == 0:
            # the read end is closed before the child starts, so its first write fails
            read_end, write_end = os.pipe()
            os.close(read_end)
            with os.fdopen(write_end, "wb") as stdout:
                child = subprocess.Popen(command, stdout=stdout, stderr=err)
        else:
            child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err)
            for _ in range(lines_read):
                child.stdout.readline()
            child.stdout.close()
        code = child.wait(timeout=60)
    return code, err_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("lines_read", [0, 1])
def test_a_closed_stdout_exits_2_without_a_traceback(example_document, tmp_path, lines_read):
    if lines_read == 0:
        argv = ["validate", write_doc(tmp_path, example_document)]     # prints "ok"
    else:
        # far more violation lines than a pipe buffers
        doc = generate_document(screens=40, films=15, clusters=3, seed=1)
        for row in doc["forecast"]:
            row["attendance"] = -1
        argv = ["validate", write_doc(tmp_path, doc)]
    code, err = _closed_reader_run(argv, lines_read, tmp_path / "stderr.txt")
    assert code == 2
    assert err == "error: cannot write standard output: Broken pipe\n"


@pytest.mark.parametrize("lines_read", [0, 1])
def test_one_large_write_to_a_closed_stdout_exits_2(tmp_path, lines_read):
    # generate-configs writes its whole document at once, far more than a pipe buffers
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(generate_document(screens=45, films=15, clusters=3, seed=1), indent=2))
    assert path.stat().st_size >= 10**6
    code, err = _closed_reader_run(["generate-configs", str(path)], lines_read, tmp_path / "stderr.txt")
    assert code == 2
    assert err == "error: cannot write standard output: Broken pipe\n"


def test_an_instance_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"a": "\xff"}')
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: not valid UTF-8 (")


@pytest.mark.parametrize("output", ["table", "csv", "json"])
def test_a_stdout_that_cannot_encode_a_name_exits_2(example_document, tmp_path, output):
    doc = copy.deepcopy(example_document)
    doc["locations"][0]["name"] = "Cinéma"
    path = write_doc(tmp_path, doc)
    done = subprocess.run(
        [sys.executable, "-m", "cinestagger", "solve", path, "--format", output],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    if output == "json":    # its text escapes every non-ASCII character
        assert done.returncode == 0
        assert b'"location": "Cin\\u00e9ma"' in done.stdout
        return
    assert done.returncode == 2
    assert done.stdout == b""
    [line] = done.stderr.decode("ascii").splitlines()
    assert line.startswith("error: cannot write standard output: 'ascii' codec can't encode character '\\xe9'")
    assert line.endswith(": ordinal not in range(128)")


def test_solving_and_writing_leave_the_forecast_untouched(tmp_path, capsys):
    doc = generate_document(screens=5, films=3, clusters=3, seed=4)
    multi = load_instance(doc)
    before = copy.deepcopy([cluster.forecast for cluster in multi.clusters])
    report = solve_all(multi)
    # the models share the loaded rows
    assert [m.weights for _, m in report.models] == [c.forecast.rows for c in multi.clusters]
    assert all(m.weights is c.forecast.rows for (_, m), c in zip(report.models, multi.clusters))
    export_lp_text(direct_sum(report.models))
    dumps_instance(multi)
    assert [cluster.forecast for cluster in multi.clusters] == before

    path = write_doc(tmp_path, doc)
    outputs = []
    for _ in range(3):
        assert main(["solve", path, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_one_parser_serves_every_call(example_path, capsys):
    assert build_parser() is build_parser()
    argv = ["solve", str(example_path), "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    assert "the following arguments are required: instance" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["synth", "--help"]])
def test_help_is_that_of_a_fresh_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parse in (main, build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: cinestagger ")


# Bytes the CLI wrote for the bundled example and for `synth --screens 4
# --films 2 --clusters 3 --seed 1` (input.json) when these files were added.
# A change that alters any of them on purpose rewrites the file and says why.
PINNED = Path(__file__).parent / "data" / "pinned"
PINNED_COMMANDS = {
    "validate.out": ["validate"],
    "solve.table.out": ["solve"],
    "solve.csv.out": ["solve", "--format", "csv"],
    "solve.json.out": ["solve", "--format", "json"],
    "build.out": ["build"],
    "build.lp": ["build", "--export-lp"],   # the file written, not standard output
    "generate-configs.0.out": ["generate-configs", "--turnover", "0"],
    "generate-configs.20.out": ["generate-configs", "--turnover", "20"],
    "verify-decomposition.out": ["verify-decomposition"],
}


@pytest.mark.parametrize("pinned", list(PINNED_COMMANDS))
@pytest.mark.parametrize("source", ["example", "synth"])
def test_output_matches_the_pinned_bytes(example_path, tmp_path, capsysbinary, source, pinned):
    path = example_path if source == "example" else PINNED / "synth" / "input.json"
    command, *options = PINNED_COMMANDS[pinned]
    lp = tmp_path / "model.lp"
    if pinned.endswith(".lp"):
        options.append(str(lp))
    assert main([command, str(path), *options]) == 0
    out = capsysbinary.readouterr().out
    assert (lp.read_bytes() if pinned.endswith(".lp") else out) == (PINNED / source / pinned).read_bytes()
    if not pinned.endswith(".lp"):
        assert _text_stream_output([command, str(path), *options]) == out.decode("utf-8")


def _text_stream_output(argv) -> str:
    """Standard output of ``main(argv)`` captured as the benchmark harness captures
    it: a text stream without a ``buffer``."""
    stream = io.StringIO()
    with redirect_stdout(stream):
        assert main(argv) == 0
    return stream.getvalue()


def test_synth_output_matches_the_pinned_bytes(capsysbinary):
    argv = ["synth", "--screens", "4", "--films", "2", "--clusters", "3", "--seed", "1"]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (PINNED / "synth" / "input.json").read_bytes()
    assert _text_stream_output(argv).encode("utf-8") == (PINNED / "synth" / "input.json").read_bytes()


# json.loads turns a "\ud800" escape into a lone surrogate, which no UTF-8 output can carry
_LONE_SURROGATES = {
    "location-name": (("locations", "name", "Bad\ud800"), "location 1 name"),
    "location-cluster-id": (("locations", "cluster_id", "c\ud800"), "location 1 cluster_id"),
    "film-title": (("films", "title", "T\udfff"), "film 1 title"),
    "film-cluster-id": (("films", "cluster_id", "c\udfff"), "film 1 cluster_id"),
}
_DOCUMENT_COMMANDS = [
    ["validate"], ["solve"], ["solve", "--format", "csv"], ["solve", "--format", "json"], ["build"],
    ["generate-configs"], ["generate-configs", "--turnover", "20"], ["verify-decomposition"],
]


@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("field", list(_LONE_SURROGATES))
def test_text_that_is_not_valid_unicode_exits_2(example_document, tmp_path, capsys, field, command):
    (block, key, value), context = _LONE_SURROGATES[field]
    doc = copy.deepcopy(example_document)
    doc[block][0][key] = value
    path = write_doc(tmp_path, doc)
    assert "\\ud" in Path(path).read_text(encoding="utf-8")
    assert main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {context}: not valid Unicode text\n")


def test_valid_non_ascii_text_still_loads(example_document, tmp_path, capsys):
    doc = copy.deepcopy(example_document)
    for location in doc["locations"]:
        location["cluster_id"] = "ç1"
    doc["locations"][0]["name"] = "Cinéma \U0001F3AC"
    doc["films"][0]["title"] = "Amélie"
    doc["films"][1]["cluster_id"] = "ç1"
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == ("ok\n", "")
    assert main(["generate-configs", path]) == 0
    written = json.loads(capsys.readouterr().out)
    assert written["locations"][0]["name"] == "Cinéma \U0001F3AC"
    assert written["films"][0]["title"] == "Amélie"


def _interleaved(example_document):
    # three clusters whose screens alternate in the file, so their screen ids interleave
    doc = generate_document(screens=6, films=3, clusters=3, seed=8)
    doc["screens"] = doc["screens"][0::3] + doc["screens"][1::3] + doc["screens"][2::3]
    return doc


LP_DOCUMENTS = {
    "example": lambda example_document: example_document,
    "one-cluster-synth": lambda _: generate_document(screens=7, films=3, clusters=1, seed=3),
    "three-clusters": lambda _: generate_document(screens=6, films=3, clusters=3, seed=1),
    "twelve-clusters": lambda _: generate_document(screens=5, films=3, clusters=12, seed=2),
    "interleaved": _interleaved,
    "empty-cluster": _empty_cluster,
    "fractional": _fractional,
    "infeasible-beside-optimal": _infeasible_beside_optimal,
}


@pytest.mark.parametrize("name", list(LP_DOCUMENTS))
def test_build_and_solve_write_the_same_lp_without_a_direct_sum(
    example_document, tmp_path, capsys, monkeypatch, name
):
    import cinestagger.formulation as formulation_module

    def refused(blocks):
        raise AssertionError("a command built the direct sum")

    path = write_doc(tmp_path, LP_DOCUMENTS[name](example_document))
    instance = load_instance(path)
    if len(instance.clusters) == 1:
        expected = support.reference_export_lp_text(build_model(instance))
    else:
        expected = support.reference_export_lp_text(build_joint_model(instance))
    monkeypatch.setattr(formulation_module, "direct_sum", refused)
    built, solved = tmp_path / "build.lp", tmp_path / "solve.lp"
    assert main(["build", path, "--export-lp", str(built)]) == 0
    assert main(["solve", path, "--format", "json", "--export-lp", str(solved)]) in (0, 3)
    capsys.readouterr()
    assert built.read_bytes() == solved.read_bytes() == expected.encode("utf-8")


def _partial(example_document):
    # forecast rows missing, so some cells are None and one screen has none at all
    doc = generate_document(screens=5, films=3, clusters=2, seed=6)
    first = doc["screens"][0]["id"]
    doc["forecast"] = [row for i, row in enumerate(doc["forecast"]) if i % 3 and row["screen_id"] != first]
    return doc


def _no_forecast(example_document):
    doc = copy.deepcopy(example_document)
    doc["forecast"] = []
    return doc


DUMPS_DOCUMENTS = {
    "example": lambda example_document: example_document,
    "interleaved": _interleaved,
    "empty-cluster": _empty_cluster,
    "fractional": _fractional,
    "awkward-names": _awkward_names,
    "infeasible-beside-optimal": _infeasible_beside_optimal,
    "partial": _partial,
    "no-forecast": _no_forecast,
    **{
        f"synth-{k}": lambda _, k=k: generate_document(screens=6, films=3, clusters=k, seed=k)
        for k in (1, 2, 5, 16)
    },
}


@pytest.mark.parametrize("name", list(DUMPS_DOCUMENTS))
def test_dumps_instance_writes_the_reference_text(example_document, name):
    instance = load_instance(copy.deepcopy(DUMPS_DOCUMENTS[name](example_document)), allow_partial=True)
    text = dumps_instance(instance)
    assert text == support.reference_dumps_instance(instance)
    assert text == dumps_json(json.loads(text, parse_float=Decimal)) + "\n"


def test_generate_configs_writes_the_reference_text_and_is_a_fixed_point(example_document, tmp_path, capsys):
    # the documents' configurations are replaced, so new columns have no forecast cells
    for doc in (example_document, _interleaved(example_document), _empty_cluster(example_document)):
        path = write_doc(tmp_path, doc)
        for turnover in ("0", "20"):
            assert main(["generate-configs", path, "--turnover", turnover]) == 0
            first = capsys.readouterr().out
            again = tmp_path / "again.json"
            again.write_text(first, encoding="utf-8")
            assert first == support.reference_dumps_instance(load_instance(again, allow_partial=True))
            assert main(["generate-configs", str(again), "--turnover", turnover]) == 0
            assert capsys.readouterr().out == first
