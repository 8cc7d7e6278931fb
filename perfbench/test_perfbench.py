"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import contextlib
import io
import json
import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cinestagger import cli  # noqa: E402
from cinestagger.synth import generate_document  # noqa: E402


def _solve(path, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", str(path), *extra])
    return code, out.getvalue()


def _document(tmp_path, **shape):
    doc = generate_document(seed=3, coeff_range=(0, 1000), **shape)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    facts = checks.DocumentFacts(doc)
    return path, facts, facts.reference_optima()


def _total(facts, schedule):
    return sum(facts.forecast[(sid, *key)] for sid, key in schedule)


def _lower_swap(facts, schedule):
    """The schedule with two screens' configurations swapped, strictly lowering the objective."""
    for i in range(len(schedule)):
        for j in range(i):
            swapped = list(schedule)
            swapped[i] = (schedule[i][0], schedule[j][1])
            swapped[j] = (schedule[j][0], schedule[i][1])
            if _total(facts, swapped) < _total(facts, schedule):
                return swapped
    raise AssertionError("optimal schedule has no lowering swap")


def test_json_schedule_passes_unchanged(tmp_path):
    path, facts, optima = _document(tmp_path, screens=6, films=3, clusters=2)
    code, out = _solve(path, "--format", "json")
    assert checks.check_solve_json(facts, optima, code, out) == []


def test_duplicated_configuration_is_caught(tmp_path):
    path, facts, optima = _document(tmp_path, screens=6, films=3, clusters=2)
    code, out = _solve(path, "--format", "json")
    doc = json.loads(out)
    rows = doc["clusters"][0]["schedule"]
    rows[1]["film_id"], rows[1]["config_index"] = rows[0]["film_id"], rows[0]["config_index"]
    problems = checks.check_solve_json(facts, optima, code, json.dumps(doc))
    assert any("repeats" in p for p in problems)


def test_swap_lowering_objective_is_caught(tmp_path):
    path, facts, optima = _document(tmp_path, screens=6, films=3, clusters=2)
    code, out = _solve(path, "--format", "json")
    doc = json.loads(out)
    entry = doc["clusters"][0]
    schedule = [(r["screen_id"], (r["film_id"], r["config_index"])) for r in entry["schedule"]]
    swapped = _lower_swap(facts, schedule)
    for row, (_, (film_id, config_index)) in zip(entry["schedule"], swapped):
        row["film_id"], row["config_index"] = film_id, config_index
    # keep the printed objectives consistent with the planted schedule, so
    # only the comparison with the reference optimum can catch it
    delta = _total(facts, swapped) - _total(facts, schedule)
    entry["objective"] = int(entry["objective"] + delta)
    doc["objective"] = int(doc["objective"] + delta)
    problems = checks.check_solve_json(facts, optima, code, json.dumps(doc))
    assert problems and all("reference optimum" in p for p in problems)


def test_table_duplicate_and_swap_are_caught(tmp_path):
    path, facts, optima = _document(tmp_path, screens=7, films=3, clusters=1)
    code, out = _solve(path)
    assert checks.check_solve_table(facts, optima, code, out) == []
    header, *lines, objective = out.splitlines()
    rows = [checks._TABLE_SPLIT.split(line) for line in lines]

    def table(rows, objective_line):
        return "\n".join([header, *("  ".join(r) for r in rows), objective_line]) + "\n"

    duplicated = [list(r) for r in rows]
    duplicated[1][2:] = duplicated[0][2:]
    problems = checks.check_solve_table(facts, optima, code, table(duplicated, objective))
    assert any("repeats" in p for p in problems)

    schedule = [(int(r[0]), (facts.film_by_title[r[2]], int(r[3]))) for r in rows]
    swapped = _lower_swap(facts, schedule)
    moved = {key: r[2:] for r, (_, key) in zip(rows, schedule)}
    planted = [r[:2] + moved[key] for r, (_, key) in zip(rows, swapped)]
    lowered = f"Objective: {_total(facts, swapped)}"
    problems = checks.check_solve_table(facts, optima, code, table(planted, lowered))
    assert problems and all("reference optimum" in p for p in problems)


def test_garbled_output_counts_as_wrong_without_aborting(tmp_path):
    path, facts, optima = _document(tmp_path, screens=6, films=3, clusters=2)

    class Garbled(_Op):
        def check(self, code, out, written):
            return checks.check_solve_json(facts, optima, code, out)

    def garble(argv):
        print("{not json")
        return 0

    stats = run.run_loop(garble, [Garbled()], cap=5, seconds=0, digests={})
    assert stats.attempted == 1 and stats.wrong == 1 and stats.failed == 1
    assert "unparsable" in stats.problems[0]


def test_infeasible_status_must_match_pigeonhole(tmp_path):
    path, facts, optima = _document(tmp_path, screens=7, films=3, clusters=1)
    assert checks.check_solve_table(facts, optima, 3, "Status: Infeasible\n")
    assert checks.check_solve_table(facts, {"c1": None}, 3, "Status: Infeasible\n") == []


def _spin(argv):
    while True:
        pass


class _Op:
    argv = ["spin"]
    lp_path = None

    def check(self, code, out, written):
        return []

    def written(self):
        return ""


def test_spinning_op_is_aborted_at_the_cap_and_counted_failed():
    threads = threading.active_count()
    stats = run.run_loop(_spin, [_Op()], cap=0.2, seconds=0.1, digests={})
    assert stats.attempted == 1 and stats.failed == 1 and stats.capped == 1
    assert stats.latencies == [0.2]
    assert "cap" in stats.problems[0]
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_self_time_on_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a1", 2.0, 3.0, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b1", 5.0, 6.0, 3, 0),
        S("b2", 5.5, 7.0, 3, 0),   # overlaps b1: the union 5.0..7.0 counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    spec = {"ops": [["solve", "{doc}", "--format", "json"]],
            "shape": {"clusters": [2, 3], "screens": [4, 5], "films": [2, 2]},
            "coeff_range": [0, 1000], "omit_configurations": False,
            "grid": ["screens"], "blocks": 2, "candidates_per_doc": 2, "structure_seed": 5}
    ops = workloads.build_pool(spec, 5, tmp_path, generate_document)
    patched = [(sys.modules[m], attr) for m, attr, _, _ in tracing.PATCHES]
    originals = [getattr(module, attr) for module, attr in patched]

    stats, plain, tracer = run.traced_pass(cli.main, ops, cap=30, digests={})

    assert all(getattr(m, a) is o for (m, a), o in zip(patched, originals))
    assert stats.attempted == len(ops) == 4 and stats.failed == 0
    assert plain.attempted == 2 and plain.failed == 0
    names = {s.name for s in tracer.spans}
    assert {tracing.ROOT, "cluster.solve_all", "solver.certify", "solver.solve_brute_force"} <= names
    certify = next(i for i, s in enumerate(tracer.spans) if s.name == "solver.certify")
    assert tracer.spans[tracer.spans[certify].parent].name == "cluster.solve_all"
    assert tracer.counts["solver.solve_brute_force.leaves"] > 0


def test_seed_draws_values_but_not_structure(tmp_path):
    spec = {"ops": [["solve", "{doc}"]],
            "shape": {"clusters": [2, 3], "screens": [4, 6], "films": [2, 3]},
            "coeff_range": [0, 1000], "omit_configurations": False,
            "grid": ["screens"], "blocks": 2, "candidates_per_doc": 2, "structure_seed": 7}

    def documents(seed, name):
        ops = workloads.build_pool(spec, seed, tmp_path / name, generate_document)
        return [json.loads(Path(op.argv[1]).read_text(encoding="utf-8")) for op in ops]

    def structure(doc):
        return json.dumps({**doc, "forecast": [{**f, "attendance": 0} for f in doc["forecast"]]},
                          sort_keys=True)

    first, again, other = documents(1, "a"), documents(1, "b"), documents(2, "c")
    assert first == again
    assert sorted(map(structure, first)) == sorted(map(structure, other))
    assert sorted(map(json.dumps, first)) != sorted(map(json.dumps, other))


def test_host_gauge_scales_by_the_bracketing_reference_times(monkeypatch):
    reads = iter([0.010, 0.030, 0.005])
    monkeypatch.setattr(run.HostGauge, "_read", staticmethod(lambda: next(reads)))
    gauge = run.HostGauge()
    assert gauge.scale(2.0) == pytest.approx(2.0 * run.REF_SECONDS / 0.020)
    assert gauge.scale(1.0) == pytest.approx(1.0 * run.REF_SECONDS / 0.0175)
