"""Acceptance gate: one test per criterion, exact comparisons, wall-time
budgets asserted, and a PASS/FAIL line printed straight to the terminal
for each criterion."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import support
from cinestagger import (
    BilpModel,
    Film,
    VariableRef,
    build_model,
    certify,
    evaluate,
    generate_configurations,
    load_instance,
    solve_all,
    solve_assignment,
    solve_branch_and_bound,
    solve_brute_force,
    verify_decomposition,
)
from cinestagger.data import example_instance_path


@contextmanager
def criterion(capsys, number, description, budget_seconds):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number}: FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"\ncriterion {number}: PASS  {description} ({elapsed:.2f}s)")


def known_best_variables():
    return [
        VariableRef(sid, fid, cidx)
        for sid, (fid, cidx) in sorted(support.KNOWN_BEST_SCHEDULE.items())
    ]


def without_variable(model, banned):
    """Copy of the model with one variable removed (forbid-and-resolve)."""
    return BilpModel(
        variables=tuple(v for v in model.variables if v != banned),
        objective={v: c for v, c in model.objective.items() if v != banned},
        equality_rows=tuple(
            (sid, tuple(v for v in row if v != banned)) for sid, row in model.equality_rows
        ),
        inequality_rows=tuple(
            (key, tuple(v for v in row if v != banned)) for key, row in model.inequality_rows
        ),
    )


def test_criterion_1_bundled_instance_structure(capsys):
    with criterion(capsys, 1, "bundled instance builds a 144-variable model"
                   " with 9 equality and 16 inequality rows", 1.0):
        model = build_model(load_instance(example_instance_path()))
        assert model.variable_count == 144
        assert len(model.equality_rows) == 9
        assert len(model.inequality_rows) == 16


def test_criterion_2_bundled_instance_optimum(capsys):
    with criterion(capsys, 2, "certified optimum equals the documented best"
                   " schedule's value (2615) and reproduces it uniquely", 1.0):
        model = build_model(load_instance(example_instance_path()))
        documented_value = evaluate(model, known_best_variables())
        assert documented_value == support.KNOWN_BEST_VALUE == 2615

        report = certify(model)
        assert report.status == "Optimal"
        assert report.objective == documented_value
        assert solve_assignment(model).objective == solve_branch_and_bound(model).objective

        # forbid-and-resolve: banning any chosen variable strictly lowers
        # the optimum, so the optimum is unique
        unique = all(
            solve_assignment(without_variable(model, var)).objective < documented_value
            for var in known_best_variables()
        )
        assert unique
        assert report.schedule.choices == support.KNOWN_BEST_SCHEDULE


def test_criterion_3_configuration_reproduction(capsys):
    with criterion(capsys, 3, "generator reproduces the documented configuration"
                   " sets (fourth long-film list corrected to include 17:30)", 1.0):
        def minutes(*texts):
            return tuple(int(t[:2]) * 60 + int(t[3:]) for t in texts)

        expected_short = {
            minutes("12:30", "14:00", "15:30", "17:00", "18:30", "20:00", "21:30", "23:00"),
            minutes("12:00", "13:30", "15:00", "16:30", "18:00", "19:30", "21:00", "22:30"),
            minutes("13:00", "14:30", "16:00", "17:30", "19:00", "20:30", "22:00"),
        }
        expected_long = {
            minutes("13:00", "15:00", "17:00", "19:00", "21:00", "23:00"),
            minutes("12:30", "14:30", "16:30", "18:30", "20:30", "22:30"),
            minutes("12:00", "14:00", "16:00", "18:00", "20:00", "22:00"),
            minutes("13:30", "15:30", "17:30", "19:30", "21:30"),
        }
        window = (720, 1380)
        for film_id, runtime in ((1, 90), (2, 85)):
            film = Film(film_id=film_id, title=f"Film {film_id}", runtime_minutes=runtime)
            generated = {c.showtimes for c in generate_configurations(film, window, 30)}
            assert generated == expected_short
        for film_id, runtime in ((3, 100), (4, 110), (5, 120)):
            film = Film(film_id=film_id, title=f"Film {film_id}", runtime_minutes=runtime)
            generated = {c.showtimes for c in generate_configurations(film, window, 30)}
            assert generated == expected_long


def test_criterion_4_three_way_solver_agreement(capsys):
    with criterion(capsys, 4, "assignment, branch-and-bound, and brute force"
                   " agree on 200 seeded random instances", 30.0):
        rng = random.Random(20260825)
        for _ in range(200):
            model = build_model(
                support.random_matrix_instance(rng, max_screens=7, max_columns=9)
            )
            a = solve_assignment(model)
            b = solve_branch_and_bound(model)
            c = solve_brute_force(model)
            assert a.status == b.status == c.status == "Optimal"
            assert a.objective == b.objective == c.objective


def test_criterion_5_scaling_and_shift_invariance(capsys):
    with criterion(capsys, 5, "scaling by 2 and 7 and shifting by -50 and +100"
                   " transform optima exactly as predicted on 50 seeded instances", 30.0):
        rng = random.Random(5150)
        for _ in range(50):
            model = build_model(
                support.random_matrix_instance(rng, max_screens=6, max_columns=8)
            )
            base = certify(model)
            screens = len(model.equality_rows)
            for alpha in (2, 7):
                scaled = BilpModel(
                    variables=model.variables,
                    objective={v: alpha * c for v, c in model.objective.items()},
                    equality_rows=model.equality_rows,
                    inequality_rows=model.inequality_rows,
                )
                report = certify(scaled)
                assert report.objective == alpha * base.objective
                assert evaluate(scaled, base.schedule.variables()) == report.objective
            for k in (-50, 100):
                shifted_objective = {
                    v: max(0, c + k * 1000) for v, c in model.objective.items()
                }
                # coefficients start at 200, so the clip never actually bites
                assert all(c + k * 1000 >= 0 for c in model.objective.values())
                shifted = BilpModel(
                    variables=model.variables,
                    objective=shifted_objective,
                    equality_rows=model.equality_rows,
                    inequality_rows=model.inequality_rows,
                )
                report = certify(shifted)
                assert report.objective == base.objective + screens * k
                assert evaluate(shifted, base.schedule.variables()) == report.objective


def test_criterion_6_decomposition_equality(capsys):
    with criterion(capsys, 6, "joint optimum equals the sum of per-cluster optima"
                   " on 50 seeded multi-cluster instances", 30.0):
        rng = random.Random(4242)
        for _ in range(50):
            doc = support.random_multi_document(rng, clusters=rng.randint(2, 3))
            report = verify_decomposition(support.load_multi(doc))
            assert report.equal
            assert report.joint_status == "Optimal"
            assert report.joint_objective == report.per_cluster.combined_objective


def test_criterion_7_pigeonhole_infeasibility(capsys):
    with criterion(capsys, 7, "screens exceeding configurations always yields"
                   " Infeasible with the pigeonhole diagnostic, never a crash", 30.0):
        rng = random.Random(8181)
        for _ in range(20):
            columns = rng.randint(1, 6)
            screens = rng.randint(columns + 1, 8)
            weights = [
                [rng.randint(200, 299) for _ in range(columns)] for _ in range(screens)
            ]
            model = build_model(
                support.matrix_instance(weights, support.random_split(rng, columns))
            )
            for solve in (solve_assignment, solve_branch_and_bound, solve_brute_force):
                report = solve(model)
                assert report.status == "Infeasible"
                assert "pigeonhole" in report.diagnostic
            certified = certify(model)
            assert certified.status == "Infeasible"

        # a starved cluster inside a healthy multi-cluster instance
        doc = support.random_multi_document(rng, clusters=2)
        starved = support.matrix_document(
            [[210], [220], [230]],
            cluster_id="starved",
            first_location=40,
            first_screen=len(doc["screens"]) + 1,
            first_film=40,
            scoped_films=True,
        )
        for key in ("locations", "screens", "films", "configurations", "forecast"):
            doc[key].extend(starved[key])
        combined = solve_all(support.load_multi(doc))
        assert combined.overall_status == "Infeasible"
        assert "pigeonhole" in combined.per_cluster["starved"].diagnostic


def test_criterion_8_determinism(capsys, example_document):
    with criterion(capsys, 8, "solve output is byte-identical across runs and"
                   " each cluster's report equals its own solve", 30.0):
        path = str(example_instance_path())
        for fmt in ("table", "json"):
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "cinestagger", "solve", path, "--format", fmt],
                    capture_output=True,
                    timeout=60,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout

        import copy

        doc = copy.deepcopy(example_document)
        for film in doc["films"]:
            film["cluster_id"] = "c1"
        second = copy.deepcopy(example_document)
        for location in second["locations"]:
            location["id"] += 3
            location["cluster_id"] = "c2"
        for screen in second["screens"]:
            screen["id"] += 9
            screen["location_id"] += 3
        for film in second["films"]:
            film["id"] += 5
            film["cluster_id"] = "c2"
        for config in second["configurations"]:
            config["film_id"] += 5
        for row in second["forecast"]:
            row["screen_id"] += 9
            row["film_id"] += 5
        for key in ("locations", "screens", "films", "configurations", "forecast"):
            doc[key].extend(second[key])
        instance = support.load_multi(doc)
        report = solve_all(instance)
        assert report == solve_all(instance)
        for cluster in instance.clusters:
            assert report.per_cluster[cluster.cluster_id] == certify(build_model(cluster))
