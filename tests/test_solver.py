import itertools
import random
from support import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import support
from cinestagger import (
    BilpModel,
    CertificationError,
    OracleGuardError,
    VariableRef,
    build_joint_model,
    build_model,
    certify,
    check_feasible,
    evaluate,
    export_lp_text,
    load_instance,
    solve_assignment,
    solve_branch_and_bound,
    solve_brute_force,
)
from cinestagger.solver import (
    ORACLE_MAX_COLUMNS,
    ORACLE_MAX_SCREENS,
    Certificate,
    Schedule,
    _column_order,
    _perturbed_weights,
    check_certificate,
)
from cinestagger.synth import generate_document

ALL_SOLVERS = [solve_assignment, solve_branch_and_bound, solve_brute_force]


def small_model(weights, configs_per_film=None):
    return build_model(support.matrix_instance(weights, configs_per_film))


def scipy_optimum(model):
    """Independent reference optimum, in milliunits; a cell without a variable is unusable."""
    column_of = {v: ci for ci, (_, row) in enumerate(model.inequality_rows) for v in row}
    weights = np.full((len(model.screen_ids), len(model.column_keys)), -np.inf)
    for si, (_, row) in enumerate(model.equality_rows):
        for v in row:
            weights[si, column_of[v]] = model.objective[v]
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return int(weights[rows, cols].sum())


@pytest.mark.parametrize("solve", ALL_SOLVERS)
def test_two_by_two_diagonal(solve):
    report = solve(small_model([[5, 1], [1, 5]]))
    assert report.status == "Optimal"
    assert report.objective == 10
    assert report.schedule.choices == {1: (1, 1), 2: (1, 2)}


@pytest.mark.parametrize("solve", ALL_SOLVERS)
def test_pigeonhole_infeasible(solve):
    report = solve(small_model([[5], [4]]))
    assert report.status == "Infeasible"
    assert report.schedule is None and report.objective is None
    assert "pigeonhole" in report.diagnostic


@pytest.mark.parametrize("solve", ALL_SOLVERS)
def test_single_screen_argmax(solve):
    report = solve(small_model([[7, 9, 4]]))
    assert report.objective == 9
    assert report.schedule.choices == {1: (1, 2)}


@pytest.mark.parametrize("solve", ALL_SOLVERS)
def test_all_equal_coefficients_lexicographic_tie_break(solve):
    report = solve(small_model([[3, 3, 3], [3, 3, 3]], configs_per_film=[1, 2]))
    assert report.objective == 6
    # smallest choices in (screen, film, config) order
    assert report.schedule.choices == {1: (1, 1), 2: (2, 1)}


def _rows_reversed(model):
    """``model`` built through the rows constructor, its equality rows given in reverse."""
    return BilpModel(
        variables=model.variables,
        objective=model.objective,
        equality_rows=model.equality_rows[::-1],
        inequality_rows=model.inequality_rows,
    )


def test_ties_break_by_screen_id_whatever_the_row_order(example_model):
    models = [example_model, small_model([[3, 3], [3, 3]])]
    for seed in range(3):   # attendance 0..2: many ties
        document = generate_document(screens=4, films=2, clusters=2, seed=seed, coeff_range=(0, 2))
        models.extend(build_model(cluster) for cluster in load_instance(document).clusters)
    for model in models:
        given = _rows_reversed(model)
        assert set(vars(given)) == {"screen_ids", "column_keys", "weights"}
        assert given.screen_ids == model.screen_ids == tuple(sorted(model.screen_ids))
        assert given == model
        assert BilpModel.from_matrix(model.screen_ids[::-1], model.column_keys, model.weights[::-1]) == model
        report = certify(given)
        assert report == certify(model)
        check_certificate(given, report)
        if len(model.screen_ids) <= ORACLE_MAX_SCREENS and len(model.column_keys) <= ORACLE_MAX_COLUMNS:
            assert solve_brute_force(given).schedule == report.schedule
        assert export_lp_text(given) == export_lp_text(model)
    assert certify(_rows_reversed(models[1])).schedule.choices == {1: (1, 1), 2: (1, 2)}


def test_branch_and_bound_prunes_a_later_screen_left_without_a_column():
    # screen 2's only column is screen 1's best one
    model = support.without_variables(small_model([[5, 1], [3, 3]]), {VariableRef(2, 1, 2)})
    report, oracle = solve_branch_and_bound(model), solve_brute_force(model)
    assert (report.schedule, report.objective) == (oracle.schedule, oracle.objective)
    assert report.schedule.choices == {1: (1, 2), 2: (1, 1)}


def test_example_model_agreement(example_model):
    first = solve_assignment(example_model)
    second = solve_branch_and_bound(example_model)
    assert first.status == second.status == "Optimal"
    assert first.objective == second.objective == 2615
    assert check_feasible(example_model, first.schedule.variables()).feasible
    assert check_feasible(example_model, second.schedule.variables()).feasible


def test_oracle_guard_rejects_example_model(example_model):
    with pytest.raises(OracleGuardError, match="too large for oracle"):
        solve_brute_force(example_model)


def test_brute_force_enumeration_count():
    report = solve_brute_force(small_model([[1] * 4, [1] * 4, [1] * 4]))
    assert report.stats.nodes == 4 * 3 * 2


def test_brute_force_zero_instance():
    report = solve_brute_force(small_model([[0]]))
    assert report.status == "Optimal"
    assert report.objective == 0


def test_certify_example(example_model):
    report = certify(example_model)
    assert report.status == "Optimal"
    assert report.certified
    assert report.method == "assignment"
    assert report.objective == 2615


def test_certify_infeasible():
    report = certify(small_model([[5], [4]]))
    assert report.status == "Infeasible"
    assert report.certified
    assert "pigeonhole" in report.diagnostic


def test_certify_raises_on_planted_disagreement(example_model, monkeypatch):
    import cinestagger.solver as solver_module

    honest = solver_module.solve_assignment

    def lying(model):
        report = honest(model)
        return replace(report, objective=report.objective + 1)

    monkeypatch.setattr(solver_module, "solve_assignment", lying)
    with pytest.raises(CertificationError, match="2615"):
        certify(example_model)


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(
            lambda r: replace(r, schedule=None), "assignment reported Optimal without a schedule", id="no-schedule",
        ),
        pytest.param(
            lambda r: replace(r, certificate=Certificate("pigeonhole")),
            "assignment reported Optimal with certificate pigeonhole",
            id="kind-mismatch",
        ),
        pytest.param(
            lambda r: replace(r, certificate=None), "assignment reported Optimal with certificate None", id="none",
        ),
    ],
)
def test_check_certificate_refuses_a_report_it_cannot_check(example_model, spoil, message):
    report = spoil(solve_assignment(example_model))
    with pytest.raises(CertificationError) as err:
        check_certificate(example_model, report)
    assert str(err.value) == message


def test_certify_calls_no_oracle(example_model, monkeypatch):
    import cinestagger.solver as solver_module

    def oracle(model):
        raise AssertionError("certify ran an exponential oracle")

    monkeypatch.setattr(solver_module, "solve_branch_and_bound", oracle)
    monkeypatch.setattr(solver_module, "solve_brute_force", oracle)
    cases = [
        (example_model, "Optimal", "lp-dual"),
        (small_model([[5], [4]]), "Infeasible", "pigeonhole"),
        (CROWDED, "Infeasible", "hall-set"),
    ]
    for model, status, kind in cases:
        report = certify(model)
        assert report.certified
        assert (report.status, report.certificate.kind) == (status, kind)


def test_certify_builds_the_tie_broken_weights_once(example_instance, monkeypatch):
    import cinestagger.solver as solver_module

    calls = []

    def counting(weights, column_order):
        calls.append(len(weights))
        return _perturbed_weights(weights, column_order)

    monkeypatch.setattr(solver_module, "_perturbed_weights", counting)
    model = build_model(example_instance)    # the matrix is kept on the model it came from
    assert certify(model).objective == certify(model).objective == 2615
    assert calls == [9]


def test_three_way_agreement_random():
    rng = random.Random(90210)
    for _ in range(40):
        model = build_model(support.random_matrix_instance(rng))
        reports = [solve(model) for solve in ALL_SOLVERS]
        assert len({r.objective for r in reports}) == 1
        assert scipy_optimum(model) == int(reports[0].objective * 1000)
        for report in reports:
            assert evaluate(model, report.schedule.variables()) == report.objective
            assert check_feasible(model, report.schedule.variables()).feasible
        # both lexicographic methods agree on the schedule itself
        assert reports[0].schedule == reports[2].schedule


def _with_objective(model, objective):
    return BilpModel(
        variables=model.variables,
        objective=objective,
        equality_rows=model.equality_rows,
        inequality_rows=model.inequality_rows,
    )


def test_scaling_invariance():
    rng = random.Random(777)
    for _ in range(15):
        model = build_model(support.random_matrix_instance(rng, max_screens=5, max_columns=7))
        base = certify(model)
        for alpha in (2, 7):
            scaled = _with_objective(model, {v: alpha * c for v, c in model.objective.items()})
            report = certify(scaled)
            assert report.objective == alpha * base.objective
            # the unscaled winner is still a winner after scaling
            assert evaluate(scaled, base.schedule.variables()) == report.objective


def test_shift_invariance():
    rng = random.Random(778)
    for _ in range(15):
        model = build_model(support.random_matrix_instance(rng, max_screens=5, max_columns=7))
        base = certify(model)
        screens = len(model.equality_rows)
        for k in (-50, 100):
            shifted = _with_objective(
                model, {v: c + k * 1000 for v, c in model.objective.items()}
            )
            report = certify(shifted)
            assert report.objective == base.objective + screens * k
            assert evaluate(shifted, base.schedule.variables()) == report.objective


def test_monotonicity():
    rng = random.Random(779)
    for _ in range(15):
        model = build_model(support.random_matrix_instance(rng, max_screens=5, max_columns=7))
        base = certify(model)
        var = rng.choice(base.schedule.variables())
        bumped_objective = dict(model.objective)
        bumped_objective[var] += rng.randint(1, 50) * 1000
        bumped = certify(_with_objective(model, bumped_objective))
        assert bumped.objective >= base.objective


def test_repeated_solves_identical():
    rng = random.Random(780)
    for _ in range(10):
        model = build_model(support.random_matrix_instance(rng, max_screens=5, max_columns=7))
        for solve in ALL_SOLVERS:
            assert solve(model) == solve(model)


def test_objective_is_exact_fraction(example_model):
    report = solve_assignment(example_model)
    assert isinstance(report.objective, Fraction)
    assert report.objective == Fraction(2615, 1)


def test_schedule_variables_sorted(example_model):
    report = solve_assignment(example_model)
    variables = report.schedule.variables()
    assert [v.screen_id for v in variables] == sorted(v.screen_id for v in variables)


def test_assignment_one_augmentation_per_screen(example_model):
    # the lexicographic tie-break costs no extra matching solves
    assert solve_assignment(example_model).stats.nodes == 9


# past sparse_models' 6 x 8, where augmenting paths get long: tie-heavy
# single clusters, a wide attendance range, and a block-diagonal joint model
@pytest.mark.parametrize(
    "screens, films, clusters, coeff_range",
    [
        pytest.param(30, 12, 1, (200, 299), id="30x12"),
        pytest.param(60, 25, 1, (200, 299), id="60x25"),
        pytest.param(120, 50, 1, (0, 100000), id="120x50"),
        pytest.param(8, 4, 3, (200, 299), id="joint-3x8x4"),
    ],
)
def test_certify_matches_scipy_on_large_models(screens, films, clusters, coeff_range):
    instance = load_instance(
        generate_document(screens=screens, films=films, clusters=clusters, seed=3, coeff_range=coeff_range)
    )
    model = build_model(instance) if clusters == 1 else build_joint_model(instance)
    report = certify(model)
    assert report.status == "Optimal"
    assert report.objective == Fraction(scipy_optimum(model), 1000)
    check_certificate(model, report)
    duals = report.certificate.screen_duals + report.certificate.column_duals
    assert all(type(dual) is int for dual in duals)
    assert report.stats.nodes == len(model.screen_ids)


def test_certify_finds_a_hall_set_among_twenty_screens():
    rng = random.Random(5)
    model = small_model(
        [[rng.randint(200, 299) for _ in range(22)] for _ in range(20)], [2] * 11
    )
    # every screen allows some of the first 19 columns only
    first = model.column_keys[:19]
    allowed = {sid: set(rng.sample(first, rng.randint(3, 19))) for sid in model.screen_ids}
    model = support.without_variables(model, {
        v for v in model.variables if (v.film_id, v.config_index) not in allowed[v.screen_id]
    })
    report = certify(model)
    assert report.status == "Infeasible"
    assert report.certificate.kind == "hall-set"
    check_certificate(model, report)
    assert len(report.certificate.columns) < len(report.certificate.screens)
    assert report.stats.nodes == 19     # the 20th screen is the one left out


@st.composite
def sparse_models(draw):
    screens = draw(st.integers(1, 6))
    columns = draw(st.integers(1, 8))
    top = draw(st.sampled_from([2, 10**16]))  # tie-heavy, or far past 64-bit milliunits
    weights = draw(
        st.lists(
            st.lists(st.integers(0, top), min_size=columns, max_size=columns),
            min_size=screens,
            max_size=screens,
        )
    )
    cuts = sorted(draw(st.sets(st.integers(1, columns))) | {0, columns})  # film boundaries
    split = [b - a for a, b in zip(cuts, cuts[1:])]
    model = small_model(weights, split)
    banned = draw(st.sets(st.sampled_from(model.variables)))
    return support.without_variables(model, banned)


# attendance near 10^16 once made the assignment solver return a wrong optimum
REPRODUCER = build_model(
    load_instance(
        generate_document(
            screens=4, films=2, clusters=1, seed=7, coeff_range=(5 * 10**15, 10**16)
        )
    )
)

# screens 1-3 can only use configurations 1 and 2: a Hall set of three
# screens on two columns
_SQUARE = small_model([[9, 5, 4, 1], [7, 3, 8, 2], [6, 6, 6, 6], [1, 2, 3, 4]])
CROWDED = support.without_variables(
    _SQUARE, {v for v in _SQUARE.variables if v.screen_id <= 3 and v.config_index >= 3}
)


@settings(max_examples=150, deadline=None)
@given(model=sparse_models())
@example(model=REPRODUCER)
@example(model=CROWDED)
def test_assignment_matches_lexicographic_oracle(model):
    fast = solve_assignment(model)
    oracle = solve_brute_force(model)
    assert fast.status == oracle.status
    assert fast.diagnostic == oracle.diagnostic
    assert fast.objective == oracle.objective
    assert fast.schedule == oracle.schedule

    certified = certify(model)
    screens, columns = len(model.screen_ids), len(model.column_keys)
    if certified.status == "Optimal":
        assert certified.certificate.kind == "lp-dual"
    else:
        assert certified.certificate.kind == ("pigeonhole" if screens > columns else "hall-set")
    # the brute force counted every complete schedule; past 500 of them an
    # evenly spaced 500 are checked against the duals, to keep the test fast
    stride = max(1, oracle.stats.nodes // 500)
    others = itertools.islice(complete_schedules(model), 0, None, stride)
    for tampered in tamperings(model, fast, others):
        with pytest.raises(CertificationError):
            check_certificate(model, tampered)


def complete_schedules(model):
    """Every schedule giving each screen its own allowed column."""
    column_of = {v: key for key, row in model.inequality_rows for v in row}

    def extend(rows, used):
        if not rows:
            yield []
            return
        for var in rows[0][1]:
            if column_of[var] not in used:
                for rest in extend(rows[1:], used | {column_of[var]}):
                    yield [var] + rest

    for chosen in extend(model.equality_rows, frozenset()):
        yield Schedule({v.screen_id: (v.film_id, v.config_index) for v in chosen})


def tamperings(model, report, schedules):
    """Reports that differ from the honest ``report`` in one way its check must reject.

    On an optimum, each of ``schedules`` but the optimum itself is one of them.
    """
    certificate = report.certificate
    if len(model.screen_ids) <= len(model.column_keys):
        yield replace(
            report, status="Infeasible", schedule=None, objective=None,
            certificate=Certificate("pigeonhole"),
        )
    if certificate.kind == "lp-dual":
        u, v = certificate.screen_duals, certificate.column_duals

        def shifted(du, dv):
            return replace(report, certificate=replace(
                certificate,
                screen_duals=tuple(x + du.get(k, 0) for k, x in enumerate(u)),
                column_duals=tuple(x + dv.get(k, 0) for k, x in enumerate(v)),
            ))

        for si in range(len(u)):
            yield shifted({si: 1}, {})
            yield shifted({si: -1}, {})
            if si:
                yield shifted({si - 1: 1, si: -1}, {})   # same dual objective
        chosen = set(report.schedule.variables())
        used = {ci for ci, (_, row) in enumerate(model.inequality_rows) if chosen & set(row)}
        for ci in set(range(len(v))) - used:
            yield shifted({}, {ci: 1})
            yield shifted({0: 1}, {ci: -1})              # same dual objective
        choices = report.schedule.choices
        for sid in choices:
            fewer = Schedule({s: c for s, c in choices.items() if s != sid})
            yield replace(report, schedule=fewer, objective=evaluate(model, fewer.variables()))
        outsider = max(model.screen_ids) + 1
        yield replace(report, schedule=Schedule({**choices, outsider: choices[model.screen_ids[0]]}))
        # a (film, config) the screen has no cell for, such as another cluster's film
        keys = [key[-2:] for key in model.column_keys]
        for si, sid in enumerate(model.screen_ids):
            own = {keys[ci] for ci, w in enumerate(model.weights[si]) if w is not None}
            for key in sorted(set(keys) - own):
                yield replace(report, schedule=Schedule({**choices, sid: key}))
        # every screen takes its best cell: where two screens share a column, the
        # row maxima and zero column duals satisfy every dual condition, and only
        # the no-column-twice check is left to reject it
        perturbed = _perturbed_weights(model.weights, _column_order(model))
        best = [max((w, ci) for ci, w in enumerate(row) if w is not None) for row in perturbed]
        if len({ci for _, ci in best}) < len(best):
            greedy = Schedule({sid: keys[ci] for sid, (_, ci) in zip(model.screen_ids, best)})
            yield replace(
                report,
                schedule=greedy,
                objective=evaluate(model, greedy.variables()),
                certificate=Certificate(
                    "lp-dual", screen_duals=tuple(w for w, _ in best), column_duals=(0,) * len(v)
                ),
            )
        for other in schedules:
            if other != report.schedule:
                objective = evaluate(model, other.variables())
                yield replace(report, schedule=other, objective=objective)
    elif certificate.kind == "hall-set":
        for field_name in ("screens", "columns"):
            members = getattr(certificate, field_name)
            for k in range(len(members)):
                fewer = members[:k] + members[k + 1 :]
                yield replace(report, certificate=replace(certificate, **{field_name: fewer}))
