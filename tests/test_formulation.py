import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from cinestagger import (
    BilpModel,
    VariableRef,
    build_joint_model,
    build_model,
    check_feasible,
    evaluate,
    export_lp_text,
    load_instance,
)
from cinestagger.domain import as_multi, format_attendance
from cinestagger.formulation import _row_name, direct_sum

VIEWS = ("variables", "objective", "equality_rows", "inequality_rows")


def known_best_variables():
    return [
        VariableRef(sid, fid, cidx)
        for sid, (fid, cidx) in sorted(support.KNOWN_BEST_SCHEDULE.items())
    ]


def test_example_model_counts(example_model):
    assert example_model.variable_count == 144
    assert len(example_model.equality_rows) == 9
    assert len(example_model.inequality_rows) == 16


def test_example_model_layout(example_model):
    assert example_model.variables == tuple(sorted(example_model.variables))
    assert example_model.screen_ids == tuple(range(1, 10))
    assert example_model.column_keys[0] == (1, 1)
    assert example_model.column_keys[-1] == (5, 4)
    assert example_model.variables[0] == VariableRef(1, 1, 1)
    assert example_model.objective[VariableRef(1, 1, 1)] == 226000


def test_objective_copies_forecast(example_instance, example_model):
    for var, milli in example_model.objective.items():
        assert milli == example_instance.forecast.get(*var)


def test_trivial_model_counts():
    m = build_model(support.matrix_instance([[3]]))
    assert (m.variable_count, len(m.equality_rows), len(m.inequality_rows)) == (1, 1, 1)

    m = build_model(support.matrix_instance([[1, 2, 3], [4, 5, 6]], configs_per_film=[3]))
    assert (m.variable_count, len(m.equality_rows), len(m.inequality_rows)) == (6, 2, 3)


def test_each_variable_in_one_row_of_each_kind(example_model):
    eq_seen = {}
    for sid, row in example_model.equality_rows:
        for var in row:
            assert var not in eq_seen
            eq_seen[var] = sid
    ineq_seen = {}
    for key, row in example_model.inequality_rows:
        for var in row:
            assert var not in ineq_seen
            ineq_seen[var] = key
    assert set(eq_seen) == set(example_model.variables)
    assert set(ineq_seen) == set(example_model.variables)


def test_weights_hold_each_variable_in_its_cell(example_model, example_document):
    rng = random.Random(17)
    shared = support.load_multi(support.shared_film_copies(example_document))
    models = [example_model, build_joint_model(shared)]
    for _ in range(5):
        multi = support.load_multi(support.random_multi_document(rng, clusters=3))
        models.extend(build_model(c) for c in multi.clusters)
        models.append(build_joint_model(multi))
    models.extend(
        [
            support.without_variables(m, {v for v in m.variables if rng.random() < 0.4})
            for m in models
        ]
    )
    for model in models:
        weights = model.weights
        assert len(weights) == len(model.screen_ids)
        assert all(len(row) == len(model.column_keys) for row in weights)
        for ci, (_, row) in enumerate(model.inequality_rows):
            for var in row:
                assert weights[model.screen_ids.index(var.screen_id)][ci] == model.objective[var]
        # distinct variables sit in distinct cells, so every other cell is None
        assert sum(w is not None for row in weights for w in row) == model.variable_count


def test_matrix_and_row_built_models_agree(example_model, example_document):
    rng = random.Random(29)
    shared = support.load_multi(support.shared_film_copies(example_document))
    models = [example_model, build_joint_model(shared)]
    for _ in range(4):
        multi = support.load_multi(support.random_multi_document(rng, clusters=3, lo=0, hi=100000))
        models.extend(build_model(c) for c in multi.clusters)
        models.append(build_joint_model(multi))
    # thinned models are built from rows
    models.extend(
        [support.without_variables(m, {v for v in m.variables if rng.random() < 0.3}) for m in models]
    )
    for model in models:
        from_matrix = BilpModel.from_matrix(model.screen_ids, model.column_keys, model.weights)
        from_rows = BilpModel(
            variables=model.variables,
            objective=model.objective,
            equality_rows=model.equality_rows,
            inequality_rows=model.inequality_rows,
        )
        for other in (from_matrix, from_rows):
            for name in ("screen_ids", "column_keys", "weights") + VIEWS:
                assert getattr(other, name) == getattr(model, name), name
            assert other.variable_count == model.variable_count == len(model.variables)
            assert other == model
            assert export_lp_text(other) == export_lp_text(model) == reference_lp_text(model)


def test_variable_count_builds_no_view():
    model = build_model(support.matrix_instance([[1, 2, 3], [4, 5, 6]], configs_per_film=[3]))
    assert model.variable_count == 6
    export_lp_text(model)
    assert not set(VIEWS) & set(vars(model))
    assert len(model.variables) == 6
    assert set(VIEWS) <= set(vars(model))


def test_lp_export_example(example_model):
    text = export_lp_text(example_model)
    lines = text.splitlines()
    obj = next(l for l in lines if l.startswith(" obj:"))
    assert obj.count(" X_") == 144
    assert obj.startswith(" obj: 226 X_s1_f1_c1 + 245 X_s1_f1_c2 + ")
    assert " screen_1: " in text and " screen_9: " in text
    assert " stagger_f5_c4: " in text
    assert lines.count("Maximize") == 1
    assert lines.count("Subject To") == 1
    assert lines.count("Binary") == 1
    assert lines[-1] == "End"
    assert sum(1 for l in lines if l.endswith(" = 1")) == 9
    assert sum(1 for l in lines if l.endswith(" <= 1")) == 16
    assert export_lp_text(example_model) == text


def test_lp_export_zero_coefficient():
    model = build_model(support.matrix_instance([[0]]))
    assert " obj: 0 X_s1_f1_c1" in export_lp_text(model)


def test_lp_export_small_counts():
    model = build_model(support.matrix_instance([[1, 1, 1], [1, 1, 1]]))
    lines = export_lp_text(model).splitlines()
    obj = next(l for l in lines if l.startswith(" obj:"))
    assert obj.count(" X_") == 6
    assert sum(1 for l in lines if l.endswith(" = 1")) == 2
    assert sum(1 for l in lines if l.endswith(" <= 1")) == 3


def test_lp_export_fractional_coefficient():
    doc = support.matrix_document([[5]])
    doc["forecast"][0]["attendance"] = 226.5
    import json
    from decimal import Decimal

    from cinestagger import load_instance

    model = build_model(load_instance(json.loads(json.dumps(doc), parse_float=Decimal)))
    assert " obj: 226.5 X_s1_f1_c1" in export_lp_text(model)


def reference_lp_text(model):
    """The LP text written term by term, every name formatted where it is used."""
    lines = [
        "\\ Screen scheduling model: maximize forecast attendance",
        "\\ Terms ordered by ascending (screen, film, configuration)",
        "Maximize",
        " obj: " + " + ".join(f"{format_attendance(model.objective[v])} {v.name}" for v in model.variables),
        "Subject To",
    ]
    for sid, row in model.equality_rows:
        lines.append(f" screen_{sid}: " + " + ".join(v.name for v in row) + " = 1")
    for key, row in model.inequality_rows:
        row_name = f"stagger_f{key[0]}_c{key[1]}" if len(key) == 2 else f"stagger_{key[0]}_f{key[1]}_c{key[2]}"
        lines.append(f" {row_name}: " + " + ".join(v.name for v in row) + " <= 1")
    lines.append("Binary")
    lines.extend(f" {v.name}" for v in model.variables)
    lines.append("End")
    return "\n".join(lines) + "\n"


def test_lp_text_matches_reference_writer(example_model, example_document):
    rng = random.Random(23)
    fractional = support.matrix_document([[1, 2], [3, 4]])
    for row, value in zip(fractional["forecast"], ["226.5", "0.001", "999999999999999999.999", "12"]):
        row["attendance"] = Decimal(value)
    models = [
        example_model,
        build_model(load_instance(fractional)),
        build_joint_model(support.load_multi(support.shared_film_copies(example_document))),
    ]
    for _ in range(5):
        multi = support.load_multi(support.random_multi_document(rng, clusters=3, lo=0, hi=100000))
        models.extend(build_model(c) for c in multi.clusters)
        models.append(build_joint_model(multi))
    models.extend(
        [support.without_variables(m, {v for v in m.variables if rng.random() < 0.3}) for m in models]
    )
    for model in models:
        assert export_lp_text(model) == reference_lp_text(model)


def test_evaluate_known_best(example_model):
    assert evaluate(example_model, known_best_variables()) == 2615


def test_evaluate_empty(example_model):
    assert evaluate(example_model, []) == 0


def test_evaluate_single_variable(example_model):
    assert evaluate(example_model, [VariableRef(1, 1, 1)]) == 226


def test_evaluate_is_exact_on_fractions():
    doc = support.matrix_document([[5, 5]])
    doc["forecast"][0]["attendance"] = 0.1
    import json
    from decimal import Decimal

    from cinestagger import load_instance

    model = build_model(load_instance(json.loads(json.dumps(doc), parse_float=Decimal)))
    assert evaluate(model, [VariableRef(1, 1, 1)]) == Fraction(1, 10)


def test_evaluate_rejects_foreign_variable(example_model):
    with pytest.raises(ValueError):
        evaluate(example_model, [VariableRef(99, 1, 1)])


def test_evaluate_linearity(example_model):
    rng = random.Random(11)
    pool = list(example_model.variables)
    for _ in range(25):
        chosen = rng.sample(pool, 10)
        a, b = set(chosen[:4]), set(chosen[4:])
        assert evaluate(example_model, a | b) == evaluate(example_model, a) + evaluate(
            example_model, b
        )


def test_check_feasible_known_best(example_model):
    report = check_feasible(example_model, known_best_variables())
    assert report.feasible
    assert report.failures() == []
    assert len(report.rows) == 9 + 16


def test_check_feasible_flags_shared_configuration(example_model):
    chosen = known_best_variables()
    # screens 1 and 2 both on film 5 config 1
    chosen[0] = VariableRef(1, 5, 1)
    report = check_feasible(example_model, chosen)
    assert not report.feasible
    keys = [(r.kind, r.key) for r in report.failures()]
    assert ("inequality", (5, 1)) in keys


def test_check_feasible_flags_missing_screen(example_model):
    chosen = [v for v in known_best_variables() if v.screen_id != 9]
    report = check_feasible(example_model, chosen)
    assert not report.feasible
    assert ("equality", 9) in [(r.kind, r.key) for r in report.failures()]


def test_row_checks_read_as_one_line_each(example_model):
    chosen = known_best_variables()
    chosen[0] = VariableRef(1, 5, 1)
    rows = {(r.kind, r.key): str(r) for r in check_feasible(example_model, chosen).rows}
    assert rows[("equality", 1)] == "equality row screen 1: 1 chosen, ok"
    assert rows[("inequality", (5, 1))] == "inequality row film 5 config 1: 2 chosen, violated (want at most 1)"
    missing = check_feasible(example_model, chosen[1:]).failures()
    assert [str(r) for r in missing] == ["equality row screen 1: 0 chosen, violated (want exactly 1)"]


def test_check_feasible_refuses_a_variable_outside_the_model(example_model):
    with pytest.raises(ValueError) as err:
        check_feasible(example_model, [VariableRef(1, 99, 1)])
    assert str(err.value) == "variable X_s1_f99_c1 is not in the model"


def test_build_model_refuses_a_forecast_with_empty_cells():
    doc = support.matrix_document([[5, 6], [7, 8]])
    del doc["forecast"][-1]
    instance = load_instance(doc, allow_partial=True)
    with pytest.raises(ValueError) as err:
        build_model(instance)
    assert str(err.value) == "cluster 't': the forecast does not give every screen and configuration a value"


def test_feasible_assignments_have_cardinality_screen_count(example_model):
    assert len(known_best_variables()) == len(example_model.equality_rows)


def test_variable_names():
    assert VariableRef(3, 5, 2).name == "X_s3_f5_c2"


@settings(max_examples=300, deadline=None)
@given(first=st.text(max_size=6), second=st.text(max_size=6))
@example(first="a-b", second="a_b")
@example(first="a_x2d_b", second="a-b")
@example(first="a__b", second="a_b")
@example(first="c1", second="c2")
def test_row_names_tell_cluster_ids_apart(first, second):
    names = [_row_name((cluster_id, 1, 2)) for cluster_id in (first, second)]
    assert (names[0] == names[1]) == (first == second)
    # ids of ASCII letters and digits keep the names they always had
    for cluster_id, name in zip((first, second), names):
        if cluster_id.isascii() and cluster_id.isalnum():
            assert name == f"stagger_{cluster_id}_f1_c2"


def test_direct_sum_of_one_cluster_is_its_joint_model(example_instance, example_model):
    joint = build_joint_model(as_multi(example_instance))
    single = direct_sum([("c1", example_model)])
    assert single.screen_ids == joint.screen_ids == example_model.screen_ids
    assert single.column_keys == joint.column_keys
    assert single.column_keys == tuple(("c1",) + key for key in example_model.column_keys)
    assert single.weights == joint.weights == example_model.weights
    assert single.weights[0] is not example_model.weights[0]


def test_direct_sum_keeps_a_repeated_cluster_id_as_two_blocks(example_model):
    twice = direct_sum([("a", example_model), ("a", example_model)])
    width = len(example_model.column_keys)
    assert twice.column_keys == tuple(("a",) + key for key in example_model.column_keys) * 2
    # rows ascend by screen id; the sort keeps block order between equal ids
    assert twice.screen_ids == tuple(sid for sid in example_model.screen_ids for _ in (0, 1))
    for i, row in enumerate(twice.weights):
        cells = example_model.weights[i // 2]
        assert row == (cells + [None] * width if i % 2 == 0 else [None] * width + cells)
    assert twice.variable_count == 2 * example_model.variable_count
