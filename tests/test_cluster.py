import copy
import json
import random
from dataclasses import replace

import pytest

import support
from cinestagger import (
    CertificationError,
    MultiClusterInstance,
    build_joint_model,
    build_model,
    certify,
    derive_clusters,
    load_instance,
    solve_all,
    solve_assignment,
    verify_decomposition,
)
from cinestagger.solver import check_certificate
from test_solver import tamperings


def two_offset_copies(example_document):
    """Two disjoint clusters, each an id-shifted copy of the bundled example."""
    doc = copy.deepcopy(example_document)
    for film in doc["films"]:
        film["cluster_id"] = "c1"
    second = copy.deepcopy(example_document)
    for location in second["locations"]:
        location["id"] += 3
        location["cluster_id"] = "c2"
        location["name"] += " B"
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
    return doc


def test_single_cluster_matches_certify(example_instance, example_model):
    report = solve_all(example_instance)
    assert report.overall_status == "Optimal"
    assert list(report.per_cluster) == ["c1"]
    direct = certify(example_model)
    assert report.per_cluster["c1"] == direct
    assert report.combined_objective == direct.objective


def test_joint_model_keeps_shared_films_apart(example_document):
    # a film without a cluster scope heads one column per cluster
    instance = support.load_multi(support.shared_film_copies(example_document))
    joint = build_joint_model(instance)
    assert len(joint.column_keys) == 2 * 16
    for ci, key in enumerate(joint.column_keys):
        screens = {v.screen_id for v in dict(joint.inequality_rows)[key]}
        assert all(
            joint.weights[joint.screen_ids.index(sid)][ci] is not None for sid in screens
        )
        assert screens == ({1, 2, 3, 4, 5, 6, 7, 8, 9} if key[0] == "c1" else set(range(10, 19)))
    report = solve_assignment(joint)
    assert report.status == "Optimal"
    assert report.objective == 2 * 2615
    decomposition = verify_decomposition(instance)
    assert decomposition.joint_objective == decomposition.per_cluster.combined_objective == 5230


def test_two_copies_double_the_objective(example_document):
    instance = support.load_multi(two_offset_copies(example_document))
    report = solve_all(instance)
    assert report.overall_status == "Optimal"
    assert report.combined_objective == 2 * 2615
    assert report.per_cluster["c1"].objective == 2615
    assert report.per_cluster["c2"].objective == 2615


def test_certificate_check_rejects_planted_joint_schedules(example_document):
    joint = build_joint_model(support.load_multi(two_offset_copies(example_document)))
    report = certify(joint)
    planted = list(tamperings(joint, report, []))
    # among them: c1's screen 1 given c2's film 6
    assert any(r.schedule and r.schedule.choices.get(1) == (6, 1) for r in planted)
    for tampered in planted:
        with pytest.raises(CertificationError):
            check_certificate(joint, tampered)


def test_infeasible_cluster_does_not_hide_others():
    rng = random.Random(31)
    doc = support.random_multi_document(rng, clusters=1)
    starved = support.matrix_document(
        [[5], [4]],
        cluster_id="z",
        first_location=50,
        first_screen=len(doc["screens"]) + 1,
        first_film=50,
        scoped_films=True,
    )
    for key in ("locations", "screens", "films", "configurations", "forecast"):
        doc[key].extend(starved[key])
    report = solve_all(support.load_multi(doc))
    assert report.overall_status == "Infeasible"
    assert report.combined_objective is None
    assert report.per_cluster["c1"].status == "Optimal"
    assert report.per_cluster["z"].status == "Infeasible"
    assert "pigeonhole" in report.per_cluster["z"].diagnostic


def test_joint_model_structure(example_document):
    instance = support.load_multi(two_offset_copies(example_document))
    joint = build_joint_model(instance)
    assert joint.variable_count == 2 * 144
    assert len(joint.equality_rows) == 18
    assert len(joint.inequality_rows) == 32
    assert joint.column_keys[0] == ("c1", 1, 1)
    assert joint.column_keys[-1] == ("c2", 10, 4)
    # screens only pair with their own cluster's configurations
    for sid, row in joint.equality_rows:
        assert len(row) == 16
        clusters = {("c1" if var.film_id <= 5 else "c2") for var in row}
        assert clusters == {"c1" if sid <= 9 else "c2"}


def test_joint_model_lp_text(example_document, tmp_path):
    from cinestagger.cli import main

    doc = two_offset_copies(example_document)
    path, target = tmp_path / "two.json", tmp_path / "joint.lp"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["build", str(path), "--export-lp", str(target)]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()

    configs = sorted(
        (c["film_id"], c["config_index"]) for c in example_document["configurations"]
    )
    expected = [f"stagger_c1_f{f}_c{k}" for f, k in configs]
    expected += [f"stagger_c2_f{f + 5}_c{k}" for f, k in configs]
    assert expected[0] == "stagger_c1_f1_c1" and expected[-1] == "stagger_c2_f10_c4"
    assert [l.split(":")[0].strip() for l in lines if l.endswith(" <= 1")] == expected

    screen_rows = [l for l in lines if l.startswith(" screen_")]
    assert len(screen_rows) == 18
    for sid, line in enumerate(screen_rows, start=1):
        name, terms = line[:-len(" = 1")].split(": ")
        assert name == f" screen_{sid}"
        offset = 5 if sid > 9 else 0
        assert terms.split(" + ") == [f"X_s{sid}_f{f + offset}_c{k}" for f, k in configs]

    binary = lines[lines.index("Binary") + 1:lines.index("End")]
    assert len(binary) == 288


def test_verify_decomposition_two_copies(example_document):
    instance = support.load_multi(two_offset_copies(example_document))
    report = verify_decomposition(instance)
    assert report.equal
    assert report.joint_status == "Optimal"
    assert report.joint_objective == 2 * 2615
    assert report.per_cluster.combined_objective == 2 * 2615


def test_verify_decomposition_single_cluster(example_instance):
    report = verify_decomposition(example_instance)
    assert report.equal
    assert report.joint_objective == 2615


def test_verify_decomposition_random_clusters():
    rng = random.Random(606)
    for _ in range(10):
        doc = support.random_multi_document(rng, clusters=rng.randint(2, 3))
        multi = support.load_multi(doc)
        report = verify_decomposition(multi)
        assert report.equal
        assert report.joint_objective == report.per_cluster.combined_objective
        # the joint matching, kept here as an independent reference
        assert certify(build_joint_model(multi)).objective == report.joint_objective


def test_verify_decomposition_infeasible_cluster():
    doc = support.matrix_document([[5], [4]])
    report = verify_decomposition(load_instance(doc))
    assert report.joint_status == "Infeasible"
    assert report.per_cluster.overall_status == "Infeasible"
    assert report.equal


def _move_first_variable(joint):
    """c1's first variable taken out of its staggering column and put into c2's first."""
    rows = dict(joint.inequality_rows)
    source = joint.column_keys[0]
    target = next(key for key in joint.column_keys if key[0] == "c2")
    var = rows[source][0]
    rows[source] = rows[source][1:]
    rows[target] = rows[target] + (var,)
    return replace(joint, inequality_rows=tuple(rows.items()))


def _alter_one_coefficient(joint):
    objective = dict(joint.objective)
    objective[joint.variables[-1]] += 1
    return replace(joint, objective=objective)


def _drop_one_variable(joint):
    return support.without_variables(joint, {joint.variables[7]})


def _swap_screen_rows(joint):
    """Screens 1 and 2 trade equality rows; columns and objective stay."""
    rows = list(joint.equality_rows)
    (first, first_row), (second, second_row) = rows[0], rows[1]
    rows[0], rows[1] = (first, second_row), (second, first_row)
    return replace(joint, equality_rows=tuple(rows))


@pytest.mark.parametrize(
    "tamper",
    [_move_first_variable, _alter_one_coefficient, _drop_one_variable, _swap_screen_rows],
)
def test_verify_decomposition_rejects_a_joint_model_that_is_no_direct_sum(
    example_document, monkeypatch, tamper
):
    import cinestagger.cluster as cluster_module

    instance = support.load_multi(two_offset_copies(example_document))
    assert verify_decomposition(instance).joint_objective == 2 * 2615
    monkeypatch.setattr(
        cluster_module, "build_joint_model", lambda multi: tamper(build_joint_model(multi))
    )
    with pytest.raises(CertificationError, match="direct sum"):
        verify_decomposition(instance)


def test_verify_decomposition_rejects_clusters_sharing_variables(example_instance):
    # the same screens in two clusters: rows and objective match, the blocks overlap
    twice = MultiClusterInstance(
        clusters=(example_instance, replace(example_instance, cluster_id="c2"))
    )
    with pytest.raises(CertificationError, match="direct sum"):
        verify_decomposition(twice)


def test_derive_clusters_by_distance():
    coordinates = {
        1: (0.0, 0.0),
        2: (1.0, 0.0),
        3: (2.0, 0.5),
        7: (40.0, 40.0),
        9: (41.0, 40.5),
    }
    labels = derive_clusters(coordinates, threshold_km=2.0)
    assert labels == {1: "c1", 2: "c1", 3: "c1", 7: "c2", 9: "c2"}
    # one giant threshold collapses everything
    assert set(derive_clusters(coordinates, threshold_km=100.0).values()) == {"c1"}
