import copy
import json
import random
from support import replace

import pytest

import support
from cinestagger import (
    CertificationError,
    MultiClusterInstance,
    build_joint_model,
    build_model,
    certify,
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


def test_verify_decomposition_rejects_clusters_sharing_variables(example_instance):
    # the same screens in two clusters: the blocks overlap, so the split is no
    # decomposition (solved anyway, each screen would be scheduled twice)
    twice = MultiClusterInstance(
        clusters=(example_instance, replace(example_instance, cluster_id="c2"))
    )
    for check in (solve_all, verify_decomposition):
        with pytest.raises(ValueError) as err:
            check(twice)
        assert str(err.value) == "screen 1 belongs to clusters 'c1' and 'c2'"


def test_solve_all_rejects_a_repeated_cluster_id(example_document):
    # a dict keyed by cluster id would keep one c1 and drop the other's 9 screens
    first, second = support.load_multi(two_offset_copies(example_document)).clusters
    twice = MultiClusterInstance(clusters=(first, replace(second, cluster_id="c1")))
    for check in (solve_all, verify_decomposition):
        with pytest.raises(ValueError, match="cluster id 'c1' appears more than once"):
            check(twice)


def test_solve_all_checks_cluster_ids_before_screens(example_document, example_instance):
    # c1 twice, and a c2 that has the first c1's screens
    _, other = support.load_multi(two_offset_copies(example_document)).clusters
    clusters = (example_instance, replace(example_instance, cluster_id="c2"), replace(other, cluster_id="c1"))
    for check in (solve_all, verify_decomposition):
        with pytest.raises(ValueError) as err:
            check(MultiClusterInstance(clusters=clusters))
        assert str(err.value) == "cluster id 'c1' appears more than once"


def test_solve_all_keeps_the_models_it_certified(example_document):
    instance = support.load_multi(two_offset_copies(example_document))
    report = solve_all(instance)
    assert [cluster_id for cluster_id, _ in report.models] == ["c1", "c2"]
    for (cluster_id, model), cluster in zip(report.models, instance.clusters):
        assert model.weights == build_model(cluster).weights
        assert certify(model) == report.per_cluster[cluster_id]

