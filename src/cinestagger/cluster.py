"""Per-cluster decomposition and its correctness check.

Staggering constraints only bind screens within one cluster of
neighbouring locations, so the full problem splits into independent
per-cluster problems.  ``solve_all`` exploits that; ``verify_decomposition``
proves it on a given instance, with no joint search, by checking that the
joint model (all clusters at once) is the direct sum of the cluster
models: a block-diagonal program's optimum is the sum of its blocks'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import dist
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .domain import Instance, as_multi
from .formulation import BilpModel, build_joint_model, build_model
from .solver import CertificationError, SolveReport, certify


@dataclass
class ClusterSolveReport:
    per_cluster: Dict[str, SolveReport]
    overall_status: str                       # "Optimal" or "Infeasible"
    combined_objective: Optional[Fraction]    # sum when overall Optimal


def _certify_all(models: Dict[str, BilpModel]) -> ClusterSolveReport:
    """Certify every cluster model and merge; Optimal only if all clusters are."""
    per_cluster = {cluster_id: certify(model) for cluster_id, model in models.items()}
    reports = per_cluster.values()
    if all(r.status == "Optimal" for r in reports):
        return ClusterSolveReport(
            per_cluster=per_cluster,
            overall_status="Optimal",
            combined_objective=sum((r.objective for r in reports), Fraction(0)),
        )
    return ClusterSolveReport(
        per_cluster=per_cluster,
        overall_status="Infeasible",
        combined_objective=None,
    )


def solve_all(instance: Instance) -> ClusterSolveReport:
    """Certify every cluster, in cluster id order, and merge.

    Infeasible clusters do not hide the others: each cluster's report is
    returned, and the overall status is Optimal only if all are.
    """
    clusters = sorted(as_multi(instance).clusters, key=lambda c: c.cluster_id)
    return _certify_all({c.cluster_id: build_model(c) for c in clusters})


@dataclass
class DecompositionReport:
    joint_status: str
    joint_objective: Optional[Fraction]
    per_cluster: ClusterSolveReport
    equal: bool


def verify_decomposition(instance: Instance) -> DecompositionReport:
    """Prove that solving per cluster loses nothing against a joint solve.

    Certifies each cluster's model, then checks in O(screens x columns)
    that the joint model is their direct sum (distinct screen ids in
    ascending order, staggering keys prefixed with the cluster id, each
    cluster's weight rows in its own block of columns and None elsewhere),
    whose optimum or infeasibility is the merged cluster result.  No joint
    search runs.  Raises :class:`CertificationError` if either check fails.
    """
    multi = as_multi(instance)
    clusters = sorted(multi.clusters, key=lambda c: c.cluster_id)
    models = {c.cluster_id: build_model(c) for c in clusters}
    split = _certify_all(models)

    # the direct sum: each cluster's matrix in its own block of columns, keyed
    # with the cluster id, its rows placed among all screens in id order
    keys, placed = [], []
    for cluster_id, model in models.items():
        start = len(keys)
        keys.extend((cluster_id,) + key for key in model.column_keys)
        placed.extend((sid, start, row) for sid, row in zip(model.screen_ids, model.weights))
    placed.sort(key=itemgetter(0))
    width = len(keys)
    joint = build_joint_model(multi)
    if (
        joint.column_keys != tuple(keys)
        or joint.screen_ids != tuple(sid for sid, _, _ in placed)
        or len(set(joint.screen_ids)) != len(placed)      # no screen in two clusters
        or any(
            row != [None] * start + block + [None] * (width - start - len(block))
            for row, (_, start, block) in zip(joint.weights, placed)
        )
    ):
        raise CertificationError("the joint model is not the direct sum of the cluster models")
    return DecompositionReport(
        joint_status=split.overall_status,
        joint_objective=split.combined_objective,
        per_cluster=split,
        equal=True,
    )


def derive_clusters(
    coordinates: Dict[int, Tuple[float, float]], threshold_km: float = 5.0
) -> Dict[int, str]:
    """Group locations into clusters by proximity.

    Two locations are neighbours when at most ``threshold_km`` apart
    (coordinates in kilometres); clusters are the connected components.
    Returns location_id -> cluster label ("c1", "c2", ... by smallest
    member id).  Convenience for instance authoring; solving always uses
    the explicit cluster ids in the instance file.
    """
    ids = sorted(coordinates)
    parent = {i: i for i in ids}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in ids:
        for b in ids:
            if a < b and dist(coordinates[a], coordinates[b]) <= threshold_km:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    roots = sorted({find(i) for i in ids})
    label = {root: f"c{k}" for k, root in enumerate(roots, start=1)}
    return {i: label[find(i)] for i in ids}
