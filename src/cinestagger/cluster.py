"""Per-cluster decomposition and its correctness check.

Staggering constraints only bind screens within one cluster of
neighbouring locations, so the full problem splits into independent
per-cluster problems.  ``solve_all`` exploits that, building and
certifying each cluster model once; ``verify_decomposition`` proves it on
a given instance, with no joint search, by checking that the joint model
(all clusters at once) equals ``formulation.direct_sum`` of the models
``solve_all`` certified: a block-diagonal program's optimum is the sum of
its blocks'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import dist
from typing import Dict, Optional, Tuple

from .domain import Instance, as_multi
from .formulation import BilpModel, build_joint_model, build_model, direct_sum
from .solver import CertificationError, SolveReport, certify


@dataclass
class ClusterSolveReport:
    per_cluster: Dict[str, SolveReport]
    overall_status: str                       # "Optimal" or "Infeasible"
    combined_objective: Optional[Fraction]    # sum when overall Optimal
    # (cluster id, model) per cluster, in cluster id order: the models certified
    models: Tuple[Tuple[str, BilpModel], ...] = field(compare=False, repr=False)


def solve_all(instance: Instance) -> ClusterSolveReport:
    """Build and certify every cluster's model once, in cluster id order, and merge.

    Infeasible clusters do not hide the others: each cluster's report is
    returned, and the overall status is Optimal only if all are.  Raises
    ``ValueError`` if two clusters share an id.
    """
    clusters = sorted(as_multi(instance).clusters, key=lambda c: c.cluster_id)
    for first, second in zip(clusters, clusters[1:]):
        if first.cluster_id == second.cluster_id:
            raise ValueError(f"cluster id {first.cluster_id!r} appears more than once")
    models = tuple((c.cluster_id, build_model(c)) for c in clusters)
    per_cluster = {cluster_id: certify(model) for cluster_id, model in models}
    optimal = all(r.status == "Optimal" for r in per_cluster.values())
    return ClusterSolveReport(
        per_cluster=per_cluster,
        overall_status="Optimal" if optimal else "Infeasible",
        combined_objective=(
            sum((r.objective for r in per_cluster.values()), Fraction(0)) if optimal else None
        ),
        models=models,
    )


@dataclass
class DecompositionReport:
    joint_status: str
    joint_objective: Optional[Fraction]
    per_cluster: ClusterSolveReport
    equal: bool


def verify_decomposition(instance: Instance) -> DecompositionReport:
    """Prove that solving per cluster loses nothing against a joint solve.

    Certifies each cluster's model, then checks in O(screens x columns)
    that the joint model equals :func:`direct_sum` of them over distinct
    screen ids, so its optimum or infeasibility is the merged cluster
    result.  No joint search runs.  Raises :class:`CertificationError` if
    either check fails.
    """
    multi = as_multi(instance)
    split = solve_all(multi)
    joint, expected = build_joint_model(multi), direct_sum(split.models)
    if (
        joint.screen_ids != expected.screen_ids
        or joint.column_keys != expected.column_keys
        or joint.weights != expected.weights
        or len(set(joint.screen_ids)) != len(joint.screen_ids)    # no screen in two clusters
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
