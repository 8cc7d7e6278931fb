"""Per-cluster decomposition.

Staggering constraints only bind screens within one cluster of
neighbouring locations, so when no two clusters share an id or a screen
the joint program (all clusters at once) is block-diagonal: its optimum
is the sum of the cluster optima, and it is infeasible exactly when some
cluster is.  ``solve_all`` checks those two premises, then builds and
certifies each cluster model once; ``verify_decomposition`` is its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import dist
from typing import Dict, Optional, Tuple

from .domain import Instance, as_multi
from .formulation import BilpModel, build_model
from .solver import SolveReport, certify


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
    ``ValueError`` if two clusters share an id, or else if a screen belongs
    to two clusters; the loader refuses both.
    """
    clusters = sorted(as_multi(instance).clusters, key=lambda c: c.cluster_id)
    for first, second in zip(clusters, clusters[1:]):
        if first.cluster_id == second.cluster_id:
            raise ValueError(f"cluster id {first.cluster_id!r} appears more than once")
    first_cluster: Dict[int, str] = {}      # screen id -> the first cluster holding it
    for cluster in clusters:
        for screen in cluster.screens:
            first = first_cluster.setdefault(screen.screen_id, cluster.cluster_id)
            if first != cluster.cluster_id:
                raise ValueError(f"screen {screen.source_id} belongs to clusters {first!r} and {cluster.cluster_id!r}")
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
    """:func:`solve_all`'s report read as the joint result, which it is."""

    per_cluster: ClusterSolveReport
    equal = True    # not a field: solve_all's premises make the split exact

    @property
    def joint_status(self) -> str:
        return self.per_cluster.overall_status

    @property
    def joint_objective(self) -> Optional[Fraction]:
        return self.per_cluster.combined_objective


def verify_decomposition(instance: Instance) -> DecompositionReport:
    """Prove that solving per cluster loses nothing against a joint solve.

    This is :func:`solve_all`, whose premises make the joint program
    block-diagonal: the certified cluster results are the joint result.
    """
    return DecompositionReport(solve_all(instance))


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
