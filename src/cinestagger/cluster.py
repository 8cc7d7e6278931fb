"""Per-cluster decomposition.

Staggering constraints only bind screens within one cluster of
neighbouring locations, so when no two clusters share an id or a screen
the joint program (all clusters at once) is block-diagonal: its optimum
is the sum of the cluster optima, and it is infeasible exactly when some
cluster is.  ``solve_all`` checks those two premises, then builds and
certifies each cluster model once; ``verify_decomposition`` is its report.
Both reports are named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, Optional

from .domain import Instance
from .formulation import build_model
from .solver import certify


class ClusterSolveReport(namedtuple("ClusterSolveReport", "per_cluster overall_status combined_objective models")):
    """Every cluster's report, merged.

    ``per_cluster`` maps cluster id to its :class:`SolveReport`; ``overall_status``
    is "Optimal" only if every cluster's is, and then ``combined_objective`` is
    their sum, else None.  ``models`` holds the (cluster id, model) pairs
    certified, in cluster id order.
    """

    __slots__ = ()


def solve_all(instance: Instance) -> ClusterSolveReport:
    """Build and certify every cluster's model once, in cluster id order, and merge.

    Infeasible clusters do not hide the others: each cluster's report is
    returned, and the overall status is Optimal only if all are.  Raises
    ``ValueError`` if two clusters share an id, or else if a screen belongs
    to two clusters; the loader refuses both.
    """
    clusters = sorted(instance.clusters, key=lambda c: c.cluster_id)
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


class DecompositionReport(namedtuple("DecompositionReport", "per_cluster")):
    """:func:`solve_all`'s report read as the joint result, which it is."""

    __slots__ = ()    # per_cluster: ClusterSolveReport
    equal = True    # not a field: solve_all's premises make the split exact

    @property
    def joint_status(self) -> str:
        return self.per_cluster.overall_status

    @property
    def joint_objective(self) -> Optional[Fraction]:
        return self.per_cluster.combined_objective


def verify_decomposition(instance: Instance) -> DecompositionReport:
    """Solve per cluster; no two clusters share a screen, so the sum of cluster optima is the joint optimum.

    This is :func:`solve_all`, whose premises make the joint program
    block-diagonal: the certified cluster results are the joint result.
    """
    return DecompositionReport(solve_all(instance))

