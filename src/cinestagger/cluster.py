"""Per-cluster decomposition and its correctness check.

Staggering constraints only bind screens within one cluster of
neighbouring locations, so the full problem splits into independent
per-cluster problems.  ``solve_all`` exploits that; ``verify_decomposition``
proves it on a given instance by solving the joint model (all clusters at
once, staggering rows still scoped per cluster) and checking that the
joint optimum equals the sum of the per-cluster optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import dist
from typing import Dict, Optional, Tuple

from .domain import Instance, as_multi
from .formulation import build_joint_model, build_model
from .solver import CertificationError, SolveReport, certify

JOINT_SIZE_LIMIT = 1 << 16   # max joint-model variables verify_decomposition accepts


class DecompositionSizeError(Exception):
    """The joint model would exceed the verification size limit."""


@dataclass
class ClusterSolveReport:
    per_cluster: Dict[str, SolveReport]
    overall_status: str                       # "Optimal" or "Infeasible"
    combined_objective: Optional[Fraction]    # sum when overall Optimal


def solve_all(instance: Instance) -> ClusterSolveReport:
    """Certify every cluster, in cluster id order, and merge.

    Infeasible clusters do not hide the others: each cluster's report is
    returned, and the overall status is Optimal only if all are.
    """
    clusters = sorted(as_multi(instance).clusters, key=lambda c: c.cluster_id)
    per_cluster = {c.cluster_id: certify(build_model(c)) for c in clusters}
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


@dataclass
class DecompositionReport:
    joint_status: str
    joint_objective: Optional[Fraction]
    per_cluster: ClusterSolveReport
    equal: bool


def verify_decomposition(instance: Instance) -> DecompositionReport:
    """Check that solving per cluster loses nothing against a joint solve.

    The joint model goes through ``certify`` like every cluster, so its
    optimum (or infeasibility) carries a checked certificate too, found and
    checked in polynomial time.  Raises :class:`DecompositionSizeError`
    when the joint model would be too large, and
    :class:`CertificationError` if a certificate check fails or (against
    everything the block-diagonal structure guarantees) the two routes
    disagree.
    """
    multi = as_multi(instance)
    joint_size = sum(c.screen_count * c.configuration_count for c in multi.clusters)
    if joint_size > JOINT_SIZE_LIMIT:
        raise DecompositionSizeError(
            f"joint model would have {joint_size} variables (limit {JOINT_SIZE_LIMIT})"
        )

    joint_report = certify(build_joint_model(multi))
    split_report = solve_all(multi)

    if split_report.overall_status == "Optimal":
        if joint_report.status != "Optimal":
            raise CertificationError(
                "joint model infeasible while every cluster solved to optimality"
            )
        if joint_report.objective != split_report.combined_objective:
            raise CertificationError(
                f"decomposition mismatch: joint optimum {joint_report.objective}"
                f" != sum of cluster optima {split_report.combined_objective}"
            )
    elif joint_report.status == "Optimal":
        raise CertificationError(
            "joint model solved to optimality while some cluster is infeasible"
        )

    return DecompositionReport(
        joint_status=joint_report.status,
        joint_objective=joint_report.objective,
        per_cluster=split_report,
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
