"""Triangular-cell analogues of Young tableaux: the partition class with
simple odd parts, its distributive lattice, an insertion algorithm for
permutations, weak poset patterns with strong avoidance, and the
correspondence between tableaux and interval orders."""

from ._kernels import backend
from .insertion import (
    classify_shape,
    rs_insert,
    sch_insert,
)
from .lattice import CoverSets, count_chains, covers, join, leq, meet, verify_differential
from .partitions import (
    cluster_map,
    enumerate_schroeder_partitions,
    gf_coefficients,
    is_schroeder,
    satisfies_cn_condition,
)
from .posets import (
    FinitePoset,
    build_weak_pattern_poset,
    enumerate_posets,
    sav_count,
    strongly_avoids,
    weakly_contains,
)
from .intervals import (
    grid_downsets,
    has_schroder_preimage,
    interval_order,
    intervals_of_tableau,
    is_interval_order,
    tableau_from_witness,
)
from .tableaux import (
    SchroderTableau,
    count_tableaux,
    enumerate_tableaux,
    is_standard,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "FinitePoset",
    "SchroderTableau",
    "backend",
    "build_weak_pattern_poset",
    "classify_shape",
    "cluster_map",
    "count_chains",
    "count_tableaux",
    "CoverSets",
    "covers",
    "enumerate_posets",
    "enumerate_schroeder_partitions",
    "enumerate_tableaux",
    "gf_coefficients",
    "grid_downsets",
    "has_schroder_preimage",
    "interval_order",
    "intervals_of_tableau",
    "is_interval_order",
    "is_schroeder",
    "is_standard",
    "join",
    "leq",
    "meet",
    "render",
    "rs_insert",
    "satisfies_cn_condition",
    "sav_count",
    "sch_insert",
    "strongly_avoids",
    "tableau_from_witness",
    "verify_differential",
    "weakly_contains",
]
