"""Exact-arithmetic toolkit for 3-dimensional reflexive lattice polytopes.

Builds lattice polytopes over exact integers, classifies their facets,
evaluates smoothability and rigidity criteria on the associated toric Fano
threefolds, and computes the degree and Hilbert coefficients.  A command
line driver batch-processes polytope databases.
"""

from .criteria import (
    ClassificationReport,
    classify,
    criterion_aft,
    criterion_indec,
    criterion_rigid_face,
    criterion_totaro_rigid,
)
from .invariants import degree, hilbert_prefix
from .lift import LiftedCone, minkowski_lift
from .polygon import (
    LatticePolygon,
    MinkowskiDecomposition,
    PolygonClass,
    classify_polygon,
    edge_lattice_lengths,
    enumerate_summand_vectors,
    facet_to_polygon,
    is_minkowski_indecomposable,
    maximal_decompositions,
)
from .polytope import (
    DegenerateInputError,
    Facet,
    LatticePolytope,
    convex_hull,
    is_fano,
    is_reflexive,
    lattice_point_list,
    lattice_points,
    normalized_volume,
    polar,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "DegenerateInputError",
    "Facet",
    "LatticePolygon",
    "LatticePolytope",
    "LiftedCone",
    "MinkowskiDecomposition",
    "PolygonClass",
    "classify",
    "classify_polygon",
    "convex_hull",
    "criterion_aft",
    "criterion_indec",
    "criterion_rigid_face",
    "criterion_totaro_rigid",
    "degree",
    "edge_lattice_lengths",
    "enumerate_summand_vectors",
    "facet_to_polygon",
    "hilbert_prefix",
    "is_fano",
    "is_minkowski_indecomposable",
    "is_reflexive",
    "lattice_point_list",
    "lattice_points",
    "maximal_decompositions",
    "minkowski_lift",
    "normalized_volume",
    "polar",
]
