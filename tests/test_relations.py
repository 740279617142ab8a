"""Relations that theory imposes between the verdicts of one polytope.

``classify`` computes the verdicts side by side; these tests check the ties
between them, on reports and on the bundled classification.

- **No polytope is both known smoothable and obstructed.**  ``L_smooth``,
  ``L_nodes`` and ``L_low`` name varieties that are smooth or deform to a
  smooth one: smooth ones trivially, ordinary double points by their
  smoothing, and the degrees 4..12 by the classification of those
  varieties.  ``L_indec`` and ``L_aft`` name varieties that have no
  smoothing: a cone over an indecomposable facet is an isolated
  singularity with no smoothing direction, and an AFT pair carries an
  obstruction.  A variety cannot be both.
- **On a reflexive polytope, every rigid-face witness is an
  indecomposability witness.**  A rigid-face witness is a triangle whose
  vertices are not a basis while the endpoints of each edge extend to one.
  On a reflexive polytope the endpoints of an edge extend to a basis
  exactly when the edge is unitary, so the witness is a unitary triangle
  that is not the standard one, and not a square.  A Minkowski summand of
  a triangle is a point or a homothetic copy t T with 0 <= t <= 1, and on
  a lattice triangle with edges of lattice length 1 only t = 0 and t = 1
  give lattice summands: the triangle is indecomposable.
- **``L_nodes`` is in ``L_isol``, and ``L_smooth`` is disjoint from it.**
  Standard triangles and standard squares have only unit edges, and a
  polytope in ``L_nodes`` has a square, which is no standard triangle.  A
  polytope in ``L_isol`` has a facet that is no standard triangle, and
  every facet of one in ``L_smooth`` is a standard triangle.
"""

import random

from conftest import NAMED_FANO, apply_matrix, large_shear
from fano3 import db
from fano3.criteria import classify
from fano3.polytope import convex_hull, polar


def assert_list_relations(lists):
    """The relations on the six lists, as id sets."""
    smoothable = lists["L_smooth"] | lists["L_nodes"] | lists["L_low"]
    obstructed = lists["L_indec"] | lists["L_aft"]
    assert not smoothable & obstructed
    assert lists["L_nodes"] <= lists["L_isol"]
    assert not lists["L_smooth"] & lists["L_isol"]


def lists_of(reports):
    """The six lists of ``fano3 lists`` from reports, by report index."""
    return {
        name: {i for i, rep in enumerate(reports) if rep.reflexive and getattr(rep, verdict)}
        for name, verdict in db.LIST_VERDICTS
    }


def test_relations_on_reports(reflexive_pool):
    # the pool, a large shear of each member, and the polars, which hold the
    # pool's larger facets and its obstructed polytopes of low degree
    rng = random.Random(0x2E1A)
    pool = [convex_hull(pts) for pts in reflexive_pool]
    polys = [convex_hull(pts) for pts in NAMED_FANO.values()] + pool
    polys += [convex_hull(apply_matrix(large_shear(rng), pts)) for pts in reflexive_pool]
    polys += [polar(poly) for poly in pool]
    reports = [classify(poly, m_max=0) for poly in polys]
    for rep in reports:
        if rep.reflexive:
            assert set(rep.rigid_face_witnesses) <= set(rep.indec_witnesses)
    lists = lists_of(reports)
    assert_list_relations(lists)
    # not vacuous: every list and some rigid-face witness occur
    assert any(rep.rigid_face_witnesses for rep in reports)
    assert all(lists[name] for name in db.LIST_NAMES)


def test_relations_on_bundled_lists():
    lists = db.reference_lists()
    assert_list_relations({name: set(lists[name]) for name in db.LIST_NAMES})
