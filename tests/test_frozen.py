"""The per-record values stay frozen dataclasses, and carry no instance dict.

The hull, ``classify`` and the PALP reader build ``Facet``,
``LatticePolytope``, ``ClassificationReport`` and ``PolytopeRecord`` with
``polytope.frozen_builder``, one call per value.  Each value must behave as
one built by the class's own frozen ``__init__``.
"""

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import fano3.polygon
from conftest import PYRAMID, TETRAHEDRON
from fano3 import db
from fano3.criteria import ClassificationReport, classify
from fano3.polytope import Facet, LatticePolytope, convex_hull

TETRAHEDRON_PALP = "3 4\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n"

FIELDS = {
    Facet: ("vertex_indices", "normal", "height", "area2"),
    LatticePolytope: ("vertices", "facets", "edges", "facet_adjacency"),
    ClassificationReport: (
        "polytope_id", "reflexive", "facet_classes", "smooth", "isolated_singular",
        "nodes", "totaro_rigid", "rigid_face_obstruction", "indec_obstruction",
        "aft_obstruction", "low_degree", "rigid_face_witnesses", "indec_witnesses",
        "aft_witnesses", "degree", "hilbert",
    ),
    db.PolytopeRecord: ("id", "vertices"),
}


def built_values():
    """One value of each class, as the package builds them."""
    values = []
    for pts, palp in ((TETRAHEDRON, TETRAHEDRON_PALP), (PYRAMID, None)):
        poly = convex_hull(pts)
        values += [*poly.facets, poly, classify(poly, polytope_id=7)]
        if palp:
            values += db.parse_palp(palp)
    return values


def by_init(value):
    """The same value built by its class's own frozen __init__."""
    cls = type(value)
    init = {f.name: getattr(value, f.name) for f in fields(cls) if f.init}
    return cls(**init) if cls is ClassificationReport else cls(*init.values())


@pytest.mark.parametrize("value", built_values(), ids=lambda v: type(v).__name__)
def test_built_value_is_frozen_and_equals_the_init_built_one(value):
    cls = type(value)
    assert cls in FIELDS
    assert tuple(f.name for f in fields(value)) == FIELDS[cls]
    twin = by_init(value)
    assert type(twin) is cls
    assert value == twin and twin == value
    assert hash(value) == hash(twin)
    assert repr(value) == repr(twin)
    assert repr(value).startswith(cls.__name__ + "(")
    for f in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, f.name)
    # no instance dict: a facet or polytope owns only its fields
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", built_values(), ids=lambda v: type(v).__name__)
def test_replace_and_pickle(value):
    first = fields(value)[0]
    same = replace(value, **{first.name: getattr(value, first.name)})
    assert type(same) is type(value) and same == value
    other = replace(value, **{first.name: None})
    assert type(other) is type(value) and getattr(other, first.name) is None
    assert other != value
    # a caller's own process pool sends values between processes by pickle
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == repr(value)


def test_field_flags_are_kept():
    # every field of a facet takes part in equality and repr
    assert all(f.compare and f.repr for f in fields(Facet))
    report = fields(ClassificationReport)
    assert all(f.kw_only for f in report)
    assert report[0].metadata["key"] == "id"


def test_report_defaults():
    # a Fano polytope that is not reflexive keeps the defaults of the
    # reflexive-only fields
    poly = convex_hull(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)))
    report = classify(poly)
    assert report == by_init(report)
    assert report.smooth is None and report.indec_witnesses == () and report.hilbert is None


def test_facet_to_polygon_builds_a_polygon_per_call(monkeypatch):
    built = []
    post_init = fano3.polygon.LatticePolygon.__post_init__

    def counting(polygon):
        built.append(polygon)
        post_init(polygon)

    monkeypatch.setattr(fano3.polygon.LatticePolygon, "__post_init__", counting)
    poly = convex_hull(PYRAMID)
    assert built == []
    facet = poly.facets[0]
    before = (facet, hash(facet), pickle.dumps(facet))
    first = fano3.polygon.facet_to_polygon(poly, 0)
    assert built == [first]
    second = fano3.polygon.facet_to_polygon(poly, 0)
    assert built == [first, second] and second == first and second is not first
    # charting leaves the facet as it was: equality, hash and pickle
    assert (facet, hash(facet), pickle.dumps(facet)) == before
    assert facet == by_init(facet) and hash(facet) == hash(by_init(facet))
    assert pickle.loads(pickle.dumps(facet)) == facet


def test_reprs_as_at_the_frozen_init():
    poly = convex_hull(TETRAHEDRON)
    assert repr(poly.facets[0]) == "Facet(vertex_indices=(1, 3, 2), normal=(-3, 1, 1), height=1, area2=1)"
    (record,) = db.parse_palp(TETRAHEDRON_PALP)
    assert repr(record) == "PolytopeRecord(id=1, vertices=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))"
