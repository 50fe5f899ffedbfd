"""The package's frozen records, their methods generated by ``errors._Record``,
against the dataclasses they replace.

Every record the package builds is compared with its ``conftest``
dataclass oracle: equal ``repr``, ``==`` between every two records of one
class as between their oracles, equal ``hash`` where the class compares by
value, and assignment and deletion refused.  ``FaceLattice`` and
``FixedPointSet`` were plain classes; their oracles are the dataclasses
that give their old ``repr`` and identity equality.
"""

import copy
import dataclasses
import inspect
import itertools
import pickle

import numpy as np
import pytest

from conftest import DATACLASS_RECORDS, cut_cube, dataclass_oracle
from momang import (
    CombPolytope,
    Face,
    HRep,
    SimplicialSphere,
    bistellar_flip,
    build_chamber_complex,
    cube,
    dodecahedron,
    doubling_filtration,
    dual_sphere,
    face_lattice,
    fixed_point_components,
    lift_point,
    make_hrep,
    prism,
    prismatic_circuits,
    psc_flip_certificate,
    random_vertexcuts,
    recognize_vertexcut_reducible,
    relation_matrix,
    simplex,
    simplex_boundary_sphere,
    validate_polytope,
    verify_nondegeneracy,
    vertex_cut,
)
from momang.corpus import cube_hrep, prism_hrep


def _records():
    """Records of all 16 classes, from the corpus, the moves, the chamber
    complex and the H-rep code, several per class."""
    polytopes = [simplex(3), prism(), cube(3), cube(4), dodecahedron(), cut_cube(),
                 random_vertexcuts(5, 7),
                 validate_polytope(3, simplex(3).vertices, ["a", "b", "c", "d"])]
    out = list(polytopes)
    for p in polytopes[:3]:
        lattice = face_lattice(p)
        out += [lattice, *lattice.faces]
        out += [fixed_point_components(build_chamber_complex(p), i) for i in (0, 1)]
    for p in polytopes[:4]:
        out.append(dual_sphere(p))
    out += [simplex_boundary_sphere(3), bistellar_flip(simplex_boundary_sphere(3), (0, 1, 2))]
    out += psc_flip_certificate(prism(), 2) + psc_flip_certificate(random_vertexcuts(3, 0), 3)
    for p in (cube(3), cut_cube(), random_vertexcuts(4, 1), dodecahedron()):
        out.append(recognize_vertexcut_reducible(p))
    out += prismatic_circuits(prism(), 3) + prismatic_circuits(cube(3), 4)
    for p in (cube(3), prism()):
        for stage in doubling_filtration(p)[:4]:
            out += [stage, stage.edge_types, *stage.edge_types.records]
    for h in (cube_hrep(3), prism_hrep(), make_hrep([[1, 0], [0, 1], [-1, -1]], [0, 0, 1])):
        out += [h, h._frame, relation_matrix(h), verify_nondegeneracy(h, 10)]
        out.append(lift_point(h, np.full(h.n, 0.25), [1] * h.m))
    return out


RECORDS = _records()


def test_every_record_class_is_covered():
    assert {type(r).__name__ for r in RECORDS} == set(DATACLASS_RECORDS)


def test_repr_eq_hash_match_the_dataclasses():
    made = {}
    oracles = [dataclass_oracle(r, made) for r in RECORDS]
    for record, oracle in zip(RECORDS, oracles):
        assert repr(record) == repr(oracle)
        if type(oracle).__eq__ is not object.__eq__:
            assert hash(record) == hash(oracle), repr(record)
        else:
            assert hash(record) == object.__hash__(record)
    for (a, oa), (b, ob) in itertools.combinations(zip(RECORDS, oracles), 2):
        if type(a) is type(b):
            assert (a == b) == (oa == ob) and (a != b) == (oa != ob), (a, b)
        else:
            assert a != b


def test_copies_compare_as_the_dataclasses_do():
    made = {}
    for record in RECORDS:
        twin = copy.copy(record)
        assert (twin == record) == (dataclass_oracle(twin, made) == dataclass_oracle(record, made))
    p = cube(3)
    assert pickle.loads(pickle.dumps(p)) == p
    assert hash(pickle.loads(pickle.dumps(p))) == hash(p)


def test_fields_refuse_assignment_and_deletion():
    for record in RECORDS:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1


def test_init_takes_the_dataclass_arguments():
    # positional and keyword, defaults included
    def parameters(cls):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(cls.__init__).parameters.values()]

    for record in RECORDS:
        assert parameters(type(record)) == parameters(DATACLASS_RECORDS[type(record).__name__])
        assert record._fields == tuple(f.name for f in dataclasses.fields(
            DATACLASS_RECORDS[type(record).__name__]))
    assert Face(frozenset({0}), 2, (0, 1)) == Face(facets=frozenset({0}), dim=2, vertices=(0, 1))
    h = cube_hrep(3)
    q = relation_matrix(h)
    assert type(q)(q.m, q.gamma, q.rhs, q.norms).rounding == 0.0
    assert type(lift_point(h, np.full(3, 0.5), [1] * 6))(y=q.rhs).source is None
    assert CombPolytope(3, 4, simplex(3).vertices).facet_labels is None

    # missing arguments, an extra positional one and an unknown keyword are
    # refused with the oracle's TypeError message, qualified name included
    def refusal(cls, *args, **kwargs):
        with pytest.raises(TypeError) as refused:
            cls(*args, **kwargs)
        return str(refused.value)

    for record in {type(r): r for r in RECORDS}.values():
        oracle = DATACLASS_RECORDS[type(record).__name__]
        values = [getattr(record, name) for name in record._fields]
        required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(oracle))
        for args, kwargs in [(values[:required - 1], {}), ((), {}), (values + [None], {}),
                             (values, {"extra": None})]:
            assert refusal(type(record), *args, **kwargs) == refusal(oracle, *args, **kwargs)
    assert refusal(Face, frozenset({0}), 2) == (
        "Face.__init__() missing 1 required positional argument: 'vertices'")


def test_cached_properties_still_work():
    p = cube(3)
    assert p._pairs is p._pairs
    h = cube_hrep(3)
    assert h._frame is h._frame and relation_matrix(h) is relation_matrix(h)


def test_own_constructors_get_the_generated_trusted_path():
    # a record that writes its own validating __init__ gets the generated
    # field setter as the classmethod _trusted, with the same defaults; the
    # others get nothing new
    owners = {CombPolytope, SimplicialSphere, HRep}
    for cls in {type(r) for r in RECORDS}:
        assert ("_trusted" in vars(cls)) == (cls in owners), cls.__name__
    for record in RECORDS:
        if type(record) in owners:
            twin = type(record)._trusted(*(getattr(record, n) for n in record._fields))
            same = all(getattr(twin, n) is getattr(record, n) for n in record._fields)
            assert type(twin) is type(record) and repr(twin) == repr(record) and same
            assert (twin == record) == (type(record).__eq__ is not object.__eq__)
    assert CombPolytope._trusted.__qualname__ == "CombPolytope._trusted"
    assert list(inspect.signature(CombPolytope._trusted).parameters) == [
        "dim", "facet_count", "vertices", "facet_labels"]
    # it checks nothing: three vertices of a tetrahedron pass as a polytope
    p = CombPolytope._trusted(3, 4, ((0, 1, 2), (0, 1, 3), (0, 2, 3)))
    assert p.facet_labels is None and p.vertex_count == 3
    with pytest.raises(AttributeError, match="cannot assign to field 'dim'"):
        p.dim = 2
