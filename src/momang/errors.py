"""Exception types shared across the package, its one size-cap check, its
integer- and record-argument checks and the base of its frozen records."""


class MomangError(Exception):
    """Base class for all structured errors raised by this package."""


class ParseError(MomangError):
    """Input file or raw data does not match the expected wire format."""


class BadParameters(MomangError):
    """Generator or command was invoked with unusable parameters."""


class GuardExceeded(MomangError):
    """A call's predicted work exceeds one of the package's size caps."""


def _check_work(what: str, work: int, cap: int):
    """The one size-cap check: raise before a call whose ``work``, predicted
    from its input, exceeds ``cap``.  Every cap is a module constant."""
    if work > cap:
        raise GuardExceeded(f"{what}: predicted {work} exceeds the cap {cap}")


def _check_int(what: str, value, low: int, stop: int | None = None, error=BadParameters):
    """The one integer-argument check: ``value`` must be an ``int`` that is
    not a ``bool``, else :class:`BadParameters`; outside ``low <= value <
    stop`` (no upper end when ``stop`` is ``None``) it raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParameters(f"{what} must be an integer, got {value!r}")
    if stop is None:
        if value < low:
            raise error(f"{what} must be >= {low}, got {value}")
    elif not low <= value < stop:
        raise error(f"{what} {value} of {stop}")


def _check_type(what: str, value, cls):
    """The one record-argument check: ``value`` must be a ``cls``, else
    :class:`BadParameters`."""
    if not isinstance(value, cls):
        raise BadParameters(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


class _Record:
    """Base of the package's frozen records.

    ``_fields`` names a record's fields in order, and ``repr`` shows them,
    less the names in ``_hidden``.  ``==`` holds between records of one
    class whose ``_key()`` tuples, the fields' values in that order, are
    equal, and ``hash`` hashes that tuple.  A record declared with
    ``eq=False`` has no ``_key`` and compares and hashes by identity.

    When a record class is made, one ``exec`` compiles its ``__init__``,
    which takes the fields as arguments and sets each with
    ``object.__setattr__``, and its ``_key``; the code is what writing them
    out would give.  A field's default is the class attribute of its name,
    as in a dataclass.  A method the class writes itself is kept; a written
    ``__init__`` (a validating constructor) leaves the generated one as the
    unchecked classmethod ``_trusted``.  Assignment and deletion raise
    ``AttributeError``; instances keep a ``__dict__`` for ``cached_property``.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        own, names = vars(cls), cls._fields
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in own else n for n in names)
        sets = "".join(f"    object.__setattr__(self, {n!r}, {n})\n" for n in names)
        source = f"def __init__(self, {params}):\n{sets}"
        if "__init__" in own:
            source += (f"def _trusted(cls, {params}):\n    self = object.__new__(cls)\n"
                       f"{sets}    return self\n")
        if eq:
            source += f"def _key(self):\n    return ({''.join(f'self.{n}, ' for n in names)})\n"
        namespace = {"__name__": cls.__module__, "_defaults": own}
        exec(source, namespace)
        for method in ("__init__", "_key", "_trusted"):
            if method in namespace and method not in own:
                fn = namespace[method]
                fn.__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, classmethod(fn) if method == "_trusted" else fn)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# -- polytope validation -----------------------------------------------------

class InvalidPolytope(MomangError):
    """Base class for incidence data that fails validation."""


class NotSimple(InvalidPolytope):
    """Some vertex lies in a number of facets different from the dimension."""


class DuplicateVertex(InvalidPolytope):
    """Two vertices carry identical facet sets."""


class UnusedFacet(InvalidPolytope):
    """A facet index appears in no vertex."""


class NotPolytopal(InvalidPolytope):
    """The incidence fails the ridge, connectivity or (n = 3) Euler checks."""


class InvalidSphere(MomangError):
    """A facet list does not describe a closed simplicial sphere."""


# -- half-space presentations ------------------------------------------------

class HRepError(MomangError):
    """Base class for defective half-space presentations."""


class RankDeficient(HRepError):
    """The normal matrix does not have full rank."""


class Unbounded(HRepError):
    """The inward normals do not positively span the ambient space."""


class EmptyInterior(HRepError):
    """The feasible region has no interior point."""


class RedundantHalfspace(HRepError):
    """Dropping the half-space does not change the feasible region."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"half-space {index} is redundant")


class NotSimplePresentation(HRepError):
    """Some vertex of the region lies on more than n bounding hyperplanes."""


class OutsidePolytope(HRepError):
    """The point to lift violates one of the defining inequalities."""


class NotOnVariety(HRepError):
    """The point does not satisfy the quadric system within tolerance."""


# -- moves ---------------------------------------------------------------------

class NoSuchVertex(MomangError):
    """Vertex index out of range."""


class NoSuchFacet(MomangError):
    """Facet index out of range."""


class NotSimplexFacet(MomangError):
    """The facet is not a combinatorial simplex, so it cannot be collapsed."""


class IsSimplex(MomangError):
    """The polytope already is a simplex; nothing left to collapse."""


class DimensionUnsupported(MomangError):
    """The operation is only defined for 3-dimensional polytopes."""


class NotAFace(MomangError):
    """The given vertex set is not a face of the simplicial sphere."""


class LinkNotStandard(MomangError):
    """The face's link is not the boundary of a complementary simplex."""
