"""Vertices of the rank-2 affine building for SL3.

A vertex is a homothety class of full O-lattices in K^3, stored as the
canonical scale-normalized basis: the Hermite form of any generating set,
shifted by the unique power of ``t`` that puts the lattice inside ``O^3``
but not inside ``t * O^3``.  Classes are equal when their fields and bases are.

Distances are SL3 dominant weights.  ``d(x,y)`` expresses a basis of ``y``
in a basis of ``x``, reads off the elementary-divisor exponents, negates,
sorts, and normalizes the last entry to zero.  The two fundamental weights
``omega_1 = (1,0,0)`` and ``omega_2 = (1,1,0)`` are the adjacency types:
an ``omega_1``-neighbor of ``[L]`` corresponds to a line in the residue
space ``L / tL`` and an ``omega_2``-neighbor to a plane.

Two vertices lie in a common apartment: one Smith elimination of
``rel = x.basis^-1 * z.basis`` gives ``g_i`` with ``L_x = <g_i>``, ``L_z = <t^(e_i) g_i>``,
so ``L_x meet t^a L_z = <t^max(0, a + e_i) g_i>`` and ``L_x + t^a L_z =
<t^min(0, a + e_i) g_i>``.  Both bases are canonical forms, so the valuation
of the determinant is read off their diagonals.

What is known of a pair of classes is kept once per unordered pair, in two
levels.  Every pair asked anything gets ``rel`` and its exponents, read off
the determinantal divisors of ``rel`` with no elimination; the distance and
adjacency need nothing more.  Only a pair whose basis is read, by a pair
chain with an interior vertex or by the residue strata of realization, runs
the Smith elimination, and the other orientation is the kept one reversed.
A pair chain is then one canonical form per interior vertex.  The dual
classes that realization's omega_2 steps read are kept in a second, smaller memo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf

from .errors import MalformedJSON, PreconditionViolated, json_fields
from .series import (
    QQ,
    CoefficientField,
    LaurentMatrix,
    LaurentScalar,
    _reduce_above_diagonal,
    divisor_exponents,
    hermite_over_O,
    invert_upper_triangular,
    smith_form,
    solve_upper_triangular,
)

OMEGA1 = (1, 0, 0)
OMEGA2 = (1, 1, 0)
ZERO_WEIGHT = (0, 0, 0)

#: Rational coefficients for random residue choices are drawn from this range.
RATIONAL_SAMPLE_RANGE = 10007


def dual_weight(w):
    """Dominant weight of -w, i.e. the reversed distance: (m1, m2, 0) -> (m1, m1 - m2, 0)."""
    a, b, c = sorted((-w[0], -w[1], -w[2]), reverse=True)
    return (a - c, b - c, 0)


def steps(w):
    """Number of edges on a geodesic of type ``w`` = a*omega_1 + b*omega_2: a + b."""
    return w[0]


def weight_components(w):
    """Coefficients (a, b) with w = a*omega_1 + b*omega_2."""
    return (w[0] - w[1], w[1] - w[2])


def letter_weight(letter):
    if letter == 1:
        return OMEGA1
    if letter == 2:
        return OMEGA2
    raise ValueError(f"letter must be 1 or 2, got {letter!r}")


class LatticeClass:
    """Homothety class of a full O-lattice, held by its canonical basis.

    Construct through :func:`class_from_generators` (or the convenience
    factories); the constructor trusts its input.  The coefficient field is
    part of the identity; the order sorts by basis within one field.
    """

    __slots__ = ("basis", "_key", "_hash")

    def __init__(self, basis):
        self.basis = basis
        self._key = basis.key()
        self._hash = hash((basis.field.p, self._key))

    @property
    def field(self):
        return self.basis.field

    @classmethod
    def standard(cls, field):
        """The class of O^3 itself."""
        return cls(LaurentMatrix.identity(field))

    @classmethod
    def from_diagonal(cls, field, exponents):
        """Class of the diagonal lattice spanned by t^(e_i) * e_i."""
        return class_from_generators(
            LaurentMatrix.scalar_diag(field, list(exponents)).columns(), field
        )

    def key(self):
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, LatticeClass)
            and self._key == other._key
            and self.field == other.field
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        cols = [
            " + ".join(f"({f.to_text()})e{i+1}" for i, f in enumerate(col) if not f.is_zero())
            for col in self.basis.columns()
        ]
        return "[" + "; ".join(cols) + "]"

    def to_json(self):
        return lattice_to_json(self.basis)


def class_from_generators(vectors, field=None):
    """Canonical homothety class of the lattice the given columns generate.

    INPUT:

    - ``vectors`` -- iterable of columns (each a list of 3 LaurentScalar)
      spanning ``K^3``, or a :class:`LaurentMatrix` with 3 rows
    - ``field`` -- optional, for the matrix-free call styles

    Raises ``RankDeficient`` when the span is a proper subspace.
    """
    if isinstance(vectors, LaurentMatrix):
        mat = vectors
    else:
        vectors = list(vectors)
        if field is None:
            field = getattr(vectors[0][0], "field", None)
        mat = LaurentMatrix.from_columns(field, vectors)
    return _normalized_class(hermite_over_O(mat))


def _normalized_class(h):
    """The class of a canonical basis ``h``, trusted to be in Hermite form."""
    s = -h.minval()
    return LatticeClass(h.shift(s) if s else h)


def distance(x, y):
    """Dominant-weight distance d(x, y): minus the exponents of the pair's
    common apartment, made dominant."""
    if x == y:
        return ZERO_WEIGHT
    if y < x:
        return dual_weight([-e for e in _pair_cached(y, x).exponents()])
    return dual_weight(_pair_cached(x, y).exponents())


def adjacent(x, y):
    return distance(x, y) in (OMEGA1, OMEGA2)


def lattice_contains(basis, vec):
    """Whether a column vector lies in the lattice with the given canonical basis."""
    if any(c.field != basis.field for c in vec):
        raise TypeError("mixed scalar domains")
    return all(
        c.is_zero() or c.val() >= 0 for c in solve_upper_triangular(basis, vec)
    )


def lattice_dual(mat):
    """Canonical basis of the dual lattice {v : <v, L> in O}, from generators
    put in Hermite form on entry."""
    return _dual(hermite_over_O(mat))


def _dual(h):
    """:func:`lattice_dual` of a canonical basis ``h``; ``val det h^-T = -val det h``."""
    return hermite_over_O(invert_upper_triangular(h).transpose(), -_det_val(h))


def lattice_join(a, b):
    """Canonical basis of the lattice sum L_a + L_b (representative level)."""
    return hermite_over_O(a.hstack(b))


def lattice_meet(a, b):
    """Canonical basis of the intersection L_a meet L_b (representative level),
    from generator sets put in Hermite form on entry."""
    return _meet(hermite_over_O(a), hermite_over_O(b))


def _meet(a, b):
    """:func:`lattice_meet` of canonical bases, read off their common apartment:
    ``<t^max(0, e_i) g_i>``."""
    return _apartment_form(a, common_apartment(a, b), 0, max)


def join(x, y):
    """Class-level sum of the canonical bases, ``x.basis``' columns first."""
    return _normalized_class(hermite_over_O(x.basis.hstack(y.basis), _det_val(x.basis)))


def meet(x, y):
    """Class-level intersection, computed on the canonical scale-normalized bases."""
    return _normalized_class(_meet(x.basis, y.basis))


def common_apartment(a, b):
    """``(exps, g)`` with ``e_1 <= e_2 <= e_3``, ``L_a = <g_i>`` and ``L_b = <t^(e_i) g_i>``,
    for canonical forms ``a`` and ``b``."""
    return _Pair(a, b).apartment()


def _det_val(h):
    """``val det`` of a canonical basis, read off its diagonal."""
    return sum(h.entry(i, i).val() for i in range(3))


def _relative(a, b):
    """``a^-1 * b`` for canonical forms, by triangular solves."""
    return LaurentMatrix.from_columns(a.field, [solve_upper_triangular(a, c) for c in b.columns()])


class _Pair:
    """What is known of the lattices of two canonical forms ``a`` and ``b``.

    ``rel = a^-1 * b`` and ``dval = val det rel`` are formed on creation: ``a`` and
    ``b`` are upper triangular with monomial diagonal, so ``dval`` is the sum of the
    diagonal exponents of ``b`` minus that of ``a``.  :meth:`exponents` reads the
    elementary-divisor exponents of ``rel`` off its minors; :meth:`apartment` runs the
    Smith elimination of ``rel`` once, keeps its exponents and ``g = a * w`` for its
    basis ``w``, and lets ``rel`` go.
    """

    __slots__ = ("a", "rel", "dval", "exps", "g")

    def __init__(self, a, b):
        self.a = a
        self.rel = _relative(a, b)
        self.dval = _det_val(b) - _det_val(a)
        self.exps = self.g = None

    def exponents(self):
        if self.exps is None:
            self.exps = divisor_exponents(self.rel, self.dval)
        return self.exps

    def apartment(self):
        if self.g is None:
            self.exps, w = smith_form(self.rel, self.dval)
            self.g = self.a * w
            self.rel = None
        return self.exps, self.g


# one polygon's hull reaches at most ~150 pairs; 4,096 entries hold ~14 MiB
@lru_cache(maxsize=1 << 12)
def _pair_cached(x, z):
    return _Pair(x.basis, z.basis)


# reuse spans a few steps: 16 entries do all of it on a 12-gon's verify, 4,096 add 22 MiB
@lru_cache(maxsize=64)
def dual(x):
    """The class of the dual lattice: the class-level :func:`lattice_dual`."""
    return _normalized_class(_dual(x.basis))


def class_apartment(x, z):
    """The common apartment of the classes ``x`` and ``z``, as :func:`common_apartment`
    of their bases, eliminated once per unordered pair.

    The kept orientation is the sorted one.  From ``L_z = <g_i>``,
    ``L_x = <t^(e_i) g_i>`` the other reads ``L_x = <h_i>``, ``L_z = <t^(-e_i) h_i>``
    with ``h_i = t^(e_i) g_i``, reversed so the exponents stay nondecreasing.
    """
    if not z < x:
        return _pair_cached(x, z).apartment()
    exps, g = _pair_cached(z, x).apartment()
    cols = [[f.shift(e) for f in col] for e, col in zip(exps, g.columns())]
    return (-exps[2], -exps[1], -exps[0]), LaurentMatrix.from_columns(g.field, cols[::-1])


def apartment_lattice(apartment, a, bound):
    """Columns ``t^bound(0, a + e_i) g_i`` of the common apartment of ``L_x`` and
    ``L_z``: they span ``L_x meet t^a L_z`` for ``bound=max``, ``L_x + t^a L_z`` for
    ``bound=min``."""
    exps, g = apartment
    return LaurentMatrix.from_columns(
        g.field,
        [[f.shift(bound(0, a + e)) for f in col] for e, col in zip(exps, g.columns())],
    )


def _apartment_form(basis, apartment, a, bound):
    """Hermite form of :func:`apartment_lattice`.  The ``g_i`` span ``L_x``, whose canonical
    basis is ``basis``, so its ``val det`` is ``_det_val(basis) + sum bound(0, a + e_i)``."""
    det_val = _det_val(basis) + sum(bound(0, a + e) for e in apartment[0])
    return hermite_over_O(apartment_lattice(apartment, a, bound), det_val)


def pair_chain(x, z, bound):
    """Distinct classes of :func:`apartment_lattice` from ``x`` to ``z``: meets for
    increasing ``a`` (``bound=max``), sums for decreasing ``a`` (``bound=min``).

    Exactly the n + 1 shifts from ``-e_3`` to ``-e_1`` give distinct classes,
    with ``x`` and ``z`` at the ends, where n = e_3 - e_1 = steps(d(x, z)).  An
    adjacent pair has no interior vertex, so it reads no basis.
    """
    if x == z:
        return [x]
    if adjacent(x, z):
        return [x, z]
    apartment = class_apartment(x, z)
    lo, hi = -apartment[0][2], -apartment[0][0]
    shifts = range(lo + 1, hi) if bound is max else range(hi - 1, lo, -1)
    inner = [_normalized_class(_apartment_form(x.basis, apartment, a, bound)) for a in shifts]
    return [x] + inner + [z]


def common_neighbor(x, y, z):
    """The unique vertex adjacent to all of x, y, z.

    Requires x, y, z pairwise distinct with d(x,y), d(y,z) the two distinct
    fundamental weights in either order.  The answer is the middle vertex of
    the geodesic from x to z on the other side of the strip from y: meets
    for the (omega_1, omega_2) configuration, sums for (omega_2, omega_1).
    """
    if x == y or y == z or x == z:
        raise PreconditionViolated("common_neighbor needs pairwise distinct vertices")
    d1 = distance(x, y)
    d2 = distance(y, z)
    if (d1, d2) == (OMEGA1, OMEGA2):
        chain = pair_chain(x, z, max)
    elif (d1, d2) == (OMEGA2, OMEGA1):
        chain = pair_chain(x, z, min)
    else:
        raise PreconditionViolated(
            f"common_neighbor needs distances (omega_1, omega_2) in some order, got {d1}, {d2}"
        )
    if len(chain) != 3:
        raise PreconditionViolated(
            "x and z are not at distance omega_1 + omega_2"
        )
    return chain[1]


def _sample_coeff(field, rng):
    if field.p is None:
        return Fraction(rng.randrange(RATIONAL_SAMPLE_RANGE))
    return rng.randrange(field.p)


def _sample_nonzero_vector(field, rng, length=3):
    while True:
        v = [_sample_coeff(field, rng) for _ in range(length)]
        if any(c != 0 for c in v):
            return v


def _residue_coords(field, coeffs):
    """Residue coordinates reduced into ``field``, and the indices of the nonzero ones."""
    coeffs = [field.normalize(c) for c in coeffs]
    support = [j for j in range(3) if coeffs[j] != 0]
    if not support:
        raise PreconditionViolated("residue coordinates must not all be zero")
    return coeffs, support


def step_to_line(x, coeffs):
    """The omega_1-neighbor spanned by the residue line with the given coordinates.

    ``coeffs`` are three field constants, not all zero mod the characteristic, read
    in the columns ``g_j`` of the canonical basis of ``x``.  The neighbor is built in
    canonical form, exactly: for ``k`` the last index of a nonzero coordinate, ``t g_j``
    (j != k) and ``v = g_k + sum_{i<k} c_i g_i`` need only the above-diagonal pass.
    """
    field = x.field
    coeffs, support = _residue_coords(field, coeffs)
    k = support[-1]
    inv = field.inv(coeffs[k])
    cols = x.basis.columns()
    v = cols[k]
    for i in support[:-1]:
        v = [a + b.scale(field.normalize(coeffs[i] * inv)) for a, b in zip(v, cols[i])]
    gens = [v if j == k else [f.shift(1) for f in col] for j, col in enumerate(cols)]
    return _normalized_class(_reduce_above_diagonal(field, gens, inf))


def step_to_plane(x, covector):
    """The omega_2-neighbor given by the residue plane annihilated by ``covector``.

    ``covector`` has three field constants ``u_i``, not all zero mod the characteristic;
    the plane is orthogonal to it in the coordinates of the canonical basis of ``x``.
    Built in canonical form as in :func:`step_to_line`: for ``p`` the first index with
    ``u_p != 0``, ``g_i`` (i < p), ``t g_p`` and ``g_i - (u_i / u_p) g_p`` (i > p).
    """
    field = x.field
    covector, (p, *_) = _residue_coords(field, covector)
    inv = field.inv(covector[p])
    cols = x.basis.columns()
    gens = cols[:p] + [[f.shift(1) for f in cols[p]]] + [
        [a + b.scale(field.normalize(-covector[i] * inv)) for a, b in zip(cols[i], cols[p])]
        for i in range(p + 1, 3)
    ]
    return _normalized_class(_reduce_above_diagonal(field, gens, inf))


def random_step(x, w, rng):
    """A uniformly random neighbor y of x with d(x, y) = w.

    For ``w = omega_1`` this lifts a uniformly random line in the residue
    space ``L/tL``; for ``w = omega_2`` a uniformly random plane.  Residue
    coefficients are drawn from the coefficient field (a fixed integer range
    over Q).  The result always satisfies the stated distance.
    """
    field = x.field
    if w == OMEGA1:
        y = step_to_line(x, _sample_nonzero_vector(field, rng))
    elif w == OMEGA2:
        y = step_to_plane(x, _sample_nonzero_vector(field, rng))
    else:
        raise PreconditionViolated(f"step weight must be omega_1 or omega_2, got {w}")
    return y


def field_to_json(field):
    if field.p is None:
        return {"field": "Q"}
    return {"field": "Fp", "p": field.p}


def field_from_json(obj):
    (kind,) = json_fields(obj, "lattice", field=str)
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return CoefficientField(*json_fields(obj, "lattice", p=int))
    raise MalformedJSON(f"lattice field 'field' must be 'Q' or 'Fp', got {kind!r}")


def lattice_to_json(mat):
    out = field_to_json(mat.field)
    out["columns"] = [[f.to_json() for f in col] for col in mat.columns()]
    return out


def lattice_from_json(obj):
    field = field_from_json(obj)
    (cols,) = json_fields(obj, "lattice", columns=list)
    try:
        if not cols or any(len(col) != 3 for col in cols):
            raise ValueError("a lattice needs columns of 3 entries each")
        cols = [[LaurentScalar.from_json(field, t) for t in col] for col in cols]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedJSON(f"lattice field 'columns' is malformed: {exc}") from exc
    return LaurentMatrix.from_columns(field, cols)


def class_from_json(obj):
    return class_from_generators(lattice_from_json(obj))
