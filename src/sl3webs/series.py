"""Exact Laurent-polynomial arithmetic and lattice normal forms.

Scalars are finite Laurent polynomials in one variable ``t`` with exact
coefficients, either rationals (:class:`fractions.Fraction`) or a prime
field ``F_p``.  They stand in for elements of the Laurent series field
``K = k((t))``: any computation that would need an honest power series
(inverting a unit, eliminating against a pivot) is carried out modulo an
explicit power ``t^M`` whose exponent is chosen so that the truncation
cannot change the answer.  The key fact is that a full-rank span ``L`` of
columns contains ``t^M * O^3`` once ``M`` exceeds
``val(det A) - 2 * minval`` for any nonsingular column triple ``A``, so
column operations may be reduced mod ``t^M`` without moving ``L``.  Library
callers know ``val(det A)``; only generators from outside form a determinant.

The two normal forms computed here are a column Hermite form over the
valuation ring ``O = k[[t]]`` (canonical bases for lattices) and the
elementary-divisor exponents of a nonsingular square matrix, read off its
minors or found with the basis that diagonalizes it by elimination.  Neighbor
steps build their bases in Hermite shape and run only its above-diagonal pass.
Most operands met there are zero, a constant or one or two terms, so a product
with a zero operand forms nothing, a constant unit is inverted without Newton
steps, and a pivot whose unit is exactly 1 is not scaled.

Invariant: every stored coefficient is normalized (a ``Fraction`` over Q,
an int in ``range(p)`` over F_p) and nonzero.  The public constructors
normalize what they are given; results computed inside the library are
trusted and wrapped by ``LaurentScalar._trusted`` without a second pass.
Scalar domains are checked where scalars meet from outside, by the scalar
operators ``+ - *`` and by the :class:`LaurentMatrix` constructor, once per
entry; the product kernels trust their operands.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from itertools import combinations
from math import inf
from re import fullmatch

from .errors import InvariantViolated, MalformedJSON, RankDeficient, SingularMatrix, json_fields

# Miller-Rabin with these bases is exact below 318665857834031151167461, the
# least strong pseudoprime to all of them; moduli are kept below 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientField:
    """The coefficient domain of scalars: Q when ``p`` is None, else F_p.

    Coefficients are stored as ``fractions.Fraction`` over Q and as ints in
    ``range(p)`` over F_p.  Instances compare equal by characteristic, so a
    field object can be carried around freely as a tag.  Constants are
    combined with plain ``+ - *``; :meth:`normalize` is the one reduction.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and p >= 2**64:
            raise ValueError(f"modulus {p} is not below 2**64")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def normalize(self, c):
        if self.p is None:
            return c if isinstance(c, Fraction) else Fraction(c)
        return c % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def coeff_to_json(self, c):
        return str(c) if self.p is None else int(c)

    def coeff_from_json(self, obj):
        """Laurent term ``c``: an int or ``"[+-]digits[/digits]"`` over Q, an int over F_p."""
        if self.p is None:
            if type(obj) is int or type(obj) is str and fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", obj):
                with suppress(ValueError, ZeroDivisionError):
                    return Fraction(obj)
            raise MalformedJSON(f"Q coefficient 'c' must be a rational string or int, got {obj!r}")
        if type(obj) is not int:
            raise MalformedJSON(f"F_p coefficient 'c' must be an int, got {obj!r}")
        return obj % self.p

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefficientField", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = CoefficientField()

DEFAULT_PRIME = 10007

#: Largest ``|e|`` of a Laurent term read from JSON; README "File formats" gives its cost.
MAX_JSON_EXPONENT = 50


def GF(p):
    """Return the prime field with ``p`` elements."""
    return CoefficientField(p)


class LaurentScalar:
    """A finite Laurent polynomial ``sum c_e * t^e`` with exact coefficients.

    INPUT:

    - ``field`` -- a :class:`CoefficientField`
    - ``terms`` -- dict mapping exponent to coefficient; zero coefficients
      are dropped on construction, so ``terms`` is empty iff the scalar is 0

    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        clean = {}
        for e, c in terms.items():
            c = field.normalize(c)
            if c != 0:
                clean[int(e)] = c
        self.field, self.terms = field, clean

    @classmethod
    def _trusted(cls, field, terms):
        """Wrap ``terms`` whose coefficients are already normalized and nonzero."""
        scalar = object.__new__(cls)
        scalar.field, scalar.terms = field, terms
        return scalar

    @classmethod
    def zero(cls, field):
        return cls._trusted(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {0: c})

    @classmethod
    def one(cls, field):
        return cls._trusted(field, {0: field.normalize(1)})

    @classmethod
    def monomial(cls, field, e, c=1):
        return cls(field, {e: c})

    def is_zero(self):
        return not self.terms

    def val(self):
        """Order of vanishing at t = 0; ``math.inf`` for the zero scalar."""
        return min(self.terms) if self.terms else inf

    def coeff(self, e):
        return self.terms.get(e, Fraction(0) if self.field.p is None else 0)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return _reduced(self.field, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) - c
        return _reduced(self.field, out)

    def __neg__(self):
        return _reduced(self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        if not (self.terms and other.terms):
            return LaurentScalar._trusted(self.field, {})
        return _fused(self.field, {}, ((self, other),))

    def scale(self, c):
        return _reduced(self.field, {e: a * c for e, a in self.terms.items()})

    def shift(self, k):
        """Multiply by ``t^k``."""
        if not k:
            return self
        return LaurentScalar._trusted(self.field, {e + k: c for e, c in self.terms.items()})

    def truncate(self, order):
        """Drop all terms of exponent >= ``order``."""
        if not self.terms or max(self.terms) < order:
            return self
        kept = {e: c for e, c in self.terms.items() if e < order}
        return LaurentScalar._trusted(self.field, kept)

    def split_at(self, a):
        """Return ``(q, r)`` with ``self = q * t^a + r`` and ``r`` supported below ``a``."""
        hi = {e - a: c for e, c in self.terms.items() if e >= a}
        lo = {e: c for e, c in self.terms.items() if e < a}
        return LaurentScalar._trusted(self.field, hi), LaurentScalar._trusted(self.field, lo)

    def _check(self, other):
        if not isinstance(other, LaurentScalar) or (
            other.field is not self.field and other.field != self.field
        ):
            raise TypeError("mixed scalar domains")

    def __eq__(self, other):
        return (
            isinstance(other, LaurentScalar)
            and (self.field is other.field or self.field == other.field)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.key()))

    def key(self):
        """A sortable, hashable encoding of the scalar."""
        return tuple(sorted(self.terms.items()))

    def to_text(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[e]}*t^{e}" for e in sorted(self.terms))

    def to_json(self):
        return [{"e": e, "c": self.field.coeff_to_json(c)} for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, field, obj):
        if not isinstance(obj, list):
            raise MalformedJSON(f"Laurent scalar must be a list of terms, got {type(obj).__name__}")
        terms = {}
        for t in obj:
            (e,) = json_fields(t, "Laurent term", e=int)
            if abs(e) > MAX_JSON_EXPONENT:
                raise MalformedJSON(f"Laurent term field 'e' must have |e| <= {MAX_JSON_EXPONENT}")
            if e in terms:
                raise MalformedJSON(f"Laurent term field 'e' repeats the exponent {e}")
            if "c" not in t:
                raise MalformedJSON("Laurent term has no field 'c'")
            terms[e] = field.coeff_from_json(t["c"])
        return cls(field, terms)

    def __repr__(self):
        return f"<{self.to_text()}>"


class LaurentMatrix:
    """A dense matrix of :class:`LaurentScalar` entries.

    Stored row-major as a tuple of tuples.  Lattice code uses columns as
    generators, so column accessors are provided alongside row ones.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        try:
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
                for f in r:
                    if f.field is not field and f.field != field:
                        raise TypeError("mixed scalar domains")
        except AttributeError:
            raise TypeError(f"matrix entry is {type(f).__name__}, not LaurentScalar") from None
        self.field, self.nrows, self.ncols, self.rows = field, len(rows), width, rows

    @classmethod
    def from_columns(cls, field, cols):
        cols = [tuple(c) for c in cols]
        if not cols:
            raise ValueError("no columns")
        try:
            return cls(field, zip(*cols, strict=True))
        except ValueError:
            raise ValueError(f"ragged columns of lengths {[len(c) for c in cols]}") from None

    @classmethod
    def identity(cls, field, n=3):
        one = LaurentScalar.one(field)
        zero = LaurentScalar.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def scalar_diag(cls, field, exponents):
        """Diagonal matrix with entries ``t^e`` for ``e`` in ``exponents``."""
        zero = LaurentScalar.zero(field)
        diag = [LaurentScalar.monomial(field, e) for e in exponents]
        n = len(diag)
        return cls(field, [[d if i == j else zero for j in range(n)] for i, d in enumerate(diag)])

    def entry(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return LaurentMatrix(self.field, list(zip(*self.rows)))

    def hstack(self, other):
        if other.nrows != self.nrows or other.field != self.field:
            raise ValueError("shape or domain mismatch")
        return LaurentMatrix(self.field, [a + b for a, b in zip(self.rows, other.rows)])

    def shift(self, k):
        """Multiply every entry by ``t^k``."""
        return LaurentMatrix(self.field, [[f.shift(k) for f in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("shape or domain mismatch")
        cols = other.columns()
        return LaurentMatrix(
            self.field, [[_fused(self.field, {}, zip(r, c)) for c in cols] for r in self.rows]
        )

    def minval(self):
        """Minimum valuation over all entries (``inf`` for a zero matrix)."""
        return min((f.val() for r in self.rows for f in r), default=inf)

    def det(self):
        if self.nrows != 3 or self.ncols != 3:
            raise ValueError("only 3 x 3 determinants are supported")
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(f.key() for r in self.rows for f in r)))

    def key(self):
        return tuple(f.key() for r in self.rows for f in r)

    def __repr__(self):
        body = "; ".join(", ".join(f.to_text() for f in row) for row in self.rows)
        return f"LaurentMatrix[{body}]"


def _reduced(field, raw):
    """A trusted scalar from raw sums of coefficients: one reduction mod p each, zeros dropped."""
    p = field.p
    if p is None:
        return LaurentScalar._trusted(field, {e: c for e, c in raw.items() if c})
    return LaurentScalar._trusted(field, {e: r for e, c in raw.items() if (r := c % p)})


def _fused(field, out, pairs, order=inf, sub=False):
    """The one product kernel: ``out + sum(f * g for f, g in pairs)`` mod ``t^order``, minus
    the sum when ``sub``; ``out`` is a raw dict of terms below ``order``.  The pairs are
    trusted to be over ``field``, no term at or above ``order`` is formed, and the sum is
    reduced once."""
    get = out.get
    for f, g in pairs:
        items = g.terms.items()
        for e1, c1 in f.terms.items():
            if sub:
                c1 = -c1
            lim = order - e1
            for e2, c2 in items:
                if e2 < lim:
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
    return _reduced(field, out)


def _sub_mul_trunc(a, q, b, order):
    """``(a - q * b) mod t^order``, forming no product at or above ``order``."""
    if not (q.terms and b.terms):
        return a.truncate(order)
    return _fused(a.field, {e: c for e, c in a.terms.items() if e < order}, ((q, b),), order, True)


def _mul_trunc(a, u, order):
    """``(a * u) mod t^order``, forming no product at or above ``order``."""
    return _fused(a.field, {}, ((a, u),), order)


def unit_inverse_trunc(f, order):
    """Inverse of a valuation-zero scalar mod ``t^order``, by the Newton iteration
    ``g <- g - g * (f * g - 1)`` from the inverse of the constant term.  The precision
    doubles each round, and ``f * g - 1`` vanishes below the previous one, so only its
    terms from there on are formed."""
    if f.val() != 0:
        raise ValueError("inverse requires a unit of valuation 0")
    field = f.field
    g = LaurentScalar._trusted(field, {0: field.inv(f.terms[0])})
    if len(f.terms) == 1:
        return g
    prec = 1
    while prec < order:
        low, prec = prec, min(2 * prec, order)
        err = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                if low <= e1 + e2 < prec:
                    err[e1 + e2] = err.get(e1 + e2, 0) + c1 * c2
        g = _sub_mul_trunc(g, g, _reduced(field, err), prec)
    return g


def truncation_order(mat):
    """A working precision ``M`` with ``t^M * O^3`` inside the column span: for ``A`` the
    first nonsingular column triple (by lexicographic column indices), ``val(det A) -
    2 * minval(mat) + 1``.  Raises :class:`RankDeficient` when no triple is nonsingular,
    i.e. when the columns do not span ``K^3``."""
    if mat.nrows != 3:
        raise ValueError("expected 3 rows")
    for triple in combinations(range(mat.ncols), 3):
        d = LaurentMatrix.from_columns(mat.field, [mat.column(j) for j in triple]).det()
        if not d.is_zero():
            return d.val() - 2 * mat.minval() + 1
    raise RankDeficient("columns do not span K^3")


def hermite_over_O(mat, det_val=None):
    """Canonical column Hermite form of a full-rank 3 x k matrix over O.

    INPUT:

    - ``mat`` -- a 3 x k :class:`LaurentMatrix` whose columns span ``K^3``
    - ``det_val`` -- optional, ``val(det A)`` for the first nonsingular column triple
      ``A``, which library callers know; by default :func:`truncation_order` finds it

    OUTPUT: the unique 3 x 3 upper-triangular basis of the O-span of the
    columns whose diagonal entries are plain powers ``t^(a_i)`` and whose
    row-``i`` entries right of the diagonal are supported below ``t^(a_i)``.
    Two generating sets span the same lattice iff their forms are equal.  Raises
    :class:`RankDeficient` when the columns do not span ``K^3``.

    The row for the pivot is chosen bottom-to-top; within a row the pivot
    is a minimal-valuation entry, ties to the leftmost column.  All column
    operations happen modulo ``t^M``, ``M = det_val - 2 * minval + 1`` as in
    :func:`truncation_order`, which keeps every intermediate scalar finite
    without moving the lattice.
    """
    order = truncation_order(mat) if det_val is None else det_val - 2 * mat.minval() + 1
    field = mat.field
    one, zero = field.normalize(1), LaurentScalar._trusted(field, {})
    cols = [[f.truncate(order) for f in mat.column(j)] for j in range(mat.ncols)]
    remaining = list(range(len(cols)))
    pivot_for_row = {}
    for row in (2, 1, 0):
        best = None
        for j in remaining:
            v = cols[j][row].val()
            if v is not inf and (best is None or v < cols[best][row].val()):
                best = j
        if best is None:
            raise RankDeficient(f"no pivot available in row {row}")
        pivot = cols[best][row]
        a = pivot.val()
        if len(pivot.terms) > 1 or pivot.terms[a] != 1:
            col_min = min(f.val() for f in cols[best] if f.terms)
            inv = unit_inverse_trunc(pivot.shift(-a), order - min(col_min, 0))
            cols[best] = [_mul_trunc(x, inv, order) for x in cols[best]]
            cols[best][row] = LaurentScalar._trusted(field, {a: one})
        remaining.remove(best)
        for j in remaining:
            g = cols[j][row]
            if g.is_zero():
                continue
            q = g.shift(-a)
            cols[j] = [_sub_mul_trunc(f, q, b, order) for f, b in zip(cols[j], cols[best])]
            cols[j][row] = zero
        pivot_for_row[row] = best
    return _reduce_above_diagonal(field, [cols[pivot_for_row[r]] for r in range(3)], order)


def _reduce_above_diagonal(field, cols, order):
    """Canonical form of columns ``cols[j]`` with ``t^(a_j)`` in row ``j`` and zeros below:
    row-``i`` entries right of the diagonal reduced below ``t^(a_i)``, modulo ``t^order``."""
    for j in (1, 2):
        for i in range(j - 1, -1, -1):
            q, rem = cols[j][i].split_at(cols[i][i].val())
            if not q.is_zero():
                cols[j] = [_sub_mul_trunc(f, q, b, order) for f, b in zip(cols[j], cols[i])]
            cols[j][i] = rem
    return LaurentMatrix.from_columns(field, cols)


def smith_form(mat, det_val):
    """Elementary divisors of a nonsingular 3 x 3 matrix over O[t^-1], with a basis.

    ``det_val`` is ``val det(mat)``, which callers know without forming the determinant.
    Returns ``(exps, basis)``: exponents ``e_1 <= e_2 <= e_3`` and a matrix whose columns
    ``w_i`` are an O-basis of ``O^3`` with the columns of ``mat`` spanning ``<t^(e_i) w_i>``.
    Each row operation is recorded inverted in ``basis`` (subtracting ``q`` times row ``r``
    from row ``i`` adds ``q * w_i`` to ``w_r``).  The elimination runs modulo ``t^order``,
    which cannot move the double coset; ``basis`` is kept modulo ``t^prec``, and ``prec``
    exceeds ``e_3 - e_1``, so it cannot move ``<t^(e_i) w_i>``.
    """
    if mat.nrows != 3 or mat.ncols != 3:
        raise ValueError("expected a 3 x 3 matrix")
    m = mat.minval()
    order = det_val - 2 * m + 1
    prec = order - min(m, 0)
    field = mat.field
    grid = [[mat.entry(i, j).truncate(order) for j in range(3)] for i in range(3)]
    basis = LaurentMatrix.identity(field).columns()
    rows, cols = [0, 1, 2], [0, 1, 2]
    exps, pivot_rows = [], []
    while rows:
        pi, pj = None, None
        for i in rows:
            for j in cols:
                v = grid[i][j].val()
                if v is not inf and (pi is None or v < grid[pi][pj].val()):
                    pi, pj = i, j
        if pi is None:
            raise SingularMatrix("ran out of pivots")
        a = grid[pi][pj].val()
        exps.append(a)
        pivot_rows.append(pi)
        inv = unit_inverse_trunc(grid[pi][pj].shift(-a), prec)
        rows.remove(pi)
        cols.remove(pj)
        # Clear column pj by row operations.  Clearing row pi by column operations
        # would change nothing outside row pi and column pj, which are not read again.
        for i in rows:
            if grid[i][pj].is_zero():
                continue
            q = grid[i][pj] if inv.terms == {0: 1} else _mul_trunc(grid[i][pj], inv, order)
            q = q.shift(-a)
            for j in cols:
                grid[i][j] = _sub_mul_trunc(grid[i][j], q, grid[pi][j], order)
            minus_q = -q
            basis[pi] = [_sub_mul_trunc(u, minus_q, w, prec) for u, w in zip(basis[pi], basis[i])]
    if exps != sorted(exps):
        raise InvariantViolated("pivot valuations not nondecreasing")
    if sum(exps) != det_val:
        raise InvariantViolated("exponent sum disagrees with det valuation")
    return tuple(exps), LaurentMatrix.from_columns(field, [basis[i] for i in pivot_rows])


def divisor_exponents(mat, det_val):
    """Exponents ``e_1 <= e_2 <= e_3`` of :func:`smith_form`, from the determinantal divisors
    (Smith 1861; Newman, *Integral Matrices*, ch. II): ``e_1`` is the least valuation of an
    entry, ``e_1 + e_2`` that ``s`` of a 2 x 2 minor ``ad - bc``, and ``e_2 <= e_3`` gives
    ``s <= (det_val + e_1) / 2``.  A minor is formed, mod ``t^order`` just above that, only
    when ``ad`` and ``bc`` have one valuation, which is below the least ``s`` so far."""
    e1, r, s = mat.minval(), mat.rows, inf
    order = (det_val + e1) // 2 + 1
    for i, k in combinations(range(3), 2):
        for j, l in combinations(range(3), 2):
            a, d, b, c = r[i][j], r[k][l], r[i][l], r[k][j]
            u, v = a.val() + d.val(), b.val() + c.val()
            if u != v:
                s = min(s, u, v)
            elif u < s:
                s = min(s, _sub_mul_trunc(_mul_trunc(a, d, order), b, c, order).val())
    if s >= order:
        raise InvariantViolated("no 2 x 2 minor survives its truncation order")
    return e1, s - e1, det_val - s


def smith_exponents(mat):
    """Descending elementary-divisor exponents ``a_1 >= a_2 >= a_3`` of a nonsingular
    3 x 3 matrix over O[t^-1]: ``U * mat * V = diag(t^a_3, t^a_2, t^a_1)`` for some ``U, V``
    invertible over ``O``.  Raises :class:`SingularMatrix` when ``det = 0``."""
    d = mat.det()
    if d.is_zero():
        raise SingularMatrix("matrix is singular over K")
    return tuple(reversed(divisor_exponents(mat, d.val())))


def solve_upper_triangular(tri, vec):
    """Exact coordinates of ``vec`` in the basis given by a canonical form.

    ``tri`` must be upper triangular with monomial diagonal (the shape
    produced by :func:`hermite_over_O`).  Division by the diagonal is a
    plain exponent shift, so the result is exact over ``K``.
    """
    coords = [None, None, None]
    residue = list(vec)
    for i in (2, 1, 0):
        a = tri.entry(i, i).val()
        x = residue[i].shift(-a)
        coords[i] = x
        if x.terms:
            for r in range(i):
                residue[r] = _sub_mul_trunc(residue[r], x, tri.entry(r, i), inf)
    return coords


def invert_upper_triangular(tri):
    """Exact inverse of a canonical-form matrix."""
    field = tri.field
    return LaurentMatrix.from_columns(
        field, [solve_upper_triangular(tri, e) for e in LaurentMatrix.identity(field).columns()]
    )
