import random
from fractions import Fraction
from math import inf

import pytest

from sl3webs.errors import InvariantViolated, RankDeficient, SingularMatrix
from sl3webs.series import (
    GF,
    QQ,
    LaurentMatrix,
    LaurentScalar,
    _mul_trunc,
    _sub_mul_trunc,
    divisor_exponents,
    hermite_over_O,
    invert_upper_triangular,
    smith_exponents,
    smith_form,
    solve_upper_triangular,
    truncation_order,
    unit_inverse_trunc,
)

F7 = GF(7)
KERNEL_FIELDS = [QQ, GF(2), GF(3), F7, GF(10007)]


def S(field, terms):
    return LaurentScalar(field, terms)


def mono(field, e, c=1):
    return LaurentScalar.monomial(field, e, c)


def cols_matrix(field, cols):
    return LaurentMatrix.from_columns(field, cols)


def random_scalar(rng, field, lo=-3, hi=4, density=0.6):
    terms = {}
    for e in range(lo, hi):
        if rng.random() < density:
            if field.p is None:
                c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            else:
                c = rng.randrange(field.p)
            terms[e] = c
    return LaurentScalar(field, terms)


def random_o_scalar(rng, field):
    f = random_scalar(rng, field, lo=0, hi=4)
    return f


def random_unit(rng, field):
    """Valuation-zero scalar with invertible constant term."""
    f = random_o_scalar(rng, field)
    c = rng.randrange(1, field.p) if field.p else Fraction(rng.randrange(1, 9))
    return f - LaurentScalar.constant(field, f.coeff(0)) + LaurentScalar.constant(field, c)


def random_o_unimodular(rng, field):
    """Product of elementary column operations and unit column scalings."""
    m = LaurentMatrix.identity(field)
    for _ in range(6):
        cols = m.columns()
        i, j = rng.sample(range(3), 2)
        f = random_o_scalar(rng, field)
        cols[j] = [a + f * b for a, b in zip(cols[j], cols[i])]
        m = cols_matrix(field, cols)
    cols = m.columns()
    k = rng.randrange(3)
    u = random_unit(rng, field)
    cols[k] = [a * u for a in cols[k]]
    m = cols_matrix(field, cols)
    assert m.det().val() == 0
    return m


def random_nonsingular(rng, field):
    while True:
        m = LaurentMatrix(
            field, [[random_scalar(rng, field) for _ in range(3)] for _ in range(3)]
        )
        if not m.det().is_zero():
            return m


def in_span(basis, vec):
    """Membership oracle: coordinates in a canonical basis all lie in O."""
    coords = solve_upper_triangular(basis, vec)
    return all(x.is_zero() or x.val() >= 0 for x in coords)


def test_val_examples():
    assert S(QQ, {-2: 1, 0: 1}).val() == -2
    assert LaurentScalar.zero(QQ).val() == inf
    assert mono(QQ, 3, 5).val() == 3


def test_scalar_arithmetic():
    f = S(QQ, {-1: Fraction(1, 2), 2: 3})
    g = S(QQ, {0: 1, 2: -3})
    assert (f + g).terms == {-1: Fraction(1, 2), 0: Fraction(1)}
    assert (f - f).is_zero()
    h = f * g
    assert h.coeff(-1) == Fraction(1, 2)
    assert h.coeff(1) == Fraction(-3, 2)
    assert h.coeff(4) == Fraction(-9)
    assert f.shift(3).val() == 2
    assert f.truncate(2).terms == {-1: Fraction(1, 2)}
    q, r = S(QQ, {-2: 1, 0: 2, 3: 5}).split_at(0)
    assert q.terms == {0: Fraction(2), 3: Fraction(5)}
    assert r.terms == {-2: Fraction(1)}


def test_val_multiplicativity_random():
    rng = random.Random(11)
    for _ in range(50):
        f = random_scalar(rng, F7)
        g = random_scalar(rng, F7)
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).val() == f.val() + g.val()
        if not (f + g).is_zero():
            assert (f + g).val() >= min(f.val(), g.val())


def test_text_form():
    f = S(QQ, {-2: 1, 0: Fraction(3, 2)})
    assert f.to_text() == "1*t^-2 + 3/2*t^0"
    assert LaurentScalar.zero(QQ).to_text() == "0"


def test_json_roundtrip():
    f = S(QQ, {-2: Fraction(5, 3), 1: -2})
    assert LaurentScalar.from_json(QQ, f.to_json()) == f
    g = S(F7, {-1: 3, 4: 6})
    assert LaurentScalar.from_json(F7, g.to_json()) == g
    assert g.to_json() == [{"e": -1, "c": 3}, {"e": 4, "c": 6}]


def test_unit_inverse_trunc():
    rng = random.Random(5)
    one = LaurentScalar.one(QQ)
    for field in KERNEL_FIELDS:
        for _ in range(20):
            u = random_unit(rng, field)
            for order in (1, 2, 5, 12):
                g = unit_inverse_trunc(u, order)
                prod = (u * g).truncate(order)
                assert prod == LaurentScalar.one(field), (u, g)
                assert g.truncate(order) is g
    with pytest.raises(ValueError):
        unit_inverse_trunc(mono(QQ, 1), 5)
    assert (one * unit_inverse_trunc(one, 1)) == one


def test_smith_diagonal_examples():
    m = LaurentMatrix.scalar_diag(QQ, [-2, -1, 0])
    assert smith_exponents(m) == (0, -1, -2)
    assert smith_exponents(LaurentMatrix.identity(QQ)) == (0, 0, 0)


def test_smith_octagon_l1_l3():
    # Basis of the lattice (t^-2 e1, t^-1 e2, e3) written in the standard basis.
    m = LaurentMatrix.scalar_diag(QQ, [-2, -1, 0])
    assert smith_exponents(m) == (0, -1, -2)


def test_smith_singular():
    zero = LaurentScalar.zero(QQ)
    one = LaurentScalar.one(QQ)
    m = LaurentMatrix(QQ, [[one, one, zero], [one, one, zero], [zero, zero, one]])
    with pytest.raises(SingularMatrix):
        smith_exponents(m)


def minors_oracle(m):
    """Elementary divisors via determinantal divisors, no elimination."""
    d1 = m.minval()
    d2 = inf
    for rows in ((0, 1), (0, 2), (1, 2)):
        for cols in ((0, 1), (0, 2), (1, 2)):
            det2 = (
                m.entry(rows[0], cols[0]) * m.entry(rows[1], cols[1])
                - m.entry(rows[0], cols[1]) * m.entry(rows[1], cols[0])
            )
            d2 = min(d2, det2.val())
    d3 = m.det().val()
    return (d3 - d2, d2 - d1, d1)


def test_smith_matches_determinantal_divisors():
    rng = random.Random(23)
    for field in (F7, QQ):
        for _ in range(40):
            m = random_nonsingular(rng, field)
            assert smith_exponents(m) == minors_oracle(m)


def test_smith_unimodular_invariance():
    rng = random.Random(71)
    for _ in range(100):
        m = random_nonsingular(rng, F7)
        e = smith_exponents(m)
        u = random_o_unimodular(rng, F7)
        v = random_o_unimodular(rng, F7)
        assert smith_exponents(u * m) == e
        assert smith_exponents(m * v) == e
        assert smith_exponents(u * m * v) == e


@pytest.mark.parametrize("shift", [0, -2, 3])
def test_minors_survive_their_truncation_when_lowest_terms_cancel(shift):
    # unshifted, the least 2 x 2 minor is rows, columns (0, 1): 1 * (1 + t^2 + t^5) - 1 * 1,
    # whose constant terms cancel; every other minor has valuation 3 or more.  The bound
    # (det_val + e_1) // 2 + 1 = 3 keeps its t^2 and drops its t^5.
    for field in (QQ, F7):
        one, zero = LaurentScalar.one(field), LaurentScalar.zero(field)
        rows = [[one, one, zero], [one, S(field, {0: 1, 2: 1, 5: 1}), zero]]
        rel = LaurentMatrix(field, rows + [[zero, zero, mono(field, 3)]]).shift(shift)
        det_val = 5 + 3 * shift
        corner = rel.entry(0, 0) * rel.entry(1, 1) - rel.entry(0, 1) * rel.entry(1, 0)
        order = (det_val + shift) // 2 + 1
        assert corner.val() == 2 + 2 * shift < order <= max(corner.terms)
        want = (shift, 2 + shift, 3 + shift)
        assert divisor_exponents(rel, det_val) == smith_form(rel, det_val)[0] == want
        assert smith_exponents(rel) == want[::-1] == minors_oracle(rel)


def test_minors_below_a_wrong_truncation_raise_invariant_violated():
    # val det is 9, not 0: every minor lies above the order the wrong value gives
    m = LaurentMatrix.scalar_diag(F7, [3, 3, 3])
    assert divisor_exponents(m, 9) == (3, 3, 3)
    with pytest.raises(InvariantViolated, match="2 x 2 minor"):
        divisor_exponents(m, 0)


def test_smith_sum_is_det_valuation():
    rng = random.Random(9)
    for _ in range(30):
        m = random_nonsingular(rng, F7)
        assert sum(smith_exponents(m)) == m.det().val()


def e_col(field, i, scale_exp=0, c=1):
    col = [LaurentScalar.zero(field) for _ in range(3)]
    col[i] = mono(field, scale_exp, c)
    return col


def test_hermite_identity():
    m = LaurentMatrix.identity(QQ)
    assert hermite_over_O(m) == m


def test_hermite_frozen_example():
    one = LaurentScalar.one(QQ)
    zero = LaurentScalar.zero(QQ)
    t = mono(QQ, 1)
    gens = cols_matrix(QQ, [[one, one, zero], [zero, t, zero], [zero, zero, t]])
    h = hermite_over_O(gens)
    # Bottom-to-top, minimal-valuation, leftmost-tie pivoting lands on the
    # basis (t*e1, e1+e2, t*e3) for this module.
    expected = cols_matrix(QQ, [[t, zero, zero], [one, one, zero], [zero, zero, t]])
    assert h == expected
    # Membership oracle: every input generator lies in the span of the output,
    # and the covolumes agree, so the two spans are the same O-module.
    for j in range(3):
        assert in_span(h, gens.column(j))
    assert h.det().val() == gens.det().val()


def test_hermite_redundant_generators():
    one = LaurentScalar.one(QQ)
    zero = LaurentScalar.zero(QQ)
    gens = cols_matrix(
        QQ,
        [
            [one, zero, zero],
            [one, one, zero],
            [zero, one, zero],
            [zero, zero, one],
        ],
    )
    assert hermite_over_O(gens) == LaurentMatrix.identity(QQ)


def test_hermite_rank_deficient():
    one = LaurentScalar.one(QQ)
    zero = LaurentScalar.zero(QQ)
    gens = cols_matrix(QQ, [[one, zero, zero], [zero, one, zero], [one, one, zero]])
    with pytest.raises(RankDeficient):
        hermite_over_O(gens)
    with pytest.raises(RankDeficient):
        hermite_over_O(cols_matrix(QQ, [[one, zero, zero], [zero, one, zero]]))


def test_hermite_shape_and_reduction():
    rng = random.Random(37)
    for field in (F7, QQ):
        for _ in range(25):
            m = random_nonsingular(rng, field)
            h = hermite_over_O(m)
            for i in range(3):
                for j in range(3):
                    f = h.entry(i, j)
                    if i == j:
                        assert len(f.terms) == 1 and list(f.terms.values())[0] == 1
                    elif i > j:
                        assert f.is_zero()
                    else:
                        assert f.is_zero() or f.terms and max(f.terms) < h.entry(i, i).val()


def test_hermite_membership_oracle():
    rng = random.Random(101)
    for _ in range(25):
        m = random_nonsingular(rng, F7)
        h = hermite_over_O(m)
        for j in range(3):
            assert in_span(h, m.column(j))
        # and conversely the canonical columns lie in the original span:
        h2 = hermite_over_O(h)
        assert h2 == h


def test_hermite_generator_order_and_unimodular_invariance():
    rng = random.Random(13)
    for _ in range(25):
        m = random_nonsingular(rng, F7)
        h = hermite_over_O(m)
        cols = m.columns()
        rng.shuffle(cols)
        assert hermite_over_O(cols_matrix(F7, cols)) == h
        u = random_o_unimodular(rng, F7)
        assert hermite_over_O(m * u) == h
        extra = cols_matrix(F7, m.columns() + [m.column(0)])
        assert hermite_over_O(extra) == h


def test_invert_upper_triangular():
    rng = random.Random(3)
    for _ in range(15):
        h = hermite_over_O(random_nonsingular(rng, QQ))
        inv = invert_upper_triangular(h)
        assert h * inv == LaurentMatrix.identity(QQ)
        assert inv * h == LaurentMatrix.identity(QQ)


def raw_scalar(field, raw, order=inf):
    """The scalar of a raw ``{exponent: coefficient}`` dict, through the
    normalizing public constructor, with terms at or above ``order`` dropped."""
    return LaurentScalar(field, {e: c for e, c in raw.items() if e < order})


def raw_add(raw, terms, sign=1):
    out = dict(raw)
    for e, c in terms.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def raw_product(f, g):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def assert_stored_form(f):
    """Every stored coefficient is normalized and nonzero."""
    for c in f.terms.values():
        if f.field.p is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < f.field.p


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_arithmetic_matches_raw_terms(field):
    rng = random.Random(field.p or 0)
    for _ in range(60):
        f, g = random_scalar(rng, field), random_scalar(rng, field)
        for got, raw in (
            (f + g, raw_add(f.terms, g.terms)),
            (f - g, raw_add(f.terms, g.terms, -1)),
            (-f, raw_add({}, f.terms, -1)),
            (f * g, raw_product(f, g)),
        ):
            assert got == raw_scalar(field, raw)
            assert_stored_form(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_fused_kernels_match_raw_terms(field):
    # orders run from below the support of every operand and product
    # (exponents -6 and up) through it to above it (exponents up to 6)
    rng = random.Random(1 + (field.p or 0))
    for _ in range(25):
        a, q, b = (random_scalar(rng, field) for _ in range(3))
        for order in range(-8, 9):
            got = _sub_mul_trunc(a, q, b, order)
            assert got == raw_scalar(field, raw_add(a.terms, raw_product(q, b), -1), order)
            assert_stored_form(got)
            got = _mul_trunc(a, b, order)
            assert got == raw_scalar(field, raw_product(a, b), order)
            assert_stored_form(got)


def test_public_constructors_normalize():
    assert LaurentScalar(F7, {0: 9, 1: 7}).terms == {0: 2}
    assert LaurentScalar(QQ, {0: 3, 2: 0}).terms == {0: Fraction(3)}
    assert type(LaurentScalar(QQ, {0: 3}).terms[0]) is Fraction
    assert LaurentScalar.monomial(F7, 2, 15).terms == {2: 1}
    assert LaurentScalar.constant(F7, 14).is_zero()
    assert S(F7, {1: 3}).scale(5).terms == {1: 1}
    assert S(F7, {1: 3}).scale(7).is_zero()
    f = S(QQ, {-1: 2, 3: 1})
    assert f.shift(0) is f and f.truncate(4) is f and f.truncate(3).terms == {-1: 2}


def test_mixed_fields_raise():
    f, g = S(F7, {0: 1, 1: 2}), S(GF(3), {0: 1})
    for a, b in ((f, g), (f, S(QQ, {0: 1}))):
        with pytest.raises(TypeError, match="mixed scalar domains"):
            a + b
        with pytest.raises(TypeError, match="mixed scalar domains"):
            a - b
        with pytest.raises(TypeError, match="mixed scalar domains"):
            a * b
    # equal fields that are different objects still mix freely
    assert (f + S(GF(7), {0: 6})).terms == {1: 2}


def test_a_foreign_field_entry_is_refused_where_it_enters():
    one, zero = LaurentScalar.one(QQ), LaurentScalar.zero(QQ)
    rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    f7_rows = [[S(F7, {0: 1}) if i == j else LaurentScalar.zero(F7) for j in range(3)]
               for i in range(3)]
    mixed = [row[:] for row in rows]
    mixed[1][2] = S(F7, {1: 3})
    for bad in (f7_rows, mixed):
        with pytest.raises(TypeError, match="mixed scalar domains"):
            LaurentMatrix(QQ, bad)
        with pytest.raises(TypeError, match="mixed scalar domains"):
            LaurentMatrix.from_columns(QQ, bad)
        with pytest.raises(TypeError, match="mixed scalar domains"):
            hermite_over_O(cols_matrix(QQ, bad))
    # equal fields that are different objects are one domain
    assert LaurentMatrix(GF(7), f7_rows).field == F7


def test_a_non_scalar_entry_is_refused_by_its_type():
    one = LaurentScalar.one(QQ)
    for bad in ([[1, 2], [3, 4]], [[one, 2], [one, one]], [[one, Fraction(1, 2)], [one, one]]):
        name = type(bad[0][1]).__name__
        with pytest.raises(TypeError, match=f"matrix entry is {name}, not LaurentScalar"):
            LaurentMatrix(QQ, bad)
        with pytest.raises(TypeError, match=f"matrix entry is {name}, not LaurentScalar"):
            LaurentMatrix.from_columns(QQ, bad)


def test_ragged_columns_are_refused_with_their_lengths():
    one, zero = LaurentScalar.one(QQ), LaurentScalar.zero(QQ)
    for cols, lengths in (
        ([[one, zero, zero], [zero, one, zero, one], [zero, zero, one]], "[3, 4, 3]"),
        ([[one, zero, zero], [zero, one], [zero, zero, one]], "[3, 2, 3]"),
    ):
        with pytest.raises(ValueError) as info:
            LaurentMatrix.from_columns(QQ, cols)
        assert str(info.value) == f"ragged columns of lengths {lengths}"


# -- the generic kernels, kept as oracles for the fast paths -------------------
# Every product below is formed in full from raw terms and normalized by the
# public constructor; no pivot, unit or zero operand is treated specially.


def trunc_product(f, g, order=inf):
    return raw_scalar(f.field, raw_product(f, g), order)


def sub_product(a, q, b, order=inf):
    return raw_scalar(a.field, raw_add(a.terms, raw_product(q, b), -1), order)


def newton_inverse(f, order):
    """``unit_inverse_trunc`` by Newton iteration alone, constants included."""
    field = f.field
    g = LaurentScalar.constant(field, field.inv(f.coeff(0)))
    prec = 1
    while prec < order:
        low, prec = prec, min(2 * prec, order)
        err = raw_scalar(field, {e: c for e, c in raw_product(f, g).items() if e >= low}, prec)
        g = sub_product(g, g, err, prec)
    return g


def sum_of_products(m, n):
    """The matrix product as a sum of scalar products, one entry at a time."""
    zero = LaurentScalar.zero(m.field)
    cols = n.columns()
    rows = [[sum((trunc_product(a, b) for a, b in zip(r, c)), zero) for c in cols] for r in m.rows]
    return LaurentMatrix(m.field, rows)


def solve_by_products(tri, vec):
    """``solve_upper_triangular`` with every residue update formed in full."""
    coords = [None, None, None]
    residue = list(vec)
    for i in (2, 1, 0):
        x = residue[i].shift(-tri.entry(i, i).val())
        coords[i] = x
        for r in range(i):
            residue[r] = residue[r] - trunc_product(x, tri.entry(r, i))
    return coords


def hermite_by_newton(mat):
    """``hermite_over_O`` from ``truncation_order``, inverting and scaling every pivot."""
    order = truncation_order(mat)
    field = mat.field
    cols = [[f.truncate(order) for f in mat.column(j)] for j in range(mat.ncols)]
    remaining = list(range(len(cols)))
    pivot_for_row = {}
    for row in (2, 1, 0):
        live = [j for j in remaining if cols[j][row].terms]
        if not live:
            raise RankDeficient(f"no pivot available in row {row}")
        best = min(live, key=lambda j: cols[j][row].val())
        a = cols[best][row].val()
        col_min = min(f.val() for f in cols[best] if f.terms)
        inv = newton_inverse(cols[best][row].shift(-a), order - min(col_min, 0))
        cols[best] = [trunc_product(x, inv, order) for x in cols[best]]
        cols[best][row] = mono(field, a)
        remaining.remove(best)
        for j in remaining:
            q = cols[j][row].shift(-a)
            cols[j] = [sub_product(x, q, y, order) for x, y in zip(cols[j], cols[best])]
            cols[j][row] = LaurentScalar.zero(field)
        pivot_for_row[row] = best
    cols = [cols[pivot_for_row[r]] for r in range(3)]
    for j in (1, 2):
        for i in range(j - 1, -1, -1):
            q, rem = cols[j][i].split_at(cols[i][i].val())
            cols[j] = [sub_product(x, q, y, order) for x, y in zip(cols[j], cols[i])]
            cols[j][i] = rem
    return LaurentMatrix.from_columns(field, cols)


def smith_by_newton(mat, det_val):
    """``smith_form`` inverting every pivot's unit and scaling every multiplier."""
    m = mat.minval()
    order = det_val - 2 * m + 1
    prec = order - min(m, 0)
    field = mat.field
    grid = [[mat.entry(i, j).truncate(order) for j in range(3)] for i in range(3)]
    basis = [[S(field, {0: int(i == j)}) for j in range(3)] for i in range(3)]
    rows, cols, exps, pivot_rows = [0, 1, 2], [0, 1, 2], [], []
    while rows:
        live = [(i, j) for i in rows for j in cols if grid[i][j].terms]
        pi, pj = min(live, key=lambda ij: grid[ij[0]][ij[1]].val())
        a = grid[pi][pj].val()
        exps.append(a)
        pivot_rows.append(pi)
        inv = newton_inverse(grid[pi][pj].shift(-a), prec)
        rows.remove(pi)
        cols.remove(pj)
        for i in rows:
            q = trunc_product(grid[i][pj], inv, order).shift(-a)
            for j in cols:
                grid[i][j] = sub_product(grid[i][j], q, grid[pi][j], order)
            basis[pi] = [
                raw_scalar(field, raw_add(u.terms, raw_product(q, w)), prec)
                for u, w in zip(basis[pi], basis[i])
            ]
    return tuple(exps), LaurentMatrix.from_columns(field, [basis[i] for i in pivot_rows])


# Operand shapes as the geometric road meets them: most operands are zero, a
# constant (often exactly 1) or have one or two terms; a few are wider.
SHAPES = ("zero", "one", "constant", "one term", "two terms", "wide")


def nonzero_coeff(rng, field):
    if field.p is None:
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 5))
    return rng.randrange(1, field.p)


def shaped_scalar(rng, field, shape, lo=-3, hi=4):
    if shape == "zero":
        return LaurentScalar.zero(field)
    if shape == "one":
        return LaurentScalar.one(field)
    if shape == "constant":
        return LaurentScalar.constant(field, nonzero_coeff(rng, field))
    if shape == "one term":
        return mono(field, rng.randrange(lo, hi), nonzero_coeff(rng, field))
    if shape == "two terms":
        return S(field, {e: nonzero_coeff(rng, field) for e in rng.sample(range(lo, hi), 2)})
    return random_scalar(rng, field, lo, hi, density=0.8)


def any_shape(rng, field, lo=-3, hi=4):
    return shaped_scalar(rng, field, rng.choice(SHAPES), lo, hi)


def shaped_matrix(rng, field, nrows=3, ncols=3, lo=-2, hi=3):
    rows = [[any_shape(rng, field, lo, hi) for _ in range(ncols)] for _ in range(nrows)]
    return LaurentMatrix(field, rows)


def shaped_nonsingular(rng, field):
    while True:
        m = shaped_matrix(rng, field)
        if not m.det().is_zero():
            return m


def assert_stored_matrix(m):
    for row in m.rows:
        for f in row:
            assert_stored_form(f)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_product_fast_paths_match_raw_terms(field):
    rng = random.Random(2 + (field.p or 0))
    for f_shape in SHAPES:
        for g_shape in SHAPES:
            for _ in range(3):
                a = any_shape(rng, field)
                f, g = shaped_scalar(rng, field, f_shape), shaped_scalar(rng, field, g_shape)
                got = f * g
                assert got == trunc_product(f, g)
                assert_stored_form(got)
                for order in range(-4, 7):
                    for got, want in (
                        (_mul_trunc(f, g, order), trunc_product(f, g, order)),
                        (_sub_mul_trunc(a, f, g, order), sub_product(a, f, g, order)),
                    ):
                        assert got == want
                        assert_stored_form(got)


def test_zero_operands_still_check_the_domain():
    f, zero, other = S(F7, {0: 1, 1: 2}), LaurentScalar.zero(F7), S(GF(3), {0: 1})
    for a, b in ((zero, other), (other, zero), (f, LaurentScalar.zero(QQ))):
        with pytest.raises(TypeError, match="mixed scalar domains"):
            a * b


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_unit_inverse_matches_newton(field):
    rng = random.Random(3 + (field.p or 0))
    units = [LaurentScalar.one(field)]
    units += [LaurentScalar.constant(field, nonzero_coeff(rng, field)) for _ in range(5)]
    for _ in range(10):
        tail = shaped_scalar(rng, field, rng.choice(SHAPES[3:]), lo=1, hi=5)
        units.append(tail + LaurentScalar.constant(field, nonzero_coeff(rng, field)))
    for u in units:
        for order in (-1, 0, 1, 2, 5, 12):
            got = unit_inverse_trunc(u, order)
            assert got == newton_inverse(u, order)
            assert_stored_form(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_matrix_product_matches_sum_of_products(field):
    rng = random.Random(4 + (field.p or 0))
    for _ in range(20):
        k = rng.randrange(1, 5)
        m, n = shaped_matrix(rng, field, 3, k), shaped_matrix(rng, field, k, 3)
        got = m * n
        assert got == sum_of_products(m, n)
        assert_stored_matrix(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_solve_and_invert_match_the_oracle(field):
    rng = random.Random(5 + (field.p or 0))
    for _ in range(15):
        tri = hermite_over_O(shaped_nonsingular(rng, field))
        for vec in ([any_shape(rng, field) for _ in range(3)], tri.column(2)):
            got = solve_upper_triangular(tri, vec)
            assert got == solve_by_products(tri, vec)
            for f in got:
                assert_stored_form(f)
        inv = invert_upper_triangular(tri)
        assert inv == LaurentMatrix.from_columns(
            field, [solve_by_products(tri, e) for e in LaurentMatrix.identity(field).columns()]
        )
        assert_stored_matrix(inv)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_hermite_matches_newton_on_generator_sets(field):
    rng = random.Random(6 + (field.p or 0))
    seen = 0
    while seen < 25:
        m = shaped_matrix(rng, field, 3, rng.randrange(3, 6))
        try:
            want = hermite_by_newton(m)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                hermite_over_O(m)
            continue
        got = hermite_over_O(m)
        assert got == want
        assert_stored_matrix(got)
        if m.ncols == 3:
            assert hermite_over_O(m, m.det().val()) == want
        seen += 1


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_smith_matches_newton(field):
    rng = random.Random(7 + (field.p or 0))
    for _ in range(20):
        m = shaped_nonsingular(rng, field)
        d = m.det().val()
        exps, basis = smith_form(m, d)
        assert (exps, basis) == smith_by_newton(m, d)
        assert_stored_matrix(basis)
