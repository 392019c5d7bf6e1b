import itertools
import random

import pytest
from fixtures import OCTAGON_ROW1, OCTAGON_ROW2, normalized_weight, octagon_classes

from sl3webs.building import (
    OMEGA1,
    OMEGA2,
    ZERO_WEIGHT,
    LatticeClass,
    adjacent,
    apartment_lattice,
    class_apartment,
    class_from_generators,
    class_from_json,
    common_apartment,
    common_neighbor,
    distance,
    dual_weight,
    join,
    lattice_contains,
    lattice_dual,
    lattice_join,
    lattice_meet,
    meet,
    pair_chain,
    random_step,
    step_to_line,
    step_to_plane,
    steps,
    weight_components,
)
from sl3webs.errors import PreconditionViolated, RankDeficient
from sl3webs.series import (
    GF,
    QQ,
    LaurentMatrix,
    LaurentScalar,
    hermite_over_O,
    invert_upper_triangular,
    smith_exponents,
)

F3 = GF(3)


def mono_col(field, i, e):
    col = [LaurentScalar.zero(field) for _ in range(3)]
    col[i] = LaurentScalar.monomial(field, e)
    return col


def diag_class(field, exps):
    return LatticeClass.from_diagonal(field, exps)


def test_weight_helpers():
    assert dual_weight(OMEGA1) == OMEGA2
    assert dual_weight(ZERO_WEIGHT) == ZERO_WEIGHT
    assert dual_weight((2, 1, 0)) == (2, 1, 0)
    assert steps((2, 1, 0)) == 2
    assert steps(OMEGA2) == 1
    assert weight_components((3, 1, 0)) == (2, 1)


def test_class_from_generators_standard():
    c = class_from_generators(
        [mono_col(QQ, 0, 0), mono_col(QQ, 1, 0), mono_col(QQ, 2, 0)], QQ
    )
    assert c == LatticeClass.standard(QQ)
    shifted = class_from_generators(
        [mono_col(QQ, 0, 5), mono_col(QQ, 1, 5), mono_col(QQ, 2, 5)], QQ
    )
    assert shifted == LatticeClass.standard(QQ)


def test_class_from_generators_l8_frozen():
    one = LaurentScalar.one(QQ)
    zero = LaurentScalar.zero(QQ)
    t = LaurentScalar.monomial(QQ, 1)
    tm1 = LaurentScalar.monomial(QQ, -1)
    l8 = class_from_generators(
        [[tm1, tm1, zero], mono_col(QQ, 1, 0), mono_col(QQ, 2, 0)], QQ
    )
    expected = LaurentMatrix.from_columns(
        QQ, [[t, zero, zero], [one, one, zero], [zero, zero, t]]
    )
    assert l8.basis == expected


def test_class_rank_deficient():
    with pytest.raises(RankDeficient):
        class_from_generators(
            [mono_col(QQ, 0, 0), mono_col(QQ, 0, 1), mono_col(QQ, 1, 0)], QQ
        )


def test_octagon_distance_rows():
    L = octagon_classes()
    for j in range(1, 9):
        assert distance(L[1], L[j]) == normalized_weight(OCTAGON_ROW1[j - 1])
    # Row 2 gives distances from L2; index j of the row is gamma_{2, 2+j}.
    for j in range(0, 9):
        target = L[((2 + j - 1) % 8) + 1]
        assert distance(L[2], target) == normalized_weight(OCTAGON_ROW2[j])


def test_octagon_consecutive_letters():
    L = octagon_classes()
    for i in range(1, 9):
        expect = OMEGA1 if i % 2 == 1 else OMEGA2
        assert distance(L[i], L[(i % 8) + 1]) == expect


def test_distance_duality_octagon():
    L = octagon_classes()
    for i in range(1, 9):
        for j in range(1, 9):
            assert distance(L[j], L[i]) == dual_weight(distance(L[i], L[j]))


def test_adjacency_examples():
    L = octagon_classes()
    assert adjacent(L[1], L[2])
    assert not adjacent(L[1], L[5])
    assert adjacent(L[2], L[1])


def test_distance_subadditivity_random():
    rng = random.Random(42)
    x = LatticeClass.standard(F3)
    for _ in range(20):
        y = x
        for _ in range(rng.randrange(1, 4)):
            y = random_step(y, rng.choice([OMEGA1, OMEGA2]), rng)
        z = y
        for _ in range(rng.randrange(1, 4)):
            z = random_step(z, rng.choice([OMEGA1, OMEGA2]), rng)
        assert steps(distance(x, z)) <= steps(distance(x, y)) + steps(distance(y, z))


def test_class_generator_invariance():
    rng = random.Random(7)
    for _ in range(20):
        x = LatticeClass.standard(F3)
        for _ in range(3):
            x = random_step(x, rng.choice([OMEGA1, OMEGA2]), rng)
        cols = x.basis.columns()
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert class_from_generators(shuffled, F3) == x
        # Append an O-combination of existing generators.
        f = LaurentScalar(F3, {0: rng.randrange(3), 1: rng.randrange(3)})
        combo = [a + b * f for a, b in zip(cols[0], cols[2])]
        assert class_from_generators(cols + [combo], F3) == x


def test_meet_example_center_of_octagon():
    zero = LaurentScalar.zero(QQ)
    one = LaurentScalar.one(QQ)
    t = LaurentScalar.monomial(QQ, 1)
    l1 = LaurentMatrix.identity(QQ)
    t_l4 = LaurentMatrix.from_columns(
        QQ, [mono_col(QQ, 0, -1), mono_col(QQ, 1, -1), mono_col(QQ, 2, 1)]
    )
    m = lattice_meet(l1, t_l4)
    expected = LaurentMatrix.from_columns(
        QQ, [[one, zero, zero], [zero, one, zero], [zero, zero, t]]
    )
    assert m == expected
    center = class_from_generators(
        [mono_col(QQ, 0, -1), mono_col(QQ, 1, -1), mono_col(QQ, 2, 0)], QQ
    )
    assert class_from_generators(m) == center


def test_meet_join_class_properties():
    rng = random.Random(19)
    x = LatticeClass.standard(F3)
    ys = []
    for _ in range(6):
        y = x
        for _ in range(rng.randrange(1, 3)):
            y = random_step(y, rng.choice([OMEGA1, OMEGA2]), rng)
        ys.append(y)
    for a in ys[:3]:
        for b in ys[3:]:
            assert meet(a, a) == a
            assert join(a, a) == a
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
    # Associativity holds at the representative level, where no homothety
    # rescaling happens between the two applications.
    a, b, c = (y.basis for y in ys[:3])
    assert lattice_meet(lattice_meet(a, b), c) == lattice_meet(a, lattice_meet(b, c))
    assert lattice_join(lattice_join(a, b), c) == lattice_join(a, lattice_join(b, c))


def test_join_absorbs_sublattice():
    # L = <t e1, t e2, t e3> is inside O^3; the representative-level join is O^3.
    sub = LaurentMatrix.from_columns(
        QQ, [mono_col(QQ, 0, 1), mono_col(QQ, 1, 1), mono_col(QQ, 2, 1)]
    )
    sup = LaurentMatrix.identity(QQ)
    assert lattice_join(sub, sup) == sup
    assert lattice_meet(sub, sup) == LaurentMatrix.from_columns(
        QQ, [mono_col(QQ, 0, 1), mono_col(QQ, 1, 1), mono_col(QQ, 2, 1)]
    )
    for col in sub.columns():
        assert lattice_contains(sup, col)


def all_neighbors(x):
    """Brute-force neighbor enumeration over F_3: all residue lines and planes."""
    p = x.field.p
    seen = set()
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if (a, b, c) == (0, 0, 0):
                    continue
                for builder in (step_to_line, step_to_plane):
                    y = builder(x, (a, b, c))
                    if y not in seen:
                        seen.add(y)
                        out.append(y)
    return out


def test_common_neighbor_octagon():
    L = octagon_classes()
    n = common_neighbor(L[1], L[2], L[3])
    expected = class_from_generators(
        [mono_col(QQ, 0, 0), mono_col(QQ, 1, 0), mono_col(QQ, 2, 1)], QQ
    )
    assert n == expected
    for v in (L[1], L[2], L[3]):
        assert adjacent(n, v)


def test_common_neighbor_diagonal_apartment():
    x = diag_class(QQ, (0, 0, 0))
    y = diag_class(QQ, (1, 1, 0))
    z = diag_class(QQ, (2, 1, 0))
    assert distance(x, y) == OMEGA1
    assert distance(y, z) == OMEGA2
    assert common_neighbor(x, y, z) == diag_class(QQ, (1, 0, 0))


def test_common_neighbor_brute_force_oracle():
    rng = random.Random(99)
    found = {(OMEGA1, OMEGA2): 0, (OMEGA2, OMEGA1): 0}
    trials = 0
    while min(found.values()) < 3 and trials < 100:
        trials += 1
        x = LatticeClass.standard(F3)
        for _ in range(rng.randrange(0, 3)):
            x = random_step(x, rng.choice([OMEGA1, OMEGA2]), rng)
        w1, w2 = rng.choice(list(found))
        y = random_step(x, w1, rng)
        z = random_step(y, w2, rng)
        if x == z:
            continue
        n = common_neighbor(x, y, z)
        candidates = [
            v
            for v in all_neighbors(x)
            if adjacent(v, y) and adjacent(v, z) and v not in (x, y, z)
        ]
        assert candidates == [n], (candidates, n)
        found[(w1, w2)] += 1
    assert min(found.values()) >= 3


def test_common_neighbor_preconditions():
    L = octagon_classes()
    with pytest.raises(PreconditionViolated):
        common_neighbor(L[1], L[2], L[1])
    with pytest.raises(PreconditionViolated):
        # Two omega_2 steps in a row.
        common_neighbor(
            diag_class(QQ, (0, 0, 0)), diag_class(QQ, (1, 0, 0)), diag_class(QQ, (2, 0, 0))
        )
    with pytest.raises(PreconditionViolated):
        common_neighbor(L[1], L[3], L[5])  # non-fundamental distances


def test_random_step_postconditions():
    rng = random.Random(1234)
    for field in (QQ, GF(11)):
        x = LatticeClass.standard(field)
        for w in (OMEGA1, OMEGA2):
            y = random_step(x, w, rng)
            assert distance(x, y) == w
            assert distance(y, x) == dual_weight(w)


def test_random_step_deterministic():
    x = LatticeClass.standard(GF(11))
    a = random_step(x, OMEGA1, random.Random(5))
    b = random_step(x, OMEGA1, random.Random(5))
    assert a == b


def test_random_step_rejects_bad_weight():
    with pytest.raises(PreconditionViolated):
        random_step(LatticeClass.standard(QQ), (2, 1, 0), random.Random(0))


def test_json_roundtrip():
    L = octagon_classes()
    for i in (1, 3, 6, 8):
        obj = L[i].to_json()
        assert obj["field"] == "Q"
        assert class_from_json(obj) == L[i]
    x = random_step(LatticeClass.standard(GF(11)), OMEGA2, random.Random(2))
    obj = x.to_json()
    assert obj["field"] == "Fp" and obj["p"] == 11
    assert class_from_json(obj) == x


def test_field_is_part_of_class_identity():
    q, f5 = LatticeClass.standard(QQ), LatticeClass.standard(GF(5))
    assert q.key() == f5.key()
    assert q != f5 and len({q, f5}) == 2
    assert q == LatticeClass.standard(QQ) and hash(q) == hash(LatticeClass.standard(QQ))
    assert f5 == LatticeClass.standard(GF(5))
    # within one field, classes still sort by their basis
    for field in (QQ, GF(5)):
        a, b = diag_class(field, (0, 1, 2)), diag_class(field, (2, 1, 0))
        assert (a < b) == (a.key() < b.key()) and (b < a) == (b.key() < a.key())


def test_a_foreign_field_is_refused_where_it_enters():
    q, f7 = LatticeClass.standard(QQ), diag_class(GF(7), (0, 1, 2))
    f7_cols = f7.basis.columns()
    with pytest.raises(TypeError, match="mixed scalar domains"):
        class_from_generators(f7_cols, QQ)
    with pytest.raises(TypeError, match="mixed scalar domains"):
        class_from_generators(q.basis.columns()[:2] + f7_cols[2:])
    with pytest.raises(TypeError, match="mixed scalar domains"):
        lattice_meet(q.basis, f7.basis)
    with pytest.raises(ValueError, match="shape or domain mismatch"):
        lattice_join(q.basis, f7.basis)
    for ask in (distance, adjacent):
        for x, y in ((q, f7), (f7, q)):
            with pytest.raises(TypeError, match="mixed scalar domains"):
                ask(x, y)
    with pytest.raises(TypeError, match="mixed scalar domains"):
        lattice_contains(q.basis, f7_cols[0])
    assert lattice_contains(q.basis, q.basis.columns()[0])


def test_a_non_scalar_generator_is_refused_by_its_type():
    for field in (QQ, None):
        with pytest.raises(TypeError, match="matrix entry is int, not LaurentScalar"):
            class_from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]], field)


def dual_meet(a, b):
    """L_a meet L_b through duality: (L_a meet L_b)* = L_a* + L_b*."""
    return lattice_dual(lattice_join(lattice_dual(a), lattice_dual(b)))


def oracle_chain(x, z, combine, shifts):
    """A pair chain by its definition: every shift, deduplicated in order."""
    out = []
    for a in shifts:
        c = class_from_generators(combine(x.basis, z.basis.shift(a)))
        if c not in out:
            out.append(c)
    return out


def random_class(rng, field):
    while True:
        cols = [
            [
                LaurentScalar(field, {e: rng.randrange(1, 5) for e in rng.sample(range(-2, 3), 2)})
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        try:
            return class_from_generators(cols, field)
        except RankDeficient:
            continue


def random_pairs(rng, field, count=4):
    for k in range(count):
        x = random_class(rng, field)
        if k % 2:
            z = random_class(rng, field)
        else:
            z = x
            for _ in range(rng.randrange(4)):
                z = random_step(z, rng.choice([OMEGA1, OMEGA2]), rng)
        yield x, z


# The common apartment of this pair over GF(7) has exponents (-3, -3, 2): its
# basis needs more precision than the elimination of the matrix itself.
WIDE_PAIR = (
    {"field": "Fp", "p": 7, "columns": [
        [[{"e": 3, "c": 1}], [], []],
        [[], [{"e": 3, "c": 1}], []],
        [[{"e": 0, "c": 5}, {"e": 1, "c": 6}, {"e": 2, "c": 1}],
         [{"e": 0, "c": 4}, {"e": 1, "c": 1}, {"e": 2, "c": 2}], [{"e": 0, "c": 1}]],
    ]},
    {"field": "Fp", "p": 7, "columns": [
        [[{"e": 2, "c": 1}], [], []],
        [[{"e": 0, "c": 1}, {"e": 1, "c": 2}], [{"e": 0, "c": 1}], []],
        [[{"e": 0, "c": 4}, {"e": 1, "c": 1}], [], [{"e": 0, "c": 1}]],
    ]},
)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(10007)], ids=repr)
def test_common_apartment_and_pair_chains(field):
    rng = random.Random(31 + (field.p or 0))
    pairs = list(random_pairs(rng, field))
    if field == GF(7):
        wide = tuple(class_from_json(obj) for obj in WIDE_PAIR)
        assert common_apartment(*(c.basis for c in wide))[0] == (-3, -3, 2)
        pairs.append(wide)
    for x, z in pairs:
        exps, g = common_apartment(x.basis, z.basis)
        assert list(exps) == sorted(exps)
        assert hermite_over_O(g) == x.basis
        scaled = [[f.shift(e) for f in col] for e, col in zip(exps, g.columns())]
        assert hermite_over_O(LaurentMatrix.from_columns(field, scaled)) == z.basis
        assert distance(x, z) == dual_weight(exps)
        # L_x meet t^a L_z and L_x + t^a L_z, read off the apartment
        for a in range(-exps[2] - 1, 2 - exps[0]):
            assert hermite_over_O(apartment_lattice((exps, g), a, max)) == dual_meet(
                x.basis, z.basis.shift(a)
            )
            assert hermite_over_O(apartment_lattice((exps, g), a, min)) == lattice_join(
                x.basis, z.basis.shift(a)
            )
        n = steps(distance(x, z))
        assert pair_chain(x, z, max) == oracle_chain(x, z, dual_meet, range(-(n + 1), n + 2))
        assert pair_chain(x, z, min) == oracle_chain(x, z, lattice_join, range(n + 1, -(n + 2), -1))


def old_distance(x, y):
    """d(x, y) by a fresh elimination of the exact ``x.basis^-1 * y.basis``."""
    if x == y:
        return ZERO_WEIGHT
    return dual_weight(smith_exponents(invert_upper_triangular(x.basis) * y.basis))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(10007)], ids=repr)
def test_class_apartment_both_orientations(field):
    rng = random.Random(53 + (field.p or 0))
    for x, z in random_pairs(rng, field, count=6):
        for bound in (max, min):
            assert pair_chain(z, x, bound) == pair_chain(x, z, bound)[::-1]
        for u, v in ((x, z), (z, x)):
            assert distance(u, v) == old_distance(u, v)
            exps, g = class_apartment(u, v)
            assert sum(exps) == (invert_upper_triangular(u.basis) * v.basis).det().val()
            # the orientation read off the cache spans what a direct elimination spans
            direct = common_apartment(u.basis, v.basis)
            assert exps == direct[0]
            for a in range(-exps[2] - 1, 2 - exps[0]):
                for bound in (max, min):
                    got = hermite_over_O(apartment_lattice((exps, g), a, bound))
                    assert got == hermite_over_O(apartment_lattice(direct, a, bound))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
def test_lattice_meet_matches_duality(field):
    rng = random.Random(41 + (field.p or 0))
    for _ in range(6):
        a, b = random_class(rng, field).basis, random_class(rng, field).basis
        # generating sets that are not canonical bases, one of them not square
        gens = a.hstack(a.shift(1))
        mixed = LaurentMatrix.from_columns(field, [
            [u + v for u, v in zip(b.column(0), b.column(2))], b.column(1), b.column(2)
        ])
        for x, y in ((a, b), (b.shift(-2), a), (gens, mixed)):
            assert lattice_meet(x, y) == dual_meet(x, y)


def generic_step_to_line(x, coeffs):
    """The line step as the Hermite form of its generators ``<v, t L_x>``."""
    field = x.field
    cols = x.basis.columns()
    v = [LaurentScalar.zero(field) for _ in range(3)]
    for c, col in zip(coeffs, cols):
        if c != 0:
            v = [a + b.scale(c) for a, b in zip(v, col)]
    gens = [v] + [[f.shift(1) for f in col] for col in cols]
    return class_from_generators(gens, field)


def generic_step_to_plane(x, covector):
    """The plane step as the Hermite form of its generators
    ``<g_i - (u_i / u_p) g_p for i != p, t L_x>``."""
    field = x.field
    cols = x.basis.columns()
    pivot = next(j for j in range(3) if covector[j] != 0)
    inv = field.inv(covector[pivot])
    gens = []
    for i in range(3):
        if i == pivot:
            continue
        ratio = field.normalize(-covector[i] * inv)
        gen = [a + b.scale(ratio) for a, b in zip(cols[i], cols[pivot])]
        gens.append(gen)
    gens += [[f.shift(1) for f in col] for col in cols]
    return class_from_generators(gens, field)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(10007)], ids=repr)
def test_direct_steps_match_the_hermite_form_of_their_generators(field):
    # every coefficient vector over GF(2) and GF(3); elsewhere every zero
    # pattern, with the nonzero entries 1 or a random constant
    rng = random.Random(67 + (field.p or 0))
    steps_checked = 0
    for start in (LatticeClass.standard(field), random_class(rng, field)):
        x = start
        for _ in range(4):
            x = random_step(x, rng.choice([OMEGA1, OMEGA2]), rng)
            if field.p in (2, 3):
                vectors = itertools.product(range(field.p), repeat=3)
            else:
                c = field.normalize(rng.randrange(2, field.p or 10007))
                vectors = itertools.product((0, 1, c), repeat=3)
            for v in vectors:
                if any(v):
                    assert step_to_line(x, v) == generic_step_to_line(x, v)
                    assert step_to_plane(x, v) == generic_step_to_plane(x, v)
                    steps_checked += 2
    assert steps_checked == 8 * 2 * (7 if field.p == 2 else 26)


@pytest.mark.parametrize("builder", [step_to_line, step_to_plane], ids=["line", "plane"])
@pytest.mark.parametrize(
    "coeffs", [(0, 0, 0), (7, 0, 0), (0, -14, 21)], ids=["zero", "p", "multiples"]
)
def test_zero_residue_vectors_are_refused(builder, coeffs):
    x = random_step(LatticeClass.standard(GF(7)), OMEGA1, random.Random(4))
    with pytest.raises(PreconditionViolated, match="must not all be zero"):
        builder(x, coeffs)
