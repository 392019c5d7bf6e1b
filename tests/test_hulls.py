import io
import json
import random
from contextlib import redirect_stdout
from itertools import combinations

import pytest
from fixtures import octagon_classes, octagon_hull_extras, record_pair_work

from sl3webs import hulls
from sl3webs.building import (
    OMEGA1,
    OMEGA2,
    LatticeClass,
    adjacent,
    distance,
    join,
    lattice_to_json,
    meet,
    random_step,
    steps,
    weight_components,
)
from sl3webs.cli import run
from sl3webs.errors import NotAPath
from sl3webs.growth import enumerate_diagrams
from sl3webs.hulls import (
    conv,
    conv_pair,
    induced_complex,
    maxconv,
    maxconv_chain,
    maxconv_pair,
    minconv,
    minconv_chain,
    minconv_pair,
    path_hull_fastpath,
)
from sl3webs.series import GF, QQ
from sl3webs.synthesis import realize_polygon

F7 = GF(7)


def random_vertex(rng, field, n_steps=4):
    x = LatticeClass.standard(field)
    for _ in range(n_steps):
        w = OMEGA1 if rng.random() < 0.5 else OMEGA2
        x = random_step(x, w, rng)
    return x


def random_path(rng, field, n_edges):
    path = [LatticeClass.standard(field)]
    while len(path) < n_edges + 1:
        w = OMEGA1 if rng.random() < 0.5 else OMEGA2
        y = random_step(path[-1], w, rng)
        if y in path:
            continue
        path.append(y)
    return path


def test_pair_hull_of_equal_vertices():
    x = LatticeClass.standard(QQ)
    assert minconv_pair(x, x) == {x}
    assert maxconv_pair(x, x) == {x}
    assert conv_pair(x, x) == {x}


def test_octagon_pair_hull_frozen():
    L = octagon_classes()
    center = octagon_hull_extras()["center"]
    got = minconv_pair(L[1], L[4])
    assert got == {L[1], center, L[4]}
    # d(L1, L4) = 2*omega_2, so this is a straight-path geodesic and the
    # min and max pair hulls agree.
    assert distance(L[1], L[4]) == (2, 2, 0)
    assert maxconv_pair(L[1], L[4]) == got
    assert len(minconv_pair(L[1], L[3])) == 3


def test_chain_distance_profiles():
    rng = random.Random(20)
    for _ in range(25):
        x = random_vertex(rng, F7)
        y = random_vertex(rng, F7)
        d = distance(x, y)
        a, b = weight_components(d)
        n = steps(d)

        chain = minconv_chain(x, y)
        assert len(chain) == n + 1
        assert chain[0] == x and chain[-1] == y
        for i, v in enumerate(chain):
            if i <= b:
                assert distance(x, v) == (i, i, 0)
                assert distance(v, y) == (a + b - i, b - i, 0)
            else:
                assert distance(x, v) == (i, b, 0)
                assert distance(v, y) == (n - i, 0, 0)
        # the elbow vertex sits at distance b*omega_2 from x
        assert distance(x, chain[b]) == (b, b, 0)

        chain = maxconv_chain(x, y)
        assert len(chain) == n + 1
        assert chain[0] == x and chain[-1] == y
        for i, v in enumerate(chain):
            if i <= a:
                assert distance(x, v) == (i, 0, 0)
            else:
                assert distance(x, v) == (i, i - a, 0)


def test_pair_hull_symmetry_and_fixpoint():
    rng = random.Random(21)
    for _ in range(10):
        x = random_vertex(rng, F7)
        y = random_vertex(rng, F7)
        # compare the ordered chains themselves: the cached set wrappers
        # normalize argument order, so they cannot witness this
        assert set(minconv_chain(x, y)) == set(minconv_chain(y, x))
        assert set(maxconv_chain(x, y)) == set(maxconv_chain(y, x))
        # a pair hull is already min-convex (resp. max-convex)
        assert minconv({x, y}) == minconv_pair(x, y)
        assert maxconv({x, y}) == maxconv_pair(x, y)


def test_conv_pair_trivial_iff_mixed_distance():
    # conv_pair reads the answer off the distance; the intersection of the
    # two pair hulls is the oracle
    for field in (F7, QQ, GF(2), GF(3), GF(10007)):
        rng = random.Random(22)
        seen_mixed = seen_pure = 0
        for _ in range(30):
            x = random_vertex(rng, field, n_steps=3)
            y = random_vertex(rng, field, n_steps=3)
            if x == y:
                continue
            a, b = weight_components(distance(x, y))
            got = conv_pair(x, y)
            assert got == minconv_pair(x, y) & maxconv_pair(x, y)
            if a > 0 and b > 0:
                assert got == {x, y}
                seen_mixed += 1
            else:
                assert len(got) == steps(distance(x, y)) + 1
                assert got == minconv_pair(x, y) == maxconv_pair(x, y)
                seen_pure += 1
        assert seen_mixed > 0 and seen_pure > 0, field.p


def test_straight_path_geodesic():
    x = LatticeClass.standard(QQ)
    y = LatticeClass.from_diagonal(QQ, (-3, 0, 0))
    assert distance(x, y) == (3, 0, 0)
    got = conv_pair(x, y)
    assert len(got) == 4
    assert got == minconv_pair(x, y) == maxconv_pair(x, y)


def test_octagon_hulls_frozen():
    L = octagon_classes()
    P = set(L.values())
    extras = octagon_hull_extras()
    assert minconv(P) == P | extras["min"]
    assert maxconv(P) == P | extras["max"]
    assert conv(P) == P | {extras["center"]}


def test_octagon_wheel_complex():
    L = octagon_classes()
    hull = conv(set(L.values()))
    cx = induced_complex(hull)
    assert cx.counts() == (9, 16, 8)
    # flag condition and edge types
    for i, j in cx.edges:
        assert distance(cx.vertices[i], cx.vertices[j]) in (OMEGA1, OMEGA2)
    for i, j, k in cx.triangles:
        assert {(i, j), (i, k), (j, k)} <= cx.edges
    # the center is the hub: it meets all eight octagon vertices
    center = octagon_hull_extras()["center"]
    ci = cx.vertices.index(center)
    assert sum(1 for e in cx.edges if ci in e) == 8


def test_hull_closure_properties():
    rng = random.Random(23)
    L = octagon_classes()
    sets = [set(L.values())]
    for _ in range(3):
        sets.append({random_vertex(rng, F7, n_steps=3) for _ in range(3)})
    for S in sets:
        mn = minconv(S)
        mx = maxconv(S)
        for x in mn:
            for y in mn:
                assert minconv_pair(x, y) <= mn
                assert meet(x, y) in mn
        for x in mx:
            for y in mx:
                assert maxconv_pair(x, y) <= mx
                assert join(x, y) in mx


def test_fastpath_octagon():
    L = octagon_classes()
    path = [L[i] for i in range(1, 9)]
    assert path_hull_fastpath(path) == conv(set(path))


def test_one_elimination_per_pair_of_classes(monkeypatch):
    """Every pair of classes the octagon's hull and complex touch builds ``rel`` once and
    reads its exponents off the minors.  Only a pair whose chain has an interior vertex
    runs a Smith elimination, once; reverse orientations and repeats read the memo."""
    built, eliminated = record_pair_work(monkeypatch)
    L = octagon_classes()
    path = [L[i] for i in range(1, 9)] + [L[1]]
    hull = path_hull_fastpath(path)
    cx = induced_complex(hull)

    def keys(pairs):
        return {frozenset(v.key() for v in p) for p in pairs}

    def chained(x, y):
        return steps(distance(x, y)) > 1

    # every pair the two calls look at: consecutive path vertices, all pairs of
    # path vertices, all pairs of hull vertices; conv_pair reads a chain only for
    # a pure distance
    pairs = {frozenset(p) for p in zip(path, path[1:])}
    pairs |= {frozenset(p) for p in combinations(set(path), 2)}
    pairs |= {frozenset(p) for p in combinations(hull, 2)}
    pure = [
        (x, y)
        for x, y in combinations(set(path), 2)
        if not all(weight_components(distance(x, y))) and chained(x, y)
    ]
    assert len(hull) == len(cx.vertices) > 8
    assert len(built) == len(pairs) == len(hull) * (len(hull) - 1) // 2
    assert {pair for pair, _rel in built} == keys(pairs)
    assert len(eliminated) == len(set(eliminated)) == len(pure) > 0
    assert set(eliminated) == keys(pure)
    # reverse orientations and repeats are read off the memo; a chain is asked
    # of every pair, so each pair with an interior vertex is eliminated once
    for x, y in combinations(hull, 2):
        distance(y, x)
        assert maxconv_chain(y, x) == maxconv_chain(x, y)[::-1]
        assert minconv_chain(y, x) == minconv_chain(x, y)[::-1]
    assert induced_complex(path_hull_fastpath(path)).counts() == cx.counts()
    assert len(built) == len(pairs)
    with_interior = [p for p in combinations(hull, 2) if chained(*p)]
    assert len(eliminated) == len(set(eliminated)) == len(with_interior) < len(pairs)
    assert set(eliminated) == keys(with_interior)


def test_fastpath_random_paths():
    rng = random.Random(24)
    for n_edges in (2, 3, 4, 5):
        for _ in range(3):
            path = random_path(rng, F7, n_edges)
            assert path_hull_fastpath(path) == conv(set(path))


def test_fastpath_rejects_non_paths():
    L = octagon_classes()
    with pytest.raises(NotAPath):
        path_hull_fastpath([L[1], L[3]])
    with pytest.raises(NotAPath):
        path_hull_fastpath([])
    with pytest.raises(NotAPath):
        path_hull_fastpath([L[1], L[1]])


def test_minconv_rejects_empty():
    with pytest.raises(ValueError):
        minconv(set())


def test_induced_complex_small_cases():
    x = LatticeClass.standard(QQ)
    far = LatticeClass.from_diagonal(QQ, (-2, -1, 0))
    cx = induced_complex({x, far})
    assert cx.counts() == (2, 0, 0)

    rng = random.Random(25)
    y = random_step(x, OMEGA1, rng)
    cx = induced_complex(conv({x, y}))
    assert cx.counts() == (2, 1, 0)


def test_triangle_is_its_own_hull():
    x = LatticeClass.standard(QQ)
    y = LatticeClass.from_diagonal(QQ, (-1, 0, 0))
    z = LatticeClass.from_diagonal(QQ, (-1, -1, 0))
    S = {x, y, z}
    assert minconv(S) == S
    assert maxconv(S) == S
    assert conv(S) == S
    assert induced_complex(S).counts() == (3, 3, 1)


def test_complex_json_and_dot():
    L = octagon_classes()
    cx = induced_complex(conv(set(L.values())))
    blob = cx.to_json()
    assert len(blob["vertices"]) == 9
    assert sorted(map(tuple, blob["edges"])) == sorted(cx.edges)
    dot = cx.to_dot()
    assert dot.startswith("graph hull {")
    assert dot.count(" -- ") == 16


# -- the closure that requests every pair, kept as an oracle -------------------


def every_pair_closure(vertices, pair_hull):
    """Fixpoint of ``pair_hull`` by a worklist: each vertex, old or new, is
    paired once with every vertex taken before it, so each unordered pair of
    the closure is requested exactly once."""
    verts = set(vertices)
    todo = sorted(verts)
    done = []
    while todo:
        x = todo.pop()
        for y in done:
            new = pair_hull(x, y) - verts
            verts |= new
            todo.extend(sorted(new))
        done.append(x)
    return frozenset(verts)


def counting(pair_hull, calls):
    def counted(x, y):
        calls.append((x, y))
        return pair_hull(x, y)

    return counted


def assert_closures_match_the_oracle(vertices):
    """The closures equal the oracle's, built by the same insertions; returns
    the pair hulls requested and those the oracle requests."""
    asked, every = [], []
    hull = {}
    for pair_hull, closure in ((minconv_pair, minconv), (maxconv_pair, maxconv)):
        want = every_pair_closure(vertices, counting(pair_hull, every))
        got = hulls._pairwise_closure(vertices, counting(pair_hull, asked))
        assert got == want and list(got) == list(want)
        assert closure(vertices) == want
        hull[closure] = want
    assert conv(vertices) == hull[minconv] & hull[maxconv]
    return len(asked), len(every)


def test_closure_matches_the_oracle_on_the_octagon():
    asked, every = assert_closures_match_the_oracle(set(octagon_classes().values()))
    assert asked < every


@pytest.mark.parametrize("word", ["121212", "111222"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_closure_matches_the_oracle_on_realized_components(word, field):
    for k, d in enumerate(enumerate_diagrams(word)):
        poly = realize_polygon(d, random.Random(k), field=field)
        assert_closures_match_the_oracle(set(poly.classes))


def test_closure_matches_the_oracle_on_random_walk_sets():
    # vertices are ends of independent random walks from the standard class,
    # so the sets are not paths and their pair hulls overlap in many ways
    rng = random.Random(26)
    skipped = 0
    for field, n_sets, max_steps in ((F7, 10, 3), (QQ, 4, 2)):
        for _ in range(n_sets):
            n_steps = rng.randrange(2, max_steps + 1)
            asked, every = assert_closures_match_the_oracle(
                {random_vertex(rng, field, n_steps) for _ in range(rng.randrange(3, 6))}
            )
            skipped += every - asked
    assert skipped > 0


def test_collinear_conv_requests_two_pair_hulls(monkeypatch, tmp_path):
    """Two classes at distance (40, 0, 0): the first pair hull of each closure
    holds the whole 41-vertex geodesic, so no other pair is requested (the
    every-pair closure requests 41 * 40 of them)."""
    calls = []
    for name in ("minconv_pair", "maxconv_pair"):
        pair_hull = getattr(hulls, name)

        def counted(x, y, pair_hull=pair_hull):
            calls.append((x, y))
            return pair_hull(x, y)

        monkeypatch.setattr(hulls, name, counted)
    ends = [LatticeClass.standard(QQ), LatticeClass.from_diagonal(QQ, (-40, 0, 0))]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([lattice_to_json(x.basis) for x in ends]))
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["hull", str(path), "--conv"]) == 0
    assert len(calls) == 2
    cx = json.loads(out.getvalue())
    assert len(cx["vertices"]) == 41 and len(cx["edges"]) == 40
