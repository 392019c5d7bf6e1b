import itertools
import json
import random
import re

import pytest
from fixtures import (
    bigon_web,
    hexagon_tripods_diskoid,
    octagon_classes,
    octagon_wheel_diskoid,
    square_basis_webs,
    square_web,
    square_wheel_diskoid,
    strand_web,
    theta_web,
    triangle_diskoid,
    two_gon_diskoid,
    unorientable_diskoid_docs,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from webgen import insert_bigon, insert_square, random_elliptic, reduction_corpus

from sl3webs import basis_webs, webs
from sl3webs.building import OMEGA1, distance
from sl3webs.errors import InvariantViolated, MalformedDiskoid
from sl3webs.growth import enumerate_diagrams
from sl3webs.hulls import induced_complex, path_hull_fastpath
from sl3webs.synthesis import diskoid_from_diagram
from sl3webs.webs import (
    Diskoid,
    Web,
    WebCombination,
    boundary_word,
    canonical_encoding,
    diskoid_from_json,
    diskoid_to_dot,
    diskoid_to_json,
    diskoid_to_tikz,
    dualize,
    empty_web,
    faces,
    internal_faces,
    is_cat0,
    is_nonelliptic,
    iso,
    reduce_web,
    rotate,
    web_from_edges,
    web_from_json,
    web_to_dot,
    web_to_json,
    web_to_tikz,
)


def test_strand_basics():
    w = strand_web()
    assert boundary_word(w) == (1, 2)
    assert w.n_edges == 1
    fs = faces(w)
    assert len(fs) == 1 and len(fs[0]) == 2
    assert internal_faces(w) == []
    assert is_nonelliptic(w)


def test_web_validation():
    with pytest.raises(ValueError):
        web_from_edges([(0, 0)], boundary=())  # loop
    with pytest.raises(ValueError):
        web_from_edges([(0, 1)], boundary=(0, 0))  # repeated boundary vertex
    with pytest.raises(ValueError):
        web_from_edges([(0, 1), (0, 2)], boundary=(1, 2))  # degree 2 interior
    # interior vertex with mixed in/out edges
    with pytest.raises(ValueError):
        web_from_edges([(0, 1), (1, 2), (3, 1)], boundary=(0, 2, 3))
    # twisted theta: one face of 6 darts, so V - E + F = 0
    with pytest.raises(ValueError, match="genus 1"):
        web_from_edges([(0, 1)] * 3, (), rotations={0: [0, 1, 2], 1: [0, 1, 2]})


def test_empty_web_and_loops():
    e = empty_web()
    assert e.n_vertices == 0 and boundary_word(e) == ()
    one_loop = Web((), (), (), free_loops=1)
    assert not is_nonelliptic(one_loop)
    assert reduce_web(one_loop) == WebCombination({e: 3})
    two_loops = Web((), (), (), free_loops=2)
    assert reduce_web(two_loops) == WebCombination({e: 9})


def test_rotate_strand():
    w = strand_web()
    r = rotate(w)
    assert boundary_word(r) == (2, 1)
    assert not iso(w, r)
    assert iso(rotate(r), w)


def test_two_gon_dualizes_to_strand():
    d = two_gon_diskoid()
    assert d.word() == (1, 2)
    assert iso(dualize(d), strand_web())


def test_triangle_dualizes_to_tripod():
    d = triangle_diskoid()
    assert d.word() == (1, 1, 1)
    w = dualize(d)
    assert w.n_vertices == 4 and w.n_edges == 3
    assert boundary_word(w) == (1, 1, 1)
    assert internal_faces(w) == []
    assert is_nonelliptic(w)


def test_octagon_wheel_dual():
    d = octagon_wheel_diskoid()
    assert d.word() == (1, 2, 1, 2, 1, 2, 1, 2)
    assert is_cat0(d)
    assert d.interior_vertices() == [8]
    w = dualize(d)
    assert boundary_word(w) == (1, 2, 1, 2, 1, 2, 1, 2)
    assert w.n_vertices == 16 and w.n_edges == 16
    inner = internal_faces(w)
    assert len(inner) == 1 and len(inner[0]) == 8
    assert is_nonelliptic(w)
    # the wheel has the rotational symmetries of its type
    assert not iso(w, rotate(w))
    assert iso(w, rotate(rotate(w)))
    r8 = w
    for _ in range(8):
        r8 = rotate(r8)
    assert r8.boundary == w.boundary


def test_hexagon_tripods_dual():
    d = hexagon_tripods_diskoid()
    assert d.word() == (1, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 2)
    assert d.interior_vertices() == [0]
    assert d.degree(0) == 6
    assert is_cat0(d)
    assert len(d.triangles) == 8
    w = dualize(d)
    assert boundary_word(w) == d.word()
    assert w.n_vertices == 20 and w.n_edges == 18
    # the bridge dualizes to a strand from arc 4 to arc 9 (1-based)
    ends = [w.edge_ends(e) for e in range(w.n_edges)]
    assert (3, 8) in ends
    inner = internal_faces(w)
    assert len(inner) == 1 and len(inner[0]) == 6
    assert is_nonelliptic(w)


def test_square_wheel_dual_is_square_web():
    d = square_wheel_diskoid()
    assert not is_cat0(d)
    w = dualize(d)
    assert iso(w, square_web())
    assert not is_nonelliptic(w)


def test_cat0_agrees_with_nonelliptic():
    for d in (
        two_gon_diskoid(),
        triangle_diskoid(),
        octagon_wheel_diskoid(),
        hexagon_tripods_diskoid(),
        square_wheel_diskoid(),
    ):
        assert is_cat0(d) == is_nonelliptic(dualize(d))


def test_malformed_diskoids():
    with pytest.raises(MalformedDiskoid):
        Diskoid(2, [(0, 1), (1, 0)], [], (0, 1))  # two arrows on one edge
    with pytest.raises(MalformedDiskoid):
        # arrows not a 3-cycle on the triangle
        Diskoid(3, [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)], (0, 1, 2))
    with pytest.raises(MalformedDiskoid):
        Diskoid(3, [(0, 1), (1, 2)], [], (0, 1, 2))  # walk step is not an edge
    with pytest.raises(MalformedDiskoid):
        # boundary edge of a triangle walked twice
        Diskoid(
            3,
            [(0, 1), (1, 2), (2, 0)],
            [(0, 1, 2)],
            (0, 1, 2, 0, 1, 2),
        )
    with pytest.raises(MalformedDiskoid):
        # pendant edge never walked
        Diskoid(4, [(0, 1), (1, 2), (2, 0), (0, 3)], [(0, 1, 2)], (0, 1, 2))


def test_reduce_bigon():
    got = reduce_web(bigon_web())
    assert got == WebCombination({strand_web(): -2})


def test_reduce_theta():
    got = reduce_web(theta_web())
    assert got == WebCombination({empty_web(): -6})


def test_reduce_square():
    a, b = square_basis_webs()
    assert reduce_web(square_web()) == WebCombination({a: 1, b: 1})


def test_reduce_keeps_nonelliptic_webs():
    for w in (strand_web(), dualize(octagon_wheel_diskoid()), *square_basis_webs()):
        assert reduce_web(w) == WebCombination({w: 1})


def test_reduce_idempotent_on_outputs():
    rng = random.Random(7)
    w = random_elliptic(dualize(octagon_wheel_diskoid()), rng, inserts=3)
    for term, _coeff in reduce_web(w):
        assert is_nonelliptic(term)
        assert reduce_web(term) == WebCombination({term: 1})


def test_insertions_are_inverted_by_reduction():
    rng = random.Random(3)
    base = dualize(octagon_wheel_diskoid())
    with_bigon = insert_bigon(base, rng)
    assert reduce_web(with_bigon) == WebCombination({base: -2})
    with_square = insert_square(base, rng)
    got = reduce_web(with_square)
    # one smoothing undoes the insertion; the other may reduce further
    assert got.terms.get(base) == 1
    assert all(is_nonelliptic(term) for term, _c in got)


def test_reduce_confluence():
    """Random rewrite orders give the same combination."""
    bases = [
        dualize(octagon_wheel_diskoid()),
        dualize(hexagon_tripods_diskoid()),
        square_basis_webs()[0],
    ]
    rng = random.Random(2024)
    for trial in range(10):
        w = random_elliptic(bases[trial % len(bases)], rng, inserts=3)
        ref = reduce_web(w)
        assert reduce_web(w, random.Random(trial)) == ref
        assert reduce_web(w, random.Random(1000 + trial)) == ref


def test_closed_webs_reduce_to_empty_multiples():
    rng = random.Random(5)
    w = theta_web()
    for _ in range(3):
        w2 = insert_square(w, rng)
        w = w2 if w2 is not None else insert_bigon(w, rng)
    got = reduce_web(w)
    assert set(got.terms) == {empty_web()}


def test_web_combination_algebra():
    a, b = square_basis_webs()
    c = WebCombination({a: 2}) + WebCombination({a: -2, b: 1})
    assert c == WebCombination({b: 1})
    assert c.scaled(3) == WebCombination({b: 3})
    with pytest.raises(ValueError):
        WebCombination({a: 1, strand_web(): 1})


def test_web_combination_from_pairs():
    # the last pair for a web counts, as in dict(pairs)
    a, b = square_basis_webs()
    assert WebCombination([(a, 1), (b, 2), (a, 0)]) == WebCombination({b: 2})
    assert WebCombination([(a, 0), (a, 4)]) == WebCombination({a: 4})
    with pytest.raises(ValueError):
        WebCombination([(a, 1), (strand_web(), 1)])


def test_iso_is_label_sensitive():
    a, b = square_basis_webs()
    assert not iso(a, b)
    relabeled = web_from_edges([(2, 3), (0, 1)], boundary=(0, 1, 2, 3))
    assert iso(square_basis_webs()[0], relabeled)


def test_web_json_roundtrip():
    for w in (strand_web(), bigon_web(), dualize(octagon_wheel_diskoid())):
        again = web_from_json(web_to_json(w))
        assert again.rot == w.rot and again.src == w.src
        assert again.boundary == w.boundary


def test_diskoid_json_roundtrip():
    d = hexagon_tripods_diskoid()
    again = diskoid_from_json(diskoid_to_json(d))
    assert again.arrows == d.arrows
    assert again.triangles == d.triangles
    assert again.boundary_walk == d.boundary_walk


def test_emitters_smoke():
    w = dualize(octagon_wheel_diskoid())
    dot = web_to_dot(w)
    assert dot.startswith("digraph") and "->" in dot
    tikz = web_to_tikz(w)
    assert "tikzpicture" in tikz and "\\draw[->]" in tikz
    d = octagon_wheel_diskoid()
    assert "->" in diskoid_to_dot(d)
    assert "tikzpicture" in diskoid_to_tikz(d)


# -- the compacting reducer, kept as an oracle -------------------------------
#
# The direct reading of the relations: every step traces every face of the
# web, and ``_excise`` renumbers the survivors into a new Web.
# ``reduce_web`` must return byte-identical JSON.


def _stub(w, v, dead_edges):
    hits = [d for d in w.rot[v] if d // 2 not in dead_edges]
    if len(hits) != 1:
        raise InvariantViolated(f"vertex {v} has {len(hits)} surviving edges")
    return hits[0]


def _excise(w, dead_vertices, dead_edges, pairs):
    """Remove the given vertices and edges, splicing strands through them.

    ``pairs`` lists two-element junction tuples of dead vertices: the
    strands entering those vertices through their surviving third edges
    get connected.  Returns a new Web.
    """
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    if set(partner) != set(dead_vertices):
        raise InvariantViolated("junction pairs do not cover the excised vertices")

    dead_vset = set(dead_vertices)
    chain_edges = set()
    chains = []
    for v in dead_vertices:
        s = _stub(w, v, dead_edges)
        far = w.head(s)
        if far in dead_vset:
            continue
        # trace inward from the live far end
        if s // 2 in chain_edges:
            continue
        segs = [s ^ 1]  # dart at the live end
        chain_edges.add(s // 2)
        cur = v
        while True:
            nxt = partner[cur]
            s2 = _stub(w, nxt, dead_edges)
            chain_edges.add(s2 // 2)
            segs.append(s2 ^ 1)  # dart at the end away from nxt
            end = w.head(s2)
            if end not in dead_vset:
                break
            cur = end
        chains.append(segs)
    # untraced stubs form closed circles through the junctions
    extra_loops = 0
    loop_edges = set()
    leftover = set()
    for v in dead_vertices:
        e = _stub(w, v, dead_edges) // 2
        if e not in chain_edges:
            leftover.add(e)
    while leftover:
        e = leftover.pop()
        extra_loops += 1
        loop_edges.add(e)
        u, x = w.edge_ends(e)
        cur = partner[x]
        while True:
            e2 = _stub(w, cur, dead_edges) // 2
            if e2 == e:
                break
            leftover.discard(e2)
            loop_edges.add(e2)
            a, b = w.edge_ends(e2)
            cur = partner[b if a == cur else a]

    # rebuild: surviving edges keep their relative order, then chain edges
    gone = [False] * w.n_edges
    for e in (*dead_edges, *chain_edges, *loop_edges):
        gone[e] = True
    new_src = []
    dart_map = [None] * (2 * w.n_edges)
    for e, s in enumerate(w.src):
        if gone[e]:
            continue
        ne = len(new_src)
        dart_map[2 * e] = 2 * ne
        dart_map[2 * e + 1] = 2 * ne + 1
        new_src.append(2 * ne + (s & 1))
    for segs in chains:
        ne = len(new_src)
        d_a, d_b = segs[0], segs[-1]
        # direction carried by the first segment, checked on the last
        a_is_source = w.is_out(d_a)
        if a_is_source == w.is_out(d_b):
            raise InvariantViolated("chain direction is inconsistent")
        dart_map[d_a] = 2 * ne
        dart_map[d_b] = 2 * ne + 1
        new_src.append(2 * ne if a_is_source else 2 * ne + 1)

    vert_map = [None] * w.n_vertices
    new_rot = []
    new_vert = [None] * (2 * len(new_src))
    for v, r in enumerate(w.rot):
        if v in dead_vset:
            continue
        nv = vert_map[v] = len(new_rot)
        r = tuple([dart_map[d] for d in r])
        for d in r:
            new_vert[d] = nv
        new_rot.append(r)
    return Web._trusted(
        tuple(new_rot),
        tuple(new_src),
        tuple([vert_map[v] for v in w.boundary]),
        w.free_loops + extra_loops,
        tuple(new_vert),
    )


def _reducible_faces(w, internal):
    out = []
    for f in internal:
        if len(f) < 6:
            if len(f) not in (2, 4):
                raise InvariantViolated(f"odd internal face {f}")
            if len({w.vert(d) for d in f}) < len(f):
                # degenerate square revisiting a corner; a smaller face
                # nearby shrinks first
                continue
            out.append(f)
    # deterministic id: smallest dart first
    keyed = []
    for f in out:
        i = f.index(min(f))
        keyed.append(f[i:] + f[:i])
    keyed.sort(key=lambda f: (len(f), f))
    return keyed


def _apply_bigon(w, face):
    d1, d2 = face
    u, v = w.vert(d1), w.vert(d2)
    return _excise(w, (u, v), {d1 // 2, d2 // 2}, [(u, v)])


def _apply_square(w, face, which):
    corners = tuple(w.vert(d) for d in face)
    dead_edges = {d // 2 for d in face}
    if which == 0:
        pairs = [(corners[0], corners[1]), (corners[2], corners[3])]
    else:
        pairs = [(corners[1], corners[2]), (corners[3], corners[0])]
    return _excise(w, corners, dead_edges, pairs)


def compacting_reduce(w, rng=None):
    """Evaluate a web into an integer combination of non-elliptic webs.

    Circles count 3, bigons -2 times the strand, squares the sum of the
    two adjacent-corner reconnections.  The default strategy always
    rewrites a minimal face (ties by smallest dart id); passing ``rng``
    picks uniformly among the reducible faces instead, which is how the
    confluence tests drive independent rewrite orders.
    """
    out = {}
    agenda = [(1, w)]
    while agenda:
        coeff, cur = agenda.pop()
        if cur.free_loops:
            coeff *= 3 ** cur.free_loops
            cur = Web._trusted(cur.rot, cur.src, cur.boundary, 0, cur._vert)
        internal = internal_faces(cur)
        cands = _reducible_faces(cur, internal)
        if not cands:
            if any(len(f) < 6 for f in internal):
                raise InvariantViolated("terminal web still has a small face")
            out[cur] = out.get(cur, 0) + coeff
            continue
        face = cands[0] if rng is None else cands[rng.randrange(len(cands))]
        if len(face) == 2:
            agenda.append((-2 * coeff, _apply_bigon(cur, face)))
        else:
            agenda.append((coeff, _apply_square(cur, face, 0)))
            agenda.append((coeff, _apply_square(cur, face, 1)))
    return WebCombination(out)


def _json(combo):
    return json.dumps(combo.to_json(), sort_keys=True)


ORACLE_BASES = [
    dualize(octagon_wheel_diskoid()),
    dualize(hexagon_tripods_diskoid()),
    square_basis_webs()[0],
    theta_web(),
]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    base=st.integers(0, len(ORACLE_BASES) - 1),
    seed=st.integers(0, 2**32),
    inserts=st.integers(1, 5),
)
def test_reduce_matches_the_compacting_oracle(base, seed, inserts):
    w = random_elliptic(ORACLE_BASES[base], random.Random(seed), inserts=inserts)
    assert _json(reduce_web(w)) == _json(compacting_reduce(w))
    got = reduce_web(w, random.Random(seed))
    assert _json(got) == _json(compacting_reduce(w, random.Random(seed)))


@pytest.fixture
def splices(monkeypatch):
    """Each rewrite as (face length, pairing, loops made, edges made)."""
    log = []
    splice = webs._splice

    def spy(state, face, which):
        n_edges = len(state.src)
        loops = splice(state, face, which)
        log.append((len(face), which, loops, len(state.src) - n_edges))
        return loops

    monkeypatch.setattr(webs, "_splice", spy)
    return log


def test_theta_bigon_closes_a_free_loop(splices):
    # the bigon's two corners share their third edge, which becomes a loop
    assert reduce_web(theta_web()) == WebCombination({empty_web(): -6})
    assert splices == [(2, 0, 1, 0)]


def square_beside_bigon():
    """Square on corners 2, 3, 4, 5 with a second edge 4 -> 3 outside it,
    and legs from 2 and to 5; reduces to 4 times a strand."""
    edges = [(2, 0), (1, 5), (2, 3), (4, 3), (4, 3), (4, 5), (2, 5)]
    rotations = {2: [2, 0, 6], 3: [2, 3, 4], 4: [4, 3, 5], 5: [5, 6, 1]}
    return web_from_edges(edges, boundary=(0, 1), rotations=rotations)


def test_square_beside_a_bigon(splices):
    w = square_beside_bigon()
    assert sorted(len(f) for f in internal_faces(w)) == [2, 4]
    want = WebCombination({strand_web(2): 4})
    # the default order takes the bigon first
    assert reduce_web(w) == want
    assert splices == [(2, 0, 0, 1), (2, 0, 0, 1)]
    splices.clear()
    # this stream picks the square: in one smoothing a single strand runs
    # through both junction pairs, in the other the second bigon edge
    # closes into a loop through one pair
    assert random.Random(0).randrange(2) == 1
    got = reduce_web(w, random.Random(0))
    assert got == want and _json(got) == _json(compacting_reduce(w, random.Random(0)))
    assert sorted(splices) == [(4, 0, 0, 1), (4, 1, 1, 1)]


def test_odd_small_face_is_an_invariant_violation():
    # a triangle with three legs, built unchecked: its directions cannot
    # alternate, so no web has it
    rot = ((0, 5, 6), (2, 1, 8), (4, 3, 10), (7,), (9,), (11,))
    vert = tuple(v for _d, v in sorted((d, v) for v, r in enumerate(rot) for d in r))
    w = Web._trusted(rot, (0, 2, 4, 6, 8, 10), (3, 4, 5), 0, vert)
    assert [len(f) for f in internal_faces(w)] == [3]
    with pytest.raises(InvariantViolated, match="not a bigon or a square"):
        reduce_web(w)


def test_reduce_builds_one_web_per_term(monkeypatch):
    # terminal states are keyed on their own ids; only a new key is compacted
    built = []
    web = webs._Reduction.web
    monkeypatch.setattr(webs._Reduction, "web", lambda state: built.append(1) or web(state))
    terms = 0
    for i, w in enumerate(reduction_corpus()):
        terms += len(reduce_web(w))
        if i % 3 == 0:
            terms += len(reduce_web(w, random.Random(i)))
    assert len(built) == terms


def test_terminal_state_with_a_closed_component_is_an_invariant_violation():
    with pytest.raises(InvariantViolated, match="closed component"):
        webs._Reduction(theta_web()).encoding()


# -- the canonical encoding read through Web accessors, kept as an oracle ----
#
# ``_reference_encode_from`` and ``reference_encoding`` are the encoding as it
# was before it read plain sequences, less the read and write of ``w._enc``.


def _reference_encode_from(w, root_dart, order):
    queue = [(w.vert(root_dart), root_dart)]
    order[w.vert(root_dart)] = len(order)
    bpos = {v: i for i, v in enumerate(w.boundary)}
    out = []
    qi = 0
    while qi < len(queue):
        v, entry = queue[qi]
        qi += 1
        r = w.rot[v]
        i = r.index(entry)
        rec = []
        for k in range(len(r)):
            d = r[(i + k) % len(r)]
            u = w.head(d)
            if u not in order:
                order[u] = len(order)
                queue.append((u, d ^ 1))
            rec.append((w.is_out(d), order[u], bpos.get(u, -1)))
        out.append((bpos.get(v, -1), tuple(rec)))
    return tuple(out)


def reference_encoding(w):
    order = {}
    parts = [len(w.boundary), w.free_loops]
    for v in w.boundary:
        if v in order:
            continue
        if not w.rot[v]:
            raise ValueError(f"boundary vertex {v} has no edge")
        parts.append(_reference_encode_from(w, w.rot[v][0], order))
    leftover = [v for v in range(w.n_vertices) if v not in order and w.rot[v]]
    while leftover:
        best = None
        best_order = None
        for v in leftover:
            for d in w.rot[v]:
                trial = dict(order)
                enc = _reference_encode_from(w, d, trial)
                if best is None or enc < best:
                    best, best_order = enc, trial
        parts.append(best)
        order = best_order
        leftover = [v for v in leftover if v not in order]
    return tuple(parts)


def _uncached(w):
    return Web._trusted(w.rot, w.src, w.boundary, w.free_loops, w._vert)


def test_canonical_encoding_matches_the_reference():
    basis = 0
    for n in range(1, 8):
        for word in itertools.product((1, 2), repeat=n):
            for w in basis_webs(word):
                for x in (w, rotate(w)):
                    assert canonical_encoding(_uncached(x)) == reference_encoding(x)
                basis += 1
    assert basis == 638
    # the corpus holds 12 closed webs grown from the theta web; the terms
    # carry the encoding ``reduce_web`` read off their terminal states
    corpus = reduction_corpus()
    terms = 0
    for i, w in enumerate(corpus):
        for combo in (reduce_web(w), reduce_web(w, random.Random(i))):
            for term, _c in combo:
                assert canonical_encoding(term) == reference_encoding(term)
                terms += 1
        for x in (w, rotate(w)):
            assert canonical_encoding(_uncached(x)) == reference_encoding(x)
    assert sum(not w.boundary for w in corpus) == 12
    assert terms == 304


def test_state_encoding_matches_its_web(monkeypatch):
    terminal = []
    encoding = webs._Reduction.encoding

    def spy(state):
        enc = encoding(state)
        assert enc == canonical_encoding(state.web())
        terminal.append(enc)
        return enc

    monkeypatch.setattr(webs._Reduction, "encoding", spy)
    for i, w in enumerate(reduction_corpus()):
        reduce_web(w)
        reduce_web(w, random.Random(i))
    assert len(terminal) > len(set(terminal))


# -- edge-id constructors, kept as oracles for the dart rule -----------------
# ``pool_web_from_edges`` finds each listed edge's dart by searching the
# vertex's incident darts; ``edge_list_dualize`` builds an edge list and
# edge-id rotations and goes through it, orienting the triangles with
# ``_oriented_triangles``, the orientation pass as ``dualize`` once ran it,
# on a side map of its own.


def _rotations(cyc):
    return {cyc, cyc[1:] + cyc[:1], cyc[2:] + cyc[:2]}


def _oriented_triangles(d):
    """Counterclockwise vertex order per triangle, seeded from the walk.

    The walk runs counterclockwise, so the triangle on a boundary edge
    contains that walk step in its own counterclockwise cycle; neighbors
    across an interior edge traverse it oppositely.
    """
    side_owner_tri = {}
    for t in d.triangles:
        for x, y in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            side_owner_tri.setdefault((x, y), []).append(t)
            side_owner_tri.setdefault((y, x), []).append(t)

    orient = {}
    queue = []
    walk = d.boundary_walk
    for p in range(len(walk)):
        u, v = walk[p], walk[(p + 1) % len(walk)]
        tris = set(side_owner_tri.get((u, v), ()))
        if not tris:
            continue
        (t,) = tris
        x = next(z for z in t if z not in (u, v))
        cyc = (u, v, x)
        if t not in orient:
            orient[t] = cyc
            queue.append(t)
        elif orient[t] not in _rotations(cyc):
            raise MalformedDiskoid(f"triangle {t} orientation conflict at the walk")
    while queue:
        t = queue.pop()
        cyc = orient[t]
        for i in range(3):
            a, b = cyc[i], cyc[(i + 1) % 3]
            for t2 in side_owner_tri[(a, b)]:
                if t2 == t:
                    continue
                x = next(z for z in t2 if z not in (a, b))
                cyc2 = (b, a, x)
                if t2 not in orient:
                    orient[t2] = cyc2
                    queue.append(t2)
                elif orient[t2] not in _rotations(cyc2):
                    raise MalformedDiskoid(f"triangles {t} and {t2} disagree")
    if len(orient) != len(d.triangles):
        raise MalformedDiskoid("triangle patch not reachable from the boundary walk")
    return orient


def pool_web_from_edges(edges, boundary, n_vertices=None, rotations=None, free_loops=0):
    """Convenience constructor from a directed edge list.

    INPUT:

    - ``edges`` -- list of (source, target) vertex pairs; edge e gets darts
      2e at the source and 2e+1 at the target
    - ``boundary`` -- boundary vertex ids, basepoint first
    - ``rotations`` -- optional dict vertex -> list of edge ids in
      counterclockwise order (an edge id appears once per end at the
      vertex); defaults to edge-list incidence order
    """
    edges = [tuple(e) for e in edges]
    if n_vertices is None:
        n_vertices = max((max(e) for e in edges), default=-1) + 1
        n_vertices = max(n_vertices, max(boundary, default=-1) + 1)
    incident = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(2 * e)
        incident[v].append(2 * e + 1)
    rot = []
    for v in range(n_vertices):
        if rotations is None or v not in rotations:
            rot.append(incident[v])
            continue
        pool = list(incident[v])
        order = []
        for eid in rotations[v]:
            hit = next((d for d in pool if d // 2 == eid), None)
            if hit is None:
                raise ValueError(f"rotation at {v} lists edge {eid} more often than it ends there")
            pool.remove(hit)
            order.append(hit)
        if pool:
            raise ValueError(f"rotation at {v} does not cover all incident edges")
        rot.append(order)
    src = tuple(2 * e for e in range(len(edges)))
    return Web(rot, src, boundary, free_loops)


def edge_list_dualize(d):
    """Web dual to a diskoid.

    One web vertex per triangle, one boundary leg per walk step; a web
    edge crosses every diskoid edge.  For an arrow u -> v the web edge
    runs from the owner of the side (v, u) to the owner of (u, v), where
    triangles own the sides of their counterclockwise cycle and leg p owns
    the reverse of walk step p.
    """
    orient = _oriented_triangles(d)
    tris = sorted(d.triangles)
    n = d.n
    tri_id = {t: n + i for i, t in enumerate(tris)}

    owner = {}
    walk = d.boundary_walk
    sides = [((orient[t][i], orient[t][(i + 1) % 3]), tri_id[t]) for t in tris for i in range(3)]
    for side, who in sides + [((walk[(p + 1) % n], walk[p]), p) for p in range(n)]:
        if side in owner:
            raise MalformedDiskoid(f"side {side} owned twice")
        owner[side] = who

    edges = []
    edge_of = {}
    for u, v in sorted(d.arrows):
        if (u, v) not in owner or (v, u) not in owner:
            raise MalformedDiskoid(f"edge ({u}, {v}) has an unowned side")
        edge_of[(min(u, v), max(u, v))] = len(edges)
        edges.append((owner[(v, u)], owner[(u, v)]))

    rotations = {}
    for t in tris:
        cyc = orient[t]
        sides = [(cyc[i], cyc[(i + 1) % 3]) for i in range(3)]
        rotations[tri_id[t]] = [
            edge_of[(min(a, b), max(a, b))] for a, b in sides
        ]
    try:
        return pool_web_from_edges(
            edges,
            boundary=tuple(range(n)),
            n_vertices=n + len(tris),
            rotations=rotations,
        )
    except ValueError as exc:
        raise MalformedDiskoid(str(exc)) from exc


def _same_web(a, b):
    return (a.rot, a.src, a.boundary, a.free_loops) == (b.rot, b.src, b.boundary, b.free_loops)


def _pool_web_from_json(obj):
    """The JSON route through the pool search: edge-id rotations."""
    rotations = {v: [eid for eid, _flag in r] for v, r in enumerate(obj["rotations"])}
    return pool_web_from_edges(
        [tuple(e) for e in obj["edges"]],
        boundary=obj["boundary"],
        n_vertices=len(obj["rotations"]),
        rotations=rotations,
        free_loops=obj["free_loops"],
    )


def octagon_hull_diskoid():
    """The octagon's hull complex read as a diskoid, as ``cross_validate`` reads it."""
    L = octagon_classes()
    path = [L[i] for i in range(1, 9)]
    cx = induced_complex(path_hull_fastpath(path))
    index_of = {v: k for k, v in enumerate(cx.vertices)}
    arrows = [
        (i, j) if distance(cx.vertices[i], cx.vertices[j]) == OMEGA1 else (j, i)
        for i, j in cx.edges
    ]
    return Diskoid(len(cx.vertices), arrows, cx.triangles, [index_of[c] for c in path])


def fixture_webs():
    return [
        strand_web(1),
        strand_web(2),
        bigon_web(),
        theta_web(),
        square_web(),
        *square_basis_webs(),
    ]


def fixture_diskoids():
    return [
        octagon_wheel_diskoid(),
        square_wheel_diskoid(),
        triangle_diskoid(),
        two_gon_diskoid(),
        hexagon_tripods_diskoid(),
        octagon_hull_diskoid(),
    ]


def test_dart_rule_matches_the_edge_list_oracles():
    basis = 0
    for n in range(1, 9):
        for word in itertools.product((1, 2), repeat=n):
            for g in enumerate_diagrams(word):
                d = diskoid_from_diagram(g)
                assert _same_web(dualize(d), edge_list_dualize(d))
                basis += 1
    assert basis == 2584
    for d in fixture_diskoids():
        assert _same_web(dualize(d), edge_list_dualize(d))
    assert octagon_hull_diskoid().n_vertices > 8
    webs_ = reduction_corpus() + fixture_webs() + [dualize(d) for d in fixture_diskoids()]
    for w in webs_:
        obj = web_to_json(w)
        assert _same_web(web_from_json(obj), _pool_web_from_json(obj))
        assert _same_web(web_from_json(obj), w)


def test_stored_cycles_match_the_orientation_oracle():
    """The cycles a diskoid stores when built are the ones the orientation
    pass once computed inside ``dualize``, first vertex included."""
    count = 0
    for n in range(1, 9):
        for word in itertools.product((1, 2), repeat=n):
            for g in enumerate_diagrams(word):
                d = diskoid_from_diagram(g)
                assert d.cycles == _oriented_triangles(d)
                count += 1
    assert count == 2584
    for d in fixture_diskoids():
        assert d.cycles == _oriented_triangles(d)


@pytest.mark.parametrize("name", sorted(unorientable_diskoid_docs()))
def test_unorientable_diskoid_is_refused_when_built(name):
    doc, message = unorientable_diskoid_docs()[name]
    args = (doc["n_vertices"], doc["arrows"], doc["triangles"], doc["boundary_walk"])
    with pytest.raises(MalformedDiskoid, match=re.escape(message)):
        Diskoid(*args)
    with pytest.raises(MalformedDiskoid, match=re.escape(message)):
        diskoid_from_json(doc)


def test_rotation_listing_an_edge_that_does_not_end_there():
    # edge 1 runs 5 -> 1 and does not end at vertex 4
    edges = [(0, 4), (5, 1), (2, 6), (7, 3), (5, 4), (5, 6), (7, 6), (7, 4)]
    with pytest.raises(ValueError, match="lists edge 1, which does not end there"):
        web_from_edges(edges, boundary=(0, 1, 2, 3), rotations={4: [0, 4, 1]})
    with pytest.raises(ValueError, match="lists edge 8, which does not end there"):
        web_from_edges(edges, boundary=(0, 1, 2, 3), rotations={4: [0, 4, 8]})


def test_rotation_keys_outside_the_vertices_are_ignored():
    got = web_from_edges([(0, 1)], boundary=(0, 1), rotations={2: [0], 7: [5, 5]})
    assert _same_web(got, strand_web())
    got = web_from_edges(
        [(0, 1)], boundary=(0, 1), n_vertices=2, rotations={2: [0], 0: [0]}
    )
    assert _same_web(got, strand_web())


def test_missing_or_repeated_darts_are_named_by_web():
    with pytest.raises(ValueError, match="dart 1 is in no rotation"):
        Web([[0], []], [0], (0, 1))
    with pytest.raises(ValueError, match="dart 0 is repeated, at vertices 0 and 1"):
        Web([[0], [0, 1]], [0], (0, 1))
    with pytest.raises(ValueError, match="dart 2 at vertex 1 is not below 2"):
        Web([[0], [2]], [0], (0, 1))
    # a rotation that omits an edge end, or lists an edge twice, is Web's to reject
    with pytest.raises(ValueError, match="dart 2 is in no rotation"):
        web_from_edges([(0, 2), (2, 1)], boundary=(0, 1), rotations={2: [0]})
    with pytest.raises(ValueError, match="dart 1 is repeated"):
        web_from_edges([(0, 2), (2, 1)], boundary=(0, 1), rotations={2: [0, 0, 1]})
