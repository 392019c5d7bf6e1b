import random

import pytest
from fixtures import (
    bigon_web,
    hexagon_tripods_diskoid,
    octagon_wheel_diskoid,
    square_basis_webs,
    square_web,
    square_wheel_diskoid,
    strand_web,
    theta_web,
    triangle_diskoid,
    two_gon_diskoid,
)
from webgen import insert_bigon, insert_square, random_elliptic

from sl3webs.errors import MalformedDiskoid
from sl3webs.webs import (
    Diskoid,
    Web,
    WebCombination,
    boundary_word,
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
    with pytest.raises(MalformedDiskoid):
        Diskoid(2, [(0, 1)], [], (0, 1), labels=["a"])  # one label for two vertices


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
