"""Shared hand-checked fixtures: the octagon example and friends.

The octagon is the running example: type word 12121212, eight explicit
lattices, and a growth diagram whose rows repeat with period two.
"""

from sl3webs import building
from sl3webs.building import class_from_generators
from sl3webs.series import QQ, LaurentScalar


def record_pair_work(monkeypatch):
    """Empty the pair memo, then record each pair of classes whose ``rel`` is built and
    each whose Smith basis is eliminated, as unordered pairs of basis keys."""
    built, eliminated = [], []
    relative, smith_form = building._relative, building.smith_form

    def spy_relative(a, b):
        rel = relative(a, b)
        built.append((frozenset((a.key(), b.key())), rel))
        return rel

    def spy_smith(mat, det_val):
        eliminated.append(next(pair for pair, rel in built if rel is mat))
        return smith_form(mat, det_val)

    monkeypatch.setattr(building, "_relative", spy_relative)
    monkeypatch.setattr(building, "smith_form", spy_smith)
    building._pair_cached.cache_clear()
    return built, eliminated


def octagon_columns(field=QQ):
    """Generator columns of the eight octagon lattices, keyed 1..8."""
    S = lambda terms: LaurentScalar(field, terms)
    z = {}

    def mono_col(i, e):
        base = [S({}), S({}), S({})]
        base[i] = S({e: 1})
        return base

    z[1] = [mono_col(0, 0), mono_col(1, 0), mono_col(2, 0)]
    z[2] = [mono_col(0, -1), mono_col(1, 0), mono_col(2, 0)]
    z[3] = [mono_col(0, -2), mono_col(1, -1), mono_col(2, 0)]
    z[4] = [mono_col(0, -2), mono_col(1, -2), mono_col(2, 0)]
    z[5] = [mono_col(0, -1), mono_col(1, -2), mono_col(2, 0)]
    z[6] = [
        mono_col(0, -1),
        mono_col(1, -2),
        [S({-2: 1}), S({}), S({-1: 1})],
    ]
    z[7] = [
        mono_col(0, -1),
        mono_col(1, -1),
        [S({-2: 1}), S({-2: 1}), S({-1: 1})],
    ]
    z[8] = [
        [S({-1: 1}), S({-1: 1}), S({})],
        mono_col(1, 0),
        mono_col(2, 0),
    ]
    return z


def octagon_classes(field=QQ):
    cols = octagon_columns(field)
    return {i: class_from_generators(c, field) for i, c in cols.items()}


def octagon_hull_extras(field=QQ):
    """Hull vertices of the octagon that are not octagon vertices.

    Returns a dict with the three extra min-hull classes, the three extra
    max-hull classes, and the center vertex (the one class common to both).
    """
    S = lambda terms: LaurentScalar(field, terms)

    def gens(*cols):
        return class_from_generators([[S(t) for t in c] for c in cols], field)

    center = gens(
        ({-1: 1}, {}, {}),
        ({}, {-1: 1}, {}),
        ({}, {}, {0: 1}),
    )
    min_a = gens(
        ({-1: 1}, {}, {}),
        ({}, {-1: 1}, {}),
        ({-2: 1}, {}, {-1: 1}),
    )
    min_b = gens(
        ({-2: 1}, {-2: 1}, {}),
        ({}, {-1: 1}, {}),
        ({}, {}, {0: 1}),
    )
    max_d = gens(
        ({0: 1}, {}, {}),
        ({}, {-1: 1}, {}),
        ({}, {}, {0: 1}),
    )
    max_e = gens(
        ({-2: 1}, {}, {}),
        ({}, {-1: 1}, {}),
        ({}, {-2: 1}, {-1: 1}),
    )
    return {
        "min": {min_a, min_b, center},
        "max": {max_d, max_e, center},
        "center": center,
    }


OCTAGON_WORD = (1, 2, 1, 2, 1, 2, 1, 2)

# Growth diagram rows of the octagon (period two).  Row entries are the
# partitions gamma_{i,j} for j = i, ..., i+8.
OCTAGON_ROW1 = (
    (),
    (1,),
    (2, 1),
    (2, 2),
    (3, 2, 1),
    (3, 3, 1),
    (4, 3, 2),
    (4, 3, 3),
    (4, 4, 4),
)
OCTAGON_ROW2 = (
    (),
    (1, 1),
    (2, 1),
    (3, 1, 1),
    (3, 2, 1),
    (4, 2, 2),
    (4, 3, 2),
    (4, 4, 3),
    (4, 4, 4),
)


def normalized_weight(partition):
    """Dominant weight of a partition: pad to 3 parts, subtract the last."""
    p = tuple(partition) + (0,) * (3 - len(partition))
    return (p[0] - p[2], p[1] - p[2], 0)


# -- diskoid and web fixtures ------------------------------------------------


def octagon_wheel_diskoid():
    """Wheel on the octagon: center vertex 8 of degree 8, word 12121212."""
    from sl3webs.webs import Diskoid

    arrows = [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (0, 7)]
    for i in range(8):
        arrows.append((8, i) if i % 2 == 0 else (i, 8))
    triangles = [(i, (i + 1) % 8, 8) for i in range(8)]
    return Diskoid(9, arrows, triangles, tuple(range(8)))


def square_wheel_diskoid():
    """Center of degree 4, word 1212; its dual is the elliptic square web."""
    from sl3webs.webs import Diskoid

    arrows = [(0, 1), (2, 1), (2, 3), (0, 3), (1, 4), (4, 0), (4, 2), (3, 4)]
    triangles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return Diskoid(5, arrows, triangles, (0, 1, 2, 3))


def triangle_diskoid():
    """Single triangle of word 111."""
    from sl3webs.webs import Diskoid

    return Diskoid(3, [(0, 1), (1, 2), (2, 0)], [(0, 1, 2)], (0, 1, 2))


def two_gon_diskoid():
    """Single pendant edge walked twice; word 12."""
    from sl3webs.webs import Diskoid

    return Diskoid(2, [(0, 1)], [], (0, 1))


def hexagon_tripods_diskoid():
    """Hexagon around an interior vertex plus a two-triangle flap on a
    bridge; word (1,2,1,1,2,2,1,1,2,2,1,2).  The boundary walk revisits
    two vertices."""
    from sl3webs.webs import Diskoid

    # 0 center; 1..4 and 9, 10 hexagon ring; 5 bridge end; 6, 7, 8 flap
    arrows = [
        (0, 1), (4, 0), (0, 3), (0, 9), (2, 0), (10, 0),
        (1, 2), (3, 2), (3, 4), (9, 4), (9, 10), (1, 10),
        (4, 5), (5, 7), (6, 5), (8, 5), (7, 6), (7, 8),
    ]
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 9), (0, 9, 10), (0, 1, 10),
        (5, 6, 7), (5, 7, 8),
    ]
    walk = (1, 2, 3, 4, 5, 6, 7, 8, 5, 4, 9, 10)
    return Diskoid(11, arrows, triangles, walk)


def unorientable_diskoid_docs():
    """Diskoid JSON documents that pass every check on the complex and the
    walk but cannot be oriented from the walk, with the error each raises."""
    # an octahedron on 2..7 (top 2, bottom 7, equator 3 4 5 6), faces
    # alternately cw and ccw, wedged at vertex 2 onto a walked triangle
    octahedron = [
        (2, 3), (3, 4), (4, 2), (2, 5), (5, 6), (6, 2),
        (7, 5), (5, 4), (4, 7), (7, 3), (3, 6), (6, 7),
    ]
    faces = [(2, 3, 4), (2, 4, 5), (2, 5, 6), (2, 6, 3), (7, 4, 3), (7, 5, 4), (7, 6, 5), (7, 3, 6)]
    wedge = {
        "n_vertices": 8,
        "arrows": [[0, 1], [1, 2], [2, 0]] + [list(a) for a in octahedron],
        "triangles": [[0, 1, 2]] + [list(t) for t in faces],
        "boundary_walk": [0, 1, 2],
    }
    # the same octahedron apart from a walked 2-gon: the 1-skeleton is disconnected
    apart = {
        "n_vertices": 8,
        "arrows": [[0, 1]] + [list(a) for a in octahedron],
        "triangles": [list(t) for t in faces],
        "boundary_walk": [0, 1],
    }
    # a Moebius band of five triangles; its arrows make each one a directed 3-cycle
    mobius = {
        "n_vertices": 5,
        "arrows": [
            [0, 1], [2, 0], [0, 3], [4, 0], [1, 2], [3, 1], [1, 4], [2, 3], [4, 2], [3, 4],
        ],
        "triangles": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]],
        "boundary_walk": [0, 2, 4, 1, 3],
    }
    # the walk crosses sides 01 and 21 of triangle 012 both into vertex 1
    crossed = {
        "n_vertices": 5,
        "arrows": [[0, 1], [1, 2], [2, 0], [0, 3], [3, 2], [1, 3], [3, 4], [4, 1]],
        "triangles": [[0, 1, 2], [0, 2, 3], [1, 3, 4]],
        "boundary_walk": [0, 1, 3, 2, 1, 4, 3],
    }
    return {
        "octahedron_wedge": (wedge, "triangle patch not reachable from the boundary walk"),
        "octahedron_apart": (apart, "triangle patch not reachable from the boundary walk"),
        "mobius_band": (mobius, "triangles (0, 3, 4) and (0, 1, 4) disagree"),
        "walk_crossing": (crossed, "triangle (0, 1, 2) orientation conflict at the walk"),
    }


def strand_web(letter=1):
    """One edge between two boundary vertices; type (1, 2) or (2, 1)."""
    from sl3webs.webs import web_from_edges

    edges = [(0, 1)] if letter == 1 else [(1, 0)]
    return web_from_edges(edges, boundary=(0, 1))


def bigon_web():
    """Strand with a doubled edge in the middle; type (1, 2)."""
    from sl3webs.webs import web_from_edges

    edges = [(0, 2), (3, 2), (3, 2), (3, 1)]
    rotations = {2: [0, 2, 1], 3: [3, 1, 2]}
    return web_from_edges(edges, boundary=(0, 1), rotations=rotations)


def theta_web():
    """Closed web on two vertices joined by three parallel edges."""
    from sl3webs.webs import web_from_edges

    edges = [(0, 1), (0, 1), (0, 1)]
    rotations = {0: [0, 1, 2], 1: [2, 1, 0]}
    return web_from_edges(edges, boundary=(), rotations=rotations)


def square_web():
    """Elliptic web of type 1212 whose single internal face is a square."""
    from sl3webs.webs import web_from_edges

    # boundary 0..3, corners 4..7 counterclockwise
    edges = [
        (0, 4), (5, 1), (2, 6), (7, 3),
        (5, 4), (5, 6), (7, 6), (7, 4),
    ]
    rotations = {4: [0, 4, 7], 5: [1, 5, 4], 6: [2, 6, 5], 7: [3, 7, 6]}
    return web_from_edges(edges, boundary=(0, 1, 2, 3), rotations=rotations)


def square_basis_webs():
    """The two non-elliptic webs of type 1212: both strand pairings."""
    from sl3webs.webs import web_from_edges

    a = web_from_edges([(0, 1), (2, 3)], boundary=(0, 1, 2, 3))
    b = web_from_edges([(0, 3), (2, 1)], boundary=(0, 1, 2, 3))
    return a, b
