"""Min-convex, max-convex, and intersection hulls of finite vertex sets.

A set of lattice classes is min-convex when it contains every class of the
form [L meet t^a L'] built from two of its members, and max-convex when it
contains every [L + t^a L'].  ``minconv`` and ``maxconv`` compute the least
such supersets by a pairwise fixpoint; ``conv`` is their intersection.  The
fixpoint requests no pair that lies inside a pair hull it already holds:
``minconv_pair(x, y)`` is the min-convex hull of {x, y}, so it is min-convex
and contains ``minconv_pair(u, v)`` for any two of its vertices; likewise
for ``maxconv_pair``.  The 1-skeleton induced on any of these vertex sets,
together with all triangle cliques, is returned by :func:`induced_complex`.
"""

from itertools import combinations

from .building import adjacent, distance, lattice_to_json, pair_chain, weight_components
from .errors import NotAPath

__all__ = [
    "SimplicialComplex2",
    "conv",
    "conv_pair",
    "induced_complex",
    "maxconv",
    "maxconv_chain",
    "maxconv_pair",
    "minconv",
    "minconv_chain",
    "minconv_pair",
    "path_hull_fastpath",
]


def minconv_chain(x, y):
    """Ordered geodesic from ``x`` to ``y`` spelled omega_2 steps, then omega_1.

    The vertices are the classes [L_x meet t^a L_y] for increasing ``a``;
    the list starts at ``x`` and ends at ``y``.  In a common apartment
    ``L_x = <g_i>``, ``L_y = <t^(e_i) g_i>`` they are ``[<t^max(0, a + e_i) g_i>]``.
    """
    return pair_chain(x, y, max)


def maxconv_chain(x, y):
    """Ordered geodesic from ``x`` to ``y`` spelled omega_1 steps, then omega_2.

    The vertices are the classes [L_x + t^a L_y] for decreasing ``a``: in the
    apartment of :func:`minconv_chain` they are ``[<t^min(0, a + e_i) g_i>]``.
    """
    return pair_chain(x, y, min)


def minconv_pair(x, y):
    """Min-convex hull of two vertices, as a frozenset of classes."""
    return frozenset(pair_chain(*sorted((x, y)), max))


def maxconv_pair(x, y):
    """Max-convex hull of two vertices, as a frozenset of classes."""
    return frozenset(pair_chain(*sorted((x, y)), min))


def conv_pair(x, y):
    """Intersection of the two pair hulls.

    This is {x, y} exactly when d(x, y) has both fundamental-weight
    components nonzero; for a pure multiple of one fundamental weight the
    two pair hulls coincide in a single straight-path geodesic.
    """
    if all(weight_components(distance(x, y))):
        return frozenset((x, y))
    return minconv_pair(x, y)


def _pairwise_closure(vertices, pair_hull):
    """Fixpoint of ``pair_hull`` by a worklist: each vertex, old or new, is
    paired with every vertex taken before it, except a pair that lies inside
    a pair hull already returned.  A pair hull is itself closed (its own hull
    of any two of its vertices lies inside it), so such a pair adds nothing.
    ``hulls_of`` maps a vertex to a bit mask of the returned hulls with more
    than two vertices that contain it."""
    verts = set(vertices)
    if not verts:
        raise ValueError("hull of an empty vertex set")
    todo = sorted(verts)
    done = []
    hulls_of = {}
    bit = 1
    while todo:
        x = todo.pop()
        for y in done:
            if hulls_of.get(x, 0) & hulls_of.get(y, 0):
                continue
            hull = pair_hull(x, y)
            if len(hull) > 2:
                for v in hull:
                    hulls_of[v] = hulls_of.get(v, 0) | bit
                bit <<= 1
            new = hull - verts
            verts |= new
            todo.extend(sorted(new))
        done.append(x)
    return frozenset(verts)


def minconv(vertices):
    """Least superset of ``vertices`` closed under pairwise min hulls.

    INPUT:

    - ``vertices`` -- nonempty iterable of LatticeClass

    OUTPUT: frozenset of LatticeClass.  Termination is guaranteed because
    all classes produced stay inside the (finite) intersection of balls
    around the inputs.
    """
    return _pairwise_closure(vertices, minconv_pair)


def maxconv(vertices):
    """Least superset of ``vertices`` closed under pairwise max hulls."""
    return _pairwise_closure(vertices, maxconv_pair)


def conv(vertices):
    """Intersection of the min-convex and max-convex hulls of ``vertices``."""
    return minconv(vertices) & maxconv(vertices)


def path_hull_fastpath(path):
    """Hull of a path computed as the union of pairwise ``conv_pair`` hulls.

    INPUT:

    - ``path`` -- sequence of LatticeClass with consecutive entries adjacent

    OUTPUT: frozenset equal to ``conv(set(path))``; this equality is a
    theorem for paths (and closed polygon walks), not for arbitrary finite
    sets, hence the precondition.

    Raises :class:`NotAPath` when a consecutive pair is not adjacent.
    """
    path = list(path)
    if not path:
        raise NotAPath("empty path")
    for u, v in zip(path, path[1:]):
        if not adjacent(u, v):
            raise NotAPath(
                f"consecutive vertices at distance {distance(u, v)} are not adjacent"
            )
    out = set(path)
    for x, y in combinations(sorted(set(path)), 2):
        out |= conv_pair(x, y)
    return frozenset(out)


class SimplicialComplex2:
    """Flag complex induced on a finite vertex list by building adjacency.

    ``vertices`` is a canonically sorted tuple of LatticeClass; ``edges``
    and ``triangles`` hold sorted index tuples into it.  Every 3-clique of
    edges is a triangle and conversely, by construction.
    """

    __slots__ = ("vertices", "edges", "triangles")

    def __init__(self, vertices, edges, triangles):
        self.vertices = tuple(vertices)
        self.edges = frozenset(edges)
        self.triangles = frozenset(triangles)

    def counts(self):
        return (len(self.vertices), len(self.edges), len(self.triangles))

    def __repr__(self):
        v, e, t = self.counts()
        return f"SimplicialComplex2({v} vertices, {e} edges, {t} triangles)"

    def to_json(self):
        return {
            "vertices": [lattice_to_json(v.basis) for v in self.vertices],
            "edges": sorted(list(e) for e in self.edges),
            "triangles": sorted(list(t) for t in self.triangles),
        }

    def to_dot(self, name="hull"):
        lines = [f"graph {name} {{"]
        for i in range(len(self.vertices)):
            lines.append(f'  v{i} [label="{i}"];')
        for i, j in sorted(self.edges):
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines)


def induced_complex(vertices):
    """Induced flag complex on a vertex set.

    Edges are the pairs at distance omega_1 or omega_2; triangles are the
    3-cliques of that graph, each found from its first edge ``(i, j)`` as a
    common neighbor ``k > j`` of ``i`` and ``j``.
    """
    verts = sorted(vertices)
    n = len(verts)
    up = [{j for j in range(i + 1, n) if adjacent(verts[i], verts[j])} for i in range(n)]
    edges = {(i, j) for i in range(n) for j in up[i]}
    triangles = {(i, j, k) for i, j in edges for k in up[i] & up[j]}
    return SimplicialComplex2(verts, edges, triangles)
