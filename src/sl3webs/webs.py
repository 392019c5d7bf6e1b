"""Webs as combinatorial maps, diskoids, dualization, and spider reduction.

A web is stored as a rotation system: every edge contributes two darts
(2e and 2e+1), each vertex holds its incident darts in counterclockwise
order, and each edge carries a direction.  Interior vertices are trivalent
with all edges pointing in or all pointing out; boundary vertices are
univalent and listed in cyclic order starting at the basepoint.  Closed
circles with no vertices on them are tracked by a counter.

A diskoid is a triangulated polygon (possibly with pendant edges and cut
vertices) with directed edges; ``dualize`` turns it into the web whose
vertices are the triangles.  ``reduce_web`` evaluates arbitrary webs into
integer combinations of non-elliptic ones using the circle, bigon, and
square relations with coefficients 3, -2, and 1 + 1.  It rewrites in place,
on edge and vertex ids that never move, and keeps only the faces with fewer
than 6 sides up to date.  It keys each web it ends at by the canonical
encoding read off those ids, and builds a ``Web`` only for a new term.
"""

from .errors import InvariantViolated, MalformedDiskoid, MalformedJSON, json_fields

#: Largest ``free_loops`` a web may carry in JSON: ``3 ** 1000`` has 478 digits, so the
#: coefficient prints well inside Python's 4,300-digit limit on ``int`` to ``str``.
MAX_FREE_LOOPS = 1000

__all__ = [
    "Diskoid",
    "Web",
    "WebCombination",
    "boundary_word",
    "diskoid_from_json",
    "diskoid_to_dot",
    "diskoid_to_json",
    "diskoid_to_tikz",
    "dualize",
    "empty_web",
    "faces",
    "internal_faces",
    "is_cat0",
    "is_nonelliptic",
    "iso",
    "reduce_web",
    "rotate",
    "web_from_edges",
    "web_from_json",
    "web_to_dot",
    "web_to_json",
    "web_to_tikz",
]


class Web:
    """Directed planar web as a rotation system.

    INPUT:

    - ``rot`` -- per-vertex sequences of darts in counterclockwise order;
      edge e owns darts 2e and 2e+1
    - ``src`` -- per-edge dart sitting at the edge's source vertex
    - ``boundary`` -- univalent vertex ids in cyclic order, basepoint first
    - ``free_loops`` -- number of closed circles carrying no vertices

    Every constructor uses one dart rule: edge e's end at its source is
    dart 2e and its end at its target is dart 2e+1.  ``Web(...)`` checks
    its input, and is the only place a missing or repeated dart is caught:
    every dart sits in exactly one rotation, interior vertices are
    trivalent with a consistent direction sense, and every connected
    component is a planar map (V - E + F = 2).  ``web_from_edges``,
    ``web_from_json`` and ``dualize`` map edge ends to darts by the rule
    and build through it.
    ``Web._trusted`` checks nothing; ``reduce_web`` builds one web with it
    per term, when the term's encoding first appears (the webs in between,
    and terminal webs that add to a term it holds, are not ``Web`` objects).
    """

    __slots__ = ("rot", "src", "boundary", "free_loops", "_vert", "_enc")

    def __init__(self, rot, src, boundary, free_loops=0):
        self.rot = tuple(tuple(r) for r in rot)
        self.src = tuple(src)
        self.boundary = tuple(boundary)
        self.free_loops = int(free_loops)
        self._enc = None

        n_darts = 2 * len(self.src)
        vert = [None] * n_darts
        for v, r in enumerate(self.rot):
            for d in r:
                if not 0 <= d < n_darts:
                    raise ValueError(f"dart {d} at vertex {v} is not below {n_darts}")
                if vert[d] is not None:
                    raise ValueError(f"dart {d} is repeated, at vertices {vert[d]} and {v}")
                vert[d] = v
        if None in vert:
            raise ValueError(f"dart {vert.index(None)} is in no rotation")
        self._vert = tuple(vert)

        if self.free_loops < 0:
            raise ValueError("negative free loop count")
        for e, s in enumerate(self.src):
            if s // 2 != e:
                raise ValueError(f"source dart of edge {e} is {s}")
            if vert[2 * e] == vert[2 * e + 1]:
                raise ValueError(f"edge {e} is a loop at vertex {vert[2 * e]}")
        bset = set(self.boundary)
        if len(bset) != len(self.boundary):
            raise ValueError("repeated boundary vertex")
        for v, r in enumerate(self.rot):
            if v in bset:
                if len(r) != 1:
                    raise ValueError(f"boundary vertex {v} has degree {len(r)}")
            elif len(r) != 3:
                raise ValueError(f"interior vertex {v} has degree {len(r)}")
            else:
                outs = {self.src[d // 2] == d for d in r}
                if len(outs) != 1:
                    raise ValueError(f"interior vertex {v} mixes edge directions")

        # V - E + F is at most 2 on each connected component, so it is 2 on
        # every one exactly when it sums to twice the number of components
        seen = [False] * len(self.rot)
        n_comp = 0
        for v0 in range(len(self.rot)):
            if seen[v0]:
                continue
            n_comp += 1
            seen[v0] = True
            stack = [v0]
            while stack:
                for d in self.rot[stack.pop()]:
                    u = vert[d ^ 1]
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
        genus = n_comp - (len(self.rot) - len(self.src) + len(faces(self))) // 2
        if genus:
            raise ValueError(f"rotations are not planar: genus {genus}")

    @classmethod
    def _trusted(cls, rot, src, boundary, free_loops, vert):
        """Web from tuples that already satisfy every check of ``Web(...)``;
        ``vert`` is the vertex of each dart."""
        w = object.__new__(cls)
        w.rot, w.src, w.boundary, w.free_loops = rot, src, boundary, free_loops
        w._vert = vert
        w._enc = None
        return w

    # -- basic accessors ------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.rot)

    @property
    def n_edges(self):
        return len(self.src)

    def vert(self, dart):
        """Vertex the dart is attached to."""
        return self._vert[dart]

    def head(self, dart):
        """Vertex at the far end of the dart's edge."""
        return self._vert[dart ^ 1]

    def is_out(self, dart):
        """True when the dart's edge points away from the dart's vertex."""
        return self.src[dart // 2] == dart

    def edge_ends(self, e):
        """(source vertex, target vertex) of edge e."""
        s = self.src[e]
        return self._vert[s], self._vert[s ^ 1]

    def __eq__(self, other):
        if not isinstance(other, Web):
            return NotImplemented
        return canonical_encoding(self) == canonical_encoding(other)

    def __hash__(self):
        return hash(canonical_encoding(self))

    def __repr__(self):
        return (
            f"Web({self.n_vertices} vertices, {self.n_edges} edges, "
            f"boundary {len(self.boundary)}, loops {self.free_loops})"
        )


def empty_web():
    return Web((), (), ())


def web_from_edges(edges, boundary, n_vertices=None, rotations=None, free_loops=0):
    """Convenience constructor from a directed edge list.

    INPUT:

    - ``edges`` -- list of (source, target) vertex pairs; edge e gets darts
      2e at the source and 2e+1 at the target
    - ``boundary`` -- boundary vertex ids, basepoint first
    - ``rotations`` -- optional dict vertex -> list of edge ids in
      counterclockwise order; a vertex it does not list gets its incident
      darts in edge order, and keys outside ``range(n_vertices)`` are ignored

    A listed edge that does not end at its vertex raises ``ValueError``; a
    missing or repeated end is caught by ``Web(...)``.
    """
    edges = [tuple(e) for e in edges]
    if n_vertices is None:
        n_vertices = max((max(e) for e in edges), default=-1) + 1
        n_vertices = max(n_vertices, max(boundary, default=-1) + 1)
    rot = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        rot[u].append(2 * e)
        rot[v].append(2 * e + 1)
    for v, order in (rotations or {}).items():
        if v in range(n_vertices):
            for e in order:
                if e not in range(len(edges)) or v not in edges[e]:
                    raise ValueError(f"rotation at {v} lists edge {e}, which does not end there")
            rot[v] = [2 * e + (edges[e][0] != v) for e in order]
    return Web(rot, range(0, 2 * len(edges), 2), boundary, free_loops)


def boundary_word(w):
    """Type letters read off the boundary: 1 where the leg points inward."""
    letters = []
    for v in w.boundary:
        d = w.rot[v][0]
        letters.append(1 if w.is_out(d) else 2)
    return tuple(letters)


def rotate(w):
    """Same web with the basepoint advanced one boundary position."""
    if not w.boundary:
        return w
    return Web(w.rot, w.src, w.boundary[1:] + w.boundary[:1], w.free_loops)


# -- faces ---------------------------------------------------------------


def _predecessors(w):
    """Rotation predecessor of every dart."""
    prev = [0] * (2 * len(w.src))
    for r in w.rot:
        for i, d in enumerate(r):
            prev[d] = r[i - 1]
    return prev


def _traces(prev):
    """Face traces of the map whose rotation predecessors are ``prev``."""
    # walk each dart to its far end, then take the rotation predecessor of
    # the reversed dart: with counterclockwise rotations this traces the
    # face lying on the left of the dart
    seen = [False] * len(prev)
    out = []
    for d0 in range(len(prev)):
        if seen[d0]:
            continue
        trace = []
        d = d0
        while not seen[d]:
            seen[d] = True
            trace.append(d)
            d = prev[d ^ 1]
        out.append(tuple(trace))
    return out


def faces(w):
    """All face traces, each a tuple of darts in walking order."""
    return _traces(_predecessors(w))


def _internal(w, prev):
    # a boundary vertex is univalent, so a face touches it through its dart
    legs = {w.rot[v][0] for v in w.boundary}
    return [f for f in _traces(prev) if legs.isdisjoint(f)]


def internal_faces(w):
    """Faces that never touch a boundary vertex."""
    return _internal(w, _predecessors(w))


def is_nonelliptic(w):
    """True when the web has no closed circles and no small internal face.

    Every internal face must have at least 6 sides.  Closed components
    always carry a face smaller than that (Euler count), so they are
    rejected by the same test.
    """
    if w.free_loops:
        return False
    return all(len(f) >= 6 for f in internal_faces(w))


# -- canonical form and isomorphism ---------------------------------------


def _encode_from(rot, vert, src, bpos, root_dart, order):
    """Breadth-first record of the component entered through ``root_dart``.

    ``rot``, ``vert`` and ``src`` are a Web's rotations, dart vertices and
    source darts (or a reduction state's), ``bpos`` the boundary position
    of each boundary vertex.  ``order`` numbers the vertices met so far and
    is extended; the record holds those numbers, never vertex or dart ids.
    """
    v = vert[root_dart]
    order[v] = len(order)
    queue = [(v, root_dart)]
    out = []
    for v, entry in queue:
        r = rot[v]
        i = r.index(entry)
        rec = []
        for d in r[i:] + r[:i]:
            u = vert[d ^ 1]
            if u not in order:
                order[u] = len(order)
                queue.append((u, d ^ 1))
            rec.append((src[d >> 1] == d, order[u], bpos.get(u, -1)))
        out.append((bpos.get(v, -1), tuple(rec)))
    return tuple(out)


def _encode_legs(rot, vert, src, boundary, free_loops):
    """Encoding parts of the components holding boundary vertices, each
    walked from its smallest boundary position; also the vertex order and
    the boundary positions."""
    bpos = {v: i for i, v in enumerate(boundary)}
    order = {}
    parts = [len(boundary), free_loops]
    for v in boundary:
        if v in order:
            continue
        if not rot[v]:
            raise ValueError(f"boundary vertex {v} has no edge")
        parts.append(_encode_from(rot, vert, src, bpos, rot[v][0], order))
    return parts, order, bpos


def canonical_encoding(w):
    """Hashable key deciding basepoint-preserving isomorphism.

    Components holding boundary vertices are traversed from their smallest
    boundary position; closed components take the minimum over all root
    darts.
    """
    if w._enc is not None:
        return w._enc
    parts, order, bpos = _encode_legs(w.rot, w._vert, w.src, w.boundary, w.free_loops)
    leftover = [v for v in range(w.n_vertices) if v not in order and w.rot[v]]
    while leftover:
        best = None
        best_order = None
        for v in leftover:
            for d in w.rot[v]:
                trial = dict(order)
                enc = _encode_from(w.rot, w._vert, w.src, bpos, d, trial)
                if best is None or enc < best:
                    best, best_order = enc, trial
        parts.append(best)
        order = best_order
        leftover = [v for v in leftover if v not in order]
    enc = tuple(parts)
    w._enc = enc
    return enc


def iso(w1, w2):
    """Basepoint-preserving isomorphism of directed rotation systems."""
    return canonical_encoding(w1) == canonical_encoding(w2)


# -- spider reduction ------------------------------------------------------


class WebCombination:
    """Integer combination of webs, keyed by canonical form, from a mapping
    or from (web, coefficient) pairs, where the last pair for a web counts."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {}
        for w, c in terms.items() if isinstance(terms, dict) else terms:
            if c:
                self.terms[w] = c
            else:
                self.terms.pop(w, None)
        words = {boundary_word(w) for w in self.terms}
        if len(words) > 1:
            raise ValueError("terms mix boundary types")

    def __eq__(self, other):
        if not isinstance(other, WebCombination):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda t: canonical_encoding(t[0])))

    def __repr__(self):
        return f"WebCombination({len(self.terms)} terms)"

    def scaled(self, k):
        return WebCombination({w: k * c for w, c in self.terms.items()})

    def __add__(self, other):
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) + c
        return WebCombination(data)

    def to_json(self):
        return [
            {"coefficient": c, "web": web_to_json(w)}
            for w, c in self
        ]


class _Reduction:
    """A web inside ``reduce_web``, on edge and vertex ids that never move.

    ``rot`` and ``src`` are a Web's, with ``None`` for dead vertices and
    edges; ``vert`` and ``prev`` send each dart to its vertex and to its
    rotation predecessor, and ``face_of`` each dart of an internal face
    with fewer than 6 sides to ``(length, trace)``, the trace rotated to
    its smallest dart.  A new strand takes the next unused edge id, so live
    ids keep the order that renumbering after every step would give them.
    """

    __slots__ = ("rot", "src", "vert", "prev", "face_of", "boundary")

    def __init__(self, w):
        self.rot, self.src, self.vert = list(w.rot), list(w.src), list(w._vert)
        self.prev, self.face_of, self.boundary = _predecessors(w), {}, w.boundary
        for f in _internal(w, self.prev):
            if len(f) < 6:
                self._note(f)

    def copy(self):
        c = object.__new__(_Reduction)
        c.rot, c.src, c.vert, c.prev = self.rot[:], self.src[:], self.vert[:], self.prev[:]
        c.face_of, c.boundary = self.face_of.copy(), self.boundary
        return c

    def _note(self, f):
        # in a loop-free trivalent web a small internal face is a bigon or a
        # square with distinct corners: a corner met twice in a row ends a
        # loop edge, and one met twice apart holds four darts or is a leg
        if len(f) not in (2, 4) or len({self.vert[d] for d in f}) < len(f):
            raise InvariantViolated(f"small internal face {f} is not a bigon or a square")
        i = f.index(min(f))
        key = (len(f), f[i:] + f[:i])
        for d in f:
            self.face_of[d] = key

    def encoding(self):
        """``canonical_encoding`` of :meth:`web`, read off the live ids.

        Only for a terminal state: a closed trivalent component always has
        an internal face with fewer than 6 sides, so every component holds
        a leg, and walks from legs never read an id.
        """
        parts, order, _bpos = _encode_legs(self.rot, self.vert, self.src, self.boundary, 0)
        if len(order) != len(self.rot) - self.rot.count(None):
            raise InvariantViolated("terminal web has a closed component")
        return tuple(parts)

    def web(self):
        """The Web with live edges and vertices renumbered in id order."""
        dmap, src = {}, []
        for e, s in enumerate(self.src):
            if s is not None:
                dmap[2 * e], dmap[2 * e + 1] = 2 * len(src), 2 * len(src) + 1
                src.append(dmap[s])
        live = [v for v, r in enumerate(self.rot) if r is not None]
        rot = tuple([tuple([dmap[d] for d in self.rot[v]]) for v in live])
        vert = [None] * (2 * len(src))
        for v, r in enumerate(rot):
            for d in r:
                vert[d] = v
        vmap = {v: i for i, v in enumerate(live)}
        boundary = tuple([vmap[v] for v in self.boundary])
        return Web._trusted(rot, tuple(src), boundary, 0, tuple(vert))


def _splice(st, face, which):
    """Rewrite a small face of ``st`` in place; return the closed loops made.

    The corners die in junction pairs: a bigon's two, or a square's (0, 1),
    (2, 3) for ``which`` 0 and (1, 2), (3, 0) for ``which`` 1.  A strand
    through the junctions becomes one new edge, or a loop if it has no end.
    """
    rot, src, vert, prev = st.rot, st.src, st.vert, st.prev
    corners = [vert[d] for d in face]
    n = len(face)
    partner = {}
    for i in range(which, n, 2):
        a, b = corners[i], corners[(i + 1) % n]
        partner[a], partner[b] = b, a
    if len(partner) != n:
        raise InvariantViolated("junction pairs do not cover the excised vertices")
    # a corner's third dart comes just before the face's dart there
    stub = {vert[d]: prev[d] for d in face}
    for d in face:
        src[d >> 1] = None
    for v, s in stub.items():
        if src[s >> 1] is None:
            raise InvariantViolated(f"vertex {v} has no surviving edge")

    # strands from live far ends through the junctions, in corner order
    ends = []
    used = set()
    for v in corners:
        s = stub[v]
        if vert[s ^ 1] in partner or s >> 1 in used:
            continue
        s2 = stub[partner[v]]
        while vert[s2 ^ 1] in partner:
            used.add(s2 >> 1)
            s2 = stub[partner[vert[s2 ^ 1]]]
        used.update((s >> 1, s2 >> 1))
        a, b = s ^ 1, s2 ^ 1
        a_is_source = src[a >> 1] == a
        if a_is_source == (src[b >> 1] == b):
            raise InvariantViolated("chain direction is inconsistent")
        ends.append((a, b, a_is_source))
    # the other third edges close into loops through the junctions
    loops = 0
    for u in corners:
        if stub[u] >> 1 not in used:
            loops += 1
            while stub[u] >> 1 not in used:
                used.add(stub[u] >> 1)
                u = partner[vert[stub[u] ^ 1]]
    for v in corners:
        rot[v] = None
        src[stub[v] >> 1] = None
    # drop the small faces along a face edge: at a dead corner, every face
    # runs along two of its three edges, so that covers all that touch it
    face_of = st.face_of
    for d in face:
        for x in (d, d ^ 1):
            if x in face_of:
                for y in face_of[x][1]:
                    del face_of[y]
    first = 2 * len(src)
    for a, b, a_is_source in ends:
        ne = 2 * len(src)
        src.append(ne if a_is_source else ne + 1)
        for d, x in ((a, ne), (b, ne + 1)):
            v = vert[d]
            i = rot[v].index(d)
            r = rot[v] = rot[v][:i] + (x,) + rot[v][i + 1 :]
            vert.append(v)
            prev.append(r[i - 1])
            prev[r[(i + 1) % len(r)]] = x
    # every face whose walk changed runs through a new dart; a leg or a
    # sixth side ends the walk
    for d0 in range(first, 2 * len(src)):
        if d0 in face_of:
            continue
        f, d = [], d0
        while prev[d] != d and len(f) < 5:
            f.append(d)
            d = prev[d ^ 1]
            if d == d0:
                st._note(tuple(f))
                break
    return loops


def _step(st, rng):
    """One agenda pop: ``None`` for a non-elliptic state, else its ``(factor, child)`` pairs."""
    if not st.face_of:
        return None
    if rng is None:
        _n, face = min(st.face_of.values())
    else:
        cands = sorted(set(st.face_of.values()))
        _n, face = cands[rng.randrange(len(cands))]
    if len(face) == 2:
        return [(-2 * 3 ** _splice(st, face, 0), st)]
    first = st.copy()
    return [(3 ** _splice(first, face, 0), first), (3 ** _splice(st, face, 1), st)]


def reduce_web(w, rng=None):
    """Evaluate a web into an integer combination of non-elliptic webs.

    Circles count 3, bigons -2 times the strand, squares the sum of the
    two adjacent-corner reconnections.  The default strategy always
    rewrites a minimal face (ties by smallest dart id); passing ``rng``
    picks uniformly among the reducible faces instead, which is how the
    confluence tests drive independent rewrite orders.
    """
    out = {}  # encoding -> [web, coefficient], the web built at the first hit
    agenda = [(3 ** w.free_loops, _Reduction(w))]
    while agenda:
        coeff, st = agenda.pop()
        children = _step(st, rng)
        if children is None:
            enc = st.encoding()
            term = out.get(enc)
            if term is None:
                term = out[enc] = [st.web(), 0]
                term[0]._enc = enc
            term[1] += coeff
        else:
            agenda += [(k * coeff, child) for k, child in children]
    return WebCombination(out.values())


# -- diskoids --------------------------------------------------------------


class Diskoid:
    """Triangulated polygon with directed edges and a boundary walk.

    INPUT:

    - ``n_vertices`` -- vertices are 0 .. n_vertices-1
    - ``arrows`` -- one directed pair per edge
    - ``triangles`` -- triples of vertices; each triangle's arrows must
      form a directed 3-cycle
    - ``boundary_walk`` -- closed walk (basepoint first) traversing every
      edge side not shared between two triangles; may revisit vertices

    Raises :class:`MalformedDiskoid` when the data is not a disk-shaped
    complex (triangle patches and pendant edges glued into a contractible
    whole).  It is oriented when built: ``cycles`` maps each triangle to
    its counterclockwise vertex cycle, from :func:`_oriented_triangles`.
    """

    __slots__ = ("n_vertices", "arrows", "edges", "triangles", "boundary_walk", "cycles")

    def __init__(self, n_vertices, arrows, triangles, boundary_walk):
        self.n_vertices = int(n_vertices)
        self.arrows = tuple(tuple(a) for a in arrows)
        self.triangles = frozenset(tuple(sorted(t)) for t in triangles)
        self.boundary_walk = tuple(boundary_walk)

        edges = set()
        for u, v in self.arrows:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise MalformedDiskoid(f"arrow ({u}, {v}) out of range")
            if u == v:
                raise MalformedDiskoid(f"loop arrow at {u}")
            e = (min(u, v), max(u, v))
            if e in edges:
                raise MalformedDiskoid(f"edge {e} has two arrows")
            edges.add(e)
        self.edges = frozenset(edges)
        arrow_set = set(self.arrows)

        sides = {}  # directed side -> the triangles it is a side of
        for t in self.triangles:
            a, b, c = t
            if len({a, b, c}) != 3:
                raise MalformedDiskoid(f"degenerate triangle {t}")
            for x, y in ((a, b), (b, c), (a, c)):
                if (x, y) not in self.edges:
                    raise MalformedDiskoid(f"triangle {t} uses missing edge ({x}, {y})")
                sides.setdefault((x, y), []).append(t)
                sides.setdefault((y, x), []).append(t)
            cyc = [p for p in ((a, b), (b, c), (c, a)) if p in arrow_set]
            anti = [p for p in ((b, a), (c, b), (a, c)) if p in arrow_set]
            if not (len(cyc) == 3 or len(anti) == 3):
                raise MalformedDiskoid(f"triangle {t} arrows do not form a 3-cycle")

        walk = self.boundary_walk
        if len(walk) < 2:
            raise MalformedDiskoid("boundary walk needs at least two steps")
        crossings = {e: [] for e in self.edges}
        for p in range(len(walk)):
            u, v = walk[p], walk[(p + 1) % len(walk)]
            e = (min(u, v), max(u, v))
            if e not in self.edges:
                raise MalformedDiskoid(f"walk step ({u}, {v}) is not an edge")
            crossings[e].append((u, v))
        for e in self.edges:
            t = len(sides.get(e, ()))
            c = crossings[e]
            if t > 2:
                raise MalformedDiskoid(f"edge {e} lies in {t} triangles")
            if t + len(c) != 2:
                raise MalformedDiskoid(
                    f"edge {e} has {t} triangles and {len(c)} walk crossings"
                )
            if t == 0 and set(c) != {(e[0], e[1]), (e[1], e[0])}:
                raise MalformedDiskoid(f"pendant edge {e} not walked in both directions")

        # each edge is walked or lies in two triangles, and _oriented_triangles
        # refuses a triangle it cannot reach from the walk across shared sides,
        # so every vertex on an edge is joined to the walk
        if len({v for e in self.edges for v in e}) != self.n_vertices:
            raise MalformedDiskoid("isolated vertex")
        self.cycles = _oriented_triangles(self, sides)

    @property
    def n(self):
        """Number of boundary arcs."""
        return len(self.boundary_walk)

    def interior_vertices(self):
        bset = set(self.boundary_walk)
        return [v for v in range(self.n_vertices) if v not in bset]

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def word(self):
        """Type letters along the walk: 1 where the arrow follows the walk."""
        arrows = set(self.arrows)
        out = []
        for p in range(self.n):
            u, v = self.boundary_walk[p], self.boundary_walk[(p + 1) % self.n]
            out.append(1 if (u, v) in arrows else 2)
        return tuple(out)

    def __repr__(self):
        return (
            f"Diskoid({self.n_vertices} vertices, {len(self.triangles)} triangles, "
            f"{self.n}-gon)"
        )


def is_cat0(d):
    """True when every interior vertex has degree at least 6."""
    return all(d.degree(v) >= 6 for v in d.interior_vertices())


def _rotations(cyc):
    return {cyc, cyc[1:] + cyc[:1], cyc[2:] + cyc[:2]}


def _oriented_triangles(d, sides):
    """Counterclockwise vertex order per triangle, seeded from the walk.

    The walk runs counterclockwise, so the triangle on a boundary edge
    contains that walk step in its own counterclockwise cycle; neighbors
    across an interior edge traverse it oppositely.  ``sides`` is the map
    from directed sides to triangles that :class:`Diskoid` builds and checks.
    """
    orient = {}
    queue = []
    walk = d.boundary_walk
    for p in range(len(walk)):
        u, v = walk[p], walk[(p + 1) % len(walk)]
        tris = set(sides.get((u, v), ()))
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
            for t2 in sides[(a, b)]:
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


def dualize(d):
    """Web dual to a diskoid.

    One web vertex per triangle, one boundary leg per walk step; a web
    edge crosses every diskoid edge.  Edges are numbered by the sorted
    arrows.  For arrow e = u -> v, dart 2e is the side (v, u) and dart
    2e+1 the side (u, v), so the web edge runs from the owner of (v, u) to
    the owner of (u, v).  Triangles own the sides of their stored cycles,
    in cycle order, and leg p owns the reverse of walk step p.
    """
    n = d.n
    dart = {}
    for e, (u, v) in enumerate(sorted(d.arrows)):
        dart[(v, u)], dart[(u, v)] = 2 * e, 2 * e + 1
    walk = d.boundary_walk
    rot = [[dart[(walk[(p + 1) % n], walk[p])]] for p in range(n)]
    for t in sorted(d.triangles):
        cyc = d.cycles[t]
        rot.append([dart[(cyc[i], cyc[(i + 1) % 3])] for i in range(3)])
    try:
        return Web(rot, range(0, 2 * len(d.arrows), 2), range(n))
    except ValueError as exc:
        raise MalformedDiskoid(str(exc)) from exc


# -- serialization and drawing ---------------------------------------------


def web_to_json(w):
    return {
        "edges": [list(w.edge_ends(e)) for e in range(w.n_edges)],
        "rotations": [
            [[d // 2, 0 if w.is_out(d) else 1] for d in r] for r in w.rot
        ],
        "boundary": list(w.boundary),
        "free_loops": w.free_loops,
    }


def _ids(xs, bound, length=None):
    """True when ``xs`` is a JSON list of integers in range(bound)."""
    return (
        isinstance(xs, list)
        and (length is None or len(xs) == length)
        and all(type(x) is int and 0 <= x < bound for x in xs)
    )


def web_from_json(obj):
    recs, edges, boundary = json_fields(obj, "web", rotations=list, edges=list, boundary=list)
    free_loops = json_fields(obj, "web", free_loops=int)[0] if "free_loops" in obj else 0
    if free_loops > MAX_FREE_LOOPS:
        raise MalformedJSON(f"web field 'free_loops' must be at most {MAX_FREE_LOOPS}")
    n, m = len(recs), len(edges)
    if not all(_ids(e, n, 2) for e in edges):
        raise MalformedJSON(f"web field 'edges' must hold [source, target] vertex pairs below {n}")
    records = [x for r in recs for x in (r if isinstance(r, list) else [None])]
    if not all(isinstance(x, list) and len(x) == 2 and _ids(x[:1], m) for x in records):
        raise MalformedJSON(f"web field 'rotations' must hold lists of [edge below {m}, flag]")
    if not all(
        type(flag) is int and flag in (0, 1) and edges[eid][flag] == v
        for v, r in enumerate(recs)
        for eid, flag in r
    ):
        raise MalformedJSON(
            "web field 'rotations' flags must be 0 at the edge's source and 1 at its target"
        )
    if not _ids(boundary, n):
        raise MalformedJSON(f"web field 'boundary' must hold vertex ids below {n}")
    rot = [[2 * eid + flag for eid, flag in r] for r in recs]
    return Web(rot, range(0, 2 * m, 2), boundary, free_loops)


def diskoid_to_json(d):
    return {
        "n_vertices": d.n_vertices,
        "arrows": [list(a) for a in d.arrows],
        "triangles": sorted(list(t) for t in d.triangles),
        "boundary_walk": list(d.boundary_walk),
    }


def diskoid_from_json(obj):
    n, arrows, triangles, walk = json_fields(
        obj, "diskoid", n_vertices=int, arrows=list, triangles=list, boundary_walk=list
    )
    if not all(_ids(a, n, 2) for a in arrows):
        raise MalformedJSON(f"diskoid field 'arrows' must hold vertex pairs below {n}")
    if not all(_ids(t, n, 3) for t in triangles):
        raise MalformedJSON(f"diskoid field 'triangles' must hold vertex triples below {n}")
    if not _ids(walk, n):
        raise MalformedJSON(f"diskoid field 'boundary_walk' must hold vertex ids below {n}")
    return Diskoid(n, [tuple(a) for a in arrows], [tuple(t) for t in triangles], walk)


def _layout(n_vertices, ring, edges, bag):
    """Drawing positions: ``ring`` spaced on the unit circle from the top,
    a vertex at its first position, and every other vertex relaxed to the
    mean of its neighbors, summed in the order of a ``bag`` (list or set)
    filled from ``edges`` in order."""
    import math

    adj = {v: [] for v in range(n_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = {v: bag(nb) for v, nb in adj.items()}
    pos = {}
    for p, v in enumerate(ring):
        if v not in pos:
            ang = math.pi / 2 - 2 * math.pi * p / len(ring)
            pos[v] = (math.cos(ang), math.sin(ang))
    interior = [v for v in range(n_vertices) if v not in pos]
    for v in interior:
        pos[v] = (0.0, 0.0)
    for _ in range(60):
        for v in interior:
            if adj[v]:
                xs = [pos[u][0] for u in adj[v]]
                ys = [pos[u][1] for u in adj[v]]
                pos[v] = (sum(xs) / len(xs), sum(ys) / len(ys))
    return pos


def web_to_dot(w, name="web"):
    lines = [f"digraph {name} {{"]
    bset = set(w.boundary)
    for i, v in enumerate(w.boundary):
        lines.append(f'  n{v} [label="b{i + 1}", shape=circle];')
    for v in range(w.n_vertices):
        if v not in bset:
            lines.append(f'  n{v} [label="", shape=point];')
    for e in range(w.n_edges):
        u, v = w.edge_ends(e)
        lines.append(f"  n{u} -> n{v};")
    if w.free_loops:
        lines.append(f"  // {w.free_loops} free loop(s)")
    lines.append("}")
    return "\n".join(lines)


def web_to_tikz(w):
    pos = _layout(w.n_vertices, w.boundary, map(w.edge_ends, range(w.n_edges)), list)
    lines = ["\\begin{tikzpicture}[scale=2]"]
    bset = set(w.boundary)
    for i, v in enumerate(w.boundary):
        x, y = pos[v]
        lines.append(
            f"  \\node[circle, draw, inner sep=1pt] (n{v}) at ({x:.3f}, {y:.3f}) "
            f"{{\\tiny {i + 1}}};"
        )
    for v in range(w.n_vertices):
        if v not in bset:
            x, y = pos[v]
            lines.append(f"  \\node[circle, fill, inner sep=1pt] (n{v}) at ({x:.3f}, {y:.3f}) {{}};")
    for e in range(w.n_edges):
        u, v = w.edge_ends(e)
        lines.append(f"  \\draw[->] (n{u}) -- (n{v});")
    if w.free_loops:
        lines.append(f"  % {w.free_loops} free loop(s)")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


def diskoid_to_dot(d, name="diskoid"):
    lines = [f"digraph {name} {{"]
    for v in range(d.n_vertices):
        lines.append(f'  n{v} [label="{v}"];')
    for u, v in sorted(d.arrows):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines)


def diskoid_to_tikz(d):
    pos = _layout(d.n_vertices, d.boundary_walk, d.edges, set)
    lines = ["\\begin{tikzpicture}[scale=2]"]
    for v in range(d.n_vertices):
        x, y = pos[v]
        lines.append(
            f"  \\node[circle, draw, inner sep=1pt] (n{v}) at ({x:.3f}, {y:.3f}) "
            f"{{\\tiny {v}}};"
        )
    for u, v in sorted(d.arrows):
        lines.append(f"  \\draw[->] (n{u}) -- (n{v});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)
