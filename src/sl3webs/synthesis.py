"""Reduction of growth diagrams to dual diskoids, and geometric realization.

A diagram of length n describes the pairwise distances of a closed fan of
n lattice classes.  Three local moves shrink it: a U-turn removal drops a
vertex whose neighbors coincide, a sharp-corner removal drops a vertex
whose neighbors are adjacent, and an elbow move replaces a corner vertex
by the opposite corner of its unit rhombus.  Reducing all the way to a
2-gon and replaying the moves backwards assembles the diskoid that the
convex hull of any generic realization triangulates; dualizing it gives a
non-elliptic web.

The other direction is geometric: ``realize_polygon`` builds actual
lattice classes matching the diagram.  Each step draws a residue line of
the current vertex from a stratum that keeps the prescribed distance to an
anchor vertex.  The common apartment of the vertex and the anchor gives
the distance of every stratum by arithmetic on its exponents (Fontaine,
Kamnitzer and Kuperberg, arXiv:1103.3519), so residue rows are built for
the chosen stratum only.  ``cross_validate`` turns the hull of the
realization into a diskoid and checks that its dual web is the
combinatorial one.
"""

from .building import (
    OMEGA1,
    OMEGA2,
    ZERO_WEIGHT,
    LatticeClass,
    _apartment_form,
    _sample_coeff,
    class_apartment,
    distance,
    dual,
    dual_weight,
    letter_weight,
    random_step,
    step_to_line,
    steps,
)
from .errors import (
    InvariantViolated,
    MalformedDiskoid,
    NoDoubleElbow,
    PreconditionViolated,
    RealizationFailed,
)
from .growth import _complete, _padded, _unpadded, enumerate_diagrams
from .hulls import induced_complex, path_hull_fastpath
from .series import DEFAULT_PRIME, GF, solve_upper_triangular
from .webs import Diskoid, canonical_encoding, dualize

__all__ = [
    "ElbowMove",
    "Move",
    "MoveLog",
    "RealizedPolygon",
    "SharpCornerRemoval",
    "UTurnRemoval",
    "apply_move",
    "basis_webs",
    "conditioned_step",
    "cross_validate",
    "diskoid_from_diagram",
    "elbow_move",
    "find_double_elbow",
    "find_sharp",
    "find_uturn",
    "realize_polygon",
    "reduce_to_base",
    "remove_sharp",
    "remove_uturn",
]


def _weight(p):
    """Dominant weight of a partition entry: subtract the full columns."""
    a, b, c = _padded(p)
    return (a - c, b - c, 0)


# -- finding and applying moves ----------------------------------------------


def find_uturn(d):
    """Smallest position i whose second neighbor coincides with vertex i."""
    for i in range(1, d.n + 1):
        if _weight(d.rows[i - 1][2]) == ZERO_WEIGHT:
            return i
    return None


def find_sharp(d):
    """Smallest position i whose second neighbor is adjacent to vertex i."""
    for i in range(1, d.n + 1):
        if _weight(d.rows[i - 1][2]) in (OMEGA1, OMEGA2):
            return i
    return None


def _gamma_steps(d, i, m):
    """Geodesic step count from vertex i to vertex i+m, cyclically."""
    r = m % d.n
    if r == 0:
        return 0
    return steps(_weight(d.entry(i, i + r)))


def find_double_elbow(d):
    """A pair (i, a): elbows at i and i+a-3 bracketing a straight run.

    Vertices i+1 and i+a-2 are the two corners; the far corner bends back
    toward vertex i, detected by the step counts to vertices i+a-1 and
    i+a-2 being equal.  Scans elbow sites from the basepoint and returns
    the first that closes up.  Assumes the diagram has no U-turn and no
    sharp corner; under that hypothesis a double elbow always exists, so
    :class:`NoDoubleElbow` is defensive.
    """
    w = d.word
    n = d.n
    elbows = [i for i in range(1, n + 1) if w[i - 1] != w[i % n]]
    for i in elbows:
        k = next(j for j in range(i + 1, i + n) if w[(j - 1) % n] != w[j % n])
        a = k - i + 3
        if _gamma_steps(d, i, a - 1) == _gamma_steps(d, i, a - 2):
            return (i, a)
    raise NoDoubleElbow(f"no double elbow in diagram of type {''.join(map(str, w))}")


_MOVE_NAMES = {"uturn": "UTurnRemoval", "sharp": "SharpCornerRemoval", "elbow": "ElbowMove"}


class Move:
    """One reduction move: ``kind`` is ``"uturn"``, ``"sharp"`` or
    ``"elbow"``, and ``index`` the position it applies at."""

    __slots__ = ("kind", "index")

    def __init__(self, kind, index):
        if kind not in _MOVE_NAMES:
            raise ValueError(f"unknown move kind {kind!r}")
        self.kind = kind
        self.index = int(index)

    def __eq__(self, other):
        return isinstance(other, Move) and (other.kind, other.index) == (self.kind, self.index)

    def __hash__(self):
        return hash((self.kind, self.index))

    def __repr__(self):
        return f"{_MOVE_NAMES[self.kind]}({self.index})"


def UTurnRemoval(index):
    return Move("uturn", index)


def SharpCornerRemoval(index):
    return Move("sharp", index)


def ElbowMove(index):
    return Move("elbow", index)


class MoveLog:
    """Ordered list of reduction moves, each indexed in its own diagram state.

    The log is the reduction certificate: replaying it forward from the
    diagram it was computed from must land on the base 2-gon.  ``states``
    holds the diagram each move was applied to, when the log was recorded
    by :func:`reduce_to_base`; equality compares the moves only.
    """

    __slots__ = ("moves", "states")

    def __init__(self, moves=(), states=()):
        self.moves = tuple(moves)
        self.states = tuple(states)

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __getitem__(self, k):
        return self.moves[k]

    def __eq__(self, other):
        return isinstance(other, MoveLog) and other.moves == self.moves

    def __repr__(self):
        return f"MoveLog({list(self.moves)!r})"

    def replay(self, diagram):
        """Apply the recorded moves in order and return the final diagram."""
        for move in self.moves:
            diagram = apply_move(diagram, move)
        return diagram


def apply_move(d, move):
    kind = move.kind if isinstance(move, Move) else None
    if kind == "uturn":
        return remove_uturn(d, move.index)
    if kind == "sharp":
        return remove_sharp(d, move.index)
    if kind == "elbow":
        return elbow_move(d, move.index)
    raise TypeError(f"not a move: {move!r}")


def _less_columns(row):
    """First-row entries from position 2 on, less entry 2's full columns."""
    c = _padded(row[2])[2]
    return [_unpadded(tuple(x - c for x in _padded(p))) for p in row[2:]]


def remove_uturn(d, i):
    """Drop vertex i+1, identifying vertices i and i+2.

    INPUT:

    - ``d`` -- growth diagram with a U-turn at ``i``
    - ``i`` -- position found by :func:`find_uturn`

    OUTPUT: the diagram of the polygon with the two edges at vertex i+1
    removed, based at the identified vertex; its length is n-2.  The first
    row is row i of ``d``, read in place, from its second neighbor on, with
    the full column the merged triangle contributes removed from every entry.
    """
    if d.n <= 2:
        raise PreconditionViolated("cannot remove a U-turn from a 2-gon")
    row = d.rows[(i - 1) % d.n]
    if _weight(row[2]) != ZERO_WEIGHT:
        raise PreconditionViolated(f"no U-turn at position {i}")
    return _complete(_less_columns(row))


def remove_sharp(d, i):
    """Drop vertex i+1, connecting vertices i and i+2 directly.

    The two are adjacent, so the distances in row i of ``d`` shift over;
    the result is based at vertex i and has length n-1.  When the corner
    edges are both of type 2 the new type-1 edge carries three boxes fewer,
    so the full column recorded in gamma_{i,i+2} is stripped from every
    shifted entry.
    """
    row = d.rows[(i - 1) % d.n]
    if _weight(row[2]) not in (OMEGA1, OMEGA2):
        raise PreconditionViolated(f"no sharp corner at position {i}")
    return _complete([()] + _less_columns(row))


def elbow_move(d, i):
    """Replace the corner vertex i+1 by the opposite corner of its rhombus.

    The distance from vertex i to the new corner is the flip of the old
    one between the two fundamental weights; all other vertices keep their
    distances, so the new diagram, based at i, is completed from row i of
    ``d``, read in place, with its second entry flipped.  The modified row
    is again a chain of vertical strips, so it is completed without checks.
    """
    s = (i - 1) % d.n
    if d.word[s] == d.word[(s + 1) % d.n]:
        raise PreconditionViolated(f"edges at positions {i}, {i + 1} have equal type")
    row = list(d.rows[s])
    if _weight(row[2]) == ZERO_WEIGHT:
        raise PreconditionViolated(f"vertices {i}, {i + 2} coincide, not an elbow")
    row[1] = (1, 1) if row[1] == (1,) else (1,)
    return _complete(row)


# -- the reduction driver -----------------------------------------------------


def reduce_to_base(d):
    """Reduce a diagram to a 2-gon, recording every move.

    INPUT:

    - ``d`` -- any valid growth diagram

    OUTPUT: pair (base, log) where ``base`` is a 2-gon diagram and ``log``
    a :class:`MoveLog` with ``log.replay(d) == base``, whose ``states``
    are the diagrams the moves were applied to.

    U-turns and sharp corners are removed as soon as they exist.  When
    neither does, a double elbow is located and its leading corner flipped;
    each flip advances the corner one step along the straight run, so the
    next flip always sits at position 2 of the rebased output.  A removable
    configuration must appear before the corner reaches the far elbow; the
    loop bound is defensive.
    """
    moves = []
    states = []
    cur = d
    while cur.n > 2:
        i = find_uturn(cur)
        if i is not None:
            moves.append(UTurnRemoval(i))
            states.append(cur)
            cur = remove_uturn(cur, i)
            continue
        i = find_sharp(cur)
        if i is not None:
            moves.append(SharpCornerRemoval(i))
            states.append(cur)
            cur = remove_sharp(cur, i)
            continue
        site, a = find_double_elbow(cur)
        for _ in range(a):
            moves.append(ElbowMove(site))
            states.append(cur)
            cur = elbow_move(cur, site)
            if find_uturn(cur) is not None or find_sharp(cur) is not None:
                break
            site = 2
        else:
            raise InvariantViolated("elbow run did not produce a removable corner")
    return cur, MoveLog(moves, states)


# -- rebuilding the diskoid ---------------------------------------------------


def _arrow(u, v, letter):
    """The directed edge for a boundary step of the given type."""
    return (u, v) if letter == 1 else (v, u)


def diskoid_from_diagram(d):
    """The triangulated diskoid whose boundary distances realize ``d``.

    Reduces the diagram to a 2-gon and replays the move log backwards.
    Undoing a sharp-corner removal glues a triangle onto a boundary edge;
    undoing a U-turn removal splits off a pendant edge; undoing an elbow
    move pushes the boundary corner out by one rhombus, keeping the old
    corner as an interior vertex under two new triangles.  Walk positions
    are kept aligned with diagram positions throughout, so the result's
    boundary walk starts at the basepoint of ``d``.
    """
    base, log = reduce_to_base(d)
    n_vertices = 2
    arrows = [_arrow(0, 1, base.word[0])]
    triangles = []
    walk = [0, 1]

    for move, before in zip(reversed(log.moves), reversed(log.states)):
        i = move.index
        w = before.word
        here = w[i - 1]
        after = w[i % before.n]
        if move.kind == "elbow":
            v_old = n_vertices
            n_vertices += 1
            v_new = walk[1]
            arrows.append(_arrow(walk[0], v_old, here))
            arrows.append(_arrow(v_old, walk[2], after))
            arrows.append(_arrow(v_old, v_new, 1) if here == 1 else _arrow(v_new, v_old, 1))
            triangles.append((walk[0], v_old, v_new))
            triangles.append((v_old, walk[2], v_new))
            new_walk = [walk[0], v_old] + walk[2:]
        elif move.kind == "sharp":
            v2 = n_vertices
            n_vertices += 1
            arrows.append(_arrow(walk[0], v2, here))
            arrows.append(_arrow(v2, walk[1], after))
            triangles.append((walk[0], v2, walk[1]))
            new_walk = [walk[0], v2] + walk[1:]
        else:
            v2 = n_vertices
            n_vertices += 1
            arrows.append(_arrow(walk[0], v2, here))
            new_walk = [walk[0], v2, walk[0]] + walk[1:]
        r = (1 - i) % len(new_walk)
        walk = new_walk[r:] + new_walk[:r]

    return Diskoid(n_vertices, arrows, triangles, walk)


def basis_webs(word):
    """The non-elliptic webs of the given type, one per growth diagram.

    Order follows :func:`~sl3webs.growth.enumerate_diagrams`, so indices
    are reproducible.
    """
    return [dualize(diskoid_from_diagram(g)) for g in enumerate_diagrams(word)]


# -- residue linear algebra ---------------------------------------------------


def _echelon(field, vectors):
    """Row echelon basis of a span of normalized residue vectors, as (pivot, row) pairs."""
    rows = []
    for v in vectors:
        for p, r in rows:
            c = v[p]
            if c != 0:
                v = [field.normalize(a - c * b) for a, b in zip(v, r)]
        piv = next((j for j, c in enumerate(v) if c != 0), None)
        if piv is None:
            continue
        inv = field.inv(v[piv])
        rows.append((piv, [field.normalize(inv * c) for c in v]))
        rows.sort()
    return rows


def _in_span(field, rows, v):
    for p, r in rows:
        c = v[p]
        if c != 0:
            v = [field.normalize(a - c * b) for a, b in zip(v, r)]
    return all(c == 0 for c in v)


def _stratum_sample(field, rng, big, small, tries=64):
    for _ in range(tries):
        coeffs = [_sample_coeff(field, rng) for _ in big]
        v = [field.normalize(0)] * 3
        for c, (_p, r) in zip(coeffs, big):
            if c != 0:
                v = [field.normalize(a + c * b) for a, b in zip(v, r)]
        if any(c != 0 for c in v) and not _in_span(field, small, v):
            return v
    return None


def _residue_rows(x, apartment, a):
    """Echelon rows of the residues of ``L_x meet t^a L_anchor`` in ``L_x / t L_x``."""
    meet = _apartment_form(x.basis, apartment, a, max)
    return _echelon(
        x.field,
        [[s.coeff(0) for s in solve_upper_triangular(x.basis, col)] for col in meet.columns()],
    )


def _conditioned_line(x, anchor, target, rng):
    """A random omega_1-neighbor of ``x`` at distance ``target`` from ``anchor``.

    In the common apartment ``L_x = <g_i>``, ``L_anchor = <t^(e_i) g_i>`` the
    residues of ``L_x meet t^a L_anchor`` are spanned by the ``g_i`` with
    ``e_i <= -a``, so the filtration jumps only at ``a = -e_j``.  The common
    stabilizer of the two lattices acts transitively on the lines inside a
    jump, so all of them lie at the distance of ``<g_j, t L_x> = <t^(f_i) g_i>``
    (``f_j = 0``, every other ``f_i = 1``) from the anchor: ``dual_weight(f - e)``.
    Two jumps never share a distance: every ``f - e`` has the same sum, and
    the multisets ``{1 - e_k, -e_j}`` and ``{1 - e_j, -e_k}`` agree only when
    ``e_j = e_k``.  So the line is drawn from the one matching jump, against
    the echelon rows of its two stages, or there is none.
    """
    apartment = class_apartment(x, anchor)
    exps = apartment[0]
    for j, e in enumerate(exps):
        if dual_weight([(i != j) - ei for i, ei in enumerate(exps)]) == target:
            big, small = _residue_rows(x, apartment, -e), _residue_rows(x, apartment, 1 - e)
            v = _stratum_sample(x.field, rng, big, small)
            return None if v is None else step_to_line(x, v)
    return None


def conditioned_step(x, letter, anchor, target, rng):
    """A random neighbor of ``x`` at a prescribed distance from an anchor.

    INPUT:

    - ``x`` -- the class to step from
    - ``letter`` -- 1 or 2, the type of the step
    - ``anchor``, ``target`` -- the constraint d(anchor, result) = target
    - ``rng`` -- source of randomness

    OUTPUT: a class y with d(x, y) the letter's weight and
    d(anchor, y) = target, sampled uniformly over a residue stratum
    compatible with the target, or None when no stratum is.  Steps of type
    2 are reduced to type 1 on the dual lattices, which reverse distances.
    """
    if letter == 2:
        yd = _conditioned_line(dual(x), dual(anchor), dual_weight(target), rng)
        return None if yd is None else dual(yd)
    return _conditioned_line(x, anchor, target, rng)


# -- realizing a polygon ------------------------------------------------------


class RealizedPolygon:
    """Lattice classes realizing a growth diagram, checked on construction.

    ``classes[p]`` is the class of polygon vertex p+1; every pairwise
    distance must normalize to the corresponding diagram entry.
    """

    __slots__ = ("classes", "diagram")

    def __init__(self, classes, diagram):
        self.classes = tuple(classes)
        self.diagram = diagram
        n = diagram.n
        if len(self.classes) != n:
            raise PreconditionViolated(f"{len(self.classes)} classes for a {n}-gon")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                got = distance(self.classes[i - 1], self.classes[j - 1])
                want = _weight(diagram.entry(i, j))
                if got != want:
                    raise PreconditionViolated(
                        f"d(x_{i}, x_{j}) = {got}, diagram says {want}"
                    )

    def __repr__(self):
        return f"RealizedPolygon({self.diagram!r})"


def _attempt_realization(d, rng, field):
    n = d.n
    w = d.word
    x = [None] * (n + 1)
    x[1] = LatticeClass.standard(field)
    if n == 2:
        x[2] = random_step(x[1], letter_weight(w[0]), rng)
        return x[1:]
    for j in range(2, n - 1):
        x[j] = conditioned_step(x[j - 1], w[j - 2], x[1], _weight(d.entry(1, j)), rng)
        if x[j] is None:
            return None
    x[n] = conditioned_step(x[1], 3 - w[n - 1], x[n - 2], _weight(d.entry(n - 2, n)), rng)
    if x[n] is None:
        return None
    x[n - 1] = conditioned_step(
        x[n - 2], w[n - 3], x[n], dual_weight(letter_weight(w[n - 2])), rng
    )
    return None if x[n - 1] is None else x[1:]


def realize_polygon(d, rng, retry_cap=1000, field=None):
    """Generic lattice classes whose distances realize the diagram.

    INPUT:

    - ``d`` -- growth diagram
    - ``rng`` -- source of randomness
    - ``retry_cap`` -- attempts before giving up
    - ``field`` -- coefficient field; default ``GF(DEFAULT_PRIME)``

    OUTPUT: a :class:`RealizedPolygon`.  Each attempt walks the polygon
    once: vertex 1 is the standard class, vertices 2 .. n-2 are stepped
    forward conditioned on their distance from vertex 1, vertex n is
    stepped from vertex 1 backwards conditioned on vertex n-2, and vertex
    n-1 closes the gap conditioned on vertex n.  Any unsatisfiable
    condition discards the attempt, and so does a polygon that
    :class:`RealizedPolygon` rejects: over a small field a draw that meets
    every condition can still bring two other vertices too close.  Dual
    classes come from :func:`~sl3webs.building.dual`, remembered across calls.
    Raises :class:`~sl3webs.errors.RealizationFailed` when the cap runs
    out.
    """
    if retry_cap < 1:
        raise PreconditionViolated("retry_cap must be at least 1")
    if field is None:
        field = GF(DEFAULT_PRIME)
    for _ in range(retry_cap):
        classes = _attempt_realization(d, rng, field)
        if classes is None:
            continue
        try:
            return RealizedPolygon(classes, d)
        except PreconditionViolated:
            pass
    raise RealizationFailed(
        f"no generic polygon of type {''.join(map(str, d.word))} in {retry_cap} attempts"
    )


# -- cross-validation ----------------------------------------------------------


def cross_validate(d, rng, retry_cap=1000, field=None):
    """True when the geometric hull of a realization has the diskoid's dual web.

    Realizes the diagram, computes the hull of the polygon classes along
    the boundary path and takes its induced complex.  The complex becomes a
    :class:`~sl3webs.webs.Diskoid`: each edge points along its omega_1
    direction, and the boundary walk runs through the polygon classes.  A
    hull that is not disk-shaped raises :class:`MalformedDiskoid` there and
    does not match.  Otherwise its dual web is compared with the dual web
    of the backward-replay diskoid by canonical encoding.  With the legs
    pinned, the web determines the diskoid: its faces are the vertices and
    its boundary regions the walk positions.
    :class:`~sl3webs.errors.RealizationFailed` propagates.
    """
    poly = realize_polygon(d, rng, retry_cap, field)
    cx = induced_complex(path_hull_fastpath(list(poly.classes)))
    index_of = {v: k for k, v in enumerate(cx.vertices)}
    if any(c not in index_of for c in poly.classes):
        return False
    arrows = [
        (i, j) if distance(cx.vertices[i], cx.vertices[j]) == OMEGA1 else (j, i)
        for i, j in cx.edges
    ]
    walk = [index_of[c] for c in poly.classes]
    try:
        hull_web = dualize(Diskoid(len(cx.vertices), arrows, cx.triangles, walk))
    except MalformedDiskoid:
        return False
    return canonical_encoding(hull_web) == canonical_encoding(dualize(diskoid_from_diagram(d)))
