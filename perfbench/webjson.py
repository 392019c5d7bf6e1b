"""Web utilities that work on the JSON form alone, apart from ``sl3webs``.

A web in JSON has ``edges`` (one ``[source, target]`` pair per edge),
``rotations`` (per vertex, the incident ``[edge, end]`` pairs in
counterclockwise order, end 0 at the source and 1 at the target),
``boundary`` (univalent vertices, basepoint first) and ``free_loops``.
Everything here reads or writes that form only, so the checks built on it
do not share code with the program they check.
"""

from itertools import permutations

__all__ = [
    "boundary_word",
    "canonical_form",
    "faces",
    "grow",
    "internal_faces",
    "interior_vertices",
    "tait_sum",
    "theta_web",
]


def _vertex(web, dart):
    e, end = dart
    return web["edges"][e][end]


def faces(web):
    """Every face as a list of darts ``(edge, end)`` in walking order.

    From a dart, the walk crosses its edge and leaves the far vertex by the
    rotation predecessor of the arriving dart, which traces the face on the
    left of the dart.
    """
    where = {}
    for v, rot in enumerate(web["rotations"]):
        for i, (e, end) in enumerate(rot):
            where[(e, end)] = (v, i)
    seen = set()
    out = []
    for start in sorted(where):
        if start in seen:
            continue
        face = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            e, end = dart
            v, i = where[(e, 1 - end)]
            rot = web["rotations"][v]
            dart = tuple(rot[(i - 1) % len(rot)])
        out.append(face)
    return out


def internal_faces(web):
    """Faces that touch no boundary vertex."""
    bset = set(web["boundary"])
    return [f for f in faces(web) if all(_vertex(web, d) not in bset for d in f)]


def boundary_word(web):
    """Letters along the boundary: 1 where the leg leaves its boundary vertex."""
    return "".join(
        "1" if web["rotations"][v][0][1] == 0 else "2" for v in web["boundary"]
    )


def interior_vertices(web):
    return len(web["rotations"]) - len(web["boundary"])


def _encode(web, root, label, bpos):
    """Breadth-first record of the component holding ``root``."""
    queue = [root]
    label[_vertex(web, root)] = len(label)
    out = []
    for dart in queue:
        v = _vertex(web, dart)
        rot = [tuple(d) for d in web["rotations"][v]]
        i = rot.index(dart)
        rec = []
        for d in rot[i:] + rot[:i]:
            e, end = d
            u = web["edges"][e][1 - end]
            if u not in label:
                label[u] = len(label)
                queue.append((e, 1 - end))
            rec.append((end, label[u], bpos.get(u, -1)))
        out.append((bpos.get(v, -1), tuple(rec)))
    return tuple(out)


def canonical_form(web):
    """Hashable key equal for two webs exactly when a basepoint- and
    orientation-preserving isomorphism maps one onto the other."""
    bpos = {v: i for i, v in enumerate(web["boundary"])}
    label = {}
    parts = [len(web["boundary"]), web.get("free_loops", 0)]
    for v in web["boundary"]:
        if v not in label:
            parts.append(_encode(web, tuple(web["rotations"][v][0]), label, bpos))
    rest = [v for v in range(len(web["rotations"])) if v not in label]
    while rest:
        best = None
        for v in rest:
            for d in web["rotations"][v]:
                trial = dict(label)
                enc = _encode(web, tuple(d), trial, bpos)
                if best is None or enc < best[0]:
                    best = (enc, trial)
        parts.append(best[0])
        label = best[1]
        rest = [v for v in rest if v not in label]
    return tuple(parts)


def _join(f, g):
    """Product of two sparse factors ``(scope, {colours: value})``."""
    (sf, tf), (sg, tg) = f, g
    shared_f = [sf.index(x) for x in sg if x in sf]
    shared_g = [i for i, x in enumerate(sg) if x in sf]
    extra = [i for i, x in enumerate(sg) if x not in sf]
    index = {}
    for key, val in tg.items():
        index.setdefault(tuple(key[i] for i in shared_g), []).append(
            (tuple(key[i] for i in extra), val)
        )
    out = {}
    for key, val in tf.items():
        for ext, val2 in index.get(tuple(key[i] for i in shared_f), ()):
            out[key + ext] = val * val2
    return sf + tuple(sg[i] for i in extra), out


def _sum_out(f, x):
    scope, table = f
    i = scope.index(x)
    out = {}
    for key, val in table.items():
        k = key[:i] + key[i + 1 :]
        out[k] = out.get(k, 0) + val
    return scope[:i] + scope[i + 1 :], out


_DISTINCT = {p: 1 for p in permutations(range(3))}


def tait_sum(web, leg_weights):
    """Weighted count of the Tait colourings of a web.

    A Tait colouring gives every edge one of three colours so that the
    three edges at each interior vertex get three different colours.  Each
    colouring counts with the product, over boundary positions i, of
    ``leg_weights[i][c]`` where c is the colour of leg i, and each free
    loop multiplies the sum by 3.  The sum is a contraction of one factor
    per vertex; edge colours are summed out one at a time, always the one
    whose factors together hold the fewest edges.
    """
    bpos = {v: i for i, v in enumerate(web["boundary"])}
    factors = {}
    for v, rot in enumerate(web["rotations"]):
        if v in bpos:
            weights = leg_weights[bpos[v]]
            factors[v] = ((rot[0][0],), {(c,): weights[c] for c in range(3)})
        else:
            factors[v] = (tuple(e for e, _end in rot), _DISTINCT)
    holding = {e: set() for e in range(len(web["edges"]))}  # edge -> factor ids
    for fid, (scope, _table) in factors.items():
        for e in scope:
            holding[e].add(fid)
    todo = set(holding)
    next_id = len(factors)

    def width(x):
        scope = set()
        for fid in holding[x]:
            scope.update(factors[fid][0])
        return len(scope), x

    while todo:
        x = min(todo, key=width)
        todo.discard(x)
        ids = holding.pop(x)
        hit = [factors.pop(fid) for fid in sorted(ids)]
        for scope, _table in hit:
            for e in scope:
                if e != x:
                    holding[e] -= ids
        merged = hit[0]
        for f in hit[1:]:
            merged = _join(merged, f)
        factors[next_id] = _sum_out(merged, x)
        for e in factors[next_id][0]:
            holding[e].add(next_id)
        next_id += 1
    total = 3 ** web.get("free_loops", 0)
    for _scope, table in factors.values():
        total *= table.get((), 0)
    return total


# -- growing elliptic webs --------------------------------------------------


def theta_web():
    """Closed web on two vertices joined by three parallel edges."""
    return {
        "edges": [[0, 1], [0, 1], [0, 1]],
        "rotations": [[[0, 0], [1, 0], [2, 0]], [[2, 1], [1, 1], [0, 1]]],
        "boundary": [],
        "free_loops": 0,
    }


def _rebuild(web, edges, rot_ids):
    """JSON web from an edge list and per-vertex counterclockwise edge ids."""
    rotations = []
    for v, ids in enumerate(rot_ids):
        rotations.append([[e, 0 if edges[e][0] == v else 1] for e in ids])
    return {
        "edges": [list(e) for e in edges],
        "rotations": rotations,
        "boundary": list(web["boundary"]),
        "free_loops": web.get("free_loops", 0),
    }


def _edit_form(web):
    edges = [list(e) for e in web["edges"]]
    rot_ids = [[e for e, _end in rot] for rot in web["rotations"]]
    return edges, rot_ids


def insert_bigon(web, rng):
    """Double the middle of a random edge s -> t: s -> a <= b -> t."""
    edges, rot_ids = _edit_form(web)
    e = rng.randrange(len(edges))
    s, t = edges[e]
    a, b = len(rot_ids), len(rot_ids) + 1
    edges[e] = [s, a]
    e1, e2, e3 = len(edges), len(edges) + 1, len(edges) + 2
    edges += [[b, a], [b, a], [b, t]]
    rot_ids[t][rot_ids[t].index(e)] = e3
    rot_ids += [[e, e2, e1], [e3, e1, e2]]
    return _rebuild(web, edges, rot_ids)


def insert_square(web, rng):
    """Join two edges that run along one face by a square; None if no face
    has two such edges."""
    cands = []
    for face in faces(web):
        along = [d for d in face if d[1] == 0]
        for i, d1 in enumerate(along):
            for d2 in along[i + 1 :]:
                if d1[0] != d2[0]:
                    cands.append((d1[0], d2[0]))
    if not cands:
        return None
    e1, e2 = cands[rng.randrange(len(cands))]
    edges, rot_ids = _edit_form(web)
    (a1, b1), (a2, b2) = edges[e1], edges[e2]
    p, q, r, s = (len(rot_ids) + k for k in range(4))
    edges[e1] = [a1, p]
    edges[e2] = [a2, r]
    qb1, sb2, qp, sr, qr, sp = range(len(edges), len(edges) + 6)
    edges += [[q, b1], [s, b2], [q, p], [s, r], [q, r], [s, p]]
    rot_ids[b1][rot_ids[b1].index(e1)] = qb1
    rot_ids[b2][rot_ids[b2].index(e2)] = sb2
    rot_ids += [[qp, sp, e1], [qb1, qr, qp], [e2, sr, qr], [sr, sb2, sp]]
    return _rebuild(web, edges, rot_ids)


def grow(web, rng, squares, bigons):
    """Insert squares and bigons in an order drawn from ``rng``; a square
    that finds no place becomes a bigon."""
    kinds = [insert_square] * squares + [insert_bigon] * bigons
    rng.shuffle(kinds)
    for insert in kinds:
        web = insert(web, rng) or insert_bigon(web, rng)
    return web
