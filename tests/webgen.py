"""Random elliptic web generator used by the reduction tests.

Starts from a small non-elliptic web and grows it by inserting bigons on
edges and squares across pairs of strands bounding a common face.  Both
insertions are exact inverses of the reduction rewrites, so the results
are valid direction-consistent webs.
"""

import random

from fixtures import hexagon_tripods_diskoid, octagon_wheel_diskoid, theta_web

from sl3webs.synthesis import basis_webs
from sl3webs.webs import dualize, faces, internal_faces, web_from_edges


def _web_data(w):
    edges = [list(w.edge_ends(e)) for e in range(w.n_edges)]
    rotations = {v: [d // 2 for d in w.rot[v]] for v in range(w.n_vertices)}
    return edges, rotations


def _swap_one(seq, old, new):
    seq[seq.index(old)] = new


def insert_bigon(w, rng):
    """Replace a random edge s -> t by s -> a <= b -> t with a doubled arc."""
    e = rng.randrange(w.n_edges)
    edges, rotations = _web_data(w)
    s, t = edges[e]
    a = w.n_vertices
    b = a + 1
    edges[e] = [s, a]
    eb1 = len(edges)
    edges.append([b, a])
    eb2 = len(edges)
    edges.append([b, a])
    ev = len(edges)
    edges.append([b, t])
    _swap_one(rotations[t], e, ev)
    rotations[a] = [e, eb2, eb1]
    rotations[b] = [ev, eb1, eb2]
    out = web_from_edges(
        edges,
        boundary=w.boundary,
        n_vertices=w.n_vertices + 2,
        rotations=rotations,
        free_loops=w.free_loops,
    )
    assert any(len(f) == 2 for f in internal_faces(out))
    return out


def insert_square(w, rng):
    """Cut two with-the-walk darts of one face and join them by a square.

    Returns None when no face offers two such darts on distinct edges.
    """
    cands = []
    for f in faces(w):
        along = [d for d in f if w.is_out(d)]
        for i, d1 in enumerate(along):
            for d2 in along[i + 1 :]:
                if d1 // 2 != d2 // 2:
                    cands.append((d1, d2))
    if not cands:
        return None
    d1, d2 = cands[rng.randrange(len(cands))]
    edges, rotations = _web_data(w)
    e1, e2 = d1 // 2, d2 // 2
    a1, b1 = edges[e1]
    a2, b2 = edges[e2]
    p, q, r, s = (w.n_vertices + k for k in range(4))

    edges[e1] = [a1, p]
    edges[e2] = [a2, r]
    e_qb1 = len(edges)
    edges.append([q, b1])
    e_sb2 = len(edges)
    edges.append([s, b2])
    side_pq = len(edges)
    edges.append([q, p])
    side_rs = len(edges)
    edges.append([s, r])
    rung_qr = len(edges)
    edges.append([q, r])
    rung_sp = len(edges)
    edges.append([s, p])

    _swap_one(rotations[b1], e1, e_qb1)
    _swap_one(rotations[b2], e2, e_sb2)
    rotations[p] = [side_pq, rung_sp, e1]
    rotations[q] = [e_qb1, rung_qr, side_pq]
    rotations[r] = [e2, side_rs, rung_qr]
    rotations[s] = [side_rs, e_sb2, rung_sp]
    out = web_from_edges(
        edges,
        boundary=w.boundary,
        n_vertices=w.n_vertices + 4,
        rotations=rotations,
        free_loops=w.free_loops,
    )
    assert any(
        len(f) == 4 and {out.vert(d) for d in f} == {p, q, r, s}
        for f in internal_faces(out)
    )
    return out


def random_elliptic(base, rng, inserts=3):
    """Grow an elliptic web from a base by random bigon/square insertions."""
    w = base
    for _ in range(inserts):
        if rng.random() < 0.5:
            w2 = insert_square(w, rng)
            w = w2 if w2 is not None else insert_bigon(w, rng)
        else:
            w = insert_bigon(w, rng)
    return w


def reduction_corpus():
    """Seeded open and closed elliptic webs grown from basis webs and from
    the theta web."""
    bases = [dualize(octagon_wheel_diskoid()), dualize(hexagon_tripods_diskoid())]
    for word in ("121212", "111222", "12121212"):
        bases += basis_webs(word)
    rng = random.Random(20261019)
    webs = [random_elliptic(bases[rng.randrange(len(bases))], rng, inserts=4) for _ in range(40)]
    webs += [random_elliptic(theta_web(), rng, inserts=3) for _ in range(12)]
    return webs
