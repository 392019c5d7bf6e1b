"""Output checks that do not run the code they check.

Each check takes plain data (JSON text, counts, index lists) and returns a
list of problems, empty when the output is correct.  The expected values
come from computations written here: a walk count for invariant
dimensions, face tracing and a canonical form on the web JSON, Euler
characteristic and degrees on hull complexes, and Tait-colouring counts
for the reduction relations.
"""

import json
import random

import webjson

__all__ = [
    "check_complex",
    "check_move_identities",
    "check_octagon",
    "check_reduction",
    "check_sweep_word",
    "walk_count",
]

# weights of the boundary legs in the Tait-colouring test of a reduction
_LEG_WEIGHT_SEED = 20040413
_LEG_WEIGHT_DRAWS = 2


def walk_count(word):
    """Dimension of the invariants of a tensor word of sl3 representations.

    Counts walks of dominant weights (a, b) from (0, 0) back to (0, 0).  A
    letter 1 tensors with the standard representation, whose weights move
    (a, b) by (1, 0), (-1, 1) or (0, -1); a letter 2 with its dual, which
    moves by (0, 1), (1, -1) or (-1, 0).  Walks that leave the dominant
    chamber are dropped.
    """
    moves = {
        "1": ((1, 0), (-1, 1), (0, -1)),
        "2": ((0, 1), (1, -1), (-1, 0)),
    }
    state = {(0, 0): 1}
    for letter in word:
        nxt = {}
        for (a, b), n in state.items():
            for da, db in moves[letter]:
                if a + da >= 0 and b + db >= 0:
                    key = (a + da, b + db)
                    nxt[key] = nxt.get(key, 0) + n
        state = nxt
    return state.get((0, 0), 0)


def web_problems(web, word):
    """Why a web is not a non-elliptic web of boundary word ``word``."""
    problems = []
    if web.get("free_loops", 0):
        problems.append("web has a free loop")
    small = [len(f) for f in webjson.internal_faces(web) if len(f) < 6]
    if small:
        problems.append(f"internal faces with {small} sides")
    got = webjson.boundary_word(web)
    if got != word:
        problems.append(f"boundary word {got}, expected {word}")
    return problems


def check_sweep_word(word, rc, stdout):
    """Output of ``sl3webs webs WORD``: one JSON web per line."""
    if rc != 0:
        return [f"exit code {rc}"]
    webs = [json.loads(line) for line in stdout.splitlines()]
    problems = []
    want = walk_count(word)
    if len(webs) != want:
        problems.append(f"{len(webs)} webs, invariant dimension is {want}")
    seen = {}
    for i, web in enumerate(webs):
        problems += [f"web {i}: {p}" for p in web_problems(web, word)]
        key = webjson.canonical_form(web)
        if key in seen:
            problems.append(f"web {i} repeats web {seen[key]}")
        seen.setdefault(key, i)
    return problems


def check_complex(expected, n_vertices, edges, triangles, polygon):
    """A hull complex against the diskoid of its component.

    ``expected`` holds the diskoid's vertex, edge and triangle counts and
    ``polygon`` the indices of the hull vertices that are polygon vertices.
    The complex must have the same counts, Euler characteristic 1, and
    degree at least 6 at every vertex that is not a polygon vertex.
    """
    problems = []
    got = (n_vertices, len(edges), len(triangles))
    if got != tuple(expected):
        problems.append(f"complex counts {got}, diskoid counts {tuple(expected)}")
    euler = got[0] - got[1] + got[2]
    if euler != 1:
        problems.append(f"Euler characteristic {euler}")
    degree = [0] * n_vertices
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    for v in range(n_vertices):
        if v not in polygon and degree[v] < 6:
            problems.append(f"interior vertex {v} has degree {degree[v]}")
    return problems


def check_octagon(n_vertices, edges, triangles, polygon):
    """The paper's answer for its octagon: 9 vertices, 16 edges and 8
    triangles, with one centre adjacent to all 8 polygon vertices."""
    problems = []
    got = (n_vertices, len(edges), len(triangles))
    if got != (9, 16, 8):
        problems.append(f"octagon complex counts {got}, the paper has (9, 16, 8)")
    centres = [v for v in range(n_vertices) if v not in polygon]
    if len(polygon) != 8 or len(centres) != 1:
        return problems + [f"{len(polygon)} polygon vertices, {len(centres)} others"]
    spokes = {tuple(sorted((centres[0], p))) for p in polygon}
    missing = spokes - {tuple(e) for e in edges}
    if missing:
        problems.append(f"centre misses edges {sorted(missing)}")
    return problems


def check_reduction(web, terms):
    """A reduction of ``web`` into ``terms`` (coefficient and web JSON).

    Every term must be non-elliptic with the input's boundary word.  For
    every colouring c of the boundary legs the Tait counts must satisfy
    Tait(W | c) = sum_i coeff_i (-1)^((V(W) - V(B_i)) / 2) Tait(B_i | c),
    with V the number of interior vertices.  Both sides are compared as
    sums over c weighted by random products of per-leg weights; two webs
    whose counts differ at any c give different sums with probability at
    least 1 - b / 2^31 per draw, for b boundary legs.
    """
    word = webjson.boundary_word(web)
    problems = []
    for i, term in enumerate(terms):
        problems += [f"term {i}: {p}" for p in web_problems(term["web"], word)]
    if problems:
        return problems
    rng = random.Random(_LEG_WEIGHT_SEED)
    v_in = webjson.interior_vertices(web)
    for _ in range(_LEG_WEIGHT_DRAWS):
        weights = [
            [rng.randrange(1, 2**31) for _c in range(3)] for _leg in web["boundary"]
        ]
        lhs = webjson.tait_sum(web, weights)
        rhs = 0
        for term in terms:
            gap = v_in - webjson.interior_vertices(term["web"])
            if gap % 2:
                return [f"odd interior vertex difference {gap}"]
            rhs += (
                term["coefficient"]
                * (-1) ** (gap // 2)
                * webjson.tait_sum(term["web"], weights)
            )
        if lhs != rhs:
            return [f"Tait colouring sums differ: {lhs} for the web, {rhs} for the terms"]
    return problems


def check_move_identities(moves_uturn, moves_sharp, moves_elbow, lengths, interior):
    """Move counts under ``reduce_to_base`` against the sweep's output.

    A U-turn removal shortens the polygon by two and a sharp-corner removal
    by one, down to a 2-gon, so 2 U + S is the sum of n - 2 over the
    components.  Undoing a sharp corner adds one triangle and undoing an
    elbow move two, so 2 E + S is the number of triangles, which is the
    number of interior web vertices.
    """
    problems = []
    shrink = sum(n - 2 for n in lengths)
    if 2 * moves_uturn + moves_sharp != shrink:
        problems.append(
            f"2 * {moves_uturn} U-turns + {moves_sharp} sharp corners != {shrink}"
        )
    if 2 * moves_elbow + moves_sharp != interior:
        problems.append(
            f"2 * {moves_elbow} elbows + {moves_sharp} sharp corners != "
            f"{interior} interior vertices"
        )
    return problems
