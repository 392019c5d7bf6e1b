"""A fixed block of pure-Python work that tells how fast the machine is now.

The machine this benchmark runs on is shared, and its speed drifts: the
same round of the same code has taken 0.70 s at one time of day and
1.93 s at another, in CPU time as well as in wall time.  ``measure.py``
runs ``block`` at the start and end of every round and between its items,
once ``EVERY_S`` has passed since the last block, and divides the round's
time by the blocks' mean time, and the set-up time by the median time of
all the run's blocks.  A change of the machine's speed then moves both
alike and cancels out.

The block does the kinds of work ``sl3webs`` does, with no call into it:
products of Laurent polynomials kept as dicts with ``Fraction`` and
prime-field coefficients, elimination of integer matrices mod p, tuples as
dict and set keys, sorting, small objects with slots, and JSON.  Its work
is fixed and does not depend on the seed or on the code under test.
"""

import gc
import json
import time
from fractions import Fraction

P = 10007
# ``wall_s`` is reported in seconds of a machine on which one block takes
# this long: round time / mean block time * REFERENCE_S.  On a 2-core
# container with Python 3.11.7 a block took 3-9 ms, as its speed drifted.
REFERENCE_S = 0.005
# least time between two blocks in a round
EVERY_S = 0.05
# untimed blocks before the first round: the first runs of the block's code
# are slower, before the interpreter has specialized it
WARMUP = 20


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right


def _poly_mul(a, b, mod):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            c = out.get(k, 0) + x * y
            out[k] = c % mod if mod else c
    return {k: c for k, c in out.items() if c}


def _laurent(mod):
    polys = [
        {e: (Fraction(e + 2, 2 * e + 3) if not mod else (7 * e + 3) % mod) for e in range(-2, 4)}
        for _ in range(6)
    ]
    acc = {0: Fraction(1) if not mod else 1}
    for p in polys:
        acc = _poly_mul(acc, p, mod)
        acc = {k: c for k, c in acc.items() if k < 12}
    return len(acc)


def _eliminate(n):
    rows = [[(i * 31 + j * 17 + i * j) % P for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        rows[rank] = [x * inv % P for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _combinatorics(n):
    seen = {}
    frontier = [(0, 0, 0)]
    while frontier and len(seen) < n:
        nxt = []
        for a, b, c in frontier:
            for step in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                key = (a + step[0], b + step[1], c + step[2])
                if key[0] >= key[1] >= key[2] and key not in seen:
                    seen[key] = len(seen)
                    nxt.append(key)
        frontier = nxt
    faces = sorted(seen, key=lambda k: (sum(k), k))
    return len({k[:2] for k in faces})


def _objects(n):
    root = None
    for i in range(n):
        node = _Node((i * 7919) % n, root)
        root = node
    total = 0
    while root is not None:
        total += root.key
        root = root.left
    return total


def _json(n):
    data = [{"edges": [[i, i + 1] for i in range(k)], "boundary": list(range(k % 7))}
            for k in range(n)]
    return len(json.loads(json.dumps(data, sort_keys=True)))


def block():
    """Run the fixed work once; return its time in seconds.  The garbage
    collector is off meanwhile, so the block's time does not grow with the
    heap the workload keeps."""
    gc.disable()
    start = time.perf_counter()
    _laurent(None)
    for _ in range(4):
        _laurent(P)
    _eliminate(30)
    _combinatorics(1000)
    _objects(2500)
    _json(40)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed
