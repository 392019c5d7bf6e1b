"""Cylindrical growth diagrams of partitions with at most three rows.

A diagram of type word w (letters 1 and 2, standing for steps that add one
box or a two-box vertical strip) is a staircase array of partitions
gamma_{i,j}, i <= j <= i+n, with empty partitions on the diagonal, a fixed
rectangle at the far end of every row, and every unit square tied by a
local rule.  Any single row determines the whole array, and the row-to-row
map is the promotion operator on row-strict tableaux.

``dim_inv`` counts the diagrams of a given type by an independent route: a
dynamic program over dominant weights driven by the one-box and two-box
Pieri rules.
"""

from itertools import combinations

from .errors import (
    InvalidChain,
    LocalRuleViolation,
    NotAPartitionAfterSort,
    NotVerticalStrip,
    json_fields,
)

__all__ = [
    "GrowthDiagram",
    "complement",
    "complete_from_row",
    "diagram_from_json",
    "dif",
    "dim_inv",
    "enumerate_diagrams",
    "is_vertical_strip",
    "local_rule",
    "parse_word",
    "partition",
    "partition_to_text",
    "promotion",
    "row_to_tableau",
    "tableau_to_row",
]


def partition(parts):
    """Canonical partition tuple: weakly decreasing, trailing zeros dropped."""
    try:
        p = tuple(int(x) for x in parts)
    except TypeError as exc:
        raise ValueError(f"{parts!r} is not a sequence of integers") from exc
    while p and p[-1] == 0:
        p = p[:-1]
    if len(p) > 3:
        raise ValueError(f"more than 3 parts in {parts!r}")
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing in {parts!r}")
    return p


def _padded(p):
    return tuple(p) + (0,) * (3 - len(p))


def _unpadded(q):
    """Canonical tuple of a padded partition: trailing zeros dropped."""
    return q[: 3 - q.count(0)]


def partition_to_text(p):
    if not p:
        return "∅"
    if max(p) > 9:
        return "(" + ",".join(str(x) for x in p) + ")"
    return "".join(str(x) for x in p)


def parse_word(word):
    """Type word as a tuple of letters 1 and 2, from a string or iterable whose
    letters are the characters ``"1"``, ``"2"`` or the ints 1, 2.  Whitespace in
    a string is skipped."""
    chars = [c for c in word if not c.isspace()] if isinstance(word, str) else word
    letters = tuple(int(c) if c in ("1", "2") else c for c in chars)
    if any(type(c) is not int or c not in (1, 2) for c in letters):
        raise ValueError(f"type word may only contain 1 and 2, got {word!r}")
    return letters


def _dif3(a, b):
    """Row set of :func:`dif`, on padded partitions."""
    d0, d1, d2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    lo, hi = min(d0, d1, d2), max(d0, d1, d2)
    if lo < -1 or hi > 1 or lo < 0 < hi:
        raise NotVerticalStrip(
            f"{_unpadded(a)} and {_unpadded(b)} do not differ by a vertical strip"
        )
    return frozenset(r for r, d in ((1, d0), (2, d1), (3, d2)) if d)


def _is_strip3(a, b):
    return 0 <= b[0] - a[0] <= 1 and 0 <= b[1] - a[1] <= 1 and 0 <= b[2] - a[2] <= 1


def _local_rule3(g, g_below, g_right):
    """:func:`local_rule` on padded partitions, returning a padded one."""
    rows = _dif3(g, g_below)
    r1, r2, r3 = g_right[0] - (1 in rows), g_right[1] - (2 in rows), g_right[2] - (3 in rows)
    out = sorted((r1, r2, r3), reverse=True)
    if out[2] < 0:
        raise NotAPartitionAfterSort(f"negative part in {out}")
    result = tuple(out)
    if not (_is_strip3(g_below, result) and _is_strip3(result, g_right)):
        raise NotAPartitionAfterSort(
            f"{_unpadded(result)} does not extend the chains through the square"
        )
    return result


def is_vertical_strip(inner, outer):
    """True when outer/inner adds at most one box to each row."""
    return _is_strip3(_padded(partition(inner)), _padded(partition(outer)))


def dif(a, b):
    """Set of row indices (1-based) where two nested partitions differ.

    One argument must contain the other, with at most one box of difference
    per row; otherwise :class:`NotVerticalStrip` is raised.
    """
    return _dif3(_padded(partition(a)), _padded(partition(b)))


def complement(p, k):
    """Complement of a partition inside the k x 3 rectangle, rotated."""
    q = _padded(partition(p))
    if q[0] > k:
        raise ValueError(f"{p!r} does not fit in the rectangle of height {k}")
    return partition((k - q[2], k - q[1], k - q[0]))


def local_rule(g, g_below, g_right):
    """Fourth corner of a unit square of the growth array.

    INPUT:

    - ``g`` -- the corner gamma_{i,j}
    - ``g_below`` -- gamma_{i+1,j}, contained in ``g``
    - ``g_right`` -- gamma_{i,j+1}, containing ``g``

    OUTPUT: gamma_{i+1,j+1}, obtained by subtracting one box from
    ``g_right`` in every row where ``g`` and ``g_below`` differ, then
    sorting.  Raises :class:`NotAPartitionAfterSort` when the result fails
    to extend the two chains through the square.
    """
    padded = (_padded(partition(q)) for q in (g, g_below, g_right))
    return _unpadded(_local_rule3(*padded))


class GrowthDiagram:
    """Completed cylindrical growth diagram.

    ``rows`` holds n+1 tuples; row i (1-based) lists gamma_{i,i..i+n}.
    Build through :func:`complete_from_row`, which validates everything.
    """

    __slots__ = ("word", "rows")

    def __init__(self, word, rows):
        self.word = tuple(word)
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def n(self):
        return len(self.word)

    @property
    def first_row(self):
        return self.rows[0]

    def entry(self, i, j):
        """gamma_{i,j} for any i, extended periodically."""
        n = self.n
        i0 = (i - 1) % n + 1
        j0 = j - (i - i0)
        if not i0 <= j0 <= i0 + n:
            raise ValueError(f"({i}, {j}) lies outside the staircase")
        return self.rows[i0 - 1][j0 - i0]

    def rebase(self, i):
        """The same cylinder based at vertex i (row i becomes the first row)."""
        n = self.n
        s = (i - 1) % n
        rows = [self.rows[(s + r) % n] for r in range(n + 1)]
        return GrowthDiagram(self.word[s:] + self.word[:s], rows)

    @property
    def rectangle(self):
        return self.rows[0][-1]

    def __eq__(self, other):
        if not isinstance(other, GrowthDiagram):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"GrowthDiagram(word={''.join(map(str, self.word))})"

    def to_text(self):
        lines = []
        for i, row in enumerate(self.rows, start=1):
            pad = "    " * (i - 1)
            lines.append(pad + ", ".join(partition_to_text(p) for p in row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "word": "".join(str(c) for c in self.word),
            "first_row": [list(p) for p in self.first_row],
        }


def diagram_from_json(obj):
    text, first_row = json_fields(obj, "growth diagram", word=str, first_row=list)
    d = complete_from_row(first_row)
    if d.word != parse_word(text):
        raise InvalidChain(f"first row has type {''.join(map(str, d.word))}, not {text}")
    return d


def _validate_first_row(first_row):
    row = [partition(p) for p in first_row]
    if len(row) < 2:
        raise InvalidChain("a growth diagram needs at least one step")
    if row[0] != ():
        raise InvalidChain("first entry must be the empty partition")
    word = []
    for a, b in zip(row, row[1:]):
        size = sum(b) - sum(a)
        if not is_vertical_strip(a, b) or size not in (1, 2):
            raise InvalidChain(f"step {a} -> {b} is not a 1- or 2-box vertical strip")
        word.append(size)
    last = _padded(row[-1])
    if not last[0] == last[1] == last[2]:
        raise InvalidChain(f"final entry {row[-1]} is not a rectangle")
    return row, tuple(word), last[0]


def complete_from_row(first_row):
    """Complete and validate the growth diagram determined by one row.

    INPUT:

    - ``first_row`` -- chain of n+1 partitions from the empty partition to
      a rectangle, each step a vertical strip of one or two boxes

    OUTPUT: a validated :class:`GrowthDiagram`.  Raises
    :class:`InvalidChain` for a malformed row and
    :class:`LocalRuleViolation` (with the failing square) when the sweep
    breaks down.
    """
    row, word, k = _validate_first_row(first_row)
    n = len(word)
    rect = (k, k, k)
    rows = [tuple(row)]
    prev = [_padded(p) for p in row]
    for i in range(1, n + 1):
        cur = [(0, 0, 0)]
        for j in range(i + 1, i + n):
            try:
                cur.append(_local_rule3(prev[j - i], cur[-1], prev[j - i + 1]))
            except (NotVerticalStrip, NotAPartitionAfterSort) as exc:
                raise LocalRuleViolation(f"square ({i}, {j}): {exc}") from exc
        # the far end of every row is pinned to the rectangle; validate the
        # wrap step instead of computing it
        try:
            closing = _dif3(rect, cur[-1])
        except NotVerticalStrip as exc:
            raise LocalRuleViolation(f"row {i + 1} does not close onto {rect}: {exc}")
        if len(closing) != word[i - 1]:
            raise LocalRuleViolation(
                f"row {i + 1} closes with a {len(closing)}-box strip, "
                f"expected letter {word[i - 1]}"
            )
        cur.append(rect)
        rows.append(tuple(_unpadded(p) for p in cur))
        prev = cur
    return GrowthDiagram(word, rows)


def promotion(row):
    """Second row of the diagram determined by ``row``, re-based.

    Acting on chains, this is the promotion operator on the row-strict
    tableaux that encode them; applying it n times is the identity.
    """
    return complete_from_row(row).rows[1]


def row_to_tableau(row):
    """Row-strict tableau encoding a chain: entry j sits in rows dif_j."""
    chain = [partition(p) for p in row]
    tableau = ([], [], [])
    for j, (a, b) in enumerate(zip(chain, chain[1:]), start=1):
        if not is_vertical_strip(a, b) or a == b:
            raise InvalidChain(f"step {a} -> {b} is not a vertical strip")
        for r in dif(b, a):
            tableau[r - 1].append(j)
    return tuple(tuple(r) for r in tableau)


def tableau_to_row(tableau):
    """Inverse of :func:`row_to_tableau`."""
    rows = [tuple(r) for r in tableau]
    if len(rows) != 3:
        raise InvalidChain("a tableau here has exactly 3 rows (possibly empty)")
    n = max((max(r) for r in rows if r), default=0)
    chain = [()]
    cur = [0, 0, 0]
    for j in range(1, n + 1):
        hit = [i for i in range(3) if j in rows[i]]
        if not hit:
            raise InvalidChain(f"entry {j} missing from the tableau")
        for i in hit:
            cur[i] += 1
        try:
            chain.append(partition(cur))
        except ValueError as exc:
            raise InvalidChain(str(exc)) from exc
    return tuple(chain)


def _vstrip_additions(p, size, cap):
    """Partitions gotten by adding ``size`` boxes, one per row, parts <= cap.

    Listed with the lexicographically smallest row set first.
    """
    base = _padded(p)
    out = []
    for rows in combinations((1, 2, 3), size):
        q = list(base)
        for r in rows:
            q[r - 1] += 1
        if q[0] <= cap and all(q[i] >= q[i + 1] for i in range(2)):
            out.append(partition(q))
    return out


def enumerate_diagrams(word):
    """All growth diagrams of the given type, in lexicographic chain order.

    The first rows are generated depth-first, always adding the
    lexicographically smallest vertical strip first, so the list order is
    reproducible component indexing.
    """
    w = parse_word(word)
    if not w:
        raise ValueError("empty type word")
    boxes = sum(w)
    if boxes % 3:
        return []
    k = boxes // 3
    target = partition((k, k, k))
    found = []

    def dfs(chain):
        j = len(chain) - 1
        if j == len(w):
            if chain[-1] == target:
                found.append(tuple(chain))
            return
        for q in _vstrip_additions(chain[-1], w[j], k):
            chain.append(q)
            dfs(chain)
            chain.pop()

    dfs([()])
    return [complete_from_row(c) for c in found]


def dim_inv(word):
    """Number of growth diagrams of the given type, counted independently.

    Dynamic program over dominant weights (p, q): a 1 tensors with the
    one-box Pieri moves, a 2 with the two-box ones; the answer is the
    number of walks from the zero weight back to itself.
    """
    w = parse_word(word)
    if not w:
        raise ValueError("empty type word")
    state = {(0, 0): 1}
    for letter in w:
        nxt = {}
        for (p, q), c in state.items():
            # a 2 acts as a 1 on the dual weight (q, p)
            a, b = (p, q) if letter == 1 else (q, p)
            for m in [(a + 1, b)] + [(a - 1, b + 1)] * (a > 0) + [(a, b - 1)] * (b > 0):
                m = m if letter == 1 else m[::-1]
                nxt[m] = nxt.get(m, 0) + c
        state = nxt
    return state.get((0, 0), 0)
