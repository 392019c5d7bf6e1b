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

from .errors import InvalidChain, MalformedJSON, NotAPartitionAfterSort, NotVerticalStrip
from .errors import json_fields

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


def _is_strip3(a, b):
    return 0 <= b[0] - a[0] <= 1 and 0 <= b[1] - a[1] <= 1 and 0 <= b[2] - a[2] <= 1


def _local_rule3(g, g_below, g_right):
    """:func:`local_rule` on padded partitions, returning a padded one, for
    ``g_below`` inside ``g`` by a vertical strip; nothing is checked."""
    a = g_right[0] - g[0] + g_below[0]
    b = g_right[1] - g[1] + g_below[1]
    c = g_right[2] - g[2] + g_below[2]
    return tuple(sorted((a, b, c), reverse=True))


def is_vertical_strip(inner, outer):
    """True when outer/inner adds at most one box to each row."""
    return _is_strip3(_padded(partition(inner)), _padded(partition(outer)))


def dif(a, b):
    """Set of row indices (1-based) where two nested partitions differ.

    One argument must contain the other, with at most one box of difference
    per row; otherwise :class:`NotVerticalStrip` is raised.
    """
    a, b = _padded(partition(a)), _padded(partition(b))
    if not (_is_strip3(a, b) or _is_strip3(b, a)):
        raise NotVerticalStrip(
            f"{_unpadded(a)} and {_unpadded(b)} do not differ by a vertical strip"
        )
    return frozenset(r for r in (1, 2, 3) if a[r - 1] != b[r - 1])


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
    - ``g_below`` -- gamma_{i+1,j}, inside ``g`` by a vertical strip
    - ``g_right`` -- gamma_{i,j+1}, containing ``g``

    OUTPUT: gamma_{i+1,j+1}, obtained by subtracting one box from
    ``g_right`` in every row where ``g`` and ``g_below`` differ, then
    sorting.  Raises :class:`NotVerticalStrip` when ``g_below`` is not
    inside ``g`` by a vertical strip, and :class:`NotAPartitionAfterSort`
    when the result fails to extend the two chains through the square.
    """
    g, g_below, g_right = (_padded(partition(q)) for q in (g, g_below, g_right))
    if not _is_strip3(g_below, g):
        raise NotVerticalStrip(
            f"{_unpadded(g_below)} is not inside {_unpadded(g)} by a vertical strip"
        )
    out = _local_rule3(g, g_below, g_right)
    # g_below has no negative part, so this also rejects one in out
    if not (_is_strip3(g_below, out) and _is_strip3(out, g_right)):
        raise NotAPartitionAfterSort(f"{list(out)} does not extend the chains through the square")
    return _unpadded(out)


class GrowthDiagram:
    """Completed cylindrical growth diagram.

    ``rows`` holds n+1 tuples; row i (1-based) lists gamma_{i,i..i+n}, and
    row n+1 is row 1, since promotion has order n.  Build through
    :func:`complete_from_row`, which validates the first row.
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
    if not all(isinstance(p, list) and all(type(x) is int for x in p) for p in first_row):
        raise MalformedJSON("growth diagram field 'first_row' must hold lists of integers")
    d = complete_from_row(first_row)
    if d.word != parse_word(text):
        raise InvalidChain(f"first row has type {''.join(map(str, d.word))}, not {text}")
    return d


def _validate_first_row(first_row):
    """The canonical first row, or :class:`InvalidChain` when it is not a
    chain of 1- and 2-box vertical strips from the empty partition to a
    rectangle."""
    row = [partition(p) for p in first_row]
    if len(row) < 2:
        raise InvalidChain("a growth diagram needs at least one step")
    if row[0] != ():
        raise InvalidChain("first entry must be the empty partition")
    for a, b in zip(row, row[1:]):
        if not is_vertical_strip(a, b) or sum(b) - sum(a) not in (1, 2):
            raise InvalidChain(f"step {a} -> {b} is not a 1- or 2-box vertical strip")
    last = _padded(row[-1])
    if not last[0] == last[1] == last[2]:
        raise InvalidChain(f"final entry {row[-1]} is not a rectangle")
    return row


def complete_from_row(first_row):
    """Validate one row and complete the growth diagram it determines.

    INPUT:

    - ``first_row`` -- chain of n+1 partitions from the empty partition to
      a rectangle, each step a vertical strip of one or two boxes

    OUTPUT: the :class:`GrowthDiagram` with that first row.  Raises
    :class:`InvalidChain` for a malformed row; nothing else can fail, since
    promotion maps every such chain to another one.
    """
    return _complete(_validate_first_row(first_row))


def _complete(row):
    """Growth diagram of a canonical first row the library built itself.

    Each square's ``g_below`` lies inside its ``g`` by a vertical strip, and
    the far end of every row is the rectangle, so nothing is checked.  Rows
    2..n are swept; row n+1 is row 1, since promotion has order n.
    """
    word = tuple(sum(b) - sum(a) for a, b in zip(row, row[1:]))
    n = len(word)
    rect = _padded(row[-1])
    rows = [tuple(row)]
    prev = [_padded(p) for p in row]
    for i in range(1, n):
        cur = [(0, 0, 0)]
        for j in range(i + 1, i + n):
            cur.append(_local_rule3(prev[j - i], cur[-1], prev[j - i + 1]))
        cur.append(rect)
        rows.append(tuple(_unpadded(p) for p in cur))
        prev = cur
    rows.append(rows[0])
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
            out.append(_unpadded(tuple(q)))
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
    return [_complete(c) for c in found]


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
