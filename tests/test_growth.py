import itertools

import pytest
from fixtures import OCTAGON_ROW1, OCTAGON_ROW2, OCTAGON_WORD

from sl3webs.errors import (
    InvalidChain,
    NotAPartitionAfterSort,
    NotVerticalStrip,
)
from sl3webs.growth import (
    GrowthDiagram,
    _padded,
    _unpadded,
    complement,
    complete_from_row,
    diagram_from_json,
    dif,
    dim_inv,
    enumerate_diagrams,
    is_vertical_strip,
    local_rule,
    parse_word,
    partition,
    partition_to_text,
    promotion,
    row_to_tableau,
    tableau_to_row,
)
from sl3webs.synthesis import reduce_to_base

# -- the checked sweep, kept as an oracle ---------------------------------------
#
# ``complete_from_row`` validates its first row and then sweeps with no
# checks.  This is the sweep that checked every square and every row closing,
# kept as written so the trusted one can be compared against it.


class SweepBroke(Exception):
    """Raised when the checked sweep meets a square or row it cannot close."""


def _dif3(a, b):
    d0, d1, d2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    lo, hi = min(d0, d1, d2), max(d0, d1, d2)
    if lo < -1 or hi > 1 or lo < 0 < hi:
        raise NotVerticalStrip(
            f"{_unpadded(a)} and {_unpadded(b)} do not differ by a vertical strip"
        )
    return frozenset(r for r, d in ((1, d0), (2, d1), (3, d2)) if d)


def _is_strip3(a, b):
    return 0 <= b[0] - a[0] <= 1 and 0 <= b[1] - a[1] <= 1 and 0 <= b[2] - a[2] <= 1


def _checked_local_rule3(g, g_below, g_right):
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


def _checked_first_row(first_row):
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


def checked_completion(first_row):
    row, word, k = _checked_first_row(first_row)
    n = len(word)
    rect = (k, k, k)
    rows = [tuple(row)]
    prev = [_padded(p) for p in row]
    for i in range(1, n + 1):
        cur = [(0, 0, 0)]
        for j in range(i + 1, i + n):
            try:
                cur.append(_checked_local_rule3(prev[j - i], cur[-1], prev[j - i + 1]))
            except (NotVerticalStrip, NotAPartitionAfterSort) as exc:
                raise SweepBroke(f"square ({i}, {j}): {exc}") from exc
        # the far end of every row is pinned to the rectangle; validate the
        # wrap step instead of computing it
        try:
            closing = _dif3(rect, cur[-1])
        except NotVerticalStrip as exc:
            raise SweepBroke(f"row {i + 1} does not close onto {rect}: {exc}")
        if len(closing) != word[i - 1]:
            raise SweepBroke(
                f"row {i + 1} closes with a {len(closing)}-box strip, "
                f"expected letter {word[i - 1]}"
            )
        cur.append(rect)
        rows.append(tuple(_unpadded(p) for p in cur))
        prev = cur
    return GrowthDiagram(word, rows)


def same_diagram(d, e):
    return d.rows == e.rows and d.word == e.word


def words_up_to(max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product((1, 2), repeat=n)


def test_partition_normalization():
    assert partition((1, 0, 0)) == (1,)
    assert partition(()) == ()
    assert partition((4, 4, 4)) == (4, 4, 4)
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((1, 1, 1, 1))
    with pytest.raises(ValueError):
        partition((2, -1))


def test_partition_text():
    assert partition_to_text(()) == "∅"
    assert partition_to_text((4, 3, 3)) == "433"
    assert partition_to_text((12, 1)) == "(12,1)"


def test_parse_word():
    assert parse_word("1212") == (1, 2, 1, 2)
    assert parse_word(" 12 1\t2\n") == (1, 2, 1, 2)
    assert parse_word((1, 2)) == (1, 2)
    assert parse_word([2, 2, 2]) == (2, 2, 2)
    assert parse_word(["1", 2]) == (1, 2)
    # only the characters 1/2 and the ints 1/2: no other digits, numbers or types
    bad_words = (
        ("103", "12x", "١٢١٢١٢", "１２", "+1")
        + ((1.9, 2), (1.0, 2), (True, 2), (1, "12"), (1, [2]), (3,))
    )
    for bad in bad_words:
        with pytest.raises(ValueError, match="type word may only contain 1 and 2"):
            parse_word(bad)


def test_dif_examples():
    assert dif((2, 1, 0), (1, 1, 0)) == {1}
    assert dif((4, 3, 3), (4, 4, 4)) == {2, 3}
    assert dif((1, 1, 0), (1, 1, 0)) == set()
    with pytest.raises(NotVerticalStrip):
        dif((3,), (1,))
    with pytest.raises(NotVerticalStrip):
        dif((2,), (1, 1))


def test_vertical_strips():
    assert is_vertical_strip((), (1, 1))
    assert is_vertical_strip((2, 1), (2, 2))
    assert not is_vertical_strip((1,), (3, 1))
    assert not is_vertical_strip((1, 1), (1,))


def test_local_rule_examples():
    assert local_rule((1,), (), (2, 1)) == (1, 1)
    assert local_rule((2, 2), (2, 1), (3, 2, 1)) == (3, 1, 1)
    # no change when the left column is constant
    assert local_rule((2, 1), (2, 1), (2, 2)) == (2, 2)
    with pytest.raises(NotAPartitionAfterSort):
        local_rule((1,), (), ())


def test_local_rule_requires_g_below_inside_g():
    # the documented precondition: g_below is inside g by a vertical strip
    with pytest.raises(NotVerticalStrip):
        local_rule((1,), (1, 1), (2, 1))
    with pytest.raises(NotVerticalStrip):
        local_rule((2,), (), (2, 1))
    with pytest.raises(NotVerticalStrip):
        local_rule((2, 1), (1, 1, 1), (2, 2, 1))


def test_trusted_sweep_matches_the_checked_one():
    """Every valid first row of every word up to length 8: 2,584 diagrams."""
    count = 0
    for word in words_up_to(8):
        for d in enumerate_diagrams(word):
            oracle = checked_completion(d.first_row)
            assert same_diagram(d, oracle) and same_diagram(complete_from_row(d.first_row), oracle)
            count += 1
    assert count == 2584


#: Moves ``reduce_to_base`` makes over every diagram of every word up to length 8.
MOVES_UP_TO_8 = 11340


def test_every_move_output_matches_the_checked_sweep():
    """Each diagram a move produces inside ``reduce_to_base`` is the checked
    completion of its own first row."""
    moves = 0
    for word in words_up_to(8):
        for d in enumerate_diagrams(word):
            base, log = reduce_to_base(d)
            for after in (log.states + (base,))[1:]:
                assert same_diagram(after, checked_completion(after.first_row))
                moves += 1
    assert moves == MOVES_UP_TO_8


def test_octagon_diagram():
    d = complete_from_row(OCTAGON_ROW1)
    assert d.word == OCTAGON_WORD
    assert d.rows[0] == OCTAGON_ROW1
    assert d.rows[1] == OCTAGON_ROW2
    # the octagon's rows repeat with period two
    for i in range(8):
        assert d.rows[i] == d.rows[i % 2]
    assert d.rectangle == (4, 4, 4)
    assert d.entry(3, 5) == d.rows[2][2]
    assert d.entry(11, 13) == d.entry(3, 5)


def test_octagon_rebase_and_promotion():
    d = complete_from_row(OCTAGON_ROW1)
    assert d.rebase(2).first_row == OCTAGON_ROW2
    assert d.rebase(9) == d
    assert promotion(OCTAGON_ROW1) == OCTAGON_ROW2
    row = OCTAGON_ROW1
    for _ in range(8):
        row = promotion(row)
    assert row == OCTAGON_ROW1


def test_invalid_rows():
    with pytest.raises(InvalidChain):
        complete_from_row([(), (2,)])  # horizontal pair of boxes
    with pytest.raises(InvalidChain):
        complete_from_row([(1,), (1, 1)])  # does not start empty
    with pytest.raises(InvalidChain):
        complete_from_row([(), (1,)])  # does not end at a rectangle
    with pytest.raises(InvalidChain):
        complete_from_row([()])
    with pytest.raises(InvalidChain):
        complete_from_row([(), (1, 1, 1), (1, 1, 1)])  # empty step


def test_triangle_type_111():
    row = ((), (1,), (1, 1), (1, 1, 1))
    d = complete_from_row(row)
    assert promotion(row) == row
    assert enumerate_diagrams("111") == [d]
    assert dim_inv("111") == 1


def test_octagon_tableau_roundtrip():
    t = row_to_tableau(OCTAGON_ROW1)
    assert t == ((1, 2, 4, 6), (2, 3, 5, 8), (4, 6, 7, 8))
    assert tableau_to_row(t) == OCTAGON_ROW1
    # row-strict: strictly increasing along rows
    for r in t:
        assert all(a < b for a, b in zip(r, r[1:]))


def test_tableau_roundtrip_random_words():
    for word in ("1212", "121212", "111222", "2211"):
        for d in enumerate_diagrams(word):
            assert tableau_to_row(row_to_tableau(d.first_row)) == d.first_row


def test_tableau_to_row_rejects_garbage():
    with pytest.raises(InvalidChain):
        tableau_to_row(((1,), (3,), ()))  # entry 2 missing
    with pytest.raises(InvalidChain):
        tableau_to_row(((2,), (), (1,)))  # box in row 3 before rows above
    with pytest.raises(InvalidChain):
        tableau_to_row(((1,), (1,)))


def test_enumerate_1212():
    ds = enumerate_diagrams("1212")
    assert len(ds) == 2
    assert dim_inv("1212") == 2
    # lexicographic strip order puts the (2,1) chain first
    assert ds[0].first_row == ((), (1,), (2, 1), (2, 1, 1), (2, 2, 2))
    assert ds[1].first_row == ((), (1,), (1, 1, 1), (2, 1, 1), (2, 2, 2))


def test_enumerate_degenerate_words():
    assert enumerate_diagrams("11") == []
    assert enumerate_diagrams("1") == []
    ds = enumerate_diagrams("12")
    assert len(ds) == 1
    assert ds[0].first_row == ((), (1,), (1, 1, 1))
    assert dim_inv("12") == 1
    assert dim_inv("21") == 1
    assert dim_inv("11") == 0
    with pytest.raises(ValueError):
        dim_inv("")
    with pytest.raises(ValueError):
        enumerate_diagrams("")


def test_dim_matches_enumeration_short_words():
    for n in range(1, 7):
        for word in itertools.product("12", repeat=n):
            w = "".join(word)
            assert len(enumerate_diagrams(w)) == dim_inv(w), w


def test_monotone_difs():
    order1 = [{1}, {2}, {3}]
    order2 = [{1, 2}, {1, 3}, {2, 3}]
    for word in ("12121212", "111222", "121212"):
        for d in enumerate_diagrams(word):
            n = d.n
            for i in range(1, n + 1):
                letter = d.word[i - 1]
                order = order1 if letter == 1 else order2
                difs = [
                    dif(d.entry(i, j), d.entry(i + 1, j))
                    for j in range(i + 1, i + n + 1)
                ]
                ranks = [order.index(set(s)) for s in difs]
                assert all(len(s) == letter for s in difs)
                assert ranks == sorted(ranks)


def test_complement_symmetry_enumerated():
    """Periodicity, complement symmetry and rebasing on every diagram of
    every word up to length 7.  The reference for ``rebase`` is a fresh
    completion of the rebased first row."""
    for n in range(1, 8):
        for word in itertools.product((1, 2), repeat=n):
            for d in enumerate_diagrams(word):
                k = d.rectangle[0]
                assert d.rows[n] == d.rows[0]
                for i in range(1, n + 1):
                    for j in range(i, i + n + 1):
                        assert d.entry(j, i + n) == complement(d.entry(i, j), k)
                    based = d.rebase(i)
                    fresh = complete_from_row(based.first_row)
                    assert based == fresh and based.word == fresh.word


def test_json_and_text():
    d = complete_from_row(OCTAGON_ROW1)
    blob = d.to_json()
    assert blob["word"] == "12121212"
    assert diagram_from_json(blob) == d
    with pytest.raises(InvalidChain):
        diagram_from_json({"word": "11111111", "first_row": blob["first_row"]})
    text = d.to_text()
    assert text.splitlines()[0].startswith("∅, 1, 21, 22, 321")
    assert len(text.splitlines()) == 9
