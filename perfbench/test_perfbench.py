"""Tests of the benchmark's own checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
check is fed one output that is correct and one that is corrupted, and
must reject only the corrupted one.
"""

import json
import os
import random
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import measure  # noqa: E402
import webjson  # noqa: E402
from sl3webs import reduce_web, web_from_json  # noqa: E402
from workloads import _capture  # noqa: E402


def web_json(edges, boundary, rotations=None):
    """JSON web from directed edges and counterclockwise edge ids per vertex."""
    n = 1 + max(max(e) for e in edges)
    rot = [[] for _ in range(n)]
    for e, (s, t) in enumerate(edges):
        rot[s].append(e)
        rot[t].append(e)
    for v, ids in (rotations or {}).items():
        rot[v] = ids
    return {
        "edges": [list(e) for e in edges],
        "rotations": [
            [[e, 0 if edges[e][0] == v else 1] for e in ids] for v, ids in enumerate(rot)
        ],
        "boundary": list(boundary),
        "free_loops": 0,
    }


STRAND = web_json([(0, 1)], (0, 1))
BIGON = web_json([(0, 2), (3, 2), (3, 2), (3, 1)], (0, 1), {2: [0, 2, 1], 3: [3, 1, 2]})
SQUARE = web_json(
    [(0, 4), (5, 1), (2, 6), (7, 3), (5, 4), (5, 6), (7, 6), (7, 4)],
    (0, 1, 2, 3),
    {4: [0, 4, 7], 5: [1, 5, 4], 6: [2, 6, 5], 7: [3, 7, 6]},
)


def wheel():
    """Hull complex of the octagon: ring 0..7 and centre 8."""
    edges = [(k, (k + 1) % 8) for k in range(8)] + [(k, 8) for k in range(8)]
    triangles = [(k, (k + 1) % 8, 8) for k in range(8)]
    return 9, [tuple(sorted(e)) for e in edges], [tuple(sorted(t)) for t in triangles]


def test_walk_count_matches_known_dimensions():
    assert [checks.walk_count(w) for w in ("12", "111", "1212", "121212", "12121212")] == [
        1, 1, 2, 6, 23
    ]


def test_sweep_check_rejects_a_square_face():
    rc, text = _capture(["webs", "1212"])
    assert checks.check_sweep_word("1212", rc, text) == []
    lines = text.splitlines()
    lines[0] = json.dumps(SQUARE)
    problems = checks.check_sweep_word("1212", rc, "\n".join(lines))
    assert problems and "internal faces with [4] sides" in problems[0]


def test_sweep_check_rejects_a_count_off_by_one():
    rc, text = _capture(["webs", "121212"])
    assert checks.check_sweep_word("121212", rc, text) == []
    short = "\n".join(text.splitlines()[:-1])
    assert checks.check_sweep_word("121212", rc, short) == [
        "5 webs, invariant dimension is 6"
    ]


def test_sweep_check_rejects_a_repeated_web():
    rc, text = _capture(["webs", "1212"])
    first = text.splitlines()[0]
    problems = checks.check_sweep_word("1212", rc, first + "\n" + first)
    assert problems == ["web 1 repeats web 0"]


def test_complex_check_rejects_a_dropped_edge():
    n, edges, triangles = wheel()
    ring = set(range(8))
    assert checks.check_complex((9, 16, 8), n, edges, triangles, ring) == []
    assert checks.check_octagon(n, edges, triangles, ring) == []
    dropped = edges[:-1]
    assert checks.check_complex((9, 16, 8), n, dropped, triangles, ring)
    assert checks.check_octagon(n, dropped, triangles, ring)


def test_reduction_check_rejects_a_flipped_sign():
    assert checks.check_reduction(BIGON, [{"coefficient": -2, "web": STRAND}]) == []
    assert checks.check_reduction(BIGON, [{"coefficient": 2, "web": STRAND}])
    rng = random.Random(5)
    grown = webjson.grow(SQUARE, rng, 3, 3)
    terms = reduce_web(web_from_json(grown)).to_json()
    assert checks.check_reduction(grown, terms) == []
    terms[0]["coefficient"] *= -1
    assert checks.check_reduction(grown, terms)


def test_reduction_check_rejects_an_elliptic_term():
    problems = checks.check_reduction(SQUARE, [{"coefficient": 1, "web": SQUARE}])
    assert problems == ["term 0: internal faces with [4] sides"]


def test_tait_sum_counts_closed_webs():
    theta = webjson.theta_web()
    assert webjson.tait_sum(theta, []) == 6
    assert checks.check_reduction(theta, [{"coefficient": -6, "web": web_json([(0, 1)], ())}])


def test_move_identities_reject_a_count_off_by_one():
    # the two webs of 1212: 4-gons, each reduced by one U-turn, no vertices
    assert checks.check_move_identities(2, 0, 0, [4, 4], 0) == []
    assert checks.check_move_identities(3, 0, 0, [4, 4], 0)
    assert checks.check_move_identities(2, 0, 1, [4, 4], 0)


class _Corrupting:
    """Stand-in workload whose second item always gives a wrong answer."""

    items = ["1212", "121212"]

    def fresh_inputs(self):
        return list(self.items)

    def run(self, word):
        rc, text = _capture(["webs", word])
        if word == "121212":
            text = "\n".join(text.splitlines()[1:])
        return rc, text

    def digest(self, out):
        return json.dumps(out)

    def check(self, i, out):
        return checks.check_sweep_word(self.items[i], *out)


def test_corrupted_output_counts_as_failed_in_every_round():
    runner = measure.Runner(_Corrupting())
    for _ in range(3):
        runner.round()
    assert runner.failures() == 3


def test_round_time_is_divided_by_the_mean_block_time(monkeypatch):
    blocks = iter([0.25, 0.75] + [0.5] * 100)
    monkeypatch.setattr(measure.calibrate, "block", lambda: next(blocks))
    monkeypatch.setattr(measure.calibrate, "WARMUP", 0)
    runner = measure.Runner(_Corrupting())
    ratio = runner.round()
    assert ratio == runner.times[0] / statistics.mean(runner.blocks)
    assert runner.blocks[:2] == [0.25, 0.75]


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload", ["combinatorial_sweep", "geometric_crossval", "hull_closure", "web_reduction"]
)
def test_traced_counts_repeat_across_runs(workload):
    from spans import EXACT, PER_LAYER

    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
