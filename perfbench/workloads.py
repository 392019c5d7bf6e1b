"""The four workloads: their inputs, their timed calls and their checks.

A workload builds its inputs from the seed once, in set-up.  Each round
then gets fresh input objects from ``fresh_inputs`` (untimed), runs
``run`` on every item (timed), and keeps what ``digest`` makes of each
output.  ``check`` tests one output with the checks in ``checks``.
"""

import contextlib
import io
import itertools
import json
import os
import random

import sl3webs
from sl3webs import QQ, LaurentScalar, cli
from sl3webs.cli import derived_rng

import checks
import webjson

# combinatorial_sweep: every type word up to this length (126 words, 176
# components); ROADMAP's E1 is the same sweep at length 8
SWEEP_CAP = 6
# geometric_crossval: every word up to this length (16 components) plus the
# three 8-gons of acceptance criterion 6; ROADMAP's E2 runs length 6
CROSSVAL_CAP = 4
CROSSVAL_OCTAGONS = (("12121212", 8), ("12121212", 0), ("11221122", 0))
# hull_closure: the octagon plus every component of this word, over QQ
HULL_WORD = "121212"
# web_reduction: open webs grown from the basis webs of these words, and
# closed webs grown from the theta web
REDUCTION_WORDS = ("121212", "111222", "112122")
REDUCTION_OPEN = (400, 5, 3)  # (webs, squares and bigons inserted per web)
REDUCTION_CLOSED = (100, 4, 3)

# The octagon of the paper: columns of generators of its eight lattices,
# each column given as {row: exponent of t} with coefficient 1.
OCTAGON = (
    ({0: 0}, {1: 0}, {2: 0}),
    ({0: -1}, {1: 0}, {2: 0}),
    ({0: -2}, {1: -1}, {2: 0}),
    ({0: -2}, {1: -2}, {2: 0}),
    ({0: -1}, {1: -2}, {2: 0}),
    ({0: -1}, {1: -2}, {0: -2, 2: -1}),
    ({0: -1}, {1: -1}, {0: -2, 1: -2, 2: -1}),
    ({0: -1, 1: -1}, {1: 0}, {2: 0}),
)
# first row of the octagon's growth diagram, type 12121212
OCTAGON_ROW = (
    (), (1,), (2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 4),
)


def all_words(cap):
    return [
        "".join(w) for n in range(1, cap + 1) for w in itertools.product("12", repeat=n)
    ]


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


class CombinatorialSweep:
    """``sl3webs webs WORD`` in-process for every word up to ``SWEEP_CAP``,
    in an order shuffled by the seed."""

    def __init__(self, seed, workdir):
        self.items = all_words(SWEEP_CAP)
        random.Random(seed).shuffle(self.items)

    def fresh_inputs(self):
        return list(self.items)

    def run(self, word):
        return _capture(["webs", word])

    def digest(self, out):
        return json.dumps(out)

    def check(self, i, out):
        return checks.check_sweep_word(self.items[i], *out)

    def shape(self, outputs):
        """Polygon lengths of all components, and the interior vertices of
        all their webs, read off the JSON output."""
        lengths = []
        interior = 0
        for word, (_rc, text) in zip(self.items, outputs):
            for line in text.splitlines():
                lengths.append(len(word))
                interior += webjson.interior_vertices(json.loads(line))
        return lengths, interior


class GeometricCrossval:
    """The steps of ``cross_validate`` on every component up to
    ``CROSSVAL_CAP`` and on three 8-gons, over GF(10007), each drawing from
    the stream ``sl3webs verify --geometric --seed SEED`` uses."""

    def __init__(self, seed, workdir):
        self.seed = seed
        words = all_words(CROSSVAL_CAP)
        eights = sorted({w for w, _k in CROSSVAL_OCTAGONS})
        found = {w: sl3webs.enumerate_diagrams(w) for w in words + eights}
        self.items = [(w, k) for w in words for k in range(len(found[w]))]
        self.items += CROSSVAL_OCTAGONS
        self.rows = [found[w][k].first_row for w, k in self.items]

    def fresh_inputs(self):
        return [
            (w, k, sl3webs.complete_from_row(row)) for (w, k), row in zip(self.items, self.rows)
        ]

    def run(self, item):
        word, k, d = item
        poly = sl3webs.realize_polygon(d, derived_rng(self.seed, "verify", word, k))
        disk = sl3webs.diskoid_from_diagram(d)
        cx = sl3webs.induced_complex(sl3webs.path_hull_fastpath(list(poly.classes)))
        return poly.classes, disk, cx

    def digest(self, out):
        classes, disk, cx = out
        return json.dumps(
            [[sl3webs.lattice_to_json(c.basis) for c in classes], cx.to_json(),
             sorted(disk.triangles), disk.n_vertices],
            sort_keys=True,
        )

    def check(self, i, out):
        classes, disk, cx = out
        index = {v: j for j, v in enumerate(cx.vertices)}
        missing = [c for c in classes if c not in index]
        if missing:
            return [f"{len(missing)} polygon vertices are not hull vertices"]
        expected = (disk.n_vertices, len(disk.edges), len(disk.triangles))
        polygon = {index[c] for c in classes}
        return checks.check_complex(
            expected, len(cx.vertices), sorted(cx.edges), sorted(cx.triangles), polygon
        )


class HullClosure:
    """``sl3webs hull --conv FILE`` in-process on the paper's octagon and on
    every component of ``HULL_WORD`` realized over QQ with the stream
    ``sl3webs realize --field Q --seed SEED`` uses."""

    def __init__(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        polygons = [([_octagon_lattice(cols) for cols in OCTAGON], OCTAGON_ROW)]
        for k, d in enumerate(sl3webs.enumerate_diagrams(HULL_WORD)):
            rng = derived_rng(seed, "realize", HULL_WORD, k)
            poly = sl3webs.realize_polygon(d, rng, field=QQ)
            lattices = [sl3webs.lattice_to_json(c.basis) for c in poly.classes]
            polygons.append((lattices, d.first_row))
        self.items = []
        self.polygons = []
        self.rows = []
        for i, (lattices, row) in enumerate(polygons):
            path = os.path.join(workdir, f"polygon_{i}.json")
            with open(path, "w") as handle:
                json.dump(lattices, handle)
            self.items.append(path)
            self.polygons.append({json.dumps(x, sort_keys=True) for x in lattices})
            self.rows.append(row)

    def fresh_inputs(self):
        return list(self.items)

    def run(self, path):
        return _capture(["hull", "--conv", path])

    def digest(self, out):
        return json.dumps(out)

    def check(self, i, out):
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        cx = json.loads(text)
        keys = [json.dumps(x, sort_keys=True) for x in cx["vertices"]]
        polygon = {j for j, key in enumerate(keys) if key in self.polygons[i]}
        if len(polygon) != len(self.polygons[i]):
            return [f"{len(polygon)} of {len(self.polygons[i])} polygon vertices in the hull"]
        disk = sl3webs.diskoid_from_diagram(sl3webs.complete_from_row(self.rows[i]))
        expected = (disk.n_vertices, len(disk.edges), len(disk.triangles))
        args = (len(keys), cx["edges"], cx["triangles"], polygon)
        problems = checks.check_complex(expected, *args)
        if i == 0:
            problems += checks.check_octagon(*args)
        return problems


def _octagon_lattice(columns):
    cols = [
        [LaurentScalar(QQ, {col[r]: 1} if r in col else {}) for r in range(3)]
        for col in columns
    ]
    return sl3webs.lattice_to_json(sl3webs.class_from_generators(cols, QQ).basis)


class WebReduction:
    """``reduce_web`` on elliptic webs grown from the seed: open ones from
    basis webs of ``REDUCTION_WORDS``, closed ones from the theta web, by
    inserting bigons and squares."""

    def __init__(self, seed, workdir):
        rng = random.Random(f"web_reduction:{seed}")
        bases = [
            sl3webs.web_to_json(w) for word in REDUCTION_WORDS for w in sl3webs.basis_webs(word)
        ]
        n_open, *grow_open = REDUCTION_OPEN
        n_closed, *grow_closed = REDUCTION_CLOSED
        self.items = [
            webjson.grow(bases[rng.randrange(len(bases))], rng, *grow_open)
            for _ in range(n_open)
        ] + [webjson.grow(webjson.theta_web(), rng, *grow_closed) for _ in range(n_closed)]

    def fresh_inputs(self):
        return [sl3webs.web_from_json(w) for w in self.items]

    def run(self, web):
        return sl3webs.reduce_web(web)

    def digest(self, out):
        return json.dumps(out.to_json(), sort_keys=True)

    def check(self, i, out):
        return checks.check_reduction(self.items[i], out.to_json())


WORKLOADS = {
    "combinatorial_sweep": CombinatorialSweep,
    "geometric_crossval": GeometricCrossval,
    "hull_closure": HullClosure,
    "web_reduction": WebReduction,
}
