import ast
import contextlib
import copy
import hashlib
import importlib
import inspect
import io
import itertools
import json
import pathlib
import pkgutil
import random
import sys
import time

import pytest
from fixtures import (
    octagon_classes,
    record_pair_work,
    square_web,
    theta_web,
    unorientable_diskoid_docs,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from webgen import reduction_corpus

import sl3webs
from sl3webs.building import distance, lattice_to_json
from sl3webs.cli import derived_rng, run
from sl3webs.growth import diagram_from_json, enumerate_diagrams
from sl3webs.series import DEFAULT_PRIME, GF, MAX_JSON_EXPONENT
from sl3webs.synthesis import cross_validate, diskoid_from_diagram
from sl3webs.webs import (
    MAX_FREE_LOOPS,
    diskoid_to_json,
    dualize,
    iso,
    reduce_web,
    web_from_json,
    web_to_json,
)


def invoke(capsys, *argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = run(list(argv))
        finally:
            sys.stdin = old
    else:
        code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def octagon_polygon_file(tmp_path):
    classes = octagon_classes()
    blob = [lattice_to_json(classes[i].basis) for i in range(1, 9)]
    path = tmp_path / "octagon.json"
    path.write_text(json.dumps(blob))
    return str(path)


def test_dim_matches_diagram_count(capsys):
    for word in ("12", "1212", "121212", "112212"):
        code, out, err = invoke(capsys, "dim", word)
        assert code == 0 and err == ""
        code2, out2, err2 = invoke(capsys, "diagrams", word, "--count")
        assert code2 == 0
        assert out == out2


def test_dim_empty_invariant_space(capsys):
    code, out, err = invoke(capsys, "dim", "11")
    assert code == 0
    assert out == "0\n"


def test_bad_word_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "dim", "13")
    assert code == 1
    assert "1 and 2" in err
    for argv in (("dim", "١٢١٢١٢"), ("verify", "12x"), ("diagrams", "1.2")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: type word may only contain 1 and 2, got {argv[1]!r}\n"


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def basis_web_with_flag(flag):
    """A basis web of 121212 whose first rotation record carries ``flag``;
    ``None`` flips the record's true flag."""
    d = enumerate_diagrams((1, 2, 1, 2, 1, 2))[0]
    doc = web_to_json(dualize(diskoid_from_diagram(d)))
    record = next(r for r in doc["rotations"] if r)[0]
    record[1] = 1 - record[1] if flag is None else flag
    return doc


def standard_lattice(field, one, e=0):
    """The standard lattice as JSON, with ``one * t^e`` on the diagonal."""
    diagonal = [[[{"e": e, "c": one}] if i == j else [] for i in range(3)] for j in range(3)]
    return {**field, "columns": diagonal}


Q_FIELD = {"field": "Q"}
F7_FIELD = {"field": "Fp", "p": 7}


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (("hull", "-", "--conv"), [{"field": "Q"}], "'columns'"),
        (("hull", "-", "--conv"), [{"field": "Q", "columns": [[1, 2, 3]] * 3}], "'columns'"),
        (("hull", "-", "--min"), [1], "lattice"),
        (("distance", "-", "0", "0"), [1], "lattice"),
        (("reduce", "-"), {"edges": [[0, 1]], "rotations": [[[0, 0]]], "boundary": [0, 1]},
         "'edges'"),
        (("reduce", "-"),
         {"edges": [[0, 1]], "rotations": [[[5, 0]], [[0, 1]]], "boundary": [0, 1]},
         "'rotations'"),
        (("dualize", "-"), {"n_vertices": 2}, "'arrows'"),
        (("promote", "-"), [1], "growth diagram"),
        (("reduce", "-"), basis_web_with_flag(None), "'rotations'"),
        (("reduce", "-"), basis_web_with_flag(7), "'rotations'"),
        # a theta whose rotations agree at both vertices: one face, genus 1
        (("reduce", "-"),
         {"edges": [[0, 1]] * 3, "rotations": [[[e, f] for e in range(3)] for f in (0, 1)],
          "boundary": []},
         "not planar"),
        (("hull", "-", "--conv"), [standard_lattice(Q_FIELD, "1", e=0.5)], "'e'"),
        (("hull", "-", "--conv"), [standard_lattice(F7_FIELD, 1.5)], "F_p coefficient"),
        (("hull", "-", "--conv"), [standard_lattice(F7_FIELD, True)], "F_p coefficient"),
        (("distance", "-", "0", "1"),
         [standard_lattice(Q_FIELD, "1"), standard_lattice(F7_FIELD, 1)], "share one field"),
        (("hull", "-", "--conv"), [standard_lattice(Q_FIELD, True)], "Q coefficient"),
        (("hull", "-", "--conv"), [standard_lattice(Q_FIELD, 0.5)], "Q coefficient"),
        (("hull", "-", "--conv"), [standard_lattice(Q_FIELD, 0.001)], "Q coefficient"),
    ],
)
def test_malformed_json_is_a_domain_error(capsys, argv, doc, field):
    code, out, err = invoke(capsys, *argv, stdin=json.dumps(doc))
    assert code == 1 and out == ""
    assert err.startswith("error:") and field in err


FILE_COMMANDS = [
    ("dualize", "FILE"),
    ("reduce", "FILE"),
    ("promote", "FILE"),
    ("distance", "FILE", "0", "1"),
    ("hull", "FILE", "--conv"),
]


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_file_is_a_domain_error(capsys, tmp_path, argv, kind):
    path = str(tmp_path / "missing.json" if kind == "missing" else tmp_path)
    code, out, err = invoke(capsys, *(path if a == "FILE" else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and path in err


def test_webs_out_onto_a_regular_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = invoke(capsys, "webs", "12", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err


def _corruption_targets():
    """Valid documents of every JSON reader, each with a command that reads it."""
    octagon = enumerate_diagrams((1, 2) * 4)[8]
    disk = diskoid_from_diagram(octagon)
    polygon_q = [x.to_json() for x in list(octagon_classes().values())[:4]]
    polygon_f7 = [x.to_json() for x in list(octagon_classes(GF(7)).values())[4:]]
    return [
        (("distance", "-", "0", "3"), polygon_q),
        (("hull", "-", "--conv"), polygon_q),
        (("hull", "-", "--min"), polygon_f7),
        (("hull", "-", "--max"), polygon_f7),
        (("reduce", "-"), web_to_json(dualize(disk))),
        (("dualize", "-"), diskoid_to_json(disk)),
        (("promote", "-"), octagon.to_json()),
    ]


# Small integers keep most corrupt documents readable.  A huge one can land
# on an exponent, ``free_loops``, ``n_vertices`` or a modulus, whose bounds
# refuse it at once; anywhere else it must be refused or read quickly.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-8, 8)
    | st.sampled_from([10**6, 10**30, -(10**30)])
    | st.sampled_from([0.5, -2.0, 1e300])
    | st.sampled_from(["", "0", "1", "-3/4", "x", "Q", "Fp"])
)
JSON_KEYS = st.sampled_from(
    ["e", "c", "field", "p", "columns", "edges", "rotations", "boundary", "free_loops",
     "n_vertices", "arrows", "triangles", "boundary_walk", "word", "first_row"]
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=6,
)


def _positions(doc, path=()):
    """Paths to every value inside a JSON document, the root excluded."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


def _corrupt(doc, data):
    """``doc`` with one to three values replaced, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_positions(doc))
        if not paths:
            break
        *path, key = data.draw(st.sampled_from(paths))
        parent = doc
        for k in path:
            parent = parent[k]
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[data.draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
    return doc


CORRUPTION_TARGETS = _corruption_targets()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(target=st.sampled_from(CORRUPTION_TARGETS), data=st.data())
def test_corrupt_json_never_escapes_the_cli(target, data):
    argv, doc = target
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(json.dumps(_corrupt(doc, data)))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = old
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error: ")


def test_library_has_no_assert():
    """Internal invariants raise a named error: ``assert`` vanishes under -O
    and an ``AssertionError`` escapes the CLI's exit-code mapping."""
    for path in sorted(pathlib.Path(sl3webs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Name):
                assert node.id != "AssertionError", f"{path.name}:{node.lineno}"


def test_library_has_no_unused_import():
    """Every name a module of the library imports is read in it, or listed in
    its ``__all__``."""
    for path in sorted(pathlib.Path(sl3webs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name}: unused imports {unused}"


def test_every_function_the_tracer_wraps_exists():
    """Each ``module.function`` that ``perfbench/spans.py`` measures is an
    attribute of ``sl3webs.<module>``, so ``--trace 1`` wraps every one."""
    spans = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"
    measured = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MEASURED"]
    )
    assert len(measured) > 30
    for target in measured:
        module, _, name = target.partition(".")
        assert hasattr(importlib.import_module(f"sl3webs.{module}"), name), target


def test_every_cache_with_arguments_is_bounded():
    """A ``functools`` cache whose function takes arguments has a finite
    ``maxsize``; one that takes none holds a single entry."""
    bounded = set()
    for info in pkgutil.iter_modules(sl3webs.__path__):
        mod = importlib.import_module(f"sl3webs.{info.name}")
        for name, value in vars(mod).items():
            if hasattr(value, "cache_parameters") and inspect.signature(value).parameters:
                assert value.cache_parameters()["maxsize"] is not None, f"{mod.__name__}.{name}"
                bounded.add(name)
    assert {"_pair_cached", "dual"} <= bounded


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_diagrams_stream_round_trips(capsys):
    code, out, err = invoke(capsys, "diagrams", "1212")
    assert code == 0
    parsed = [diagram_from_json(json.loads(line)) for line in out.splitlines()]
    assert parsed == enumerate_diagrams((1, 2, 1, 2))


def test_webs_json_round_trips_isomorphically(capsys):
    code, out, err = invoke(capsys, "webs", "121212")
    assert code == 0
    lines = out.splitlines()
    expected = [
        dualize(diskoid_from_diagram(d)) for d in enumerate_diagrams((1, 2, 1, 2, 1, 2))
    ]
    assert len(lines) == len(expected)
    for line, web in zip(lines, expected):
        assert iso(web_from_json(json.loads(line)), web)


def test_webs_other_formats(capsys):
    code, out, err = invoke(capsys, "webs", "12", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, err = invoke(capsys, "webs", "12", "--format", "tikz")
    assert code == 0
    assert out.startswith("\\begin{tikzpicture}")


def test_webs_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "basis"
    code, out, err = invoke(capsys, "webs", "121212", "--out", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"web_{i:04d}.json" for i in range(6)]
    for p in sorted(out_dir.iterdir()):
        web_from_json(json.loads(p.read_text()))


def test_dualize_from_file_and_stdin(capsys, tmp_path):
    disk = diskoid_from_diagram(enumerate_diagrams((2, 1))[0])
    blob = json.dumps(diskoid_to_json(disk))
    path = tmp_path / "disk.json"
    path.write_text(blob)
    code, out, err = invoke(capsys, "dualize", str(path))
    assert code == 0
    assert iso(web_from_json(json.loads(out)), dualize(disk))
    code2, out2, err2 = invoke(capsys, "dualize", "-", stdin=blob)
    assert (code2, out2) == (code, out)


def test_reduce_theta_gives_minus_six_empty(capsys):
    blob = json.dumps(web_to_json(theta_web()))
    code, out, err = invoke(capsys, "reduce", "-", stdin=blob)
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 1
    assert terms[0]["coefficient"] == -6
    assert terms[0]["web"]["edges"] == []


def test_reduce_square_gives_two_unit_terms(capsys):
    blob = json.dumps(web_to_json(square_web()))
    code, out, err = invoke(capsys, "reduce", "-", stdin=blob)
    assert code == 0
    assert [t["coefficient"] for t in json.loads(out)["terms"]] == [1, 1]


def test_promote_has_the_word_length_as_order(capsys):
    start = json.dumps(enumerate_diagrams((1, 2, 1, 2))[1].to_json())
    cur = start
    seen = []
    for _ in range(4):
        code, cur, err = invoke(capsys, "promote", "-", stdin=cur)
        assert code == 0
        seen.append(cur)
    assert json.loads(cur) == json.loads(start)
    assert json.loads(seen[0]) != json.loads(start)


def test_distance_on_the_octagon(capsys, tmp_path):
    path = octagon_polygon_file(tmp_path)
    code, out, err = invoke(capsys, "distance", path, "0", "1")
    assert code == 0
    assert json.loads(out) == [1, 0, 0]
    classes = octagon_classes()
    code, out, err = invoke(capsys, "distance", path, "2", "6")
    assert code == 0
    assert json.loads(out) == list(distance(classes[3], classes[7]))


def test_distance_index_out_of_range(capsys, tmp_path):
    path = octagon_polygon_file(tmp_path)
    code, out, err = invoke(capsys, "distance", path, "0", "8")
    assert code == 1
    assert "out of range" in err


def test_hull_kinds_on_the_octagon(capsys, tmp_path):
    path = octagon_polygon_file(tmp_path)
    code, out, err = invoke(capsys, "hull", "--conv", path)
    assert code == 0
    cx = json.loads(out)
    assert (len(cx["vertices"]), len(cx["edges"]), len(cx["triangles"])) == (9, 16, 8)
    for flag in ("--min", "--max"):
        code, out, err = invoke(capsys, "hull", flag, path)
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 11


def test_hull_requires_exactly_one_kind(capsys, tmp_path):
    path = octagon_polygon_file(tmp_path)
    assert invoke(capsys, "hull", path)[0] == 2
    assert invoke(capsys, "hull", "--min", "--max", path)[0] == 2


def test_realize_is_seed_deterministic(capsys):
    first = invoke(capsys, "realize", "1212", "--component", "0", "--seed", "5")
    second = invoke(capsys, "realize", "1212", "--component", "0", "--seed", "5")
    other = invoke(capsys, "realize", "1212", "--component", "0", "--seed", "6")
    assert first[0] == 0
    assert first == second
    assert first[1] != other[1]


def test_realize_output_is_a_polygon_at_the_right_distances(capsys):
    from sl3webs.building import class_from_json

    d = enumerate_diagrams((1, 2, 1, 2))[0]
    code, out, err = invoke(capsys, "realize", "1212", "--component", "0")
    assert code == 0
    classes = [class_from_json(obj) for obj in json.loads(out)]
    assert len(classes) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            a, b, c = distance(classes[i], classes[j])
            p = d.entry(i + 1, j + 1)
            padded = tuple(p) + (0,) * (3 - len(p))
            assert (a, b, c) == (padded[0] - padded[2], padded[1] - padded[2], 0)


def test_realize_over_the_rationals(capsys):
    code, out, err = invoke(capsys, "realize", "1212", "--component", "1", "--field", "Q")
    assert code == 0
    assert all(obj["field"] == "Q" for obj in json.loads(out))


def test_realize_flag_conflicts_and_ranges(capsys):
    code, out, err = invoke(
        capsys, "realize", "1212", "--component", "0", "--field", "Q", "--p", "7"
    )
    assert code == 2
    code, out, err = invoke(capsys, "realize", "1212", "--component", "9")
    assert code == 1
    assert "out of range" in err


#: 399165290221 * 798330580441, the least strong pseudoprime to the bases 2-37
PSI12 = 318665857834031151167461


def _diagonal_lattice(p, e):
    """JSON of the lattice diag(t^e, 1, 1) over F_p."""
    one = [{"e": 0, "c": 1}]
    columns = [[[{"e": e, "c": 1}], [], []], [[], one, []], [[], [], one]]
    return {"field": "Fp", "p": p, "columns": columns}


def test_moduli_at_or_above_2_64_are_refused(capsys, tmp_path):
    code, out, err = invoke(capsys, "realize", "1212", "--component", "0", "--p", str(PSI12))
    assert (code, out) == (1, "") and "2**64" in err
    path = tmp_path / "polygon.json"
    for p, expected in ((DEFAULT_PRIME, 0), (PSI12, 1)):
        path.write_text(json.dumps([_diagonal_lattice(p, 0), _diagonal_lattice(p, 1)]))
        code, out, err = invoke(capsys, "distance", str(path), "0", "1")
        assert code == expected
    assert out == "" and "2**64" in err
    mersenne61 = 2**61 - 1
    code, out, err = invoke(capsys, "realize", "1212", "--component", "0", "--p", str(mersenne61))
    assert code == 0 and err == ""
    assert all(obj["p"] == mersenne61 for obj in json.loads(out))


@pytest.mark.parametrize(
    "first_row",
    [
        [[], [1.7], [1, 1, 1]],
        [[], [1], "111"],
        [[], {"1": 0}, [1, 1, 1]],
        [[], [True], [1, 1, 1]],
        [[], [1], ["1", 1, 1]],
    ],
    ids=["float", "string", "object", "bool", "string-part"],
)
def test_promote_refuses_parts_that_are_not_json_integers(capsys, tmp_path, first_row):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"word": "12", "first_row": first_row}))
    code, out, err = invoke(capsys, "promote", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "'first_row'" in err


@pytest.mark.parametrize(
    "terms, message",
    [
        ([{"e": 0, "c": "1"}, {"e": 0, "c": "-1"}], "field 'e' repeats the exponent 0"),
        ([{"e": 0}], "no field 'c'"),
        ([{"e": 0, "c": "1/0"}], "'c' must be a rational string or int, got '1/0'"),
        ([{"e": 0, "c": "nan"}], "'c' must be a rational string or int, got 'nan'"),
        ([{"e": 0, "c": "1e100000"}], "'c' must be a rational string or int, got '1e100000'"),
        ([{"e": 0, "c": " 1.5 "}], "'c' must be a rational string or int, got ' 1.5 '"),
        ([{"e": 0, "c": "1_0"}], "'c' must be a rational string or int, got '1_0'"),
    ],
    ids=["repeated", "missing", "zero-denominator", "nan", "exponent", "spaced", "underscore"],
)
def test_laurent_term_faults_name_the_field(capsys, tmp_path, terms, message):
    lattice = standard_lattice(Q_FIELD, "1")
    lattice["columns"][0][0] = terms
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps([lattice]))
    code, out, err = invoke(capsys, "distance", str(path), "0", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err and "Error(" not in err


@pytest.mark.parametrize(
    "entry, kind",
    [({"e": 0, "c": "1"}, "dict"), ("1", "str"), (1, "int"), (None, "NoneType")],
    ids=["term-object", "string", "int", "null"],
)
def test_a_scalar_that_is_not_a_list_of_terms_is_named(capsys, tmp_path, entry, kind):
    lattice = standard_lattice(Q_FIELD, "1")
    lattice["columns"][0][0] = entry
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps([standard_lattice(Q_FIELD, "1"), lattice]))
    code, out, err = invoke(capsys, "distance", str(path), "0", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Error(" not in err
    assert f"Laurent scalar must be a list of terms, got {kind}" in err


def timed_invoke(capsys, *argv):
    """:func:`invoke`, asserting that the command returns within a second."""
    start = time.perf_counter()
    result = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("e", [10**9, 10**30, -(10**30), MAX_JSON_EXPONENT + 1])
@pytest.mark.parametrize(
    "argv", [("distance", "0", "1"), ("hull", "--conv")], ids=["distance", "hull"]
)
def test_exponents_beyond_the_bound_are_refused_at_once(capsys, tmp_path, argv, e):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([_diagonal_lattice(7, 0), _diagonal_lattice(7, e)]))
    code, out, err = timed_invoke(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert f"field 'e' must have |e| <= {MAX_JSON_EXPONENT}" in err


def test_exponents_at_the_bound_are_read(capsys, tmp_path):
    path = tmp_path / "pair.json"
    lattices = [_diagonal_lattice(7, -MAX_JSON_EXPONENT), _diagonal_lattice(7, MAX_JSON_EXPONENT)]
    path.write_text(json.dumps(lattices))
    code, out, err = timed_invoke(capsys, "distance", str(path), "0", "1")
    assert (code, err) == (0, "") and json.loads(out) == [2 * MAX_JSON_EXPONENT] * 2 + [0]


def test_free_loops_beyond_the_bound_are_refused_at_once(capsys, tmp_path):
    path = tmp_path / "loops.json"
    web = {"edges": [], "rotations": [], "boundary": []}
    path.write_text(json.dumps({**web, "free_loops": MAX_FREE_LOOPS}))
    code, out, err = timed_invoke(capsys, "reduce", str(path))
    assert (code, err) == (0, "") and str(3**MAX_FREE_LOOPS) in out
    path.write_text(json.dumps({**web, "free_loops": 10**8}))
    code, out, err = timed_invoke(capsys, "reduce", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: web field 'free_loops' must be at most {MAX_FREE_LOOPS}\n"


def test_vertices_beyond_the_edges_are_refused_at_once(capsys, tmp_path):
    """A declared vertex that no edge reaches is isolated; the diskoid is refused
    before any per-vertex table is built."""
    path = tmp_path / "diskoid.json"
    doc = {"n_vertices": 10**7, "arrows": [[0, 1]], "triangles": [], "boundary_walk": [0, 1]}
    path.write_text(json.dumps(doc))
    code, out, err = timed_invoke(capsys, "dualize", str(path))
    assert (code, out, err) == (1, "", "error: isolated vertex\n")


@pytest.mark.parametrize("name", sorted(unorientable_diskoid_docs()))
def test_dualize_refuses_an_unorientable_diskoid(capsys, tmp_path, name):
    doc, message = unorientable_diskoid_docs()[name]
    path = tmp_path / "diskoid.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "dualize", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_verify_prints_a_line_per_component(capsys):
    code, out, err = invoke(capsys, "verify", "1212")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["component 0: PASS", "component 1: PASS"]
    assert lines[-1] == "all 2 components verified"


def test_verify_geometric(capsys):
    code, out, err = invoke(capsys, "verify", "1212", "--geometric", "--seed", "3")
    assert code == 0
    assert out.splitlines()[-1] == "all 2 components verified"


#: SHA-1 of :func:`_geometric_transcript`.  Any change to the seeded random
#: stream, to the realized lattices or to a hull's vertex order changes it.
GEOMETRIC_GUARD_SHA1 = "f2cb36ec16ec954642e33e96eb1e18d66da412bd"


def _geometric_transcript(capsys, tmp_path):
    """Stdout of seeded ``realize``, ``hull``, ``distance`` and ``verify
    --geometric`` runs over Q, GF(3) and GF(10007), joined in a fixed order."""
    parts = []

    def call(*argv):
        code, out, _err = invoke(capsys, *argv)
        parts.append(f"{code}\n{out}")
        return out

    for word, count in (("1212", 2), ("121212", 6), ("111222", 6)):
        for i in range(count):
            for field in (("--field", "Q"), ("--p", "3"), ()):
                for seed in ("0", "7"):
                    call("realize", word, "--component", str(i), "--seed", seed, *field)
    realized = tmp_path / "realized.json"
    realized.write_text(call("realize", "121212", "--component", "3", "--field", "Q"))
    for path in (octagon_polygon_file(tmp_path), str(realized)):
        for kind in ("--min", "--max", "--conv"):
            call("hull", kind, path)
        for i, j in ((0, 2), (1, 4), (5, 3)):
            call("distance", path, str(i), str(j))
    for word in ("1212", "121212", "112212"):
        call("verify", word, "--geometric", "--seed", "3")
    return "".join(parts).encode()


def test_seeded_geometric_output_is_unchanged(capsys, tmp_path):
    transcript = _geometric_transcript(capsys, tmp_path)
    assert hashlib.sha1(transcript).hexdigest() == GEOMETRIC_GUARD_SHA1


#: SHA-1 of :func:`_reduction_transcript`.  Any change to which terms
#: ``reduce_web`` returns, to their vertex and edge numbering or to their
#: order changes it.
REDUCTION_GUARD_SHA1 = "9627bb74b731fb766c6b6c60546e44b3fc38d55b"


def _reduction_transcript(capsys, tmp_path):
    """JSON of ``reduce_web`` over the corpus, in the default and in
    ``rng``-driven rewrite orders, then ``sl3webs reduce`` stdout on a few
    of its webs written to files."""
    parts = []
    corpus = reduction_corpus()
    for i, w in enumerate(corpus):
        parts.append(json.dumps(reduce_web(w).to_json(), sort_keys=True))
        if i % 3 == 0:
            combo = reduce_web(w, random.Random(i))
            parts.append(json.dumps(combo.to_json(), sort_keys=True))
    for i in (0, 7, 19, 41, 47):
        path = tmp_path / f"web{i}.json"
        path.write_text(json.dumps(web_to_json(corpus[i])))
        code, out, _err = invoke(capsys, "reduce", str(path))
        parts.append(f"{code}\n{out}")
    return "\n".join(parts).encode()


def test_seeded_reduction_output_is_unchanged(capsys, tmp_path):
    transcript = _reduction_transcript(capsys, tmp_path)
    assert hashlib.sha1(transcript).hexdigest() == REDUCTION_GUARD_SHA1


#: Agenda pops of ``reduce_web`` over :func:`webgen.reduction_corpus`, in the
#: default order and in the ``rng``-driven orders of the transcript.
REDUCTION_STEPS = {"default": 562, "rng": 262}


def test_reduction_step_count_is_unchanged(monkeypatch):
    steps = []
    step = sl3webs.webs._step

    def counting(state, rng):
        steps.append(rng is None)
        return step(state, rng)

    monkeypatch.setattr(sl3webs.webs, "_step", counting)
    for i, w in enumerate(reduction_corpus()):
        reduce_web(w)
        if i % 3 == 0:
            reduce_web(w, random.Random(i))
    assert {"default": steps.count(True), "rng": steps.count(False)} == REDUCTION_STEPS


#: SHA-1 of :func:`_combinatorial_transcript`.  Any change to the growth
#: diagrams, their order, the basis webs or ``verify``'s report changes it.
COMBINATORIAL_GUARD_SHA1 = "7c058b9395131067758355e5e5c4056988a78abf"


def _combinatorial_transcript(capsys, lengths=range(1, 8)):
    """Exit code and stdout of ``webs W --format json``, ``diagrams W`` and
    ``verify W`` for every type word W of the given lengths (up to length 7
    by default), by length and then word."""
    parts = []
    for n in lengths:
        for w in itertools.product("12", repeat=n):
            word = "".join(w)
            for argv in (("webs", word, "--format", "json"), ("diagrams", word), ("verify", word)):
                code, out, _err = invoke(capsys, *argv)
                parts.append(f"{code}\n{out}")
    return "".join(parts).encode()


def test_combinatorial_output_is_unchanged(capsys):
    transcript = _combinatorial_transcript(capsys)
    assert hashlib.sha1(transcript).hexdigest() == COMBINATORIAL_GUARD_SHA1


#: SHA-1 of :func:`_combinatorial_transcript` over the 256 words of length 8.
COMBINATORIAL_8_GUARD_SHA1 = "ff6878bf84d74cbb81888c5635ea8d9a77b325ec"


def test_combinatorial_output_of_length_8_is_unchanged(capsys):
    transcript = _combinatorial_transcript(capsys, lengths=[8])
    assert hashlib.sha1(transcript).hexdigest() == COMBINATORIAL_8_GUARD_SHA1


def test_verify_passes_every_component_of_length_9(capsys):
    # the combinatorial checks past the length-8 guard: CAT(0) diskoid,
    # non-elliptic dual web, boundary word and distinct webs for every
    # component of every length-9 word
    count = 0
    for w in itertools.product("12", repeat=9):
        code, out, err = invoke(capsys, "verify", "".join(w))
        lines = out.splitlines()
        assert (code, err) == (0, "") and lines[-1] == f"all {len(lines) - 1} components verified"
        count += len(lines) - 1
    assert count == 7980


@pytest.mark.parametrize("fault", ["omitted", "repeated"])
def test_reduce_names_a_missing_or_repeated_dart(capsys, tmp_path, fault):
    d = enumerate_diagrams((1, 1, 1))[0]
    doc = web_to_json(dualize(diskoid_from_diagram(d)))
    rotation = next(r for r in doc["rotations"] if len(r) == 3)
    first, second = rotation[0], rotation[1]
    if fault == "omitted":
        rotation.remove(second)
        message = f"dart {2 * second[0] + second[1]} is in no rotation"
    else:
        rotation[1] = list(first)
        message = f"dart {2 * first[0] + first[1]} is repeated"
    path = tmp_path / "web.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "reduce", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_apartment_cache_holds_one_polygon_working_set(capsys, tmp_path, monkeypatch):
    """The octagon's ``hull --conv`` and one length-8 cross-validation use a
    small fraction of the pair memo.  Each pair it holds builds ``rel`` once, and
    fewer of them run a Smith elimination, each once."""
    built, eliminated = record_pair_work(monkeypatch)
    cache = sl3webs.building._pair_cached
    code, _out, _err = invoke(capsys, "hull", "--conv", octagon_polygon_file(tmp_path))
    assert code == 0
    rng = derived_rng(0, "verify", "12121212", 8)
    assert cross_validate(enumerate_diagrams("12121212")[8], rng)
    info = cache.cache_info()
    assert 0 < info.currsize <= info.maxsize // 16
    assert len(built) == len({pair for pair, _rel in built}) == info.misses == info.currsize
    assert 0 < len(eliminated) == len(set(eliminated)) < len(built)
