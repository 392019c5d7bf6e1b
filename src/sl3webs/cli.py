"""Command-line front end tying the library together.

Every subcommand validates its input before dispatching to the library and
exits 0 on success, 1 on a domain error (the message names the violated
invariant) or on a file it cannot read or write, 2 on a usage error.  All
output is byte-deterministic given identical inputs and seeds.

Type words are strings over the letters 1 and 2.  Component indices are
0-based positions in the lexicographic enumeration of growth diagrams, so
the same index addresses the same component across runs.  Polygon files are
JSON arrays of lattice objects and vertex indices into them are 0-based.

Randomized work takes a single 64-bit ``--seed``.  Each task derives its
own stream by hashing the seed together with the subcommand, the type word,
and the component index (sha256, first 8 bytes), so running components in
any order or in parallel cannot change results.
"""

import argparse
import functools
import hashlib
import json
import os
import random
import sys

from .building import class_from_json, distance, lattice_to_json
from .growth import (
    diagram_from_json,
    dim_inv,
    enumerate_diagrams,
    parse_word,
)
from .hulls import conv, induced_complex, maxconv, minconv
from .errors import MalformedJSON
from .series import DEFAULT_PRIME, GF, QQ
from .synthesis import basis_webs, cross_validate, diskoid_from_diagram, realize_polygon
from .webs import (
    boundary_word,
    canonical_encoding,
    diskoid_from_json,
    diskoid_to_dot,
    diskoid_to_json,
    diskoid_to_tikz,
    dualize,
    is_cat0,
    is_nonelliptic,
    reduce_web,
    web_from_json,
    web_to_dot,
    web_to_json,
    web_to_tikz,
)

__all__ = ["run", "main", "derived_rng", "emit"]


class _UsageError(Exception):
    """Flag combinations argparse cannot rule out by itself."""


def derived_rng(seed, *tags):
    """Deterministic random stream for one task under a global seed.

    The stream is seeded with the first 8 bytes of
    ``sha256("seed:tag1:tag2:...")``, so each (subcommand, word, component)
    triple gets its own reproducible generator regardless of the order the
    tasks run in.
    """
    label = ":".join(str(t) for t in (seed,) + tags)
    digest = hashlib.sha256(label.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def emit(obj, fmt):
    """Render a web or a diskoid as json, dot, or tikz text."""
    if fmt == "json":
        payload = diskoid_to_json(obj) if hasattr(obj, "arrows") else web_to_json(obj)
        return json.dumps(payload, sort_keys=True)
    if fmt == "dot":
        return diskoid_to_dot(obj) if hasattr(obj, "arrows") else web_to_dot(obj)
    if fmt == "tikz":
        return diskoid_to_tikz(obj) if hasattr(obj, "arrows") else web_to_tikz(obj)
    raise ValueError(f"unknown output format {fmt!r}")


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def _load_polygon(path):
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ValueError("polygon file must be a nonempty JSON array of lattices")
    classes = [class_from_json(obj) for obj in data]
    if len({x.field for x in classes}) > 1:
        raise MalformedJSON("all lattices of a polygon file must share one field")
    return classes


def _polygon_json(classes):
    return [lattice_to_json(x.basis) for x in classes]


def _component(word, index):
    diagrams = enumerate_diagrams(word)
    if not 0 <= index < len(diagrams):
        raise ValueError(
            f"component index {index} out of range: type "
            f"{''.join(map(str, word))} has {len(diagrams)} components"
        )
    return diagrams[index]


def _cmd_dim(args):
    print(dim_inv(parse_word(args.word)))
    return 0


def _cmd_diagrams(args):
    diagrams = enumerate_diagrams(parse_word(args.word))
    if args.count:
        print(len(diagrams))
        return 0
    for d in diagrams:
        _print_json(d.to_json())
    return 0


def _cmd_webs(args):
    rendered = [emit(w, args.format) for w in basis_webs(args.word)]
    if args.out is None:
        for block in rendered:
            print(block)
        return 0
    ext = {"json": "json", "dot": "dot", "tikz": "tex"}[args.format]
    os.makedirs(args.out, exist_ok=True)
    for i, block in enumerate(rendered):
        name = os.path.join(args.out, f"web_{i:04d}.{ext}")
        with open(name, "w") as handle:
            handle.write(block + "\n")
    print(f"wrote {len(rendered)} files to {args.out}")
    return 0


def _cmd_dualize(args):
    disk = diskoid_from_json(_load_json(args.file))
    print(emit(dualize(disk), args.format))
    return 0


def _cmd_reduce(args):
    combo = reduce_web(web_from_json(_load_json(args.file)))
    _print_json({"terms": combo.to_json()})
    return 0


def _cmd_promote(args):
    d = diagram_from_json(_load_json(args.file))
    # the promoted row is row 2, so its diagram is the one based at vertex 2
    _print_json(d.rebase(2).to_json())
    return 0


def _cmd_distance(args):
    classes = _load_polygon(args.file)
    for index in (args.i, args.j):
        if not 0 <= index < len(classes):
            raise ValueError(
                f"vertex index {index} out of range: polygon has "
                f"{len(classes)} vertices"
            )
    _print_json(list(distance(classes[args.i], classes[args.j])))
    return 0


def _cmd_hull(args):
    classes = _load_polygon(args.file)
    hull_of = {"min": minconv, "max": maxconv, "conv": conv}[args.kind]
    _print_json(induced_complex(hull_of(classes)).to_json())
    return 0


def _cmd_realize(args):
    word = parse_word(args.word)
    d = _component(word, args.component)
    if args.field == "Q":
        if args.p is not None:
            raise _UsageError("--p only applies to --field Fp")
        field = QQ
    else:
        field = GF(args.p if args.p is not None else DEFAULT_PRIME)
    rng = derived_rng(args.seed, "realize", "".join(map(str, word)), args.component)
    poly = realize_polygon(d, rng, field=field)
    _print_json(_polygon_json(poly.classes))
    return 0


def _verify_combinatorial(word, diagrams):
    failures = 0
    seen = {}
    for i, d in enumerate(diagrams):
        disk = diskoid_from_diagram(d)
        web = dualize(disk)
        problems = []
        if not is_cat0(disk):
            problems.append("diskoid is not CAT(0)")
        if not is_nonelliptic(web):
            problems.append("dual web has a small internal face")
        if boundary_word(web) != word:
            problems.append("dual web boundary word differs from the type")
        key = canonical_encoding(web)
        if key in seen:
            problems.append(f"dual web duplicates component {seen[key]}")
        else:
            seen[key] = i
        if problems:
            failures += 1
            print(f"component {i}: FAIL ({'; '.join(problems)})")
        else:
            print(f"component {i}: PASS")
    return failures


def _verify_geometric(word, diagrams, seed, retry_cap):
    failures = 0
    text = "".join(map(str, word))
    for i, d in enumerate(diagrams):
        rng = derived_rng(seed, "verify", text, i)
        if cross_validate(d, rng, retry_cap=retry_cap):
            print(f"component {i}: PASS")
        else:
            failures += 1
            print(
                f"component {i}: FAIL (realized hull complex does not match "
                f"the diskoid)"
            )
    return failures


def _cmd_verify(args):
    word = parse_word(args.word)
    diagrams = enumerate_diagrams(word)
    expected = dim_inv(word)
    if len(diagrams) != expected:
        print(
            f"FAIL (enumeration found {len(diagrams)} diagrams, the "
            f"invariant dimension is {expected})"
        )
        return 1
    if args.geometric:
        failures = _verify_geometric(word, diagrams, args.seed, args.max_retries)
    else:
        failures = _verify_combinatorial(word, diagrams)
    if failures:
        print(f"{failures} of {len(diagrams)} components failed")
        return 1
    print(f"all {len(diagrams)} components verified")
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sl3webs",
        description="Compute the sl3 non-elliptic web basis two independent "
        "ways and cross-check them.",
        epilog="FILE arguments take '-' for stdin.  Indices are 0-based.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dim", help="dimension of the invariant space of a type word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("diagrams", help="growth diagrams of a type word, one JSON per line")
    p.add_argument("word")
    p.add_argument("--count", action="store_true", help="print only how many there are")
    p.set_defaults(func=_cmd_diagrams)

    p = sub.add_parser("webs", help="all basis webs of a type word")
    p.add_argument("word")
    p.add_argument("--format", choices=("json", "dot", "tikz"), default="json")
    p.add_argument("--out", metavar="DIR", help="write one file per component instead of printing")
    p.set_defaults(func=_cmd_webs)

    p = sub.add_parser("dualize", help="dual web of a diskoid JSON file")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "dot", "tikz"), default="json")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("reduce", help="evaluate a web JSON file against the basis")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("promote", help="promotion of a growth diagram JSON file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_promote)

    p = sub.add_parser("distance", help="distance between two vertices of a polygon JSON file")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("hull", help="hull of a polygon JSON file, as a simplicial complex")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--min", dest="kind", action="store_const", const="min")
    group.add_argument("--max", dest="kind", action="store_const", const="max")
    group.add_argument("--conv", dest="kind", action="store_const", const="conv")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("realize", help="realize one component as a lattice polygon")
    p.add_argument("word")
    p.add_argument("--component", type=int, required=True, metavar="I")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=("Q", "Fp"), default="Fp")
    p.add_argument("--p", type=int, default=None, help="prime for --field Fp (default 10007)")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="check every component of a type word")
    p.add_argument("word")
    p.add_argument(
        "--geometric",
        action="store_true",
        help="realize each component and match its hull against the diskoid",
    )
    p.add_argument("--max-retries", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
