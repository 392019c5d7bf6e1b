"""Spans around the calls into each ``sl3webs`` module, and the per-layer
metrics read off them.

``Tracer.install`` replaces each measured function in every ``sl3webs``
module namespace that holds it (``hulls``, ``synthesis`` and ``cli`` each
import ``distance`` by name, for instance), so calls between modules and
calls inside a module both pass through the wrapper.  A wrapper records one
span per call: name, start, end, parent span and item id.  Spans stay in
memory until ``write`` saves them at the end of the run.
"""

import json
import sys
import time

# "module.function" -> group.  A group's time is the time inside the
# outermost calls to any of its functions, so a call nested inside another
# call of the same group is not counted twice.
MEASURED = {
    "series.hermite_over_O": "series.hermite",
    "series.smith_exponents": "series.smith",
    "series.invert_upper_triangular": "series.triangular",
    "series.solve_upper_triangular": "series.triangular",
    "building.class_from_generators": "building.class",
    "building.distance": "building.distance",
    "building.lattice_meet": "building.meet_join",
    "building.lattice_join": "building.meet_join",
    "building.step_to_line": "building.step",
    "building.step_to_plane": "building.step",
    "hulls.minconv_pair": "hulls.pair",
    "hulls.maxconv_pair": "hulls.pair",
    "hulls.minconv": "hulls.closure",
    "hulls.maxconv": "hulls.closure",
    "hulls.path_hull_fastpath": "hulls.path_hull",
    "hulls.induced_complex": "hulls.complex",
    "growth.complete_from_row": "growth.complete",
    "growth.enumerate_diagrams": "growth.enumerate",
    "synthesis.reduce_to_base": "synthesis.reduce",
    "synthesis.remove_uturn": "synthesis.uturn",
    "synthesis.remove_sharp": "synthesis.sharp",
    "synthesis.elbow_move": "synthesis.elbow",
    "synthesis.diskoid_from_diagram": "synthesis.diskoid",
    "synthesis.realize_polygon": "synthesis.realize",
    "synthesis._attempt_realization": "synthesis.attempt",
    "synthesis.conditioned_step": "synthesis.conditioned_step",
    "webs.dualize": "webs.dualize",
    "webs.canonical_encoding": "webs.encode",
    "webs.web_to_json": "webs.json",
    "webs.web_from_json": "webs.json",
    "webs.diskoid_to_json": "webs.json",
    "webs.diskoid_from_json": "webs.json",
    "webs.reduce_web": "webs.reduce",
    "webs.internal_faces": "webs.faces",
    "cli.run": "cli.run",
}

# per-layer metric -> unit
PER_LAYER = {
    "series.hermite_calls": "count",
    "series.hermite_s": "s",
    "series.smith_calls": "count",
    "series.smith_s": "s",
    "series.triangular_calls": "count",
    "series.triangular_s": "s",
    "building.class_calls": "count",
    "building.class_s": "s",
    "building.distance_calls": "count",
    "building.distance_s": "s",
    "building.distance_repeat_ratio": "ratio",
    "building.meet_join_calls": "count",
    "building.meet_join_s": "s",
    "building.step_calls": "count",
    "building.step_s": "s",
    "hulls.pair_calls": "count",
    "hulls.pair_s": "s",
    "hulls.pair_repeat_ratio": "ratio",
    "hulls.closure_s": "s",
    "hulls.path_hull_s": "s",
    "hulls.complex_s": "s",
    "hulls.hull_vertices": "count",
    "growth.complete_calls": "count",
    "growth.complete_s": "s",
    "growth.enumerate_s": "s",
    "growth.diagrams": "count",
    "synthesis.reduce_s": "s",
    "synthesis.moves_uturn": "count",
    "synthesis.moves_sharp": "count",
    "synthesis.moves_elbow": "count",
    "synthesis.diskoid_s": "s",
    "synthesis.realize_s": "s",
    "synthesis.realize_attempts": "count",
    "synthesis.realize_yield": "ratio",
    "synthesis.conditioned_step_calls": "count",
    "webs.dualize_s": "s",
    "webs.encode_s": "s",
    "webs.json_s": "s",
    "webs.reduce_s": "s",
    "webs.reduce_steps": "count",
    "webs.reduce_terms": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# metrics whose value must repeat exactly between two traced rounds
EXACT = [m for m, unit in PER_LAYER.items() if unit in ("count", "ratio")]

_COUNTED_CALLS = {
    "series.hermite_calls": "series.hermite",
    "series.smith_calls": "series.smith",
    "series.triangular_calls": "series.triangular",
    "building.class_calls": "building.class",
    "building.distance_calls": "building.distance",
    "building.meet_join_calls": "building.meet_join",
    "building.step_calls": "building.step",
    "hulls.pair_calls": "hulls.pair",
    "growth.complete_calls": "growth.complete",
    "synthesis.realize_attempts": "synthesis.attempt",
    "synthesis.conditioned_step_calls": "synthesis.conditioned_step",
    "cli.calls": "cli.run",
}

_TIMED_GROUPS = {
    "series.hermite_s": "series.hermite",
    "series.smith_s": "series.smith",
    "series.triangular_s": "series.triangular",
    "building.class_s": "building.class",
    "building.distance_s": "building.distance",
    "building.meet_join_s": "building.meet_join",
    "building.step_s": "building.step",
    "hulls.pair_s": "hulls.pair",
    "hulls.closure_s": "hulls.closure",
    "hulls.path_hull_s": "hulls.path_hull",
    "hulls.complex_s": "hulls.complex",
    "growth.complete_s": "growth.complete",
    "growth.enumerate_s": "growth.enumerate",
    "synthesis.reduce_s": "synthesis.reduce",
    "synthesis.diskoid_s": "synthesis.diskoid",
    "synthesis.realize_s": "synthesis.realize",
    "webs.dualize_s": "webs.dualize",
    "webs.encode_s": "webs.encode",
    "webs.json_s": "webs.json",
    "webs.reduce_s": "webs.reduce",
}


class Tracer:
    """Span recorder for one process; create one, ``install`` it, and call
    ``start_round`` before each traced round."""

    def __init__(self):
        self.rounds = []
        self.first_spans = None
        self.item = -1
        self._installed = []
        self._spans = None

    # -- wrapping ----------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "sl3webs" or name.startswith("sl3webs."))
        }
        for label, group in MEASURED.items():
            mod_name, fn_name = label.split(".")
            original = getattr(modules["sl3webs." + mod_name], fn_name)
            wrapper = self._wrap(original, label, group)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    def _wrap(self, fn, label, group):
        tracer = self
        clock = time.perf_counter
        hook = getattr(self, "_on_" + group.replace(".", "_"), None)
        name = fn.__name__

        def traced(*args, **kwargs):
            rnd = tracer._spans
            if rnd is None:
                return fn(*args, **kwargs)
            spans, stack, depth = rnd
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[group] -= 1
                stack.pop()
                spans[idx] = (label, t0, t1, parent, tracer.item, outer)
            if hook is not None:
                hook(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    # -- counting hooks -----------------------------------------------------

    def _on_building_distance(self, _name, args, _result):
        self._cur["distance_keys"].append((args[0], args[1]))

    def _on_hulls_pair(self, name, args, _result):
        x, y = args
        self._cur["pair_keys"].append((name, x, y) if not y < x else (name, y, x))

    def _on_hulls_complex(self, _name, _args, result):
        self._cur["hull_vertices"] += len(result.vertices)

    def _on_growth_enumerate(self, _name, _args, result):
        self._cur["diagrams"] += len(result)

    def _on_synthesis_realize(self, _name, _args, _result):
        self._cur["polygons"] += 1

    def _on_webs_reduce(self, _name, _args, result):
        self._cur["reduce_terms"] += len(result)

    # -- rounds -------------------------------------------------------------

    def start_round(self):
        """Begin recording a new round; returns nothing."""
        self._cur = {
            "spans": [],
            "distance_keys": [],
            "pair_keys": [],
            "hull_vertices": 0,
            "diagrams": 0,
            "polygons": 0,
            "reduce_terms": 0,
        }
        self._spans = (self._cur["spans"], [], {})

    def stop_round(self):
        """End the round; its metrics go to ``rounds``, and the first
        round's spans are kept for ``write``."""
        self._spans = None
        self.rounds.append(self._metrics(self._cur))
        if self.first_spans is None:
            self.first_spans = self._cur["spans"]
        self._cur = None

    def _metrics(self, rnd):
        """Per-layer metrics of one recorded round, ``trace.overhead_s`` aside."""
        spans = rnd["spans"]
        calls = {}
        busy = {}
        child = [0.0] * len(spans)
        for label, t0, t1, parent, _item, outer in spans:
            group = MEASURED[label]
            calls[group] = calls.get(group, 0) + 1
            if outer:
                busy[group] = busy.get(group, 0.0) + (t1 - t0)
            if parent >= 0:
                child[parent] += t1 - t0
        out = {m: calls.get(g, 0) for m, g in _COUNTED_CALLS.items()}
        out.update({m: busy.get(g, 0.0) for m, g in _TIMED_GROUPS.items()})
        out["building.distance_repeat_ratio"] = _repeat_ratio(rnd["distance_keys"])
        out["hulls.pair_repeat_ratio"] = _repeat_ratio(rnd["pair_keys"])
        out["hulls.hull_vertices"] = rnd["hull_vertices"]
        out["growth.diagrams"] = rnd["diagrams"]
        attempts = out["synthesis.realize_attempts"]
        out["synthesis.realize_yield"] = rnd["polygons"] / attempts if attempts else 0.0
        out["cli.self_s"] = sum(
            (t1 - t0) - child[i]
            for i, (label, t0, t1, _p, _it, _o) in enumerate(spans)
            if label == "cli.run"
        )
        # moves and face scans are counted only under the calls that own them
        inside = _inside(spans, "synthesis.reduce_to_base")
        for kind, label in (
            ("uturn", "synthesis.remove_uturn"),
            ("sharp", "synthesis.remove_sharp"),
            ("elbow", "synthesis.elbow_move"),
        ):
            out["synthesis.moves_" + kind] = sum(
                1 for i, s in enumerate(spans) if s[0] == label and inside[i]
            )
        inside = _inside(spans, "webs.reduce_web")
        out["webs.reduce_steps"] = sum(
            1 for i, s in enumerate(spans) if s[0] == "webs.internal_faces" and inside[i]
        )
        out["webs.reduce_terms"] = rnd["reduce_terms"]
        return out

    def write(self, path):
        """Save the first traced round's spans, one JSON array per line:
        name, start, end, parent span, item."""
        with open(path, "w") as handle:
            for label, t0, t1, parent, item, _outer in self.first_spans:
                handle.write(json.dumps([label, t0, t1, parent, item]) + "\n")


def _repeat_ratio(keys):
    """Share of calls whose argument pair an earlier call of the round had."""
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)


def _inside(spans, label):
    """Per span, whether some ancestor span is a call to ``label``."""
    out = [False] * len(spans)
    for i, (_l, _t0, _t1, parent, _item, _outer) in enumerate(spans):
        if parent >= 0:
            out[i] = out[parent] or spans[parent][0] == label
    return out
