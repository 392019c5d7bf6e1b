"""The measuring process of the benchmark; ``run.py`` starts it.

Set-up builds the workload's inputs from the seed.  Then rounds run until
``--seconds`` have passed: each round starts with fresh input objects,
every ``lru_cache`` in ``sl3webs`` emptied and a garbage collection, and
times one pass over all items.  Short calibration blocks
(``calibrate.py``) run at the start and end of each round and between its
items; the round's time is divided by their mean time, which cancels
drifts of the machine's speed.  The first round's outputs are checked;
every later round must reproduce them exactly.  The last line of standard
output is the result as JSON.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# share of the run spent on untraced rounds when tracing
UNTRACED_SHARE = 0.4


def clear_caches():
    """Empty every ``functools`` cache held by an ``sl3webs`` module."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sl3webs" or name.startswith("sl3webs.")):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workload):
        self.workload = workload
        self.first_call = None
        self.outputs = None
        self.digests = None
        self.differs = []
        self.times = []
        self.blocks = []

    def round(self, tracer=None):
        """Run one round; return its time over its mean calibration time."""
        wl = self.workload
        inputs = wl.fresh_inputs()
        clear_caches()
        gc.collect()
        outputs = []
        if tracer is not None:
            tracer.start_round()
        if self.first_call is None:
            self.first_call = time.monotonic()
            for _ in range(calibrate.WARMUP):
                calibrate.block()
        blocks = [calibrate.block()]
        last_block = time.perf_counter()
        elapsed = 0.0
        for i, x in enumerate(inputs):
            if tracer is not None:
                tracer.item = i
            start = time.perf_counter()
            try:
                outputs.append(wl.run(x))
            except Exception as exc:  # a failing call is a failed item
                outputs.append(exc)
            end = time.perf_counter()
            elapsed += end - start
            if end - last_block >= calibrate.EVERY_S:
                blocks.append(calibrate.block())
                last_block = time.perf_counter()
        blocks.append(calibrate.block())
        if tracer is not None:
            tracer.stop_round()
        digests = [_digest(wl, out) for out in outputs]
        if self.outputs is None:
            self.outputs = outputs
            self.digests = digests
        self.differs.append([d != first for d, first in zip(digests, self.digests)])
        self.times.append(elapsed)
        self.blocks += blocks
        return elapsed / statistics.mean(blocks)

    def rounds_until(self, deadline, tracer=None, minimum=1):
        """Run rounds while the next would end by ``deadline`` at the
        median round length so far; return each round's calibrated time."""
        ratios = []
        lengths = []
        while True:
            start = time.monotonic()
            ratios.append(self.round(tracer))
            lengths.append(time.monotonic() - start)
            if len(ratios) >= minimum and time.monotonic() + statistics.median(lengths) > deadline:
                return ratios

    def failures(self):
        """Failed items of every round: the first round's outputs are
        checked, later rounds must reproduce them."""
        wl = self.workload
        first_bad = []
        for i, out in enumerate(self.outputs):
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            else:
                try:
                    problems = wl.check(i, out)
                except Exception as exc:  # unreadable output
                    problems = [f"check raised {exc!r}"]
            if problems:
                print(f"item {i} failed: {'; '.join(problems)}", file=sys.stderr)
            first_bad.append(bool(problems))
        failed = 0
        for r, differs in enumerate(self.differs):
            for i, differ in enumerate(differs):
                if first_bad[i] or differ:
                    failed += 1
                    if differ:
                        print(f"round {r} item {i}: output differs", file=sys.stderr)
        return failed


def _digest(wl, out):
    if isinstance(out, Exception):
        return "raised " + repr(out)
    return wl.digest(out)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import sl3webs
    except ImportError as exc:
        print(f"cannot import sl3webs from {SRC}: {exc}", file=sys.stderr)
        return 1

    if not os.path.abspath(sl3webs.__file__).startswith(SRC + os.sep):
        print(f"sl3webs imported from {sl3webs.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from checks import check_move_identities
    from spans import EXACT, PER_LAYER, Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload)
        problems = []
        if not args.trace:
            ratios = runner.rounds_until(time.monotonic() + args.seconds)
            print(
                "calibrated round times "
                + " ".join(f"{calibrate.REFERENCE_S * r:.3f}" for r in ratios),
                file=sys.stderr,
            )
            setup_s = runner.first_call - args.t0
            scale = calibrate.REFERENCE_S / statistics.median(runner.blocks)
            print(f"set-up took {setup_s:.4f} s before calibration", file=sys.stderr)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "wall_s": _metric(calibrate.REFERENCE_S * statistics.median(ratios), "s"),
                "setup_s": _metric(setup_s * scale, "s"),
                "peak_rss_mib": _metric(peak, "MiB"),
            }
        else:
            start = time.monotonic()
            plain = runner.rounds_until(start + UNTRACED_SHARE * args.seconds)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.rounds_until(start + args.seconds, tracer, minimum=2)
            finally:
                tracer.uninstall()
            per_round = tracer.rounds
            for name in EXACT:
                values = {m[name] for m in per_round}
                if len(values) > 1:
                    problems.append(f"{name} differs between traced rounds: {sorted(values)}")
            # times are scaled like wall_s, by each round's calibration
            scales = [
                calibrate.REFERENCE_S * ratio / elapsed
                for ratio, elapsed in zip(traced, runner.times[-len(traced):])
            ]
            values = {
                name: per_round[0][name]
                if name in EXACT
                else statistics.median(m[name] * k for m, k in zip(per_round, scales))
                for name in PER_LAYER
                if name != "trace.overhead_s"
            }
            overhead = statistics.median(traced) - statistics.median(plain)
            values["trace.overhead_s"] = calibrate.REFERENCE_S * overhead
            if args.workload == "combinatorial_sweep":
                lengths, interior = workload.shape(runner.outputs)
                problems += check_move_identities(
                    values["synthesis.moves_uturn"],
                    values["synthesis.moves_sharp"],
                    values["synthesis.moves_elbow"],
                    lengths,
                    interior,
                )
            metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        failed = runner.failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(p, file=sys.stderr)
    attempted = len(runner.differs) * len(runner.digests)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(
        f"{args.workload}: {len(runner.times)} rounds, round times "
        + " ".join(f"{t:.3f}" for t in runner.times)
        + f" s, median {statistics.median(runner.times):.4f} s before calibration",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
