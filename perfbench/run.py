"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 45 --trace 0

Run from the repository root. The package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs a fixed number of rounds untraced and then traced, and reports the
per-layer metrics. Every output is checked against ``expected.json``. The
last line of standard output is one JSON object; the exit code is 0 only
when every output was correct. A result file with the machine fingerprint
goes to ``perfbench/out/results/``, and the traced run's spans to
``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Host CPU speed drifts by tens of percent over seconds, so the set-up
# samples are spread over the timed loop instead of taken in one burst.
SETUP_REPEATS = 7
# Seconds of --seconds that one traced round is budgeted for, all passes
# included; the traced run does seconds // this many rounds (at least one),
# cycling through the pool, a count fixed by --seconds so that per-layer
# counts repeat exactly.
TRACE_ROUND_SECONDS = {"sweep-dense": 15, "exact-small": 4}

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Builds a workload's inputs in a fresh interpreter: the set-up a user pays.
_SETUP_CHILD = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "from perfbench import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].build_inputs(Path(sys.argv[4]))"
)


def import_package():
    """Import seqlocate from this checkout's src/, or explain why not."""
    if not (SRC / "seqlocate" / "__init__.py").is_file():
        raise ImportError(f"no seqlocate package under {SRC}; run from a repository checkout")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import seqlocate

    origin = Path(seqlocate.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"seqlocate imported from {origin}, not from {SRC}")
    return seqlocate


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout is not a git repository)"


def fingerprint(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


@dataclass
class Pass:
    """One pass over a list of rounds: per-unit latency, outputs, errors."""

    wall: float = 0.0
    units: list = field(default_factory=list)  # (unit, latency_s, observed, errors)
    host: list = field(default_factory=list)  # per entry of units: host factor

    @property
    def items(self) -> int:
        return sum(u.items for u, *_ in self.units)

    @property
    def failed(self) -> int:
        return sum(u.items for u, _, _, errors in self.units if errors)


def run_pass(wl, inputs, entries, threads, expected, seconds=None, tracer=None,
             between_rounds=None, sample_host=False) -> Pass:
    """Run the rounds of ``entries`` in order. With ``seconds``, cycle through
    them and start new rounds until that much time has passed; only whole
    rounds are run, so every run has the same mix of units.
    ``between_rounds(elapsed)`` runs after each round, off the clock.
    ``sample_host`` samples the host's speed during each call (see host.py)."""
    from perfbench import host
    from perfbench.tracing import ITEM
    from perfbench.workloads import output_errors

    result = Pass()
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    paused = 0.0
    try:
        for r, entry in enumerate(cycle(entries) if seconds is not None else entries):
            if seconds is not None and perf_counter() - start - paused >= seconds:
                break
            # Each CPU's speed drifts on its own, by tens of percent over
            # seconds. A one-worker pass moves to the next CPU every round so
            # that a run averages over all of them, as a pool does.
            if threads == 1:
                os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            for unit in wl.round_units(entry):
                # Sweep items are marked by the program's own trial seeds;
                # exact items are one call each and are marked here.
                marks_items = tracer is not None and wl.kind == "exact"
                with tracer.span(ITEM, unit.key) if marks_items else nullcontext():
                    raw, latency, factor = host.call(
                        lambda: wl.run_unit(inputs, unit, threads), sample_host)
                if isinstance(raw, Exception):
                    observed, errors = {}, [f"raised {raw!r}"]
                else:
                    observed = wl.collect(inputs, unit, raw)
                    errors = output_errors(wl, unit, observed, expected)
                result.units.append((unit, latency, observed, errors))
                result.host.append(factor)
            if between_rounds is not None:
                t0 = perf_counter()
                between_rounds(t0 - start - paused)
                paused += perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    result.wall = perf_counter() - start - paused
    return result


def time_setup(name: str, workdir: Path) -> float:
    """Wall time of a fresh interpreter importing the package and building
    the workload's inputs."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(ROOT), str(SRC), name, str(workdir)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return elapsed


def end_to_end(p: Pass, setup_s: float) -> tuple[dict, dict]:
    from perfbench.stats import percentile, supported_tail

    # One sample per unit: a sweep call's trials all finish when it returns.
    # Each timing is divided by the host factor sampled during it (1 when
    # not sampled), and a unit timed more than once counts at the median of
    # its scaled timings.
    scaled, items = {}, {}
    for (u, lat, _, _), host in zip(p.units, p.host):
        scaled.setdefault(u.key, []).append(lat / host)
        items[u.key] = u.items
    per_unit = {k: statistics.median(v) for k, v in scaled.items()}
    latencies_ms = [lat * 1e3 for lat in per_unit.values()]
    tail = supported_tail(len(latencies_ms))
    values = {
        "throughput_per_s": sum(items.values()) / sum(per_unit.values()),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "latency_samples": len(latencies_ms),  # distinct units
        "timings": len(p.units),
        "latency_rule": "highest percentile with >= 10 samples beyond it: "
                        + (f"p{tail}" if tail is not None else "none"),
        "wall_s": p.wall,
        "host_factor_median": statistics.median(p.host),
        # Unscaled wall time and host factor of every timing.
        "unit_latencies_ms": [[u.key, lat * 1e3, host]
                              for (u, lat, _, _), host in zip(p.units, p.host)],
    }
    return values, notes


def traced_layers(wl, inputs, entries, expected, workers: int) -> tuple[list, dict, list]:
    """Untraced pass(es), then the traced pass at one worker; returns the
    passes, the per-layer metrics and the spans."""
    from perfbench import probes
    from perfbench.tracing import ITEM, Tracer

    passes = []
    if workers > 1:
        passes.append(run_pass(wl, inputs, entries, workers, expected))
    untraced = run_pass(wl, inputs, entries, 1, expected)
    passes.append(untraced)
    tracer = Tracer()
    rebinder = probes.install(tracer)
    try:
        traced = run_pass(wl, inputs, entries, 1, expected, tracer=tracer)
    finally:
        rebinder.restore()
    passes.append(traced)
    values = probes.layer_values(tracer.spans)
    item_time = sum(s.duration for s in tracer.spans if s.name == ITEM)
    values["experiments.parallel_efficiency"] = item_time / (workers * passes[0].wall)
    values["trace.overhead_ratio"] = traced.wall / untraced.wall
    return passes, values, tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import probes, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.build_inputs(workdir)
        order = workloads.round_order(wl, args.seed)
        workers = len(os.sched_getaffinity(0)) if wl.kind == "sweep" else 1
        # Warm-up: the first unit, untimed, so lazy imports are not timed.
        # A unit that raises here raises again, and is counted, when timed.
        unit = wl.round_units(order[0])[0]
        with suppress(Exception):
            wl.collect(inputs, unit, wl.run_unit(inputs, unit, workers))

        spans = None
        if args.trace == 0:
            setup_times = []

            def sample_setup(elapsed: float) -> None:
                while (len(setup_times) < SETUP_REPEATS
                       and elapsed >= len(setup_times) * args.seconds / SETUP_REPEATS):
                    setup_times.append(time_setup(wl.name, workdir))

            sample_setup(0.0)
            # A pool's calls run on every CPU, where one thread's samples
            # do not measure them; a long pool call averages the drift out.
            main_pass = run_pass(wl, inputs, order, workers, expected, seconds=args.seconds,
                                 between_rounds=sample_setup, sample_host=workers == 1)
            sample_setup(float("inf"))
            passes = [main_pass]
            metrics, notes = end_to_end(main_pass, statistics.median(setup_times))
            metric_units = dict(END_TO_END)
        else:
            rounds = max(1, args.seconds // TRACE_ROUND_SECONDS[wl.name])
            entries = list(islice(cycle(order), rounds))
            passes, metrics, spans = traced_layers(wl, inputs, entries, expected, workers)
            notes = {"rounds": rounds, "workers": workers,
                     "pass_walls_s": [p.wall for p in passes]}
            metric_units = dict(probes.PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass is checked against the same recorded outputs, so a traced
    # pass that disagrees with an untraced one fails here too.
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [f"{u.key}: {e}" for p in passes for u, _, _, errs in p.units for e in errs]
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in metric_units.items()},
    }
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(args.seed),
        "failed_fraction": failed / attempted,
        "errors": errors[:50],
        **notes,
        **result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-trace{args.trace}-seed{args.seed}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        (OUT / "spans" / f"{stem}.json").write_text(json.dumps(spans), encoding="utf-8")

    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_fraction = {record['failed_fraction']:.6g} ({failed}/{attempted} items)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
