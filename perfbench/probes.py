"""Where the traced run puts its spans, and the per-layer metrics they give.

Each probe rebinds one public function in the namespace of the module that
calls it (``seqlocate.experiments.md_greedy``, ``seqlocate.game.distance_matrix``,
...) to a wrapper that records a span named ``<layer>.<function>``, where the
layer is the module that defines the function. Nothing in the package is
edited; ``Rebinder.restore`` undoes every rebinding.
"""

from __future__ import annotations

from collections import defaultdict

from seqlocate import cli, experiments, game, localization, matrices

from .tracing import ITEM, Rebinder, Span, Tracer, busy_by_name, child_coverage, self_times

def _query_scorings(n_queries: int, rounds: int) -> int:
    """Queries scored over ``rounds`` greedy rounds when round k scores every
    query not yet chosen: sum over k < rounds of (n_queries - k)."""
    return rounds * n_queries - rounds * (rounds - 1) // 2


def _apsp_counts(dm, g) -> dict:
    # Every probed graph is connected, so the largest distance is the diameter.
    levels = int(dm.d.max()) + 1
    words = (dm.n + 63) // 64
    # Computed from array sizes: the int32 output plus one copy of the
    # packed n x words reach bitsets per BFS level.
    return {"levels": levels, "computed_bytes": dm.d.nbytes + levels * dm.n * words * 8}


def _greedy_counts(result, g, dm=None) -> dict:
    return {"rounds": len(result), "scorings": _query_scorings(g.n, len(result))}


def _play_counts(transcript, dm, *args, **kwargs) -> dict:
    steps = transcript.num_steps
    return {"steps": steps, "scorings": _query_scorings(dm.n, steps)}


def _connected_count(result, g) -> dict:
    return {"connected": bool(result)}


def install(tracer: Tracer) -> Rebinder:
    """Rebind every probed function to its traced wrapper."""
    rb = Rebinder()

    def probe(module, attr, span_name, annotate=None):
        rb.set(module, attr, tracer.traced(span_name, getattr(module, attr), annotate))

    probe(cli, "dispatch", "cli.dispatch")
    probe(experiments, "run_experiment", "experiments.run_experiment")
    probe(experiments, "run_md_smd_sweep", "experiments.run_md_smd_sweep")
    probe(experiments, "write_csv", "experiments.write_csv")
    probe(experiments, "sample_gnp", "ermodel.sample_gnp")
    probe(experiments, "er_parameters", "ermodel.er_parameters")
    probe(experiments, "bound_prediction", "ermodel.bound_prediction")
    probe(experiments, "is_connected", "graphs.is_connected", _connected_count)
    probe(experiments, "md_greedy", "localization.md_greedy", _greedy_counts)
    probe(experiments, "play_game", "game.play_game", _play_counts)
    probe(experiments, "smd_exact", "game.smd_exact")
    for module in (experiments, game, localization):
        probe(module, "distance_matrix", "graphs.distance_matrix", _apsp_counts)
    probe(game, "smd_exact", "game.smd_exact")
    probe(game, "smd_maxgain_worstcase", "game.smd_maxgain_worstcase")
    probe(localization, "md_exact", "localization.md_exact")
    for attr in ("sqc_exact", "sqc_maxgain_worstcase", "qc_exact", "qc_greedy"):
        probe(matrices, attr, f"matrices.{attr}")

    # run_trial's first statement derives the trial seed: it starts an item.
    seed_fn = experiments.derive_trial_seed

    def derive_trial_seed(base_seed, *parts):
        tracer.begin_item(parts)
        return seed_fn(base_seed, *parts)

    rb.set(experiments, "derive_trial_seed", derive_trial_seed)
    return rb


# Per-layer metrics: (name, unit). ``busy_s`` is self time summed over the
# traced pass; counts are summed over calls. A metric whose function is not
# on a workload's path reads 0 on that workload.
BUSY = (
    "ermodel.sample_gnp", "graphs.is_connected", "graphs.distance_matrix",
    "localization.md_greedy", "game.play_game", "game.smd_exact",
    "game.smd_maxgain_worstcase", "localization.md_exact", "matrices.sqc_exact",
    "matrices.sqc_maxgain_worstcase", "matrices.qc_exact", "matrices.qc_greedy",
    "experiments.write_csv",
)
PER_LAYER = (
    [(f"{name}.busy_s", "s") for name in BUSY]
    + [
        ("ermodel.bound_prediction.busy_s", "s"),
        ("ermodel.sample_gnp.calls", "count"),
        ("graphs.is_connected.calls", "count"),
        ("graphs.distance_matrix.calls", "count"),
        ("graphs.bfs_levels", "count"),
        ("graphs.distance_matrix.computed_bytes", "B"),
        ("localization.md_greedy.rounds", "count"),
        ("localization.md_greedy.scorings", "count"),
        ("game.play_game.steps", "count"),
        ("game.play_game.scorings", "count"),
        ("experiments.accept_ratio", "ratio"),
        ("experiments.self_s", "s"),
        ("experiments.parallel_efficiency", "ratio"),
        ("cli.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.item_coverage_min", "ratio"),
    ]
)


def item_coverage(spans: list[Span]) -> list[float]:
    """Per item: share of its traced wall time covered by layer spans."""
    cov = child_coverage(spans)
    return [cov[s.id] / s.duration for s in spans if s.name == ITEM and s.duration > 0]


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric that the spans alone determine."""
    busy = defaultdict(float, busy_by_name(spans))
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        for k, v in s.attrs.items():
            attrs[f"{s.name}.{k}"] += int(v)
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}
    # Sweep items are opened inside run_md_smd_sweep, so an item's self time
    # is run_trial's own code and belongs to experiments; exact-small items
    # are opened by the benchmark at top level and belong to no layer.
    experiments_self = sum(
        selfs[s.id] for s in spans
        if (s.name.startswith("experiments.") and s.name != "experiments.write_csv")
        or (s.name == ITEM and names.get(s.parent, "").startswith("experiments."))
    )
    values = {f"{name}.busy_s": busy[name] for name in BUSY}
    values.update({
        "ermodel.bound_prediction.busy_s": busy["ermodel.er_parameters"] + busy["ermodel.bound_prediction"],
        "ermodel.sample_gnp.calls": calls["ermodel.sample_gnp"],
        "graphs.is_connected.calls": calls["graphs.is_connected"],
        "graphs.distance_matrix.calls": calls["graphs.distance_matrix"],
        "graphs.bfs_levels": attrs["graphs.distance_matrix.levels"],
        "graphs.distance_matrix.computed_bytes": attrs["graphs.distance_matrix.computed_bytes"],
        "localization.md_greedy.rounds": attrs["localization.md_greedy.rounds"],
        "localization.md_greedy.scorings": attrs["localization.md_greedy.scorings"],
        "game.play_game.steps": attrs["game.play_game.steps"],
        "game.play_game.scorings": attrs["game.play_game.scorings"],
        "experiments.accept_ratio": (attrs["graphs.is_connected.connected"] / calls["ermodel.sample_gnp"]
                                     if calls["ermodel.sample_gnp"] else 0.0),
        "experiments.self_s": experiments_self,
        "cli.self_s": busy["cli.dispatch"],
        "trace.item_coverage_min": min(item_coverage(spans), default=0.0),
    })
    return values
