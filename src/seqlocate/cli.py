"""Command-line front end.

One subcommand per operation family: ``gen`` samples graphs, ``md`` and
``smd`` compute dimensions, ``game`` plays a scripted match, ``params``
prints the model calculators, ``matrix`` covers the binary-matrix side,
``sweep`` runs a config-driven experiment.  Single-shot results are JSON
on stdout; sweeps write CSV files; graphs and matrices use their
plain-text formats.

Exit codes: 0 success, 2 usage errors (bad flags or configs, files that
cannot be read or written), 3 domain errors (disconnected input, equal
columns, caps exceeded), with a JSON error object on stdout for the
domain case.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
import sys

from . import experiments, game, graphs, localization, matrices
from .ermodel import bound_prediction, er_parameters, predicted_level_fractions, sample_gnp

THREADS_ENV_VAR = "SEQLOCATE_THREADS"

_DOMAIN_ERRORS = (
    graphs.DisconnectedGraphError,
    graphs.GraphFormatError,
    localization.CapExceededError,
    matrices.UndefinedQueryComplexityError,
    matrices.MatrixFormatError,
    experiments.ExperimentError,
)


def _resolve_seed(seed: int | None) -> int:
    """Use the given seed, or draw a fresh one; either way announce it."""
    if seed is None:
        seed = secrets.randbits(63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _read(path: str, parse):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _check_mode_cap(mode: str, cap: int | None) -> None:
    """The ``--cap`` rule of ``smd`` and ``matrix sqc`` in ``mode``: the
    played game's step cap in mode maxgain-greedy, else the exact solvers'
    cap; checked before the input is read."""
    if mode == "maxgain-greedy":
        game._check_step_cap(cap)
    else:
        localization._check_cap(cap)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    g = sample_gnp(args.n, args.p, seed)
    _write_text(graphs.write_edge_list(g), args.out)
    return 0


def _cmd_md(args) -> int:
    localization._check_cap(args.exact_cap)
    g = _read(getattr(args, "in"), graphs.read_edge_list)
    if args.exact_cap is not None:
        size, witness = localization.md_exact(g, cap=args.exact_cap)
        _emit({"md": size, "witness": list(witness), "method": "exact"})
    else:
        witness = localization.md_greedy(g)
        _emit({"md": len(witness), "witness": list(witness), "method": "greedy"})
    return 0


def _cmd_smd(args) -> int:
    if args.transcript and args.mode != "maxgain-greedy":
        raise ValueError(f"--transcript needs --mode maxgain-greedy, not {args.mode}")
    _check_mode_cap(args.mode, args.cap)
    g = _read(getattr(args, "in"), graphs.read_edge_list)
    if args.mode != "maxgain-greedy":
        solver = game.smd_exact if args.mode == "exact" else game.smd_maxgain_worstcase
        _emit({"smd": solver(g, cap=args.cap), "mode": args.mode})
        return 0
    dm = graphs.distance_matrix(g)
    transcript = game.play_game(dm, *game.SMD_ESTIMATE_POLICIES, step_cap=args.cap)
    payload = {"smd": transcript.num_steps, "mode": args.mode, "resolved": transcript.resolved}
    if args.transcript:
        payload["transcript"] = [dataclasses.asdict(s) for s in transcript.steps]
    _emit(payload)
    return 0


def _cmd_game(args) -> int:
    game._check_step_cap(args.cap)
    g = _read(getattr(args, "in"), graphs.read_edge_list)
    if not 0 <= args.target < g.n:
        raise ValueError(f"target {args.target} out of range for n={g.n}")
    dm = graphs.distance_matrix(g)
    transcript = game.play_game(
        dm,
        game.Player1Policy.max_gain(),
        game.AdversaryPolicy.fixed_target(args.target),
        step_cap=args.cap,
    )
    sys.stdout.write(transcript.to_json_lines())
    return 0


def _cmd_params(args) -> int:
    params = er_parameters(args.n, args.p, force_i=args.force_i)
    payload = dataclasses.asdict(params)
    if params.regime_valid:
        payload["bounds"] = dataclasses.asdict(bound_prediction(params))
        payload["level_fractions"] = {
            str(l): frac for l, frac in sorted(predicted_level_fractions(params).items())
        }
    else:
        payload["bounds"] = None
        payload["level_fractions"] = None
    _emit(payload)
    return 0


def _cmd_matrix(args) -> int:
    if args.matrix_cmd == "sample":
        seed = _resolve_seed(args.seed)
        a = matrices.sample_bernoulli(args.m, args.n, args.q, seed)
        _write_text(matrices.write_matrix(a), args.out)
        return 0
    if args.matrix_cmd == "threshold":
        threshold = matrices.qc_threshold(args.n, args.q)
        gamma_qc, gamma_sqc = matrices.gamma_qc_sqc(args.q)
        _emit(
            {
                "n": args.n,
                "q": args.q,
                "threshold_rows": threshold,
                "gamma_qc": gamma_qc,
                "gamma_sqc": gamma_sqc,
            }
        )
        return 0
    if args.matrix_cmd == "qc":
        if args.greedy and args.exact_cap is not None:
            raise ValueError("--exact-cap needs the exact search, not --greedy")
        localization._check_cap(args.exact_cap)
    else:
        _check_mode_cap(args.mode, args.cap)
    a = _read(getattr(args, "in"), matrices.read_matrix)
    if args.matrix_cmd == "qc":
        if args.greedy:
            rows = matrices.qc_greedy(a)
            _emit({"qc": len(rows), "rows": list(rows), "method": "greedy"})
        else:
            size, rows = matrices.qc_exact(a, cap=args.exact_cap)
            _emit({"qc": size, "rows": list(rows), "method": "exact"})
        return 0
    # sqc
    if args.mode == "exact":
        _emit({"sqc": matrices.sqc_exact(a, cap=args.cap), "mode": args.mode})
    elif args.mode == "maxgain-worst":
        _emit({"sqc": matrices.sqc_maxgain_worstcase(a, cap=args.cap), "mode": args.mode})
    else:
        transcript = matrices.sqc_play(a, *game.SMD_ESTIMATE_POLICIES, step_cap=args.cap)
        _emit({"sqc": transcript.num_steps, "mode": args.mode, "resolved": transcript.resolved})
    return 0


def _cmd_sweep(args) -> int:
    cfg = experiments.ExperimentConfig.from_json_file(args.config)
    threads = args.threads
    if threads is None and os.environ.get(THREADS_ENV_VAR):
        value = os.environ[THREADS_ENV_VAR]
        try:
            threads = int(value)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {value!r}") from None
    if threads is not None:
        # replace() re-runs the config's validation on the overridden count.
        cfg = dataclasses.replace(cfg, threads=threads)
    result = experiments.run_experiment(cfg)
    _emit(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlocate",
        description="Localization games on graphs and binary matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a G(n, p) graph to edge-list text")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("md", help="metric dimension (greedy, or exact with --exact-cap)")
    p.add_argument("--in", required=True)
    p.add_argument("--exact-cap", type=int, default=None)
    p.set_defaults(fn=_cmd_md)

    p = sub.add_parser("smd", help="sequential metric dimension and estimates")
    p.add_argument("--in", required=True)
    p.add_argument("--mode", choices=["exact", "maxgain-worst", "maxgain-greedy"], required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--transcript", action="store_true")
    p.set_defaults(fn=_cmd_smd)

    p = sub.add_parser("game", help="scripted MAX-GAIN game against a fixed target")
    p.add_argument("--in", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("params", help="model parameters and bound predictions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--force-i", type=int, default=None)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("matrix", help="binary-matrix games and thresholds")
    msub = p.add_subparsers(dest="matrix_cmd", required=True)

    ps = msub.add_parser("sample", help="sample a Bernoulli(q) matrix")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--q", type=float, required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", default=None)

    pq = msub.add_parser("qc", help="query complexity of a matrix")
    pq.add_argument("--in", required=True)
    pq.add_argument("--exact-cap", type=int, default=None)
    pq.add_argument("--greedy", action="store_true")

    pg = msub.add_parser("sqc", help="sequential query complexity of a matrix")
    pg.add_argument("--in", required=True)
    pg.add_argument("--mode", choices=["exact", "maxgain-worst", "maxgain-greedy"], required=True)
    pg.add_argument("--cap", type=int, default=None)

    pt = msub.add_parser("threshold", help="distinct-columns threshold for Bernoulli(q)")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--q", type=float, required=True)

    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("sweep", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except _DOMAIN_ERRORS as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 3
    except (ValueError, OSError) as exc:
        print(f"seqlocate: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
