"""Command-line interface.

Four sub-commands are provided:

``run``
    Run a single experiment (dataset + attack + knobs) and print the final
    exposure and accuracy metrics.
``serve``
    Run an experiment, freeze the trained factors into an immutable
    :class:`~repro.serving.snapshot.FactorSnapshot` and serve top-K
    recommendations over the stdlib JSON/HTTP front end
    (``--max-requests 0`` binds, reports the address and exits — the smoke
    mode CI uses).
``table``
    Regenerate one of the paper's tables (2-9, or ``defense`` for the
    robust-aggregation extension) and print it.
``figure``
    Regenerate the Figure 3 series and print a text summary.

The engine-switch flags (``--engine``, ``--sampler``, ``--min-reporters``,
...) are generated from the declarative registry
(:data:`~repro.federated.switches.SWITCH_REGISTRY`) — one spec there yields
the config fields, the validation and the CLI flag at once.

Examples
--------
::

    fedrecattack run --dataset ml-100k --attack fedrecattack --rho 0.05 --scale 0.1
    fedrecattack run --dataset steam-200k --sampler permutation --dropout-rate 0.1
    fedrecattack serve --dataset ml-100k --scale 0.1 --epochs 5 --port 8080
    fedrecattack table 7 --profile bench
    fedrecattack figure 3 --dataset steam-200k
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from repro.experiments.config import BENCH_PROFILE, PAPER_PROFILE, ExperimentConfig, ExperimentProfile
from repro.experiments.figures import figure3_side_effects
from repro.experiments.registry import available_attacks
from repro.experiments.runner import run_experiment
from repro.federated.switches import SWITCH_REGISTRY
from repro.experiments.tables import (
    defense_table,
    table2_dataset_sizes,
    table3_xi_sweep,
    table4_rho_sweep,
    table5_kappa_sweep,
    table6_data_poisoning,
    table7_effectiveness,
    table8_model_poisoning,
    table9_ablation,
)

__all__ = ["main", "build_parser", "add_switch_arguments", "switch_overrides"]

_TABLES: dict[str, Callable[[ExperimentProfile], object]] = {
    "2": table2_dataset_sizes,
    "3": table3_xi_sweep,
    "4": table4_rho_sweep,
    "5": table5_kappa_sweep,
    "6": table6_data_poisoning,
    "7": table7_effectiveness,
    "8": table8_model_poisoning,
    "9": table9_ablation,
    "defense": defense_table,
}


def add_switch_arguments(parser: argparse.ArgumentParser) -> None:
    """Register one ``--flag`` per registry switch on ``parser``.

    Flags, types, defaults and help text all come from
    :data:`~repro.federated.switches.SWITCH_REGISTRY` — adding a switch to
    the registry is the whole CLI story.  Choice switches deliberately do
    *not* use argparse ``choices``: unknown values are rejected by
    ``ExperimentConfig.validate()`` with a :class:`ConfigurationError`, the
    same validation every programmatic entry point gets.
    """
    for spec in SWITCH_REGISTRY:
        parser.add_argument(
            spec.cli_flag,
            type=spec.cli_type,
            default=spec.default,
            help=spec.help,
        )


def switch_overrides(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed switch values, keyed by registry field name."""
    return {spec.name: getattr(args, spec.name) for spec in SWITCH_REGISTRY}


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment-description flags shared by ``run`` and ``serve``."""
    parser.add_argument("--dataset", default="ml-100k", help="ml-100k, ml-1m or steam-200k")
    parser.add_argument("--attack", default="fedrecattack", choices=available_attacks())
    parser.add_argument("--scale", type=float, default=0.1, help="dataset down-scaling factor")
    parser.add_argument("--xi", type=float, default=0.01, help="public interaction proportion")
    parser.add_argument("--rho", type=float, default=0.05, help="malicious user proportion")
    parser.add_argument("--kappa", type=int, default=60, help="max non-zero gradient rows")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs")
    parser.add_argument("--factors", type=int, default=16, help="embedding dimension k")
    parser.add_argument("--clients-per-round", type=int, default=64)
    parser.add_argument("--targets", type=int, default=1, help="number of target items")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data-dir", default=None, help="directory with the real dataset files")
    add_switch_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser.

    Exposed separately from :func:`main` so tests (and sphinx-argparse-style
    doc tooling) can introspect the full command surface without running
    anything.
    """
    parser = argparse.ArgumentParser(
        prog="fedrecattack",
        description="Reproduction of FedRecAttack (ICDE 2022): run attacks, tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a single experiment")
    _add_experiment_arguments(run_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="train once, then serve top-K recommendations over HTTP"
    )
    _add_experiment_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve_parser.add_argument("--port", type=int, default=8080, help="port to bind (0: ephemeral)")
    serve_parser.add_argument(
        "--top-k", type=int, default=10, help="default recommendation list length"
    )
    serve_parser.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help=(
            "stop after this many requests (default: serve until interrupted; "
            "0: bind, report the address and exit — smoke mode)"
        ),
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request response deadline in seconds (default: none; slow answers become 504s)",
    )
    serve_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help=(
            "bound on concurrently served /recommend requests (default: unbounded; "
            "excess load is shed with a 503 + Retry-After)"
        ),
    )

    table_parser = subparsers.add_parser("table", help="regenerate one of the paper's tables")
    table_parser.add_argument("table", choices=sorted(_TABLES), help="table number or 'defense'")
    table_parser.add_argument("--profile", choices=("bench", "paper"), default="bench")

    figure_parser = subparsers.add_parser("figure", help="regenerate Figure 3 series")
    figure_parser.add_argument("figure", choices=("3",), help="figure number")
    figure_parser.add_argument("--dataset", default="ml-100k")
    figure_parser.add_argument("--profile", choices=("bench", "paper"), default="bench")

    return parser


def _profile_from_name(name: str) -> ExperimentProfile:
    return PAPER_PROFILE if name == "paper" else BENCH_PROFILE


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Build the experiment config shared by ``run`` and ``serve``."""
    return ExperimentConfig(
        dataset=args.dataset,
        scale=args.scale,
        data_dir=args.data_dir,
        attack=args.attack,
        xi=args.xi,
        rho=0.0 if args.attack == "none" else args.rho,
        kappa=args.kappa,
        num_target_items=args.targets,
        num_factors=args.factors,
        num_epochs=args.epochs,
        clients_per_round=args.clients_per_round,
        seed=args.seed,
        **switch_overrides(args),
    )


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    print(f"dataset={args.dataset} attack={args.attack} rho={config.rho} xi={config.xi}")
    print(f"  malicious clients: {result.num_malicious}")
    print(f"  target items:      {result.target_items.tolist()}")
    if result.exposure is not None:
        print(f"  ER@5:    {result.er_at_5:.4f}")
        print(f"  ER@10:   {result.er_at_10:.4f}")
        print(f"  NDCG@10: {result.target_ndcg_at_10:.4f}")
    if result.accuracy is not None:
        print(f"  HR@10:   {result.hr_at_10:.4f}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so the plain run/table/figure paths never touch the
    # serving layer.
    from repro.serving import RecommenderService, run_http_server

    config = _config_from_args(args)
    result = run_experiment(config)
    assert result.snapshot is not None and result.train is not None
    service = RecommenderService(result.snapshot, result.train, top_k=args.top_k)
    print(
        f"serving dataset={args.dataset} snapshot_version={result.snapshot.version} "
        f"users={result.snapshot.n_users} items={result.snapshot.n_items}"
    )
    if args.max_requests == 0:
        # Smoke mode: prove we can bind (and tear down) without serving.
        host, port = run_http_server(
            service, args.host, args.port, max_requests=0
        )
        print(f"bound http://{host}:{port} (max-requests=0, exiting)")
        return 0
    print(f"listening on http://{args.host}:{args.port} (Ctrl-C to stop)")
    run_http_server(
        service,
        args.host,
        args.port,
        max_requests=args.max_requests,
        request_timeout=args.request_timeout,
        max_in_flight=args.max_in_flight,
    )
    return 0


def _command_table(args: argparse.Namespace) -> int:
    profile = _profile_from_name(args.profile)
    table = _TABLES[args.table](profile)
    print(table)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    profile = _profile_from_name(args.profile)
    figure = figure3_side_effects(profile, dataset=args.dataset)
    print(figure)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (``python -m repro.cli`` or the ``fedrecattack`` script).

    Parameters
    ----------
    argv:
        Argument list without the program name; ``None`` uses ``sys.argv``.

    Returns
    -------
    int
        Process exit code (0 on success), suitable for ``sys.exit``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "table":
        return _command_table(args)
    if args.command == "figure":
        return _command_figure(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
