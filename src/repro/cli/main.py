"""Argument parsing and subcommand implementations for ``python -m repro``.

Every subcommand is a thin call into the library — the CLI owns argument
parsing, file I/O, exit codes and worker-process fan-out, nothing else.
Expected failures (bad arguments, missing or malformed trace files) surface
as a one-line ``error: ...`` on stderr with a non-zero exit code, never a
traceback; see :func:`main`.

Exit codes
----------
* ``0`` — success (for ``bench``: the benchmark ran and every gate passed).
* ``1`` (:data:`EXIT_FAILED`) — a check ran and failed: chaos verdicts,
  benchmark regression gates (``bench`` forwards pytest's failure code).
* ``2`` (:data:`EXIT_USAGE`) — usage or input error: unknown flags, missing
  or malformed files (argparse's own usage errors share this code).
* ``130`` — interrupted (SIGINT).

Parallelism: ``sweep`` and ``replay`` accept ``--workers N`` and shard
their independent jobs (sweep: one per failure level × scheme; replay: one
per trace × seed) across worker *processes*; ``fleet replay`` shards whole
cells onto persistent worker shards instead.  Results are merged in
deterministic order either way, so the output is byte-identical to a
serial run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.traces.schema import TraceError

#: Exit code for usage/input errors (argparse uses 2 for bad flags too).
EXIT_USAGE = 2
#: Exit code for a check that ran and failed (chaos verdicts, bench gates).
EXIT_FAILED = 1


class CliError(Exception):
    """An expected CLI failure, reported as a one-line error message."""


# -- helpers ------------------------------------------------------------------


def _write_text(out: str | None, text: str) -> None:
    """Write ``text`` to the ``--out`` target (``None``/``-`` = stdout)."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _obs_enable(args) -> None:
    """Turn the observability registry on when ``--metrics-out`` is set."""
    if getattr(args, "metrics_out", None):
        from repro import obs

        obs.enable()


def _obs_write(args) -> None:
    """Write the final registry snapshot as JSONL to ``--metrics-out``.

    Histogram wall-clock fields (sum/max/quantiles) ride only behind the
    command's ``--timing`` flag, exactly like the per-step metrics JSONL:
    without them the snapshot is byte-identical across runs, which the CLI
    determinism tests assert.  With ``--workers`` parallelism the replay
    work runs in worker processes with their own registries; the snapshot
    is the parent-process view.
    """
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro import obs

    text = obs.registry().snapshot_jsonl(
        include_timing=bool(getattr(args, "timing", False))
    )
    Path(path).write_text(text, encoding="utf-8")


def _read_trace(path: str):
    from repro.traces.schema import Trace

    if path == "-":
        return Trace.load(sys.stdin)
    target = Path(path)
    if not target.exists():
        raise CliError(f"trace file not found: {target}")
    return Trace.read(target)


def _env_params(args) -> dict:
    """The environment-defining arguments as a plain (picklable) dict."""
    return {
        "node_count": args.nodes,
        "n_apps": args.apps,
        "tagging_scheme": args.tagging,
        "resource_model": args.resource_model,
        "target_utilization": args.utilization,
        "seed": args.env_seed,
    }


#: Per-process environment cache: worker processes (and the serial path)
#: reuse one built environment across the jobs that share its parameters.
_ENV_CACHE: dict[tuple, object] = {}


def _cached_environment(params: dict):
    from repro.adaptlab import build_environment

    key = tuple(sorted(params.items()))
    env = _ENV_CACHE.get(key)
    if env is None:
        env = build_environment(**params)
        _ENV_CACHE.clear()  # one environment at a time; they are big
        _ENV_CACHE[key] = env
    return env


def _build_environment(args):
    return _cached_environment(_env_params(args))


def _worker_count(args, jobs: int) -> int:
    workers = args.workers
    if workers < 1:
        raise CliError("--workers must be >= 1")
    return min(workers, jobs)


def _add_environment_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("environment", "AdaptLab cluster to build")
    group.add_argument("--nodes", type=int, default=300, help="cluster size (default: 300)")
    group.add_argument("--apps", type=int, default=8, help="number of Alibaba-like apps (default: 8)")
    group.add_argument(
        "--tagging", default="service-p90", help="criticality tagging scheme (default: service-p90)"
    )
    group.add_argument(
        "--resource-model", default="cpm", help="resource assignment model (default: cpm)"
    )
    group.add_argument(
        "--utilization", type=float, default=0.7, help="pre-failure utilization (default: 0.7)"
    )
    group.add_argument(
        "--env-seed", type=int, default=2025, help="environment build seed (default: 2025)"
    )


def _select_schemes(names: str | None):
    from repro.adaptlab import default_scheme_suite

    suite = {scheme.name: scheme for scheme in default_scheme_suite()}
    if not names:
        return list(suite.values())
    chosen = []
    for name in names.split(","):
        name = name.strip()
        if name not in suite:
            raise CliError(
                f"unknown scheme {name!r}; available: {', '.join(sorted(suite))}"
            )
        chosen.append(suite[name])
    return chosen


# -- sweep --------------------------------------------------------------------


def _sweep_job(params: dict) -> list:
    """One (failure level, scheme) sweep cell, run in a worker process.

    Rebuilds the environment from its defining arguments (cached per
    process) and reuses :func:`repro.adaptlab.run_failure_sweep` for a
    single level × scheme, so trial seeding is exactly the serial formula.
    """
    from repro.adaptlab import run_failure_sweep

    env = _cached_environment(params["env"])
    scheme = _select_schemes(params["scheme"])[0]
    result = run_failure_sweep(
        env,
        [scheme],
        failure_levels=[params["level"]],
        trials=params["trials"],
        seed=params["seed"],
        include_requests_served=params["requests_served"],
    )
    return result.points


def cmd_sweep(args) -> int:
    """Failure-level sweep across resilience schemes (Figure 7 shape)."""
    from repro.adaptlab import run_failure_sweep
    from repro.adaptlab.harness import SweepResult

    try:
        levels = [float(level) for level in args.levels.split(",") if level.strip()]
    except ValueError:
        raise CliError(f"--levels must be comma-separated numbers, got {args.levels!r}") from None
    if not levels:
        raise CliError("--levels must name at least one failure level")
    schemes = _select_schemes(args.schemes)
    jobs = [
        {
            "env": _env_params(args),
            "level": level,
            "scheme": scheme.name,
            "trials": args.trials,
            "seed": args.seed,
            "requests_served": args.requests_served,
        }
        for level in levels
        for scheme in schemes
    ]
    workers = _worker_count(args, len(jobs))
    if workers <= 1:
        env = _build_environment(args)
        result = run_failure_sweep(
            env,
            schemes,
            failure_levels=levels,
            trials=args.trials,
            seed=args.seed,
            include_requests_served=args.requests_served,
        )
    else:
        from concurrent.futures import ProcessPoolExecutor

        result = SweepResult()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves job order, so the merged point list (and the
            # sorted table below) is identical to the serial run's.
            for points in pool.map(_sweep_job, jobs):
                result.points.extend(points)
    metrics = ["availability", "revenue", "fairness_total", "utilization"]
    if args.requests_served:
        metrics.append("requests_served")
    header = f"{'scheme':<18}{'level':<8}" + "".join(m.ljust(16) for m in metrics)
    print(header)
    for point in sorted(result.points, key=lambda p: (p.failure_level, p.scheme)):
        row = f"{point.scheme:<18}{point.failure_level:<8.2f}"
        for metric in metrics:
            value = getattr(point, metric)
            row += (f"{value:<16.4f}" if value is not None else "-".ljust(16))
        print(row)
    return 0


# -- replay -------------------------------------------------------------------


def _replay_job(params: dict) -> str:
    """One (trace, seed) replay, run in a worker process; returns JSONL."""
    import io

    import repro.api as api
    from repro.traces.replayer import TraceReplayer
    from repro.traces.schema import Trace

    trace = Trace.load(io.StringIO(params["trace_text"]))
    env = _cached_environment(params["env"])
    known = {node.name for node in env.state.nodes.values()}
    unknown = sorted(trace.node_names() - known)
    if unknown:
        raise CliError(
            f"trace {params['label']} names {len(unknown)} node(s) outside the "
            f"{params['env']['node_count']}-node cluster (first: {unknown[0]}); "
            f"regenerate with matching --nodes"
        )
    engine = api.engine(
        params["objective"],
        implementation=params["implementation"],
        incremental=params["incremental"],
    )
    replayer = TraceReplayer(
        engine,
        traced=env.traced if params["requests_served"] else None,
        seed=params["seed"],
        force_each_step=params["force_each_step"],
    )
    metrics = replayer.run(env.fresh_state(), trace)
    return metrics.to_jsonl(include_timing=params["timing"])


def cmd_replay(args) -> int:
    """Replay JSONL trace(s) through the engine; emit per-step metrics JSONL."""
    _obs_enable(args)
    if args.seeds is not None:
        try:
            seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
        except ValueError:
            raise CliError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        if not seeds:
            raise CliError("--seeds must name at least one seed")
    else:
        seeds = [args.seed]
    trace_texts: list[tuple[str, str]] = []
    for path in args.trace:
        if path == "-":
            trace_texts.append(("<stdin>", sys.stdin.read()))
            continue
        target = Path(path)
        if not target.exists():
            raise CliError(f"trace file not found: {target}")
        trace_texts.append((path, target.read_text(encoding="utf-8")))
    jobs = [
        {
            "env": _env_params(args),
            "label": label,
            "trace_text": text,
            "seed": seed,
            "objective": args.objective,
            "implementation": args.implementation,
            "incremental": not args.full_recompute,
            "requests_served": args.requests_served,
            "force_each_step": args.force_each_step,
            "timing": args.timing,
        }
        for label, text in trace_texts
        for seed in seeds
    ]
    workers = _worker_count(args, len(jobs))
    if workers <= 1:
        chunks = [_replay_job(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() yields in job order: (trace, seed), traces outermost —
            # the merged stream is byte-identical to the serial run.
            chunks = list(pool.map(_replay_job, jobs))
    _write_text(args.out, "".join(chunks))
    _obs_write(args)
    return 0


# -- fleet --------------------------------------------------------------------


def _fleet_environments(args) -> list:
    """One AdaptLab environment per cell, built once per command.

    Cell ``i`` gets its own environment built with ``env-seed + i`` so the
    fleet is heterogeneous (different app mixes per cell) yet fully
    deterministic.  The per-process ``_ENV_CACHE`` holds a single entry, so
    N distinct per-cell environments are built directly and held here —
    callers that need several fleets (the sweep) reuse this list and take
    ``fresh_state()`` per fleet instead of rebuilding environments.
    """
    from repro.adaptlab import build_environment

    if args.cells < 1:
        raise CliError("--cells must be >= 1")
    return [
        build_environment(
            node_count=args.nodes_per_cell,
            n_apps=args.apps,
            tagging_scheme=args.tagging,
            resource_model=args.resource_model,
            target_utilization=args.utilization,
            seed=args.env_seed + index,
        )
        for index in range(args.cells)
    ]


def _build_fleet(args, environments):
    """A converged fleet over fresh per-cell states of ``environments``."""
    from repro.fleet import FleetConfig, FleetEngine

    config = FleetConfig(
        cells=args.cells,
        objective=args.objective,
        spillover=args.spillover,
        workers=args.workers,
    )
    fleet = FleetEngine(config, states=[env.fresh_state() for env in environments])
    # Converge the pre-scenario placement serially: convergence output is
    # identical either way, and shipping whole states to a pool for one
    # round costs more than it saves.
    fleet.reconcile(force=True, workers=1)
    return fleet


def _fleet_scenario(args):
    from repro.traces import fleet_scenario

    if args.scenario == "poisson":
        return fleet_scenario(
            args.cells,
            args.nodes_per_cell,
            horizon=args.horizon,
            mtbf=args.mtbf,
            mttr=args.mttr,
            seed=args.seed,
        )
    if args.scenario == "storm":
        return fleet_scenario(
            args.cells,
            args.nodes_per_cell,
            horizon=args.horizon,
            mtbf=args.mtbf,
            mttr=args.mttr,
            storm_at=args.storm_at,
            storm_fraction=args.storm_fraction,
            storm_cells=min(args.storm_cells, args.cells),
            seed=args.seed,
        )
    if args.scenario == "outage":
        if not 0 <= args.outage_cell < args.cells:
            raise CliError(
                f"--outage-cell must be within [0, {args.cells - 1}], got {args.outage_cell}"
            )
        return fleet_scenario(
            args.cells,
            args.nodes_per_cell,
            horizon=args.horizon,
            mtbf=None,  # clean outage: no background churn
            outage_cell=args.outage_cell,
            outage_at=args.outage_at,
            outage_recovery_after=args.outage_recovery_after,
            seed=args.seed,
        )
    raise CliError(f"unknown scenario {args.scenario!r}")  # pragma: no cover


def cmd_fleet_replay(args) -> int:
    """Replay a fleet scenario; emit deterministic per-step metrics JSONL.

    ``--profile`` runs the replay under cProfile and prints the top 20
    functions by cumulative time (same report as ``repro bench --profile``)
    plus the replayer's per-phase wall-clock split, to stderr so the
    metrics JSONL on stdout stays machine-readable.
    """
    from repro.fleet import FleetReplayer

    _obs_enable(args)
    fleet = _build_fleet(args, _fleet_environments(args))
    scenario = _fleet_scenario(args)
    replayer = FleetReplayer(fleet, seed=args.seed, workers=args.workers)
    try:
        if args.profile:
            import cProfile
            import tempfile

            profile = cProfile.Profile()
            profile.enable()
            metrics = replayer.run(scenario)
            profile.disable()
            handle = tempfile.NamedTemporaryFile(suffix=".prof", delete=False)
            handle.close()
            profile_path = Path(handle.name)
            try:
                profile.dump_stats(profile_path)
                print(_profile_summary(profile_path), end="", file=sys.stderr)
            finally:
                profile_path.unlink(missing_ok=True)
            phases = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in replayer.phase_seconds.items()
            )
            print(f"replay phases: {phases}", file=sys.stderr)
        else:
            metrics = replayer.run(scenario)
    finally:
        fleet.close()
    _write_text(args.out, metrics.to_jsonl())
    _obs_write(args)
    return 0


def _serve_fleet_params(args) -> dict:
    """The ``build_fleet`` kwargs for ``serve``, echoed verbatim by /config.

    A client that wants to verify a served session offline rebuilds the
    fleet from exactly this dict (see ``repro.serve.app.build_fleet``), so
    the mapping must stay 1:1 with the builder's signature.
    """
    return {
        "cells": args.cells,
        "nodes_per_cell": args.nodes_per_cell,
        "apps": args.apps,
        "tagging": args.tagging,
        "resource_model": args.resource_model,
        "utilization": args.utilization,
        "env_seed": args.env_seed,
        "objective": args.objective,
        "spillover": args.spillover,
    }


def cmd_serve(args) -> int:
    """Boot the live control plane and serve until interrupted.

    Prints one JSON ``Serving`` line to stdout once the socket is bound
    (machine-readable: the smoke driver and tests parse the port from it),
    then blocks.  SIGTERM and Ctrl-C both exit cleanly (0) through a
    graceful drain: in-flight admitted batches finish and the write-ahead
    journal is flushed before the process exits.

    With ``--wal`` every admitted batch is journaled before it applies;
    after a crash, ``--resume`` rebuilds the session from the journal
    (fast-forwarded from ``--checkpoint`` when one exists) with a trace and
    digest byte-identical to an uncrashed run's.
    """
    import asyncio
    import json
    import signal

    from repro.serve import ControlPlane, WriteAheadLog, build_fleet, resume_control_plane

    _obs_enable(args)
    if args.checkpoint_every and not args.checkpoint:
        raise CliError("--checkpoint-every requires --checkpoint PATH")
    if args.resume:
        if not args.wal:
            raise CliError("--resume requires --wal PATH (the journal to replay)")
        # queue_limit=None → resume_control_plane falls back to the limit
        # journaled in the WAL header, so a resumed session keeps the
        # original admission back-pressure unless the flag is re-specified.
        plane = resume_control_plane(
            args.wal,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            queue_limit=args.queue_limit,
        )
    else:
        queue_limit = 1024 if args.queue_limit is None else args.queue_limit
        params = _serve_fleet_params(args)
        fleet = build_fleet(**params)
        wal = None
        if args.wal:
            wal = WriteAheadLog(
                args.wal,
                header={
                    "fleet": params,
                    "seed": args.seed,
                    "force_each_step": args.force_each_step,
                    "queue_limit": queue_limit,
                },
            )
        plane = ControlPlane(
            fleet,
            seed=args.seed,
            force_each_step=args.force_each_step,
            queue_limit=queue_limit,
            fleet_params=params,
            wal=wal,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        signals_installed = True
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        except (NotImplementedError, RuntimeError):
            signals_installed = False  # non-unix: fall back to KeyboardInterrupt
        host, port = await plane.start(args.host, args.port)
        print(
            json.dumps(
                {
                    "event": "Serving",
                    "host": host,
                    "port": port,
                    "cells": len(plane.fleet.cells),
                    "rounds": plane.recorder.rounds,
                    "resumed": bool(args.resume),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        serving = asyncio.create_task(plane.serve_forever())
        stopper = asyncio.create_task(stop.wait())
        try:
            if signals_installed:
                await asyncio.wait(
                    {serving, stopper}, return_when=asyncio.FIRST_COMPLETED
                )
            else:
                await serving
        finally:
            serving.cancel()
            stopper.cancel()
            await asyncio.gather(serving, stopper, return_exceptions=True)
            await plane.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    _obs_write(args)
    return 0


def cmd_serve_load(args) -> int:
    """Drive a running control plane open-loop; print the latency report."""
    import asyncio
    import json

    from repro.serve import run_load

    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            rate=args.rate,
            duration=args.duration,
            connections=args.connections,
            batch=args.batch,
            seed=args.seed,
            nodes_per_cell=args.pool,
        )
    )
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_fleet_sweep(args) -> int:
    """Sweep cells-lost levels × spillover policies; print the fleet table."""
    try:
        losses = [int(level) for level in args.lost.split(",") if level.strip()]
    except ValueError:
        raise CliError(f"--lost must be comma-separated integers, got {args.lost!r}") from None
    if not losses:
        raise CliError("--lost must name at least one cells-lost level")
    if any(level < 0 or level >= args.cells for level in losses):
        raise CliError(f"--lost levels must be within [0, {args.cells - 1}]")
    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    if not policies:
        raise CliError("--policies must name at least one spillover policy")

    environments = _fleet_environments(args)
    print(f"{'policy':<10}{'cells_lost':<12}{'availability':<14}{'revenue':<10}{'spillovers':<12}")
    for policy in policies:
        for lost in losses:
            args.spillover = policy
            fleet = _build_fleet(args, environments)
            for cell in fleet.cells[:lost]:
                cell.state.fail_nodes(list(cell.state.nodes))
            report = fleet.reconcile(workers=args.workers)
            print(
                f"{policy:<10}{lost:<12}{report.availability:<14.4f}"
                f"{report.revenue:<10.4f}{len(report.planned):<12}"
            )
    return 0


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fleet", "fleet shape and engines")
    group.add_argument("--cells", type=int, default=4, help="number of cells (default: 4)")
    group.add_argument(
        "--nodes-per-cell", type=int, default=100, help="cluster size per cell (default: 100)"
    )
    group.add_argument("--apps", type=int, default=4, help="applications per cell (default: 4)")
    group.add_argument(
        "--tagging", default="service-p90", help="criticality tagging scheme (default: service-p90)"
    )
    group.add_argument(
        "--resource-model", default="cpm", help="resource assignment model (default: cpm)"
    )
    group.add_argument(
        "--utilization", type=float, default=0.7, help="pre-failure utilization (default: 0.7)"
    )
    group.add_argument(
        "--env-seed", type=int, default=2025,
        help="environment build seed; cell i uses env-seed+i (default: 2025)",
    )
    group.add_argument("--objective", default="revenue", help="engine objective (default: revenue)")
    group.add_argument(
        "--spillover", default="packed", choices=("packed", "none"),
        help="cross-cell spillover policy (default: packed)",
    )
    group.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding cells (byte-identical to serial; default: 1)",
    )


# -- chaos --------------------------------------------------------------------


def cmd_chaos(args) -> int:
    """Chaos-test application templates (tag validation + storm recovery)."""
    from repro.apps import build_hotel_reservation, build_overleaf
    from repro.chaos import (
        run_cell_outage_check,
        run_storm_check,
        verify_tagging,
        verify_tagging_on_cluster,
    )

    builders = {"overleaf": build_overleaf, "hotel": build_hotel_reservation}
    if args.template == "all":
        names = sorted(builders)
    elif args.template in builders:
        names = [args.template]
    else:
        raise CliError(
            f"unknown template {args.template!r}; available: all, {', '.join(sorted(builders))}"
        )
    # A custom trace implies the storm check (it is what consumes traces).
    storm_trace = _read_trace(args.trace) if args.trace else None
    all_passed = True
    for name in names:
        template = builders[name]()
        report = verify_tagging(template, seed=args.seed)
        print(report.to_text())
        all_passed &= report.passed
        cluster_report = verify_tagging_on_cluster(
            template, node_count=args.nodes, objective=args.objective
        )
        print(cluster_report.to_text())
        all_passed &= cluster_report.passed
        if args.storm or storm_trace is not None:
            storm_report = run_storm_check(
                template,
                node_count=args.nodes,
                storm_fraction=args.storm_fraction,
                objective=args.objective,
                seed=args.seed,
                trace=storm_trace,
            )
            print(storm_report.to_text())
            all_passed &= storm_report.passed
        if args.cell_outage:
            outage_report = run_cell_outage_check(
                template,
                cells=args.fleet_cells,
                node_count=args.nodes,
                objective=args.objective,
            )
            print(outage_report.to_text())
            all_passed &= outage_report.passed
    return 0 if all_passed else EXIT_FAILED


# -- corpus / fuzz ------------------------------------------------------------


def cmd_corpus(args) -> int:
    """Sweep the scenario corpus under the invariant oracle; emit coverage."""
    from repro.corpus import SCENARIOS, run_corpus, scenario_names

    if args.list:
        print(f"{'name':<22}{'scale':<9}{'nodes':<7}description")
        for scenario in SCENARIOS:
            print(
                f"{scenario.name:<22}{scenario.scale:<9}"
                f"{scenario.node_count:<7}{scenario.description}"
            )
        return 0
    names = None
    if args.only:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in names if name not in scenario_names()]
        if unknown:
            raise CliError(
                f"unknown scenario {unknown[0]!r}; available: "
                f"{', '.join(scenario_names())}"
            )
        if not names:
            raise CliError("--only must name at least one scenario")
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    scales = None if args.scale == "all" else (args.scale,)
    report = run_corpus(
        names,
        workers=args.workers,
        seed=args.seed,
        env_seed=args.env_seed,
        scales=scales,
    )
    if not report.records:
        raise CliError(f"no scenarios match --scale {args.scale!r}")
    _write_text(args.out, report.to_jsonl())
    print(report.to_text(), file=sys.stderr)
    return 0 if report.ok else EXIT_FAILED


def cmd_fuzz(args) -> int:
    """Property-based chaos fuzz: random event programs under the oracle."""
    from repro.chaos.fuzz import FuzzConfig, run_fuzz

    if args.cases < 1:
        raise CliError("--cases must be >= 1")
    if args.infra:
        from repro.chaos.infra import InfraFuzzConfig, run_infra_fuzz

        config = InfraFuzzConfig(
            cases=args.cases,
            cells=args.cells,
            nodes_per_cell=args.nodes_per_cell,
            n_apps=args.apps,
            env_seed=args.env_seed,
            horizon=args.horizon,
            seed=args.seed,
        )
        report = run_infra_fuzz(config)
        print(report.to_text())
        if report.violation is not None:
            report.violation.write(args.reproducer)
            print(f"reproducer written to {args.reproducer}", file=sys.stderr)
            return EXIT_FAILED
        return 0
    config = FuzzConfig(
        cases=args.cases,
        node_count=args.nodes,
        n_apps=args.apps,
        horizon=args.horizon,
        objective=args.objective,
        seed=args.seed,
        env_seed=args.env_seed,
        lockstep=not args.no_lockstep,
    )
    report = run_fuzz(config)
    print(report.to_text())
    if report.violation is not None:
        report.violation.write(args.reproducer)
        print(f"reproducer written to {args.reproducer}", file=sys.stderr)
        return EXIT_FAILED
    return 0


# -- bench --------------------------------------------------------------------

#: Short name -> benchmark file glob, for ``repro bench <name>``.
BENCH_ALIASES = {
    "fig5": "bench_fig5_cloudlab.py",
    "fig6": "bench_fig6_timeline.py",
    "fig7": "bench_fig7_adaptlab.py",
    "fig8a": "bench_fig8a_replay.py",
    "fig8b": "bench_fig8b_scalability.py",
    "fig8c": "bench_fig8c_utilization.py",
    "fig9": "bench_fig9_resource_breakdown.py",
    "fig17": "bench_fig17_alibaba.py",
    "table1": "bench_table1_latency.py",
    "appendix-f2": "bench_appendix_f2.py",
    "ablations": "bench_ablations.py",
    "engine": "bench_engine.py",
}


def _profile_summary(profile_path: Path, limit: int = 20) -> str:
    """Top ``limit`` functions by cumulative time from a cProfile dump."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(str(profile_path), stream=stream)
    stats.sort_stats("cumulative").print_stats(limit)
    return stream.getvalue()


def cmd_bench(args) -> int:
    """Run one of the figure benchmarks through pytest.

    Exit code 0 means the benchmark ran and its gates passed; a non-zero
    code is pytest's own failure code (a tripped regression gate exits 1).
    ``--json`` captures the run into a machine-readable record; ``--profile``
    runs it under cProfile and reports the top 20 functions by cumulative
    time.
    """
    import json
    import os
    import subprocess
    import tempfile
    import time

    bench_dir = Path(args.dir)
    if args.list:
        for name in sorted(BENCH_ALIASES):
            print(f"{name:<14}{BENCH_ALIASES[name]}")
        return 0
    if not args.name:
        raise CliError("name a benchmark (see `repro bench --list`)")
    filename = BENCH_ALIASES.get(args.name, args.name)
    target = bench_dir / filename
    if not target.exists():
        raise CliError(
            f"benchmark file not found: {target} "
            f"(run from the repository root or pass --dir; see `repro bench --list`)"
        )
    env = os.environ.copy()
    env["REPRO_BENCH_SCALE"] = args.scale

    profile_path: Path | None = None
    if args.profile:
        handle = tempfile.NamedTemporaryFile(suffix=".prof", delete=False)
        handle.close()
        profile_path = Path(handle.name)
        # A tiny driver rather than `python -m cProfile -m pytest`: the
        # cProfile CLI swallows pytest's SystemExit, which would report a
        # tripped gate as success.  pytest.main returns the exit code, so
        # the driver can both dump the stats and forward the code.
        driver = (
            "import sys, cProfile, pytest\n"
            "dump, argv = sys.argv[1], sys.argv[2:]\n"
            "profile = cProfile.Profile()\n"
            "profile.enable()\n"
            "code = pytest.main(argv)\n"
            "profile.disable()\n"
            "profile.dump_stats(dump)\n"
            "sys.exit(int(code))\n"
        )
        command = [
            sys.executable, "-c", driver, str(profile_path), str(target), "-q", "-s",
        ]
    else:
        command = [sys.executable, "-m", "pytest", str(target), "-q", "-s"]

    started = time.perf_counter()
    try:
        if args.json is not None:
            proc = subprocess.run(command, env=env, capture_output=True, text=True)
            returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        else:
            returncode = subprocess.call(command, env=env)
            stdout = stderr = None
        duration = time.perf_counter() - started

        profile_text = None
        if profile_path is not None and profile_path.stat().st_size > 0:
            profile_text = _profile_summary(profile_path)
            if args.json is None:
                print(profile_text, end="")
    finally:
        if profile_path is not None:
            profile_path.unlink(missing_ok=True)

    if args.json is not None:
        record = {
            "record": "bench",
            "bench": args.name,
            "file": str(target),
            "scale": args.scale,
            "command": command,
            "returncode": returncode,
            "duration_seconds": round(duration, 3),
            "stdout": stdout,
            "stderr": stderr,
        }
        if profile_text is not None:
            record["profile_top"] = profile_text
        _write_text(args.json, json.dumps(record, sort_keys=True) + "\n")
        if args.json != "-" and stdout:
            # JSON went to a file: still echo the benchmark's own output.
            sys.stdout.write(stdout)
    return returncode


# -- trace gen / validate -----------------------------------------------------


def cmd_trace_gen(args) -> int:
    """Generate a seeded scenario trace as JSONL."""
    from repro.traces import generators
    from repro.traces.alibaba import paper_capacity_trace

    if args.kind == "poisson":
        trace = generators.poisson_failures(
            args.nodes, horizon=args.horizon, mtbf=args.mtbf, mttr=args.mttr, seed=args.seed
        )
    elif args.kind == "rack":
        trace = generators.correlated_failures(
            args.nodes,
            rack_size=args.rack_size,
            horizon=args.horizon,
            rack_mtbf=args.mtbf,
            mttr=args.mttr,
            seed=args.seed,
        )
    elif args.kind == "diurnal":
        trace = generators.diurnal_load(
            horizon=args.horizon,
            step_seconds=args.step_seconds,
            base=args.base,
            amplitude=args.amplitude,
            period=args.period,
            seed=args.seed,
        )
    elif args.kind == "storm":
        trace = generators.failure_storm(
            args.nodes,
            at=args.at,
            fraction=args.fraction,
            recovery_after=args.recovery_after,
            recovery_steps=args.recovery_steps,
            seed=args.seed,
        )
    elif args.kind == "alibaba":
        trace = paper_capacity_trace(
            steps=args.steps, seed=args.seed, step_seconds=args.step_seconds
        )
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown trace kind {args.kind!r}")
    _write_text(args.out, trace.dumps())
    return 0


def cmd_trace_validate(args) -> int:
    """Parse + validate a trace file and print a one-line summary."""
    trace = _read_trace(args.file)
    kinds = ", ".join(f"{kind}×{count}" for kind, count in sorted(trace.kinds().items()))
    generator = trace.metadata.get("generator", "unknown")
    print(
        f"ok: {len(trace)} events over {trace.duration:.1f}s "
        f"({kinds or 'no events'}; generator: {generator})"
    )
    return 0


# -- parser -------------------------------------------------------------------


class _VersionAction(argparse.Action):
    """``--version`` that imports the (heavy) package only when asked."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show program's version number and exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import __version__

        print(f"repro {__version__}")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Phoenix reproduction command line: failure sweeps, trace replay, "
            "chaos checks and figure benchmarks over the one PhoenixEngine."
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", metavar="command")

    sweep = sub.add_parser(
        "sweep",
        help="failure-level sweep across resilience schemes (Figure 7 shape)",
        description="Sweep failure levels across schemes and print the metric table.",
    )
    _add_environment_options(sweep)
    sweep.add_argument(
        "--levels", default="0.1,0.3,0.5,0.7,0.9", help="comma-separated capacity-loss fractions"
    )
    sweep.add_argument("--trials", type=int, default=1, help="trials per point (default: 1)")
    sweep.add_argument("--seed", type=int, default=0, help="failure-injection seed (default: 0)")
    sweep.add_argument(
        "--schemes", default=None, help="comma-separated scheme names (default: the paper's five)"
    )
    sweep.add_argument(
        "--requests-served", action="store_true", help="also evaluate requests served (slower)"
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding level×scheme cells (deterministic merge; default: 1)",
    )
    sweep.set_defaults(func=cmd_sweep)

    replay = sub.add_parser(
        "replay",
        help="replay a JSONL trace through the engine, emit per-step metrics",
        description=(
            "Replay a scenario trace (see `repro trace gen`) through a PhoenixEngine "
            "and write deterministic per-step metrics JSONL."
        ),
    )
    replay.add_argument(
        "--trace", required=True, action="append",
        help="trace file (JSONL; '-' for stdin); repeatable — traces replay in order",
    )
    _add_environment_options(replay)
    replay.add_argument("--seed", type=int, default=0, help="replay seed for capacity events")
    replay.add_argument(
        "--seeds", default=None,
        help="comma-separated replay seeds (each trace replays once per seed; overrides --seed)",
    )
    replay.add_argument("--objective", default="revenue", help="engine objective (default: revenue)")
    replay.add_argument(
        "--implementation",
        default="fast",
        choices=("fast", "reference"),
        help="engine stages: fast or golden reference",
    )
    replay.add_argument(
        "--full-recompute", action="store_true",
        help="disable incremental reconciliation (EngineConfig(incremental=False) A/B baseline)",
    )
    replay.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding trace×seed replays (deterministic merge; default: 1)",
    )
    replay.add_argument(
        "--requests-served", action="store_true", help="also evaluate requests served per step"
    )
    replay.add_argument(
        "--force-each-step", action="store_true",
        help="force a planning round on every step (always a full recompute)",
    )
    replay.add_argument(
        "--timing", action="store_true",
        help="include wall-clock planning seconds (breaks byte-reproducibility)",
    )
    replay.add_argument("--out", default=None, help="output file (default: stdout)")
    replay.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable the observability registry and write its final snapshot "
        "as JSONL (parent-process view when --workers > 1)",
    )
    replay.set_defaults(func=cmd_replay)

    fleet = sub.add_parser(
        "fleet",
        help="federated fleet scenarios: replay and cells-lost sweeps",
        description=(
            "Drive a FleetEngine — many per-cell PhoenixEngines with cross-cell "
            "spillover — through fleet scenarios. Parallel runs (--workers) are "
            "byte-identical to serial ones."
        ),
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", metavar="subcommand")
    fleet.set_defaults(func=lambda args: fleet.print_help() or 0)

    fleet_replay = fleet_sub.add_parser(
        "replay",
        help="replay a fleet scenario, emit per-step fleet metrics JSONL",
        description=(
            "Build a fleet of per-cell AdaptLab environments, generate a seeded "
            "fleet scenario (per-cell churn, correlated storms, or a full cell "
            "outage) and replay it. Output JSONL is byte-identical for every "
            "--workers value."
        ),
    )
    _add_fleet_options(fleet_replay)
    fleet_replay.add_argument("--seed", type=int, default=0, help="scenario seed (default: 0)")
    fleet_replay.add_argument(
        "--scenario", default="outage", choices=("poisson", "storm", "outage"),
        help="scenario shape (default: outage)",
    )
    fleet_replay.add_argument("--horizon", type=float, default=3600.0, help="trace length in seconds")
    fleet_replay.add_argument("--mtbf", type=float, default=1800.0, help="per-cell churn MTBF")
    fleet_replay.add_argument("--mttr", type=float, default=300.0, help="per-cell churn MTTR")
    fleet_replay.add_argument("--storm-at", type=float, default=600.0, help="storm: burst timestamp")
    fleet_replay.add_argument(
        "--storm-fraction", type=float, default=0.4, help="storm: fraction of each hit cell"
    )
    fleet_replay.add_argument(
        "--storm-cells", type=int, default=2, help="storm: cells hit simultaneously"
    )
    fleet_replay.add_argument(
        "--outage-cell", type=int, default=0, help="outage: index of the cell lost"
    )
    fleet_replay.add_argument("--outage-at", type=float, default=600.0, help="outage: timestamp")
    fleet_replay.add_argument(
        "--outage-recovery-after", type=float, default=1800.0,
        help="outage: seconds until the cell returns",
    )
    fleet_replay.add_argument("--out", default=None, help="output file (default: stdout)")
    fleet_replay.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable the observability registry and write its final snapshot as JSONL",
    )
    fleet_replay.add_argument(
        "--profile", action="store_true",
        help="run under cProfile; print top-20 cumulative functions and the "
        "replay's per-phase timings to stderr",
    )
    fleet_replay.set_defaults(func=cmd_fleet_replay)

    fleet_sweep = fleet_sub.add_parser(
        "sweep",
        help="sweep cells-lost levels across spillover policies",
        description=(
            "For each (policy, cells lost) pair: build a fresh fleet, fail that "
            "many whole cells, reconcile once and print fleet availability, "
            "revenue and planned spillovers."
        ),
    )
    _add_fleet_options(fleet_sweep)
    fleet_sweep.add_argument(
        "--lost", default="0,1,2", help="comma-separated cells-lost levels (default: 0,1,2)"
    )
    fleet_sweep.add_argument(
        "--policies", default="packed,none",
        help="comma-separated spillover policies to compare (default: packed,none)",
    )
    fleet_sweep.set_defaults(func=cmd_fleet_sweep)

    serve = sub.add_parser(
        "serve",
        help="serve a live fleet control plane (HTTP + WebSocket, stdlib only)",
        description=(
            "Build a fleet and serve it: POST /mutations admits trace-event "
            "records through a deterministic batcher (one reconcile round per "
            "batch, canonical order, 429 back-pressure), GET endpoints expose "
            "summaries/metrics/config/trace/digest, and /ws streams the typed "
            "event bus as JSON. '/' is a live dashboard. Prints one JSON "
            "'Serving' line with the bound port, then blocks until Ctrl-C."
        ),
    )
    _add_fleet_options(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642, help="bind port; 0 = ephemeral (default: 8642)")
    serve.add_argument("--seed", type=int, default=0, help="capacity-event seed (default: 0)")
    serve.add_argument(
        "--queue-limit", type=int, default=None,
        help="max pending mutations before 429 back-pressure (default: 1024; "
        "on --resume, defaults to the limit recorded in the journal header)",
    )
    serve.add_argument(
        "--force-each-step", action="store_true",
        help="force a planning round in every cell on every admitted batch",
    )
    serve.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead journal: fsync every admitted batch before it "
        "applies (enables crash recovery via --resume)",
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="durable fleet checkpoint file (written every --checkpoint-every "
        "rounds; bounds --resume replay time)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint cadence in rounds (0 = never; requires --checkpoint)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="rebuild the session from --wal (and --checkpoint if present) "
        "instead of starting fresh; the recovered trace and digest match an "
        "uncrashed run",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable the observability registry and write its final snapshot "
        "as JSONL at shutdown",
    )
    serve.set_defaults(func=cmd_serve)

    serve_load = sub.add_parser(
        "serve-load",
        help="open-loop load generator against a running 'repro serve'",
        description=(
            "Submit seeded node-churn mutations at a fixed open-loop rate and "
            "report admission-latency percentiles (p50/p90/p99/p999), 429 "
            "counts, and the server's round-latency view, as JSON."
        ),
    )
    serve_load.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    serve_load.add_argument("--port", type=int, required=True, help="server port")
    serve_load.add_argument("--rate", type=float, default=1000.0, help="mutations/sec offered (default: 1000)")
    serve_load.add_argument("--duration", type=float, default=5.0, help="seconds of load (default: 5)")
    serve_load.add_argument(
        "--connections", type=int, default=8, help="concurrent keep-alive connections (default: 8)"
    )
    serve_load.add_argument(
        "--batch", type=int, default=1,
        help="max already-due mutations coalesced per POST (default: 1)",
    )
    serve_load.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    serve_load.add_argument(
        "--pool", type=int, default=16, help="nodes sampled per cell for churn (default: 16)"
    )
    serve_load.add_argument("--out", default=None, help="report file (default: stdout)")
    serve_load.set_defaults(func=cmd_serve_load)

    chaos = sub.add_parser(
        "chaos",
        help="chaos-test application templates (tags + engine + storms)",
        description=(
            "Run the chaos suite for the bundled templates: template-level tag "
            "validation, engine-driven cluster degradation, and optionally a "
            "failure-storm recovery check. Exits 1 if any check fails."
        ),
    )
    chaos.add_argument(
        "--template", default="all", help="overleaf, hotel, or all (default: all)"
    )
    chaos.add_argument("--nodes", type=int, default=12, help="cluster size (default: 12)")
    chaos.add_argument("--objective", default="revenue", help="engine objective (default: revenue)")
    chaos.add_argument("--seed", type=int, default=0, help="scenario seed (default: 0)")
    chaos.add_argument("--storm", action="store_true", help="also run the failure-storm check")
    chaos.add_argument(
        "--storm-fraction", type=float, default=0.5, help="fraction of nodes the storm fails"
    )
    chaos.add_argument(
        "--cell-outage", action="store_true",
        help="also run the fleet cell-outage check (spillover recovery)",
    )
    chaos.add_argument(
        "--fleet-cells", type=int, default=4, help="cell-outage check: fleet size (default: 4)"
    )
    chaos.add_argument(
        "--trace", default=None, metavar="FILE",
        help="replay this JSONL trace through the storm check instead of a "
        "generated storm ('-' for stdin)",
    )
    chaos.set_defaults(func=cmd_chaos)

    corpus = sub.add_parser(
        "corpus",
        help="sweep the scenario corpus under the invariant oracle",
        description=(
            "Run the multi-day scenario corpus across schemes and engine "
            "configurations with the invariant oracle checked after every "
            "reconcile round, and emit a deterministic coverage report "
            "(JSONL). Same seeds and --workers produce byte-identical "
            "reports. Exits 1 if any invariant was violated."
        ),
    )
    corpus.add_argument("--list", action="store_true", help="list corpus scenarios and exit")
    corpus.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated scenario names to run (default: all in --scale)",
    )
    corpus.add_argument(
        "--scale", default="all", choices=("small", "medium", "all"),
        help="scenario scale to sweep (default: all)",
    )
    corpus.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard jobs across (default: 1)",
    )
    corpus.add_argument("--seed", type=int, default=0, help="scenario seed (default: 0)")
    corpus.add_argument(
        "--env-seed", type=int, default=2025, help="environment seed (default: 2025)"
    )
    corpus.add_argument("--out", default=None, help="coverage report file (default: stdout)")
    corpus.set_defaults(func=cmd_corpus)

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based chaos fuzz with trace shrinking",
        description=(
            "Compose random seeded event programs (churn, rack storms, "
            "diurnal load, capacity dips, refail interleavings), drive the "
            "engine through them under the invariant oracle, and on a "
            "violation shrink the failing trace to a minimal JSONL "
            "reproducer. Exits 1 if a violation was found."
        ),
    )
    fuzz.add_argument("--cases", type=int, default=20, help="event programs to try (default: 20)")
    fuzz.add_argument("--nodes", type=int, default=24, help="cluster size (default: 24)")
    fuzz.add_argument("--apps", type=int, default=2, help="applications (default: 2)")
    fuzz.add_argument(
        "--horizon", type=float, default=1800.0, help="program length in seconds (default: 1800)"
    )
    fuzz.add_argument("--objective", default="revenue", help="engine objective (default: revenue)")
    fuzz.add_argument("--seed", type=int, default=0, help="fuzzer seed (default: 0)")
    fuzz.add_argument(
        "--env-seed", type=int, default=2025, help="environment seed (default: 2025)"
    )
    fuzz.add_argument(
        "--no-lockstep", action="store_true",
        help="skip the incremental-vs-full lockstep twin (faster, weaker oracle)",
    )
    fuzz.add_argument(
        "--infra", action="store_true",
        help="fuzz the infrastructure instead of the workload: random worker "
        "kill/hang/corrupt-frame fault plans against the shard supervisor, "
        "asserting recovery is byte-identical to a fault-free run "
        "(uses --cases/--cells/--nodes-per-cell/--apps/--horizon/--seed)",
    )
    fuzz.add_argument(
        "--cells", type=int, default=3,
        help="fleet cells per infra case (--infra only; default: 3)",
    )
    fuzz.add_argument(
        "--nodes-per-cell", type=int, default=12,
        help="cluster size per cell (--infra only; default: 12)",
    )
    fuzz.add_argument(
        "--reproducer", default="fuzz-reproducer.jsonl", metavar="PATH",
        help="where to write the shrunk reproducer on violation "
        "(default: fuzz-reproducer.jsonl)",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    bench = sub.add_parser(
        "bench",
        help="run a figure benchmark through pytest",
        description=(
            "Run one of the paper-figure benchmarks (pytest wrapper). "
            "Exit codes: 0 = ran and all gates passed; 1 = a benchmark or "
            "regression gate failed (pytest failure code is forwarded); "
            "2 = usage error."
        ),
    )
    bench.add_argument("name", nargs="?", help="benchmark name (see --list) or a file name")
    bench.add_argument("--list", action="store_true", help="list available benchmarks")
    bench.add_argument(
        "--scale", default="small", choices=("small", "paper"), help="REPRO_BENCH_SCALE value"
    )
    bench.add_argument(
        "--dir", default="benchmarks", help="benchmarks directory (default: ./benchmarks)"
    )
    bench.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write a machine-readable run record as JSON (default target: stdout)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and report the top 20 functions by cumulative time",
    )
    bench.set_defaults(func=cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="generate or validate scenario traces",
        description="Scenario trace tooling: seeded generators and schema validation.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", metavar="subcommand")
    trace.set_defaults(func=lambda args: trace.print_help() or 0)

    gen = trace_sub.add_parser(
        "gen",
        help="generate a seeded scenario trace (JSONL)",
        description=(
            "Generate a deterministic scenario trace. Same arguments + same seed "
            "produce a byte-identical file."
        ),
    )
    gen.add_argument(
        "--kind",
        required=True,
        choices=("poisson", "rack", "diurnal", "storm", "alibaba"),
        help="scenario shape",
    )
    gen.add_argument("--nodes", type=int, default=100, help="cluster size (default: 100)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    gen.add_argument("--horizon", type=float, default=3600.0, help="trace length in seconds")
    gen.add_argument("--mtbf", type=float, default=1800.0, help="poisson/rack: mean time between failures")
    gen.add_argument("--mttr", type=float, default=300.0, help="poisson/rack: mean time to repair")
    gen.add_argument("--rack-size", type=int, default=8, help="rack: nodes per rack")
    gen.add_argument("--base", type=float, default=1.0, help="diurnal: base load multiplier")
    gen.add_argument("--amplitude", type=float, default=0.5, help="diurnal: sine amplitude")
    gen.add_argument("--period", type=float, default=86400.0, help="diurnal: sine period seconds")
    gen.add_argument("--at", type=float, default=300.0, help="storm: burst start time")
    gen.add_argument("--fraction", type=float, default=0.5, help="storm: fraction of nodes hit")
    gen.add_argument(
        "--recovery-after", type=float, default=600.0, help="storm: seconds until recovery starts"
    )
    gen.add_argument("--recovery-steps", type=int, default=4, help="storm: staged recovery groups")
    gen.add_argument("--steps", type=int, default=20, help="alibaba: number of capacity steps")
    gen.add_argument(
        "--step-seconds", type=float, default=30.0, help="alibaba/diurnal: seconds per step"
    )
    gen.add_argument("--out", default=None, help="output file (default: stdout)")
    gen.set_defaults(func=cmd_trace_gen)

    validate = trace_sub.add_parser(
        "validate",
        help="parse + validate a trace file",
        description="Validate a JSONL trace against the schema and summarize it.",
    )
    validate.add_argument("file", help="trace file (JSONL; '-' for stdin)")
    validate.set_defaults(func=cmd_trace_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entrypoint: parse, dispatch, and map failures to exit codes.

    Expected failures — bad arguments, missing or malformed input files —
    print a single ``error: ...`` line on stderr and return :data:`EXIT_USAGE`
    (argparse's own usage errors exit with the same code).  Checks that run
    and fail (chaos, bench) return :data:`EXIT_FAILED`.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
