"""Command-line driver: ``memexplore`` (or ``python -m repro``).

Subcommands mirror the paper's workflow:

``list``
    Show the bundled kernels.
``explore``
    Run Algorithm MemExplore over one kernel and print the estimate table,
    the Pareto frontier, and the bounded selections.
``mincache``
    The Section 3 report: equivalence classes, minimum line counts and the
    minimum conflict-free cache size per line size.
``layout``
    Show the Section 4.1 off-chip assignment for a kernel and geometry.
``mpeg``
    The Section 5 composite case study over the MPEG decoder kernels.
``spm``
    Cache-vs-scratchpad comparison over on-chip byte budgets.
``trace``
    Export a kernel's address trace in Dinero ``din`` format, or report
    its reuse profile and miss-ratio curve.
``search``
    Pruned (greedy) exploration instead of the exhaustive sweep.
``pareto``
    Multi-objective Pareto search (``repro.moo``): a population-based
    searcher (NSGA-II by default) finds the energy/time/area front
    touching a fraction of the grid, printing one front line per
    generation; ``--server`` submits the same search to a running
    service (``POST /pareto``) and streams its ``repro.front/1`` events.
``datasheet``
    Full per-configuration report: metrics, miss structure, area, timing
    and the energy component breakdown.
``codegen``
    Emit the transformed C source (padded arrays, tiled loops) for a
    kernel and configuration -- the exploration's practical deliverable.
``sensitivity``
    Tornado analysis: which model constants the chosen configuration
    actually hinges on.
``stats``
    Run a profiled sweep and print the per-stage timing / cache-hit table
    (the human face of the observability layer); ``--from FILE.json``
    renders a previously written report instead.
``serve``
    Run the exploration service: an HTTP/JSON job queue with request
    coalescing and the persistent sqlite result store (``repro.serve``).
    Multi-tenant knobs: ``--client-rate`` / ``--client-burst`` /
    ``--client-inflight`` set the default per-client admission policy,
    ``--client-weight NAME=W`` (repeatable) skews the fair-share
    dequeue, ``--breaker-threshold`` / ``--breaker-cooldown`` tune the
    per-evaluator circuit breakers.
``submit``
    Submit a sweep to a running service and (by default) wait for the
    result table; ``--client`` names the submitting tenant and
    ``--deadline`` bounds the job's wall clock.
``jobs``
    List a service's jobs, or show/await one job (``--manifest`` prints
    the job's ``repro.manifest/1`` provenance document, ``--cancel``
    cancels it).
``store``
    Offline result-store maintenance: ``store verify`` audits every
    row's sha256 checksum; ``--repair`` quarantines corrupt rows,
    backfills legacy checksums, and rebuilds estimates from checkpoint
    journals.
``top``
    Live dashboard for a running service: queue depth, jobs in flight,
    configs/s, store hit rate and latency percentiles, redrawn on an
    interval.
``plugins``
    List every registered component -- backends, kernels, energy models,
    SRAM parts, store tiers -- with the origin and version that provided
    it (built-ins and installed ``repro.plugins`` entry points alike).

Every subcommand additionally accepts the observability flags
``--log-level`` / ``--log-json`` (structured logging for the ``repro``
logger hierarchy), ``--profile`` (collect spans and print the per-stage
table) and ``--metrics-out FILE.json`` (write the machine-readable
``repro.obs/1`` report).  The sweeping subcommands (``explore``,
``mpeg``, ``spm``, ``stats``) also take the resilience flags
``--checkpoint FILE.jsonl`` / ``--resume`` / ``--chunk-timeout`` /
``--max-retries`` for fault-tolerant, resumable sweeps, and (with
``search``) ``--manifest-out FILE.json`` to write the run's
``repro.manifest/1`` provenance document.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from typing import Optional, Sequence

from repro import obs
from repro.core.composite import CompositeProgram
from repro.core.config import CacheConfig, design_space, powers_of_two
from repro.core.explorer import ExplorationResult, MemExplorer
from repro.core.pareto import pareto_front
from repro.core.selection import SelectionError, select_configuration
from repro.energy import (
    available_energy_models,
    available_srams,
    get_energy_model,
    get_sram,
)
from repro.energy.model import EnergyModel
from repro.engine import available_backends, get_eval_cache
from repro.kernels import available_kernels, get_kernel, mpeg_decoder_kernels
from repro.loops.reuse import group_references, min_cache_lines, min_cache_size

__all__ = ["main"]


def _package_version() -> str:
    """The installed package version, from metadata when available.

    A source checkout run via ``PYTHONPATH=src`` has no installed
    distribution; fall back to the package's own ``__version__``.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


class CLIError(Exception):
    """A user-facing CLI failure: message on stderr, exit code 2."""


def _resolve_kernel(name: str):
    """Build a kernel through the plugin registry, or fail helpfully.

    Every kernel-taking subcommand funnels through this one resolver, so
    an unknown name produces one consistent message -- with a did-you-mean
    suggestion -- instead of a per-command traceback.
    """
    from repro.registry import UnknownPluginError, get_registry

    try:
        return get_registry().create("kernel", name)
    except UnknownPluginError as exc:
        hint = f"; did you mean {exc.suggestion!r}?" if exc.suggestion else ""
        raise CLIError(
            f"unknown kernel {name!r}{hint} "
            f"(run 'memexplore list' to see every registered kernel)"
        ) from None


def _add_energy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sram",
        default="CY7C-2Mbit",
        choices=available_srams(),
        help="off-chip SRAM part supplying Em (default: the paper's Cypress)",
    )
    parser.add_argument(
        "--energy-model",
        default="hwo",
        choices=available_energy_models(),
        help="cache energy model (default: the paper's Hicks/Walnock/Owens)",
    )
    parser.add_argument(
        "--no-layout-opt",
        action="store_true",
        help="use the dense unoptimized off-chip layout",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="auto",
        choices=available_backends(),
        help="miss-measurement backend (default: auto, the exact "
        "one-pass grid path for cold sweeps)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate the sweep across N processes (default: serial)",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience (fault-tolerant sweeps)")
    group.add_argument(
        "--checkpoint",
        metavar="FILE.jsonl",
        default=None,
        help="journal completed sweep chunks to this append-only file",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip configurations already journaled in --checkpoint",
    )
    group.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare a worker chunk wedged after this many seconds",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-dispatch a failing chunk up to N times (default: 2)",
    )


def _resilience(args: argparse.Namespace):
    """Build :class:`ResilienceOptions` from the CLI flags (or ``None``)."""
    if (
        args.checkpoint is None
        and not args.resume
        and args.chunk_timeout is None
        and args.max_retries is None
    ):
        return None
    from repro.engine.resilience import ResilienceOptions, RetryPolicy

    retry = RetryPolicy()
    if args.max_retries is not None:
        retry = RetryPolicy(max_retries=args.max_retries)
    return ResilienceOptions(
        checkpoint=args.checkpoint,
        resume=args.resume,
        chunk_timeout_s=args.chunk_timeout,
        retry=retry,
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error", "critical"),
        help="log level for the repro logger hierarchy (default: warning)",
    )
    obs_group.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    obs_group.add_argument(
        "--profile",
        action="store_true",
        help="collect per-stage spans and print the timing table afterwards",
    )
    obs_group.add_argument(
        "--metrics-out",
        metavar="FILE.json",
        default=None,
        help="write the machine-readable repro.obs/1 report here",
    )


def _energy_model(args: argparse.Namespace) -> EnergyModel:
    return get_energy_model(
        getattr(args, "energy_model", "hwo"), sram=get_sram(args.sram)
    )


def _add_manifest_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manifest-out",
        metavar="FILE.json",
        default=None,
        help="write the run's repro.manifest/1 provenance document here",
    )


def _write_manifest(
    args: argparse.Namespace,
    kernels: Sequence[str],
    evaluator=None,
    configs=None,
) -> None:
    """Serialise the run's ``repro.manifest/1`` document (``--manifest-out``).

    ``kernels`` are registry kernel names; ``evaluator`` (when the command
    has one) contributes the store-level evaluator fingerprint, and
    ``configs`` (the swept list, in order) the sweep fingerprint.
    """
    if getattr(args, "manifest_out", None) is None:
        return
    from repro.registry import MANIFEST_SCHEMA, build_manifest

    eval_id = None
    sweep_fp = None
    if evaluator is not None:
        from repro.serve.store import evaluator_fingerprint

        eval_id = evaluator_fingerprint(evaluator)
        if configs is not None:
            from repro.engine.resilience import sweep_fingerprint

            sweep_fp = sweep_fingerprint(evaluator, list(configs))
    resilience = _resilience(args) if hasattr(args, "checkpoint") else None
    seed = resilience.retry.seed if resilience is not None else 0
    plugins = [("kernel", name) for name in kernels]
    plugins.append(("backend", args.backend))
    plugins.append(("energy", getattr(args, "energy_model", "hwo")))
    plugins.append(("sram", args.sram))
    manifest = build_manifest(
        plugins,
        eval_id=eval_id,
        sweep_fingerprint=sweep_fp,
        seeds={"retry_backoff": seed},
    )
    with open(args.manifest_out, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {MANIFEST_SCHEMA} manifest to {args.manifest_out}",
        file=sys.stderr,
    )


def _print_table(result: ExplorationResult, stream) -> None:
    stream.write(f"{'config':>14s} {'miss rate':>10s} {'cycles':>12s} {'energy (nJ)':>12s}\n")
    for label, mr, cycles, energy in result.to_rows():
        stream.write(f"{label:>14s} {mr:>10.4f} {cycles:>12.0f} {energy:>12.0f}\n")


def _cmd_list(args: argparse.Namespace) -> int:
    for name in available_kernels():
        kernel = get_kernel(name)
        print(
            f"{name:15s} loops={len(kernel.nest.loops)} refs={len(kernel.nest.refs)} "
            f"iterations={kernel.nest.iterations} invocations={kernel.invocations}"
        )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args.kernel)
    explorer = MemExplorer(
        kernel,
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
        backend=args.backend,
    )
    result = explorer.explore(
        max_size=args.max_size,
        min_size=args.min_size,
        ways=tuple(args.ways),
        tilings=tuple(args.tilings) if args.tilings else None,
        jobs=args.jobs,
        resilience=_resilience(args),
    )
    _write_manifest(
        args,
        [args.kernel],
        evaluator=explorer.evaluator,
        configs=[estimate.config for estimate in result.estimates],
    )
    _print_table(result, sys.stdout)
    print("\nPareto frontier (cycles vs energy):")
    for estimate in pareto_front(result.estimates):
        print(f"  {estimate}")
    try:
        selection = select_configuration(
            result.estimates,
            objective=args.objective,
            cycle_bound=args.cycle_bound,
            energy_bound=args.energy_bound,
        )
        print(f"\n{selection}")
    except SelectionError as exc:
        print(f"\nselection failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_mincache(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args.kernel)
    nest = kernel.nest
    print(f"kernel {kernel.name}: {nest}")
    print("\nequivalence classes / cases:")
    for group in group_references(nest):
        refs = ", ".join(str(nest.refs[i]) for i in group.ref_indices)
        print(f"  array {group.array:8s} offsets {group.offsets}: {refs}")
    print("\nminimum conflict-free cache, by line size:")
    for line_size in args.line_sizes:
        lines = min_cache_lines(nest, line_size)
        size = min_cache_size(nest, line_size)
        print(f"  L={line_size:<4d} lines={lines:<4d} size={size} bytes")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args.kernel)
    assignment = kernel.optimized_layout(args.cache_size, args.line_size)
    print(
        f"assignment for {kernel.name} @ C{args.cache_size}L{args.line_size}: "
        f"conflict_free={assignment.conflict_free}"
    )
    for name, placement in assignment.layout.placements:
        print(f"  {name:10s} base={placement.base:<8d} pitches={placement.pitches}")
    for ref_index, slot in assignment.slots:
        print(f"  group anchored at ref #{ref_index} -> line slot {slot}")
    return 0


def _cmd_mpeg(args: argparse.Namespace) -> int:
    program = CompositeProgram(
        mpeg_decoder_kernels(args.macroblocks),
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
        backend=args.backend,
    )
    configs = list(
        design_space(
            max_size=args.max_size,
            min_size=args.min_size,
            max_line=16,
            tilings=(1, 2, 4, 8, 16),
        )
    )
    result = program.explore(configs, jobs=args.jobs, resilience=_resilience(args))
    _write_manifest(
        args,
        [f"mpeg:{name}" for name in sorted(k.name for k in program.kernels)],
        evaluator=program,
        configs=configs,
    )
    best_e = result.min_energy()
    best_t = result.min_cycles()
    print(f"explored {len(result)} configurations over {len(program.kernels)} kernels")
    print(f"min energy: {best_e}")
    print(f"min time:   {best_t}")
    print("\nper-kernel minimum-energy configurations (Figure 10):")
    for name, (config, energy) in program.per_kernel_optima(configs).items():
        print(f"  {name:10s} {str(config):>16s} {energy:12.0f} nJ")
    return 0


def _cmd_spm(args: argparse.Namespace) -> int:
    from repro.spm.explorer import compare_cache_vs_spm

    kernel = _resolve_kernel(args.kernel)
    rows = compare_cache_vs_spm(
        kernel,
        budgets=args.budgets,
        energy_model=_energy_model(args),
        backend=args.backend,
        jobs=args.jobs,
        resilience=_resilience(args),
    )
    _write_manifest(args, [args.kernel])
    print(f"{'budget':>8s} {'cache nJ':>10s} {'spm nJ':>10s} "
          f"{'spm hit':>8s} {'E winner':>9s} {'t winner':>9s}")
    for row in rows:
        print(
            f"{row.budget:>8d} {row.cache.energy_nj:>10.0f} "
            f"{row.spm.energy_nj:>10.0f} {row.spm.hit_fraction:>8.3f} "
            f"{row.energy_winner:>9s} {row.cycle_winner:>9s}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cache.dinero import write_din_trace
    from repro.cache.distance import miss_ratio_curve, reuse_profile

    kernel = _resolve_kernel(args.kernel)
    if args.optimized:
        layout = kernel.optimized_layout(args.cache_size, args.line_size).layout
    else:
        layout = kernel.default_layout()
    trace = kernel.trace(layout=layout, tile=args.tile)
    if args.din:
        count = write_din_trace(trace, args.din)
        print(f"wrote {count} accesses to {args.din}")
        return 0
    profile = reuse_profile(trace, args.line_size)
    print(f"trace: {len(trace)} accesses ({trace.num_reads} reads)")
    print(f"footprint: {trace.footprint_bytes()} bytes, "
          f"{trace.unique_lines(args.line_size)} unique lines")
    print(f"compulsory fraction: {profile['compulsory_fraction']:.4f}")
    print(f"median / p90 stack distance: {profile['median_distance']:.0f} / "
          f"{profile['p90_distance']:.0f} lines")
    print(f"locality knee: {profile['knee_lines']} lines")
    capacities = [2 ** k for k in range(0, 9)]
    curve = miss_ratio_curve(trace, args.line_size, capacities)
    print("\nfully-associative miss-ratio curve:")
    for capacity in capacities:
        print(f"  {capacity:>4d} lines: {curve[capacity]:.4f}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.moo.heuristics import greedy_descent

    kernel = _resolve_kernel(args.kernel)
    explorer = MemExplorer(
        kernel,
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
        backend=args.backend,
    )
    outcome = greedy_descent(
        explorer.evaluator,
        objective=args.objective,
        sizes=tuple(powers_of_two(args.min_size, args.max_size)),
    )
    _write_manifest(args, [args.kernel], evaluator=explorer.evaluator)
    print(f"best ({args.objective}): {outcome.best}")
    print(f"evaluations spent: {outcome.evaluations}")
    return 0


def _search_settings(args: argparse.Namespace):
    """Build :class:`~repro.moo.SearchSettings` from the pareto flags."""
    from repro.moo import SearchSettings

    try:
        return SearchSettings(
            searcher=args.searcher,
            generations=args.generations,
            population=args.population,
            seed=args.seed,
            objectives=tuple(args.objectives),
            archive_capacity=args.archive_capacity,
            seed_population=not args.no_seed_population,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _front_line(event: dict) -> str:
    """One generation's progress line (identical local and served)."""
    hv = event.get("hypervolume")
    hv_text = "n/a" if hv is None else f"{hv:.6g}"
    return (
        f"gen {event['generation']:>3d}: "
        f"evaluations={event['evaluations']:>5d} "
        f"front={event['archive_size']:>3d} "
        f"hypervolume={hv_text}"
    )


def _print_front(estimates, objectives) -> None:
    """The final front table: one row per non-dominated configuration."""
    from repro.moo import objective_vector

    header = f"{'config':>14s}" + "".join(
        f" {name:>14s}" for name in objectives
    )
    print(header)
    for estimate in estimates:
        vector = objective_vector(estimate, objectives)
        row = f"{estimate.config.label():>14s}" + "".join(
            f" {value:>14.6g}" for value in vector
        )
        print(row)


def _cmd_pareto(args: argparse.Namespace) -> int:
    if args.server is not None:
        return _pareto_remote(args)
    from repro.engine.resilience import CheckpointError
    from repro.moo import run_search

    settings = _search_settings(args)
    kernel = _resolve_kernel(args.kernel)
    explorer = MemExplorer(
        kernel,
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
        backend=args.backend,
    )
    space = list(
        design_space(
            max_size=args.max_size,
            min_size=args.min_size,
            ways=tuple(args.ways),
            tilings=tuple(args.tilings) if args.tilings else None,
        )
    )
    try:
        run = run_search(
            explorer.evaluator,
            space,
            settings,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            resume=args.resume,
            on_generation=lambda event, archive: print(_front_line(event)),
        )
    except CheckpointError as exc:
        raise CLIError(str(exc)) from None
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    _write_manifest(
        args,
        [args.kernel],
        evaluator=explorer.evaluator,
        configs=[estimate.config for estimate in run.estimates],
    )
    print(
        f"\nfront after {run.generations} generations, "
        f"{run.evaluations} of {len(space)} configurations evaluated "
        f"(hypervolume {run.hypervolume:.6g}):"
    )
    _print_front(run.front, settings.objectives)
    return 0


def _pareto_remote(args: argparse.Namespace) -> int:
    """``pareto --server``: submit to ``POST /pareto`` and stream fronts."""
    from repro.serve import JobSpec, ServeClient, ServeError

    settings = _search_settings(args)
    if args.checkpoint is not None or args.resume:
        raise CLIError(
            "--checkpoint/--resume are local-run flags; a served search "
            "journals (and resumes) server-side automatically"
        )
    if getattr(args, "energy_model", "hwo") != "hwo":
        raise CLIError(
            "the exploration service does not support --energy-model; "
            "served searches always use the paper's 'hwo' model"
        )
    try:
        client = ServeClient(args.server, client_id=args.client)
        spec = JobSpec(
            kernel=args.kernel,
            backend=args.backend,
            max_size=args.max_size,
            min_size=args.min_size,
            ways=tuple(args.ways),
            tilings=tuple(args.tilings) if args.tilings else None,
            sram=args.sram,
            optimize_layout=not args.no_layout_opt,
            search=settings,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        job = client.pareto(
            spec, priority=args.priority, deadline_s=args.deadline
        )
    except ServeError as exc:
        raise CLIError(str(exc)) from None
    flag = " (coalesced)" if job.get("coalesced") else ""
    print(f"job {job['job_id']}{flag}", file=sys.stderr)
    if args.no_wait:
        print(job["job_id"])
        return 0
    try:
        for event in client.fronts(job["job_id"]):
            print(_front_line(event))
        finished = client.wait(job["job_id"], timeout_s=args.timeout)
    except ServeError as exc:
        raise CLIError(str(exc)) from None
    if finished["state"] != "done":
        print(
            f"job {job['job_id']} {finished['state']}: "
            f"{finished.get('error')}",
            file=sys.stderr,
        )
        return 1
    result = client.result(job["job_id"])
    print(f"\nfinal front ({len(result)} configurations):")
    _print_front(result.estimates, settings.objectives)
    return 0


def _cmd_datasheet(args: argparse.Namespace) -> int:
    from repro.core.report import datasheet, render_datasheet

    kernel = _resolve_kernel(args.kernel)
    config = CacheConfig(args.cache_size, args.line_size, args.ways, args.tiling)
    sheet = datasheet(
        kernel,
        config,
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
    )
    print(render_datasheet(sheet))
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.loops.codegen import generate_c

    kernel = _resolve_kernel(args.kernel)
    if args.no_layout_opt:
        layout = kernel.default_layout()
    else:
        layout = kernel.optimized_layout(args.cache_size, args.line_size).layout
    print(
        generate_c(
            kernel.nest, layout=layout, tile=args.tiling,
            n_tiled=kernel.n_tiled,
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import tornado

    kernel = _resolve_kernel(args.kernel)
    configs = [
        CacheConfig(t, l)
        for t in powers_of_two(args.min_size, args.max_size)
        for l in (4, 8, 16, 32)
        if l <= t
    ]
    rows = tornado(kernel, configs)
    print(f"{'parameter':>22s} {'swing':>8s} {'E @ 0.5x':>10s} "
          f"{'E @ 2x':>10s} {'winner?':>8s}")
    for row in rows:
        flag = "MOVES" if row.winner_changes else "stable"
        print(
            f"{row.parameter:>22s} {row.swing:>8.2%} {row.low_energy:>10.0f} "
            f"{row.high_energy:>10.0f} {flag:>8s}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if getattr(args, "from_file", None) is not None:
        return _stats_from_file(args.from_file)
    if args.kernel is None:
        raise CLIError("stats needs a kernel (or --from FILE.json)")
    kernel = _resolve_kernel(args.kernel)
    explorer = MemExplorer(
        kernel,
        energy_model=_energy_model(args),
        optimize_layout=not args.no_layout_opt,
        backend=args.backend,
    )
    # This command exists to show the profile: spans are always on here,
    # whether or not --profile was also passed.
    was_profiling = obs.profiling_enabled()
    obs.enable_profiling()
    try:
        result = explorer.explore(
            max_size=args.max_size,
            min_size=args.min_size,
            ways=tuple(args.ways),
            tilings=tuple(args.tilings) if args.tilings else None,
            jobs=args.jobs,
            resilience=_resilience(args),
        )
    finally:
        if not was_profiling:
            obs.disable_profiling()
    _write_manifest(
        args,
        [args.kernel],
        evaluator=explorer.evaluator,
        configs=[estimate.config for estimate in result.estimates],
    )
    print(
        f"swept {len(result)} configurations of {kernel.name} "
        f"(backend={args.backend}, jobs={args.jobs})\n"
    )
    report = obs.build_report(cache=get_eval_cache().snapshot())
    print(obs.render_stage_table(report))
    return 0


def _stats_from_file(path: str) -> int:
    """``stats --from``: render a previously written ``repro.obs/1`` report.

    Any way the file can disappoint -- missing, unreadable, not JSON, not
    a report document -- becomes one :class:`CLIError` line (exit 2), not
    a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise CLIError(f"cannot read metrics report {path!r}: "
                       f"{exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"corrupt metrics report {path!r}: not JSON ({exc})"
        ) from None
    if not isinstance(report, dict) or "schema" not in report:
        raise CLIError(
            f"corrupt metrics report {path!r}: not a repro.obs document"
        )
    if report["schema"] != obs.SCHEMA:
        raise CLIError(
            f"unsupported report schema {report['schema']!r} in {path!r} "
            f"(expected {obs.SCHEMA!r})"
        )
    print(obs.render_stage_table(report))
    return 0


def _job_spec(args: argparse.Namespace):
    """Build a service :class:`~repro.serve.JobSpec` from explore-style flags."""
    from repro.serve import JobSpec

    if getattr(args, "energy_model", "hwo") != "hwo":
        # The job spec carries no energy-model field: adding one would
        # change every spec hash, orphaning stored results.  Served sweeps
        # always run the paper's model.
        raise CLIError(
            "the exploration service does not support --energy-model; "
            "served sweeps always use the paper's 'hwo' model"
        )
    return JobSpec(
        kernel=args.kernel,
        backend=args.backend,
        max_size=args.max_size,
        min_size=args.min_size,
        ways=tuple(args.ways),
        tilings=tuple(args.tilings) if args.tilings else None,
        sram=args.sram,
        optimize_layout=not args.no_layout_opt,
        objective=args.objective,
        cycle_bound=args.cycle_bound,
        energy_bound=args.energy_bound,
    )


def _print_served_result(job: dict, result: ExplorationResult) -> int:
    """Shared result rendering for ``submit --wait`` and ``jobs ID --wait``.

    Both paths must print byte-identical output for the same job so the
    crash-resume smoke test can diff them.
    """
    spec = job["spec"]
    _print_table(result, sys.stdout)
    try:
        selection = select_configuration(
            result.estimates,
            objective=spec.get("objective", "energy"),
            cycle_bound=spec.get("cycle_bound"),
            energy_bound=spec.get("energy_bound"),
        )
        print(f"\n{selection}")
    except SelectionError as exc:
        print(f"\nselection failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _await_job(client, job_id: str, timeout_s: Optional[float]) -> int:
    """Wait for a job, then print its result (or the failure)."""
    job = client.wait(job_id, timeout_s=timeout_s)
    if job["state"] == "failed":
        print(f"job {job_id} failed: {job.get('error')}", file=sys.stderr)
        return 1
    if job["state"] == "cancelled":
        print(f"job {job_id} cancelled: {job.get('error')}", file=sys.stderr)
        return 1
    if job["state"] != "done":
        print(f"timed out waiting for job {job_id} "
              f"({job['done_configs']}/{job['total_configs']} configs)",
              file=sys.stderr)
        return 1
    return _print_served_result(job, client.result(job_id))


def _tenancy_policy(args: argparse.Namespace):
    """Build the service's admission policy from the serve flags."""
    from repro.serve import ClientPolicy, TenancyPolicy

    try:
        default = ClientPolicy(
            rate=args.client_rate,
            burst=args.client_burst,
            max_inflight=args.client_inflight,
        )
    except ValueError as exc:
        raise CLIError(str(exc))
    overrides = {}
    for item in args.client_weight or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CLIError(
                f"--client-weight expects NAME=WEIGHT, got {item!r}"
            )
        try:
            weight = float(value)
        except ValueError:
            raise CLIError(f"--client-weight {name}: {value!r} is not a number")
        try:
            overrides[name] = ClientPolicy(
                rate=default.rate,
                burst=default.burst,
                max_inflight=default.max_inflight,
                weight=weight,
            )
        except ValueError as exc:
            raise CLIError(f"--client-weight {name}: {exc}")
    try:
        return TenancyPolicy(default=default, overrides=overrides)
    except ValueError as exc:
        raise CLIError(str(exc))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ExplorationService, install_signal_handlers, make_server

    if "forkserver" in multiprocessing.get_all_start_methods():
        # This process is threaded, so sweep workers start from a fork
        # server (see repro.engine.parallel).  The fork server imports the
        # service package once, so no worker imports it per pool.
        multiprocessing.set_forkserver_preload(["repro.serve"])
    spool = args.spool if args.spool is not None else args.store + ".spool"
    service = ExplorationService(
        args.store,
        spool,
        queue_depth=args.queue_depth,
        sweep_jobs=args.jobs,
        trace=not args.no_trace,
        tenancy=_tenancy_policy(args),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    ).start()
    httpd = make_server(args.host, args.port, service)
    install_signal_handlers(httpd, service)
    host, port = httpd.server_address[:2]
    print(f"serving on http://{host}:{port} (store={args.store})", flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        service.stop(wait=False)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    try:
        client = ServeClient(args.server, client_id=args.client)
    except ValueError as exc:
        raise CLIError(str(exc))
    job = client.submit(
        _job_spec(args),
        priority=args.priority,
        deadline_s=args.deadline,
    )
    flag = " (coalesced)" if job.get("coalesced") else ""
    print(f"job {job['job_id']}{flag}", file=sys.stderr)
    if args.no_wait:
        print(job["job_id"])
        return 0
    return _await_job(client, job["job_id"], args.timeout)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.server)
    if args.cancel:
        if args.job_id is None:
            raise CLIError("jobs --cancel requires a job id")
        try:
            job = client.cancel(args.job_id)
        except ServeError as exc:
            raise CLIError(str(exc))
        print(f"job {args.job_id} {job['state']}", file=sys.stderr)
        return 0
    if args.manifest:
        if args.job_id is None:
            raise CLIError("jobs --manifest requires a job id")
        manifest = client.job(args.job_id).get("manifest")
        if manifest is None:
            raise CLIError(f"job {args.job_id} has no manifest recorded yet")
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if args.job_id is None:
        rows = client.jobs()
        print(f"{'job':>22s} {'state':>8s} {'progress':>10s} "
              f"{'kernel':>10s} {'coalesced':>9s}")
        for job in rows:
            progress = f"{job['done_configs']}/{job['total_configs']}"
            print(
                f"{job['job_id']:>22s} {job['state']:>8s} {progress:>10s} "
                f"{job['spec']['kernel']:>10s} {job['coalesced']:>9d}"
            )
        return 0
    if args.wait:
        return _await_job(client, args.job_id, args.timeout)
    print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``repro store verify``: audit (and optionally repair) a store."""
    from repro.serve import open_store

    if args.action != "verify":  # pragma: no cover (argparse enforces)
        raise CLIError(f"unknown store action {args.action!r}")
    store = open_store(args.store)
    try:
        report = store.verify(repair=args.repair, spool_dir=args.spool)
    finally:
        store.close()
    print(f"scanned {report['scanned']} rows: "
          f"{report['corrupt']} corrupt, "
          f"{report['missing_checksum']} missing checksums")
    for row in report["corrupt_rows"]:
        print(f"  {row['table']}/{row['key']}: {row['reason']}",
              file=sys.stderr)
    if args.repair:
        print(f"repair: {report['quarantined']} quarantined, "
              f"{report['checksums_added']} checksums added, "
              f"{report['rows_rebuilt']} estimates rebuilt from journals")
    if not report["clean"]:
        print("store verify FAILED (rerun with --repair to quarantine)",
              file=sys.stderr)
        return 1
    print("store verify OK")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient
    from repro.serve.top import run_top

    return run_top(
        ServeClient(args.server),
        interval_s=args.interval,
        iterations=args.iterations,
    )


def _cmd_plugins(args: argparse.Namespace) -> int:
    from repro.registry import get_registry

    infos = get_registry().infos(args.kind)
    if args.json:
        print(json.dumps([info.to_json() for info in infos],
                         indent=2, sort_keys=True))
        return 0
    print(f"{'kind':<8s} {'name':<24s} {'origin':<24s} {'version'}")
    for info in infos:
        print(f"{info.kind:<8s} {info.name:<24s} {info.origin:<24s} "
              f"{info.version}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The :mod:`argparse` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="memexplore",
        description=(
            "Memory exploration for low-power embedded systems "
            "(reproduction of Shiue & Chakrabarti, DAC 1999)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list bundled kernels")
    _add_obs_args(listing)
    listing.set_defaults(func=_cmd_list)

    explore = sub.add_parser("explore", help="run Algorithm MemExplore on a kernel")
    explore.add_argument("kernel")
    explore.add_argument("--max-size", type=int, default=512)
    explore.add_argument("--min-size", type=int, default=16)
    explore.add_argument("--ways", type=int, nargs="+", default=[1])
    explore.add_argument("--tilings", type=int, nargs="+", default=None)
    explore.add_argument("--objective", choices=["energy", "cycles"], default="energy")
    explore.add_argument("--cycle-bound", type=float, default=None)
    explore.add_argument("--energy-bound", type=float, default=None)
    _add_energy_args(explore)
    _add_engine_args(explore)
    _add_resilience_args(explore)
    _add_manifest_args(explore)
    _add_obs_args(explore)
    explore.set_defaults(func=_cmd_explore)

    mincache = sub.add_parser("mincache", help="Section 3 minimum cache size report")
    mincache.add_argument("kernel")
    mincache.add_argument("--line-sizes", type=int, nargs="+", default=[2, 4, 8, 16])
    _add_obs_args(mincache)
    mincache.set_defaults(func=_cmd_mincache)

    layout = sub.add_parser("layout", help="Section 4.1 off-chip assignment report")
    layout.add_argument("kernel")
    layout.add_argument("--cache-size", type=int, default=64)
    layout.add_argument("--line-size", type=int, default=8)
    _add_obs_args(layout)
    layout.set_defaults(func=_cmd_layout)

    mpeg = sub.add_parser("mpeg", help="Section 5 MPEG decoder case study")
    mpeg.add_argument("--macroblocks", type=int, default=8)
    mpeg.add_argument("--max-size", type=int, default=512)
    mpeg.add_argument("--min-size", type=int, default=16)
    _add_energy_args(mpeg)
    _add_engine_args(mpeg)
    _add_resilience_args(mpeg)
    _add_manifest_args(mpeg)
    _add_obs_args(mpeg)
    mpeg.set_defaults(func=_cmd_mpeg)

    spm = sub.add_parser("spm", help="cache vs scratchpad per on-chip budget")
    spm.add_argument("kernel")
    spm.add_argument(
        "--budgets", type=int, nargs="+",
        default=[16, 32, 64, 128, 256, 512, 1024],
    )
    _add_energy_args(spm)
    _add_engine_args(spm)
    _add_resilience_args(spm)
    _add_manifest_args(spm)
    _add_obs_args(spm)
    spm.set_defaults(func=_cmd_spm)

    trace = sub.add_parser(
        "trace", help="export a din trace or report locality statistics"
    )
    trace.add_argument("kernel")
    trace.add_argument("--din", default=None, help="write Dinero din file here")
    trace.add_argument("--cache-size", type=int, default=64)
    trace.add_argument("--line-size", type=int, default=8)
    trace.add_argument("--tile", type=int, default=1)
    trace.add_argument("--optimized", action="store_true",
                       help="use the Section 4.1 layout")
    _add_obs_args(trace)
    trace.set_defaults(func=_cmd_trace)

    search = sub.add_parser("search", help="greedy pruned exploration")
    search.add_argument("kernel")
    search.add_argument("--objective", choices=["energy", "cycles"],
                        default="energy")
    search.add_argument("--max-size", type=int, default=1024)
    search.add_argument("--min-size", type=int, default=16)
    _add_energy_args(search)
    _add_engine_args(search)
    _add_manifest_args(search)
    _add_obs_args(search)
    search.set_defaults(func=_cmd_search)

    pareto = sub.add_parser(
        "pareto",
        help="multi-objective Pareto search (local, or POST /pareto with "
             "--server)",
    )
    pareto.add_argument("kernel")
    pareto.add_argument(
        "--searcher", default="nsga2",
        help="search strategy plugin (see 'plugins --kind searcher'; "
             "default: nsga2)",
    )
    pareto.add_argument("--generations", type=int, default=10)
    pareto.add_argument("--population", type=int, default=16)
    pareto.add_argument("--seed", type=int, default=0,
                        help="search RNG seed (fixed seed => identical "
                             "fronts, any --jobs)")
    pareto.add_argument(
        "--objectives", nargs="+", default=["cycles", "energy"],
        choices=["cycles", "energy", "area"],
        help="objective axes to minimise (default: cycles energy)",
    )
    pareto.add_argument("--archive-capacity", type=int, default=128,
                        help="bound on retained front points")
    pareto.add_argument(
        "--no-seed-population", action="store_true",
        help="skip analytic seeding of the initial population",
    )
    pareto.add_argument("--max-size", type=int, default=512)
    pareto.add_argument("--min-size", type=int, default=16)
    pareto.add_argument("--ways", type=int, nargs="+", default=[1])
    pareto.add_argument("--tilings", type=int, nargs="+", default=None)
    pareto.add_argument(
        "--checkpoint", metavar="FILE.jsonl", default=None,
        help="journal completed generations to this append-only file "
             "(local runs)",
    )
    pareto.add_argument(
        "--resume", action="store_true",
        help="replay generations already journaled in --checkpoint",
    )
    pareto.add_argument(
        "--server", default=None, metavar="URL",
        help="submit to a running service (POST /pareto) and stream the "
             "front per generation instead of searching locally",
    )
    pareto.add_argument("--priority", type=int, default=10,
                        help="queue priority on the service (lower runs "
                             "sooner)")
    pareto.add_argument("--no-wait", action="store_true",
                        help="with --server: print the job id and return")
    pareto.add_argument("--timeout", type=float, default=None,
                        help="with --server: give up waiting after this "
                             "many seconds")
    pareto.add_argument("--client", default=None, metavar="NAME",
                        help="tenant identity sent as X-Repro-Client")
    pareto.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="with --server: wall-clock bound; an expired "
                             "search cancels but keeps its journal")
    _add_energy_args(pareto)
    _add_engine_args(pareto)
    _add_manifest_args(pareto)
    _add_obs_args(pareto)
    pareto.set_defaults(func=_cmd_pareto, chunk_timeout=None, max_retries=None)

    sheet = sub.add_parser("datasheet", help="full report for one configuration")
    sheet.add_argument("kernel")
    sheet.add_argument("--cache-size", type=int, default=64)
    sheet.add_argument("--line-size", type=int, default=8)
    sheet.add_argument("--ways", type=int, default=1)
    sheet.add_argument("--tiling", type=int, default=1)
    _add_energy_args(sheet)
    _add_obs_args(sheet)
    sheet.set_defaults(func=_cmd_datasheet)

    codegen = sub.add_parser(
        "codegen", help="emit the transformed C source for a configuration"
    )
    codegen.add_argument("kernel")
    codegen.add_argument("--cache-size", type=int, default=64)
    codegen.add_argument("--line-size", type=int, default=8)
    codegen.add_argument("--tiling", type=int, default=1)
    codegen.add_argument("--no-layout-opt", action="store_true")
    _add_obs_args(codegen)
    codegen.set_defaults(func=_cmd_codegen)

    sens = sub.add_parser(
        "sensitivity", help="tornado analysis of the model constants"
    )
    sens.add_argument("kernel")
    sens.add_argument("--max-size", type=int, default=512)
    sens.add_argument("--min-size", type=int, default=16)
    _add_obs_args(sens)
    sens.set_defaults(func=_cmd_sensitivity)

    stats = sub.add_parser(
        "stats",
        help="profiled sweep: per-stage timing and cache-hit table",
    )
    stats.add_argument("kernel", nargs="?", default=None)
    stats.add_argument(
        "--from", dest="from_file", metavar="FILE.json", default=None,
        help="render a previously written repro.obs/1 report instead of "
             "running a sweep",
    )
    stats.add_argument("--max-size", type=int, default=512)
    stats.add_argument("--min-size", type=int, default=16)
    stats.add_argument("--ways", type=int, nargs="+", default=[1])
    stats.add_argument("--tilings", type=int, nargs="+", default=None)
    _add_energy_args(stats)
    _add_engine_args(stats)
    _add_resilience_args(stats)
    _add_manifest_args(stats)
    _add_obs_args(stats)
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP exploration service (job queue + result store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--store", default="repro-results.db",
                       help="persistent sqlite result store (repro.store/1)")
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="checkpoint journal directory "
                            "(default: <store>.spool)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admission-control bound on queued jobs")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes per sweep")
    serve.add_argument("--no-trace", action="store_true",
                       help="do not mint trace ids for bare submissions "
                            "(clients can still send their own)")
    serve.add_argument("--client-rate", type=float, default=None,
                       metavar="JOBS_PER_S",
                       help="per-client steady submission rate "
                            "(default: unlimited)")
    serve.add_argument("--client-burst", type=int, default=10,
                       help="per-client burst capacity (token bucket depth)")
    serve.add_argument("--client-inflight", type=int, default=None,
                       metavar="N",
                       help="per-client cap on queued+running jobs "
                            "(default: unlimited)")
    serve.add_argument("--client-weight", action="append", default=[],
                       metavar="NAME=WEIGHT",
                       help="fair-share weight for one client (repeatable; "
                            "default weight is 1.0)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       metavar="N",
                       help="consecutive chunk failures before an "
                            "evaluator's circuit breaker opens")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds an open breaker waits before its "
                            "half-open probe")
    _add_obs_args(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running exploration service"
    )
    submit.add_argument("kernel")
    submit.add_argument("--server", default="http://127.0.0.1:8000")
    submit.add_argument("--priority", type=int, default=10,
                        help="queue priority (lower runs sooner)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.add_argument("--client", default=None, metavar="NAME",
                        help="tenant identity sent as X-Repro-Client "
                             "(default: anonymous)")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound; an expired job cancels "
                             "but keeps its checkpoint for resume")
    submit.add_argument("--max-size", type=int, default=512)
    submit.add_argument("--min-size", type=int, default=16)
    submit.add_argument("--ways", type=int, nargs="+", default=[1])
    submit.add_argument("--tilings", type=int, nargs="+", default=None)
    submit.add_argument("--objective", choices=["energy", "cycles"],
                        default="energy")
    submit.add_argument("--cycle-bound", type=float, default=None)
    submit.add_argument("--energy-bound", type=float, default=None)
    submit.add_argument(
        "--backend", default="auto", choices=available_backends()
    )
    _add_energy_args(submit)
    _add_obs_args(submit)
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list service jobs, or show/await one job"
    )
    jobs.add_argument("job_id", nargs="?", default=None)
    jobs.add_argument("--server", default="http://127.0.0.1:8000")
    jobs.add_argument("--wait", action="store_true",
                      help="block until the job finishes, then print its result")
    jobs.add_argument("--timeout", type=float, default=None,
                      help="give up waiting after this many seconds")
    jobs.add_argument("--manifest", action="store_true",
                      help="print the job's repro.manifest/1 document")
    jobs.add_argument("--cancel", action="store_true",
                      help="cancel the job (dequeues queued jobs, stops "
                           "running sweeps at the next chunk)")
    _add_obs_args(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    store = sub.add_parser(
        "store", help="offline result-store maintenance (verify/repair)"
    )
    store.add_argument("action", choices=["verify"],
                       help="verify: audit per-row sha256 checksums")
    store.add_argument("--store", default="repro-results.db",
                       help="persistent sqlite result store to scan")
    store.add_argument("--spool", default=None, metavar="DIR",
                       help="checkpoint journal directory for --repair "
                            "estimate rebuilds (default: none)")
    store.add_argument("--repair", action="store_true",
                       help="quarantine corrupt rows, backfill legacy "
                            "checksums, rebuild from journals")
    _add_obs_args(store)
    store.set_defaults(func=_cmd_store)

    top = sub.add_parser(
        "top", help="live dashboard for a running exploration service"
    )
    top.add_argument("--server", default="http://127.0.0.1:8000")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="seconds between refreshes (default: 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N refreshes (default: until Ctrl-C)")
    _add_obs_args(top)
    top.set_defaults(func=_cmd_top)

    from repro.registry import KINDS

    plugins = sub.add_parser(
        "plugins",
        help="list registered components (built-ins and installed plugins)",
    )
    plugins.add_argument(
        "--kind", choices=KINDS, default=None,
        help="show one component kind only",
    )
    plugins.add_argument(
        "--json", action="store_true",
        help="emit the table as JSON instead of text",
    )
    _add_obs_args(plugins)
    plugins.set_defaults(func=_cmd_plugins)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``memexplore`` and ``python -m repro``.

    Besides dispatching the subcommand, this is where the observability
    flags land: logging is configured first, spans are enabled for the
    duration of the command under ``--profile`` (table printed afterwards),
    and ``--metrics-out`` serialises the ``repro.obs/1`` report once the
    command finishes.  The collector and registry are reset up front so a
    reporting invocation describes this command only.
    """
    args = build_parser().parse_args(argv)
    obs.configure_logging(args.log_level, json_format=args.log_json)
    reporting = args.profile or args.metrics_out is not None
    if reporting:
        obs.reset()
    if args.profile:
        obs.enable_profiling()
    try:
        code = args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT, without a traceback splattered on
        # the terminal.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if args.profile:
            obs.disable_profiling()
    if reporting:
        report = obs.build_report(cache=get_eval_cache().snapshot())
        if args.profile and args.command != "stats":
            print()
            print(obs.render_stage_table(report))
        if args.metrics_out is not None:
            obs.write_report(args.metrics_out, report)
            print(f"wrote {obs.SCHEMA} report to {args.metrics_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
