"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Gives shell access to the main workflows of the library.  Each command is
declared once in ``_COMMANDS`` — its one-line help, the function that adds
its arguments and its handler; ``repro -h`` lists them all.

Every evaluation subcommand also accepts ``--inject-faults SPEC`` (or the
``REPRO_FAULTS`` environment variable) to activate the deterministic
fault-injection layer of :mod:`repro.faults` — see DESIGN.md.

The evaluation commands (``evaluate``, ``fig8``, ``report``, ``system``,
``campaign``) cache their results in the persistent run store by default
(``--no-cache`` opts out), accept ``--workers N`` to fan work out (a
Table-2 sweep over at most N in-process threads, one per core when
unset; the statistics chunks of ``campaign`` over N worker processes),
and accept ``--resume <run-id>`` to restart an interrupted sweep with its
original parameters — completed cells come back as cache hits, so only
the unfinished work is recomputed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Callable, NamedTuple

from repro.analysis.tables import format_percent, format_table

__all__ = ["main", "build_parser", "version_string", "SchemeNameError"]


class SchemeNameError(ValueError):
    """An unknown ECC scheme name reached a CLI command.

    Raised instead of letting the registry's ``KeyError`` escape as a
    traceback; :func:`main` turns it into a clean exit code 2, and the
    serve daemon's generic exception handling turns it into a failed job
    with the same message.
    """


def _scheme_or_error(name: str):
    """``get_scheme`` with unknown names rewritten as a clean CLI error."""
    from repro.core import get_scheme

    try:
        return get_scheme(name)
    except KeyError:
        from repro.core.registry import SCHEME_ALIASES, known_scheme_names

        raise SchemeNameError(
            f"unknown ECC scheme {name!r}\n"
            f"  known schemes: {', '.join(known_scheme_names())}\n"
            f"  aliases: {', '.join(sorted(SCHEME_ALIASES))}"
        ) from None


@functools.cache
def version_string() -> str:
    """``repro <version>`` from installed metadata, else the package.

    An installed distribution's metadata wins (it reflects what pip
    actually deployed); a source checkout that was never installed falls
    back to ``repro.__version__``.  Cached: each metadata lookup scans
    ``sys.path``, and the serve daemon's ``/healthz`` asks on every call.
    """
    try:
        from importlib.metadata import version as _dist_version

        version = _dist_version("repro")
    except Exception:
        version = None
    if not version:
        import repro

        version = repro.__version__
    return f"repro {version}"


def _count_at_least(low: int, noun: str):
    """An argparse ``type`` accepting integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {noun} {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low} (got {value})")
        return value
    return parse


#: ``--samples``: a Monte Carlo sample count of at least 1
_sample_count = _count_at_least(1, "sample count")
#: ``campaign --runs``/``--events``: a count of at least 0
_campaign_count = _count_at_least(0, "count")
#: ``--workers``: a thread or process count of at least 1
_worker_count = _count_at_least(1, "worker count")


def _timeout_seconds(text: str) -> float:
    """An argparse ``type`` for ``--chunk-timeout``: a bound of 0 or less
    would time out every chunk and quietly fall back to serial
    evaluation, so only durations above 0 are accepted."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid timeout {text!r}") from None
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be above 0 seconds (got {text})")
    return value


def _add_store_flags(parser: argparse.ArgumentParser,
                     workers: bool = True) -> None:
    """The run-store flags shared by every evaluation subcommand."""
    if workers:
        parser.add_argument(
            "--workers", type=_worker_count, default=None, metavar="N",
            help="threads for the Table-2 cells: unset runs one per "
                 "available core, N at most N, 1 runs them serially (all "
                 "bit-identical)")
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="reuse / record results in the persistent run store "
             "(default: on)")
    parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="restart an interrupted run with its stored parameters; "
             "completed cells become cache hits")
    parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-store root (default: $REPRO_RUNS_DIR or "
             "~/.cache/repro-runs)")
    parser.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="progress-heartbeat interval on stderr (0 disables; "
             "default 5)")
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="activate deterministic fault injection, e.g. "
             "'pool.worker.crash:mode=exit;checkpoint.torn_write:mode=torn' "
             "(also via $REPRO_FAULTS; see DESIGN.md)")
    parser.add_argument(
        "--faults-seed", type=int, default=0, metavar="SEED",
        help="seed for probabilistic fault draws (default 0)")
    parser.add_argument(
        "--faults-ledger", default=None, metavar="FILE",
        help="cross-process activation ledger, shared across crash-restart "
             "cycles so 'times=' budgets hold globally")


class _VersionAction(argparse.Action):
    """``--version``, whose string is computed only when the flag is given:
    :func:`version_string` imports ``importlib.metadata``."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_string())
        parser.exit()


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or of ``command`` alone
    (what :func:`main` builds, so it imports no other command's module).
    The one-command parser still names every command in its usage line,
    so its error messages read exactly as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Characterizing and Mitigating Soft "
                    "Errors in GPU DRAM' (MICRO 2021).",
    )
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name in _COMMANDS if command is None else (command,):
        spec = _COMMANDS[name]
        subparser = sub.add_parser(name, help=spec.help)
        if spec.arguments is not None:
            spec.arguments(subparser)
    return parser


def _sweep_arguments(parser, samples_help: str | None = None,
                     seed: int = 1234) -> None:
    """``--samples``, ``--seed`` and the run-store flags of a sweep."""
    parser.add_argument("--samples", type=_sample_count, default=20_000,
                        help=samples_help)
    parser.add_argument("--seed", type=int, default=seed)
    _add_store_flags(parser)


_SAMPLES_HELP = "Monte Carlo samples per sampled pattern"


def _evaluate_arguments(parser) -> None:
    parser.add_argument("scheme", help="registry name, e.g. trio")
    _sweep_arguments(parser, _SAMPLES_HELP)


def _hardware_arguments(parser) -> None:
    parser.add_argument(
        "--expansion", action="store_true",
        help="also synthesize the expansion-tier circuits (searched Hsiao, "
             "SEC-DAEC, BCH DEC, polar) against the SEC-DED baseline")


def _campaign_arguments(parser) -> None:
    parser.add_argument("--runs", type=_campaign_count, default=3)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--events", type=_campaign_count, default=3000,
                        help="generator-truth events for the statistics")
    parser.add_argument(
        "--engine", choices=["shm", "reference"], default="shm",
        help="statistics-campaign implementation (bit-identical results; "
             "default shm, the fused shared-memory fast path; reference is "
             "the scalar oracle)")
    parser.add_argument(
        "--stats", choices=["materialize", "streaming"], default=None,
        help="statistics path: stream mergeable accumulators in bounded "
             "memory (default), or materialize per-event columns (identical "
             "numbers; the default and only choice on --engine reference)")
    parser.add_argument("--workers", type=_worker_count, default=None,
                        metavar="N",
                        help="fan statistics chunks out over N worker "
                             "processes (bit-identical to the serial run)")
    parser.add_argument(
        "--fleet-size", type=int, default=None, metavar="N",
        help="scale the campaign's Table 1 to a fleet of N GPUs: FIT split, "
             "SDC/DUE MTBF, and mission risk under --fleet-scheme")
    parser.add_argument("--fleet-scheme", default="trio",
                        help="ECC scheme the fleet model assumes "
                             "(default: trio)")
    parser.add_argument(
        "--chunk-timeout", type=_timeout_seconds, default=None,
        metavar="SECONDS",
        help="per-chunk wall-clock bound in the fanned-out path (timed-out "
             "chunks are requeued, then run serially)")
    _add_store_flags(parser, workers=False)


def _system_arguments(parser) -> None:
    parser.add_argument("--scheme", default="trio")
    parser.add_argument("--samples", type=_sample_count, default=20_000)
    parser.add_argument("--exaflops", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0])
    _add_store_flags(parser)


def _report_arguments(parser) -> None:
    parser.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    _sweep_arguments(parser, seed=20211018)


def _search_arguments(parser) -> None:
    parser.add_argument("--population", type=int, default=24)
    parser.add_argument("--generations", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2021)


def _install_fault_plan(args) -> None:
    """Activate ``--inject-faults`` for this process and its children."""
    spec = getattr(args, "inject_faults", None)
    if not spec or args.command == "chaos":
        # The chaos harness passes the spec to its campaign *subprocesses*;
        # activating it in the orchestrator would fault the referee.
        return
    from repro import faults

    try:
        plan = faults.FaultPlan.parse(
            spec,
            seed=getattr(args, "faults_seed", 0),
            ledger=getattr(args, "faults_ledger", None),
        )
    except faults.FaultSpecError as exc:
        print(f"repro: error: --inject-faults: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    faults.install(plan)


# ---------------------------------------------------------------------------
# Run-session plumbing
# ---------------------------------------------------------------------------

def _begin_session(args, command: str, config: dict):
    """Open a run session for a cached subcommand, or None when disabled.

    An unusable store (read-only disk, bad root) only disables caching; a
    bad ``--resume`` id is a hard user error and exits with a message.
    """
    if not args.cache and args.resume is None:
        return None
    from repro.runs import RunSession, UnknownRunError

    try:
        return RunSession.begin(command=command, config=config,
                                root=args.runs_dir, resume=args.resume)
    except (UnknownRunError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        raise SystemExit(2) from None
    except OSError as exc:
        print(f"repro: warning: run store unavailable ({exc}); "
              "caching disabled", file=sys.stderr)
        return None


class _NullSession:
    """No-op stand-in so command bodies read the same with caching off."""

    cell_cache = None
    config: dict = {}
    tracer = None

    def stage(self, name):
        return contextlib.nullcontext()

    def record_counters(self, counters: dict) -> None:
        pass

    def active(self):
        return contextlib.nullcontext()

    def summary(self):
        return None


def _session_or_null(args, command: str, config: dict):
    session = _begin_session(args, command, config)
    if session is None:
        null = _NullSession()
        null.config = config
        return null
    return session


def _print_summary(session, out=print) -> None:
    summary = session.summary()
    if summary:
        out(f"\n{summary}")


def _make_heartbeat(args, label: str, unit: str):
    """A progress heartbeat honoring ``--heartbeat`` (None = off).

    Lines go to stderr by default; a namespace carrying a
    ``heartbeat_callback`` (the serve daemon's SSE bridge) gets every
    line delivered there instead.
    """
    interval = getattr(args, "heartbeat", 0.0)
    callback = getattr(args, "heartbeat_callback", None)
    if not interval or interval <= 0:
        return None
    from repro.obs import Heartbeat

    return Heartbeat(label, unit=unit, interval_s=interval,
                     callback=callback)


# ---------------------------------------------------------------------------
# Session configs — one builder per cached command, shared with the serve
# daemon so a submitted job and its CLI twin produce the same manifest
# config (which is what makes the daemon's resume-matching work).
# ---------------------------------------------------------------------------

def evaluate_session_config(args) -> dict:
    return {
        "scheme": args.scheme, "samples": args.samples, "seed": args.seed,
        "workers": args.workers,
    }


def fig8_session_config(args) -> dict:
    """The config of a sweep over every scheme (fig8, rank, report)."""
    return {"samples": args.samples, "seed": args.seed,
            "workers": args.workers}


def campaign_session_config(args) -> dict:
    # fleet_size/fleet_scheme shape the printed report, so they are
    # identity-bearing; --stats is an execution strategy with identical
    # output and deliberately stays out (like --engine/--workers).
    return {"runs": args.runs, "seed": args.seed, "events": args.events,
            "fleet_size": getattr(args, "fleet_size", None),
            "fleet_scheme": getattr(args, "fleet_scheme", "trio")}


def beam_campaign_config(cfg: dict):
    """The :class:`repro.beam.CampaignConfig` a campaign session runs.

    Factored out of :func:`_cmd_campaign` so the serve layer can compute
    the campaign's content-addressed artifact key *before* scheduling.
    """
    from repro.beam import CampaignConfig, DamageParameters, EventParameters

    return CampaignConfig(
        runs=cfg["runs"], write_cycles=6, reads_per_write=3, loop_time_s=2.0,
        seed=cfg["seed"],
        event_parameters=EventParameters(mean_time_to_event_s=8.0),
        damage_parameters=DamageParameters(leaky_pool=100,
                                           saturation_fluence=3e8),
    )


def _warm_pool(workers):
    """The invocation-wide warm pool of a campaign's statistics chunks, or
    None when not fanning out."""
    if not workers or workers <= 1:
        return None
    from repro.core.pool import shared_warm_pool

    return shared_warm_pool(workers)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_schemes() -> None:
    from repro.core import all_schemes
    from repro.core.registry import (
        EXPANSION_SCHEME_NAMES,
        EXTENSION_SCHEME_NAMES,
        get_scheme,
    )

    rows = [
        [scheme.name, scheme.label, "yes" if scheme.corrects_pins else "no"]
        for scheme in all_schemes()
    ]
    for tier_names, suffix in ((EXTENSION_SCHEME_NAMES, " [extension]"),
                               (EXPANSION_SCHEME_NAMES, " [expansion]")):
        for name in tier_names:
            scheme = get_scheme(name)
            rows.append([scheme.name, scheme.label + suffix,
                         "yes" if scheme.corrects_pins else "no"])
    print(format_table(["name", "organization", "pin correction"], rows))


def _cmd_evaluate(args, out=print):
    from repro.errormodel import evaluate_scheme, weighted_outcomes

    _scheme_or_error(args.scheme)  # fail fast, before opening a run
    session = _session_or_null(args, "evaluate",
                               evaluate_session_config(args))
    cfg = session.config
    with session.active():
        scheme = _scheme_or_error(cfg["scheme"])
        with session.stage("evaluate"):
            per_pattern = evaluate_scheme(
                scheme, samples=cfg["samples"], seed=cfg["seed"],
                workers=cfg.get("workers"), cache=session.cell_cache,
                tracer=session.tracer,
                heartbeat=_make_heartbeat(
                    args, f"evaluate {cfg['scheme']}", "cells"),
            )
    rows = [
        [pattern.value, outcome.events,
         f"{outcome.dce:.4%}", f"{outcome.due:.4%}",
         format_percent(outcome.sdc),
         "exhaustive" if outcome.exhaustive else "sampled"]
        for pattern, outcome in per_pattern.items()
    ]
    out(format_table(
        ["pattern", "events", "corrected", "DUE", "SDC", "method"],
        rows, title=f"{scheme.label} — per-pattern outcomes",
    ))
    outcome = weighted_outcomes(scheme, per_pattern=per_pattern)
    out(
        f"\nTable-1 weighted: corrected {outcome.correct:.2%}, "
        f"DUE {outcome.detect:.2%}, SDC {format_percent(outcome.sdc)}"
    )
    _print_summary(session, out)
    return session


def _cmd_fig8(args, out=print):
    from repro.core import all_schemes
    from repro.errormodel import sdc_risk_table, weighted_outcomes

    session = _session_or_null(args, "fig8", fig8_session_config(args))
    cfg = session.config
    schemes = all_schemes()
    with session.active():
        with session.stage("evaluate"):
            table = sdc_risk_table(
                schemes, samples=cfg["samples"], seed=cfg["seed"],
                workers=cfg.get("workers"), cache=session.cell_cache,
                tracer=session.tracer,
                heartbeat=_make_heartbeat(args, "fig8", "cells"),
            )
    rows = []
    for scheme in schemes:
        outcome = weighted_outcomes(scheme, per_pattern=table[scheme.name])
        rows.append([
            scheme.label, f"{outcome.correct:.2%}",
            f"{outcome.detect:.2%}", format_percent(outcome.sdc),
        ])
    out(format_table(["scheme", "corrected", "DUE", "SDC"], rows,
                     title="Figure 8 — Table-1-weighted outcomes"))
    _print_summary(session, out)
    return session


def _render_synthesis_table(title: str, rows, baseline) -> str:
    rendered = []
    for row in rows:
        for label, stats, base in (("Perf.", row.perf, baseline.perf),
                                   ("Eff.", row.eff, baseline.eff)):
            rendered.append([
                row.name, label, f"{stats.area:,.0f}",
                f"{stats.area_overhead(base):+.1%}",
                f"{stats.delay_ns:.3f}",
            ])
    return format_table(
        ["circuit", "point", "area (AND2)", "vs SEC-DED", "delay (ns)"],
        rendered, title=title,
    )


def _cmd_hardware(args=None) -> None:
    from repro.hardware.synth import table3_rows

    encoders, decoders = table3_rows()
    for title, rows in (("Encoders", encoders), ("Decoders", decoders)):
        print(_render_synthesis_table(f"Table 3 — {title}", rows, rows[0]))
        print()
    if args is not None and getattr(args, "expansion", False):
        from repro.hardware.expansion import expansion_rows

        exp_encoders, exp_decoders = expansion_rows()
        for title, rows, baseline in (
            ("Encoders", exp_encoders, encoders[0]),
            ("Decoders", exp_decoders, decoders[0]),
        ):
            print(_render_synthesis_table(
                f"Expansion tier — {title} (vs the Table-3 SEC-DED baseline)",
                rows, baseline,
            ))
            print()


def _cmd_rank(args, out=print):
    from repro.analysis.ranking import format_ranking, ranking_rows

    session = _session_or_null(args, "rank", fig8_session_config(args))
    cfg = session.config
    with session.active():
        with session.stage("rank"):
            rows = ranking_rows(
                samples=cfg["samples"], seed=cfg["seed"],
                workers=cfg.get("workers"), cache=session.cell_cache,
                tracer=session.tracer,
                heartbeat=_make_heartbeat(args, "rank", "cells"),
            )
    out(format_ranking(rows))
    _print_summary(session, out)
    return session


def _cmd_campaign(args, out=print):
    from dataclasses import asdict

    from repro.beam import (
        BeamCampaign,
        filter_intermittent,
        group_events,
        resolve_stats_mode,
        run_statistics_campaign,
    )
    from repro.stats import CampaignAccumulator

    # fail fast, before the beam simulation runs
    resolve_stats_mode(args.engine, args.stats)
    if getattr(args, "fleet_size", None):
        _scheme_or_error(getattr(args, "fleet_scheme", "trio"))
    session = _session_or_null(args, "campaign",
                               campaign_session_config(args))
    cfg = session.config
    config = beam_campaign_config(cfg)
    records = None
    with session.active():
        if session.cell_cache is not None:
            from repro.runs import RunStore, mismatch_from_record

            key = RunStore.campaign_key(asdict(config), session.fingerprint)
            cached = session.store.load_campaign(key)
            if cached is not None:
                meta, record_dicts = cached
                records = [mismatch_from_record(d) for d in record_dicts]
                elapsed_s = meta["elapsed_s"]
                n_events = meta["n_events"]
                session.cell_cache.hits += 1
        if records is None:
            from repro.runs import mismatch_to_record

            checkpoint = None
            if session.cell_cache is not None:
                checkpoint = session.campaign_checkpoint()
            with session.stage("campaign"):
                result = BeamCampaign(config).run(checkpoint=checkpoint)
            records = result.records
            elapsed_s = result.clock.elapsed_s
            n_events = len(result.events)
            if session.cell_cache is not None:
                session.store.save_campaign(
                    key,
                    {"elapsed_s": elapsed_s, "n_events": n_events,
                     "fluence": result.clock.fluence,
                     "weak_cells": result.weak_cell_count},
                    [mismatch_to_record(r) for r in records],
                )
                session.cell_cache.misses += 1

        filtered = filter_intermittent(records)
        observed = group_events(filtered.soft_records)
        out(f"beam time {elapsed_s:,.0f}s | "
            f"{n_events} injected events | "
            f"{len(observed)} observed | "
            f"{len(filtered.damaged_entries)} damaged entries filtered")

        with session.stage("statistics"):
            statistics = run_statistics_campaign(
                cfg["events"], seed=cfg["seed"], engine=args.engine,
                stats=args.stats, workers=args.workers,
                chunk_timeout=getattr(args, "chunk_timeout", None),
                tracer=session.tracer,
                heartbeat=_make_heartbeat(
                    args, "campaign statistics", "chunks"),
                warm_pool=_warm_pool(args.workers),
            )
        session.record_counters(statistics.counters())
        # One fold for every path: the beam run's observed events merged
        # with the statistics campaign's accumulator.  Tally merging
        # makes the report identical to deriving it from the
        # concatenated events.
        accumulator = CampaignAccumulator()
        accumulator.update_from_events(observed)
        final = accumulator.merge(statistics.accumulator).finalize()
        class_fractions = final["class_fractions"]
        table1 = final["table1"]
        out("\nEvent classes (Figure 4a):")
        for klass, fraction in class_fractions.items():
            out(f"  {klass.name}: {fraction:.1%}")
        out("\nDerived Table 1:")
        for pattern, probability in table1.items():
            out(f"  {pattern.value:8s}: {probability:.2%}")
        if cfg.get("fleet_size"):
            from repro.system import GpuFleetModel

            fleet = GpuFleetModel(devices=cfg["fleet_size"])
            scheme = _scheme_or_error(cfg["fleet_scheme"])
            reliability = fleet.from_table1(scheme, table1)
            out(f"\nFleet model: {cfg['fleet_size']:,} GPUs under "
                f"{scheme.label}")
            out(f"  SDC {reliability.sdc_fit:,.1f} FIT | "
                f"MTBF {reliability.mtbf_sdc_hours:,.1f} h | "
                f"P(>=1 in 24h) {reliability.sdc_risk(24.0):.2%}")
            out(f"  DUE {reliability.due_fit:,.1f} FIT | "
                f"MTBF {reliability.mtbf_due_hours:,.1f} h | "
                f"P(>=1 in 24h) {reliability.due_risk(24.0):.2%}")
    _print_summary(session, out)
    return session


def _cmd_system(args) -> None:
    from repro.errormodel import evaluate_scheme, weighted_outcomes
    from repro.system import ExascaleSystem, assess_scheme

    _scheme_or_error(args.scheme)  # fail fast, before opening a run
    session = _session_or_null(args, "system", {
        "scheme": args.scheme, "samples": args.samples,
        "exaflops": list(args.exaflops), "workers": args.workers,
    })
    cfg = session.config
    with session.active():
        scheme = _scheme_or_error(cfg["scheme"])
        with session.stage("evaluate"):
            per_pattern = evaluate_scheme(
                scheme, samples=cfg["samples"],
                workers=cfg.get("workers"), cache=session.cell_cache,
                tracer=session.tracer,
                heartbeat=_make_heartbeat(
                    args, f"system {cfg['scheme']}", "cells"),
            )
        outcome = weighted_outcomes(scheme, per_pattern=per_pattern)
    system = ExascaleSystem()
    rows = []
    for exaflops in cfg["exaflops"]:
        point = system.point(exaflops, outcome)
        rows.append([
            f"{exaflops:.2f}", f"{point.gpus:,}",
            f"{point.mtti_hours:.1f}", f"{point.mttf_months:,.1f}",
        ])
    print(format_table(
        ["exaflops", "GPUs", "MTTI (h)", "MTTF (months)"],
        rows, title=f"{cfg['scheme']} at exascale (Figure 9)",
    ))
    assessment = assess_scheme(outcome)
    verdict = "PASS" if assessment.meets_iso26262 else "FAIL"
    print(f"\nAutomotive (§7.3): {assessment.sdc_fit:.3g} SDC FIT/GPU "
          f"-> ISO 26262 {verdict}; fleet: "
          f"{assessment.fleet_sdc_per_day:.3g} SDC/day, "
          f"{assessment.fleet_due_cars_per_day:,.0f} DUE cars/day")
    _print_summary(session)


def _cmd_report(args) -> None:
    from repro.analysis.report import generate_report

    session = _session_or_null(args, "report", fig8_session_config(args))
    cfg = session.config
    with session.active():
        with session.stage("report"):
            markdown = generate_report(
                samples=cfg["samples"], seed=cfg["seed"],
                workers=cfg.get("workers"), cache=session.cell_cache,
                tracer=session.tracer,
                heartbeat=_make_heartbeat(args, "report", "cells"),
            )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        print(f"report written to {args.output}")
    else:
        print(markdown)
    _print_summary(session)


def _cmd_search(args) -> None:
    from repro.codes.base32 import encode_h_matrix
    from repro.codes.genetic import search_sec2bec

    result = search_sec2bec(population=args.population,
                            generations=args.generations, seed=args.seed)
    print(f"best SEC-2bEC code after {result.generations_run} generations: "
          f"{result.miscorrections} non-aligned 2b aliases "
          f"(paper's Equation 3: 553)")
    print("H matrix (Crockford Base32, one row per line):")
    for row in encode_h_matrix(result.code.h):
        print(f"  {row}")


def _run_campaign(args) -> int | None:
    from repro.stats import TooFewEventsError

    try:
        _cmd_campaign(args)
    except TooFewEventsError as exc:
        print(f"repro: error: the campaign observed too few events "
              f"to derive its statistics ({exc})", file=sys.stderr)
        return 1


def _lazy(target: str) -> Callable:
    """The function ``"module:name"``, imported on its first call, so a
    command's module loads only when that command is built or run."""
    module, name = target.split(":")

    def call(*args):
        from importlib import import_module

        return getattr(import_module(module), name)(*args)
    return call


class _Command(NamedTuple):
    help: str
    arguments: Callable | None  #: adds its arguments to a subparser
    run: Callable  #: args -> exit code; a non-int (a run session) means 0


#: every command, in ``repro -h`` order
_COMMANDS = {
    "version": _Command("print the package version", None,
                        lambda args: print(version_string())),
    "schemes": _Command("list available ECC organizations", None,
                        lambda args: _cmd_schemes()),
    "evaluate": _Command("evaluate one ECC scheme", _evaluate_arguments,
                         _cmd_evaluate),
    "fig8": _Command("Figure-8 comparison of all schemes", _sweep_arguments,
                     _cmd_fig8),
    "hardware": _Command("Table-3 synthesis estimates", _hardware_arguments,
                         _cmd_hardware),
    "rank": _Command("code-space superset ranking: resilience x area x "
                     "delay across every registered organization",
                     functools.partial(_sweep_arguments,
                                       samples_help=_SAMPLES_HELP),
                     _cmd_rank),
    "campaign": _Command("run a simulated beam campaign", _campaign_arguments,
                         _run_campaign),
    "system": _Command("HPC and automotive system models", _system_arguments,
                       _cmd_system),
    "report": _Command("full reproduction report (Markdown)",
                       _report_arguments, _cmd_report),
    "search": _Command("genetic SEC-2bEC code search", _search_arguments,
                       _cmd_search),
    "runs": _Command("inspect the persistent run store",
                     _lazy("repro.runs.cli:add_runs_arguments"),
                     _lazy("repro.runs.cli:cmd_runs")),
    "chaos": _Command("campaign under a seeded fault schedule; asserts "
                      "recovery and clean-run-identical statistics",
                      _lazy("repro.faults.chaos:add_chaos_arguments"),
                      _lazy("repro.faults.chaos:cmd_chaos")),
    "serve": _Command("run the multi-tenant campaign service (HTTP/JSON + "
                      "SSE)",
                      _lazy("repro.serve.options:add_serve_arguments"),
                      _lazy("repro.serve.server:cmd_serve")),
    "submit": _Command("submit a job to a running repro serve daemon",
                       _lazy("repro.serve.options:add_submit_arguments"),
                       _lazy("repro.serve.client:cmd_submit")),
    "jobs": _Command("inspect or control jobs on a repro serve daemon",
                     _lazy("repro.serve.options:add_jobs_arguments"),
                     _lazy("repro.serve.client:cmd_jobs")),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # only the named command's parser; anything else (no argv, -h,
    # --version, an unknown name) gets every command for its help or error
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if hasattr(args, "engine"):  # campaign, chaos: the engine's stats mode
        from repro.beam.engine import resolve_stats_mode

        try:
            args.stats = resolve_stats_mode(args.engine, args.stats)
        except ValueError as exc:
            parser.error(str(exc))
    _install_fault_plan(args)
    from repro.core.pool import install_shutdown_hooks

    install_shutdown_hooks()
    try:
        return _dispatch(args)
    finally:
        from repro.core.pool import close_warm_pools

        close_warm_pools()


def _dispatch(args) -> int:
    try:
        code = _COMMANDS[args.command].run(args)
    except SchemeNameError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
