"""Command-line interface: regenerate the paper's artifacts as text tables.

Installed as ``repro-routing``.  Every artifact (the paper's tables and
figures, Theorem 1's bound and the analyses built around them) is a
registered experiment with one entry point, ``experiment <ID>``; the
evaluate mode runs the routing schemes on user-supplied networks::

    repro-routing list                       # registered experiment ids
    repro-routing experiment FIG3            # regenerate one artifact
    repro-routing experiment figure2         # old command names are aliases
    repro-routing report --output REPORT.md  # regenerate all of them
    repro-routing evaluate --network my.json --traffic demand.json

The ``lab`` group orchestrates studies through the content-addressed result
store (resumable, cached, with JSONL telemetry)::

    repro-routing lab run --topology nsfnet --traffic nominal --seeds 10
    repro-routing lab run --experiment FIG6   # an experiment's job graph
    repro-routing lab status                  # per-study progress
    repro-routing lab resume                  # finish an interrupted study
    repro-routing lab ls                      # store contents
    repro-routing lab gc                      # drop unreferenced results

The ``serve`` group runs the online admission-control service
(:mod:`repro.serve`): the same compiled policies answering one call at a
time over a JSON-lines socket, with micro-batching, overload shedding and
live telemetry; ``control replay`` closes the protection-level control loop
over one trace::

    repro-routing serve run --topology nsfnet --port 7411
    repro-routing serve replay --duration 60 --socket   # vs the simulator
    repro-routing serve bench --overload-factor 2
    repro-routing control replay --workload adversarial:0
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from ._compat import BACKENDS
from .experiments.runner import PAPER_CONFIG, ReplicationConfig

__all__ = ["main"]


def _config(args: argparse.Namespace) -> ReplicationConfig:
    try:
        return PAPER_CONFIG.scaled(
            duration_factor=args.duration / 100.0, num_seeds=args.seeds
        )
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.registry import run_experiment, run_experiment_json

    try:
        if args.json:
            print(json.dumps(run_experiment_json(args.id, _config(args)),
                             indent=2, sort_keys=True))
        else:
            print(run_experiment(args.id, _config(args)))
    except KeyError as exc:
        # Unknown experiment id: a one-line error listing what exists,
        # never a traceback.
        raise SystemExit(f"experiment: {exc.args[0]}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments.registry import list_experiments

    print(list_experiments())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.erlang_bound import erlang_bound
    from .api import Scenario, run_study
    from .experiments.report import format_table as fmt
    from .topology.io import load_network
    from .traffic.io import load_traffic

    network = load_network(args.network)
    traffic = load_traffic(args.traffic)
    if traffic.num_nodes != network.num_nodes:
        raise SystemExit(
            f"traffic is for {traffic.num_nodes} nodes but the network has "
            f"{network.num_nodes}"
        )
    scenario = Scenario(topology=network, traffic=traffic, max_hops=args.hops)
    stats = run_study(
        scenario,
        policies=("single-path", "uncontrolled", "controlled", "length-adaptive"),
        config=_config(args), backend=args.backend,
    ).blocking()
    controlled = scenario.build_policy("controlled")
    protected = int(np.count_nonzero(controlled.protection_levels))
    bound = (
        float(erlang_bound(network, traffic)) if network.num_nodes <= 16 else None
    )
    if args.json:
        from .experiments.storage import statistic_to_dict

        print(json.dumps({
            "schema": "repro-evaluate-v1",
            "network": {
                "num_nodes": network.num_nodes,
                "num_links": network.num_links,
                "offered_erlangs": traffic.total,
            },
            "policies": {
                name: statistic_to_dict(stat) for name, stat in stats.items()
            },
            "erlang_bound": bound,
            "protected_links": protected,
        }, indent=2, sort_keys=True))
        return 0
    print(
        f"{network.num_nodes} nodes, {network.num_links} directed links, "
        f"{traffic.total:.1f} Erlangs offered"
    )
    print(
        fmt(
            ["policy", "blocking", "ci"],
            [[name, stat.mean, stat.half_width] for name, stat in stats.items()],
        )
    )
    if bound is not None:
        print(f"Erlang cut-set lower bound: {bound:.6f}")
    print(f"protection: {protected}/{network.num_links} links with r > 0")
    return 0


def _bounded(cast: Callable[[str], float], positive: bool) -> Callable[[str], float]:
    """Argparse type: a finite ``cast`` value above zero (``positive``) or
    at least zero, so an out-of-range flag fails at parse time."""
    kind = "an integer" if cast is int else "a number"
    bound = "positive" if positive else "non-negative"

    def parse(value: str) -> float:
        try:
            parsed = cast(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value!r}")
        if not 0 <= parsed < math.inf or (positive and parsed == 0):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return parsed

    return parse


_positive_int = _bounded(int, positive=True)
_non_negative_int = _bounded(int, positive=False)
_positive_float = _bounded(float, positive=True)
_non_negative_float = _bounded(float, positive=False)


def _parse_lab_traffic(value: str):
    """``nominal`` or a strictly positive per-pair Erlang value."""
    if value == "nominal":
        return value
    try:
        erlangs = float(value)
    except ValueError:
        raise SystemExit(
            f"lab: traffic must be 'nominal' or a per-pair Erlang value, "
            f"got {value!r}"
        ) from None
    if not erlangs > 0:
        raise SystemExit(
            f"lab: per-pair Erlang value must be positive, got {erlangs:g}"
        )
    return erlangs


def _lab_study_summary(study) -> dict:
    """JSON-ready summary of one finished lab study (deterministic values)."""
    return {
        "study": study.lab.study,
        "total_jobs": study.lab.total_jobs,
        "cache_hits": study.lab.cache_hits,
        "simulated": study.lab.simulated,
        "failed": study.lab.failed,
        "elapsed": study.lab.elapsed,
        "events": study.lab.events,
        "policies": {
            name: {
                "mean": outcome.stat.mean,
                "half_width": outcome.stat.half_width,
                "values": list(outcome.stat.values),
            }
            for name, outcome in study.outcomes.items()
        },
    }


def _run_lab_studies(studies, args, config=None) -> int:
    """Run ``(scenario, policies)`` studies through the lab; print/report."""
    from .api import LabConfig, run_study
    from .lab.scheduler import LabInterrupted

    config = _config(args) if config is None else config
    lab = LabConfig(
        store=args.store, events=args.events, max_jobs=args.max_jobs
    )
    summaries = []
    for scenario, policies in studies:
        try:
            study = run_study(
                scenario, policies=policies, config=config,
                parallel=args.workers != 0, max_workers=args.workers or None,
                lab=lab, backend=getattr(args, "backend", "auto"),
            )
        except LabInterrupted as exc:
            print(exc.report.describe(), file=sys.stderr)
            print(
                f"resume with: repro-routing lab resume --store {args.store}",
                file=sys.stderr,
            )
            return 3
        summaries.append(_lab_study_summary(study))
    if args.json:
        print(json.dumps(
            {"schema": "repro-lab-run-v1", "studies": summaries},
            indent=2, sort_keys=True,
        ))
        return 0
    from .experiments.report import format_table

    for summary in summaries:
        print(
            f"study {summary['study']}: {summary['total_jobs']} jobs, "
            f"{summary['cache_hits']} cache hits, "
            f"{summary['simulated']} simulated in {summary['elapsed']:.2f}s"
        )
        print(format_table(
            ["policy", "blocking", "ci"],
            [[name, data["mean"], data["half_width"]]
             for name, data in summary["policies"].items()],
        ))
        if summary["events"]:
            print(f"telemetry: {summary['events']}")
    return 0


def _cmd_lab_run(args: argparse.Namespace) -> int:
    from .api import Scenario, _policy_names

    if args.experiment:
        from .experiments.registry import experiment_job_graph

        try:
            studies = experiment_job_graph(args.experiment)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise SystemExit(f"lab run: {message}")
        return _run_lab_studies(studies, args)
    traffic = _parse_lab_traffic(args.traffic)
    try:
        scenario = Scenario(
            topology=args.topology,
            traffic=traffic,
            policy=args.policies[0],
            max_hops=args.hops,
            load_scale=args.load_scale,
        )
        policies = _policy_names(scenario, args.policies)
    except ValueError as exc:
        raise SystemExit(f"lab run: {exc}")
    return _run_lab_studies([(scenario, policies)], args)


def _latest_study(store) -> str | None:
    studies = store.list_studies()
    if not studies:
        return None
    return max(studies, key=lambda s: store.manifest_path(s).stat().st_mtime)


def _cmd_lab_resume(args: argparse.Namespace) -> int:
    from .lab.scheduler import scenario_from_spec
    from .lab.store import ResultStore

    store = ResultStore(args.store)
    study = args.study or _latest_study(store)
    if study is None:
        raise SystemExit(f"lab resume: no studies recorded under {args.store}")
    manifest = store.load_manifest(study)
    if manifest is None:
        raise SystemExit(f"lab resume: unknown study {study!r} in {args.store}")
    raw = manifest["config"]
    try:
        scenario = scenario_from_spec(manifest["spec"])
        # Replay the manifest's own replication window and seed roster;
        # different fidelity flags would change the job keys and therefore
        # start a different study instead of finishing this one.
        config = ReplicationConfig(
            measured_duration=float(raw["measured_duration"]),
            warmup=float(raw["warmup"]),
            seeds=tuple(int(s) for s in raw["seeds"]),
        )
    except ValueError as exc:
        raise SystemExit(f"lab resume: {exc}")
    return _run_lab_studies(
        [(scenario, tuple(manifest["policies"]))], args, config=config
    )


def _lab_status_row(store, study: str) -> dict:
    """Progress summary of one study from its manifest (JSON-ready)."""
    manifest = store.load_manifest(study)
    if manifest is None:
        raise SystemExit(f"lab status: unknown study {study!r}")
    jobs = manifest.get("jobs", {})
    done = sum(1 for key in jobs if key in store)
    failed = sum(1 for entry in jobs.values() if entry.get("status") == "failed")
    state = "complete" if done == len(jobs) else ("failed" if failed else "partial")
    return {
        "study": study,
        "policies": list(manifest.get("policies", [])),
        "jobs": len(jobs),
        "done": done,
        "failed": failed,
        "state": state,
    }


def _lab_job_rows(store, manifest: dict) -> list[dict]:
    """Per-replication detail for one study, sorted by (policy, seed)."""
    rows = [
        {
            "policy": entry["policy"],
            "seed": entry["seed"],
            "status": "done" if key in store else entry.get("status", "pending"),
            "elapsed": entry.get("elapsed"),
        }
        for key, entry in manifest["jobs"].items()
    ]
    rows.sort(key=lambda row: (row["policy"], row["seed"]))
    return rows


def _cmd_lab_status(args: argparse.Namespace) -> int:
    from .experiments.report import format_table
    from .lab.store import ResultStore

    store = ResultStore(args.store)
    studies = [args.study] if args.study else store.list_studies()
    if not studies:
        if args.json:
            print(json.dumps(
                {"schema": "repro-lab-status-v1", "store": args.store,
                 "studies": []},
                indent=2, sort_keys=True,
            ))
        else:
            print(f"no studies recorded under {args.store}")
        return 0
    summaries = [_lab_status_row(store, study) for study in studies]
    if args.json:
        document = {
            "schema": "repro-lab-status-v1",
            "store": args.store,
            "studies": summaries,
        }
        if args.study:
            document["jobs"] = _lab_job_rows(store, store.load_manifest(args.study))
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["study", "policies", "jobs", "done", "failed", "state"],
        [[row["study"], ",".join(row["policies"]), row["jobs"], row["done"],
          row["failed"], row["state"]] for row in summaries],
    ))
    if args.study:
        detail = [
            [row["policy"], row["seed"], row["status"],
             f"{row['elapsed']:.3f}" if row["elapsed"] is not None else "-"]
            for row in _lab_job_rows(store, store.load_manifest(args.study))
        ]
        print(format_table(["policy", "seed", "status", "seconds"], detail))
    return 0


def _cmd_lab_ls(args: argparse.Namespace) -> int:
    from .lab.store import ResultStore

    stats = ResultStore(args.store).stats()
    if args.json:
        print(json.dumps(
            {
                "schema": "repro-lab-ls-v1",
                "root": str(stats["root"]),
                "objects": stats["objects"],
                "bytes": stats["bytes"],
                "studies": stats["studies"],
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(
        f"{stats['root']}: {stats['objects']} cached replications "
        f"({stats['bytes'] / 1024:.1f} KiB), {stats['studies']} studies"
    )
    return 0


def _cmd_lab_gc(args: argparse.Namespace) -> int:
    from .lab.store import ResultStore

    outcome = ResultStore(args.store).gc()
    print(
        f"removed {outcome['removed']} unreferenced replications, "
        f"kept {outcome['kept']}"
    )
    return 0


def _serve_pieces(args: argparse.Namespace):
    """(network, policy, scenario) for the serve group's scenario flags."""
    from .api import Scenario
    from .routing.table import FIRST_FEASIBLE

    try:
        scenario = Scenario(
            topology=args.topology,
            traffic=_parse_lab_traffic(args.traffic),
            policy=args.policy,
            max_hops=args.hops,
            load_scale=args.load_scale,
            workload=getattr(args, "workload", None),
        )
        policy = scenario.build_policy()
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    # Checked here (not only in NetworkState) so `serve bench`, which builds
    # its own engines internally, fails with the same one-line message.
    if policy.discipline not in FIRST_FEASIBLE:
        raise SystemExit(
            f"serve: supports disciplines {FIRST_FEASIBLE}, got "
            f"{policy.discipline!r} (policy {policy.name!r})"
        )
    return scenario.network, policy, scenario


def _check_controller_flags(args: argparse.Namespace, prefix: str = "serve") -> None:
    """The no-op and conflicting ``--controller`` combinations, refused.

    A controller on a stationary workload can only re-derive the levels
    the deployment already runs (Equation 15 from the provisioned
    matrix), so the loop would burn cycles changing nothing; and the
    adaptation loop and the control loop are two writers to the same
    thresholds.  Both configurations die here with a one-line message
    instead of misbehaving quietly.
    """
    if getattr(args, "controller", None) is None:
        return
    if getattr(args, "workload", None) is None:
        raise SystemExit(
            f"{prefix}: --controller on the stationary workload is a no-op "
            "(the static Equation-15 thresholds are already provisioned for "
            "this matrix); pick --workload diurnal, flash-crowd, "
            "regional-surge or adversarial[:SEED], or drop --controller"
        )
    if getattr(args, "adapt_interval", None) is not None:
        raise SystemExit(
            f"{prefix}: --controller and --adapt-interval are two writers "
            "to the same live thresholds; run one or the other"
        )


def _serve_engine(args: argparse.Namespace, network, policy, scenario):
    """Build the request engine the serve subcommands share."""
    from .serve import (
        AdaptationConfig,
        BatchConfig,
        NetworkState,
        OverloadConfig,
        OverloadControl,
        RequestEngine,
    )

    _check_controller_flags(args)
    overload = None
    try:
        if args.rate is not None or args.queue_limit is not None:
            overload = OverloadControl(OverloadConfig(
                rate=float("inf") if args.rate is None else args.rate,
                burst=args.burst,
                alternate_reserve=args.reserve,
                queue_limit=4096 if args.queue_limit is None else args.queue_limit,
            ))
        adaptation = (
            None if args.adapt_interval is None
            else AdaptationConfig(update_interval=args.adapt_interval)
        )
        state = NetworkState(network, policy, adaptation=adaptation)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    control = None
    if getattr(args, "controller", None) is not None:
        from .control import make_control_loop

        try:
            control = make_control_loop(
                state, scenario.path_table, scenario.traffic_matrix,
                controller=args.controller,
                interval=args.control_interval,
            )
        except ValueError as exc:
            raise SystemExit(f"serve: {exc}")
    engine = RequestEngine(
        network, policy, state=state, overload=overload, control=control,
        batch=BatchConfig(max_batch=args.batch),
    )
    if getattr(args, "events", None):
        from .lab.events import EventBus

        engine.telemetry.bind(EventBus(args.events))
    return engine


def _cmd_serve_run(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ServeServer

    network, policy, scenario = _serve_pieces(args)
    engine = _serve_engine(args, network, policy, scenario)

    async def serve() -> None:
        server = ServeServer(
            engine, host=args.host, port=args.port,
            publish_interval=args.publish_every,
            read_timeout=args.read_timeout if args.read_timeout > 0 else None,
            max_line_bytes=args.max_line_bytes,
        )
        host, port = await server.start()
        print(
            f"serving {scenario.topology}/{args.policy} on {host}:{port} "
            f"(batch {engine.batch.max_batch}, JSON lines; "
            "SIGINT/SIGTERM to drain)"
        )
        # A signal flips this event; the server then drains — queued
        # requests are flushed and answered, the final telemetry phases
        # (drain, shutdown) are published — and the process exits 0.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                continue
            installed.append(signum)
        try:
            await stop.wait()
            print("signal received: draining")
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await server.stop()
            print(
                f"drained: {engine.decisions_total} decisions, "
                f"{len(engine.held)} calls still held"
            )

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - loop without signal handlers
        pass
    finally:
        bus = engine.telemetry.bus
        if bus is not None:
            bus.close()
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeServer, replay_trace, replay_trace_socket

    network, policy, scenario = _serve_pieces(args)
    engine = _serve_engine(args, network, policy, scenario)
    try:
        trace = scenario.make_trace(args.duration + args.warmup, args.seed)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    if args.socket:
        async def run():
            async with ServeServer(engine) as server:
                return await replay_trace_socket(
                    server.host, server.port, trace,
                    warmup=args.warmup, speedup=args.speedup,
                )
        report = asyncio.run(run())
    else:
        report = replay_trace(
            engine, trace, warmup=args.warmup, speedup=args.speedup
        )
    result = report.result
    verified = None
    if (
        engine.overload is None
        and engine.state.adaptation is None
        and engine.control is None
    ):
        from .sim.simulator import simulate

        reference = simulate(network, policy, trace, warmup=args.warmup)
        verified = (
            np.array_equal(result.offered, reference.offered)
            and np.array_equal(result.blocked, reference.blocked)
            and result.primary_carried == reference.primary_carried
            and result.alternate_carried == reference.alternate_carried
        )
    bus = engine.telemetry.bus
    if bus is not None:
        engine.publish_metrics(phase="replay")
        bus.close()
    adaptive = engine.state.adaptation is not None
    control = engine.control
    if args.json:
        print(json.dumps({
            "schema": "repro-serve-replay-v1",
            "transport": "socket" if args.socket else "in-process",
            "workload": getattr(args, "workload", None),
            "calls": len(trace.times),
            "requests": report.requests,
            "network_blocking": result.network_blocking,
            "alternate_fraction": result.alternate_fraction,
            "decisions_per_second": report.decisions_per_second,
            "wall_seconds": report.wall_seconds,
            "threshold_recomputes": (
                engine.state.recompute_count if adaptive else None
            ),
            "last_refresh_delta": (
                engine.state.last_refresh_delta if adaptive else None
            ),
            # The policy version that made the tail of these decisions:
            # regime-shift plots align on this, and the swap trail says
            # exactly when each earlier epoch was in force.
            "policy_epoch": engine.state.policy_epoch,
            "controller": getattr(args, "controller", None),
            "control": None if control is None else {
                "steps": len(control.steps),
                "swaps": sum(1 for s in control.steps if s.applied),
                "clamp_violations": control.clamp.violations,
                "decisions_sha256": control.decisions_sha256(),
                "objective": (
                    control.steps[-1].objective if control.steps else None
                ),
            },
            "swap_events": [
                {"time": swap.time, "epoch": swap.epoch,
                 "max_delta": swap.max_delta}
                for swap in engine.state.swaps
            ],
            "simulator_equivalent": verified,
        }, indent=2, sort_keys=True))
        return 0 if verified in (None, True) else 4
    transport = "socket" if args.socket else "in-process"
    print(
        f"replayed {len(trace.times)} calls ({report.requests} requests) "
        f"{transport} at {report.decisions_per_second:,.0f} decisions/sec"
    )
    print(
        f"blocking {result.network_blocking:.4f}, "
        f"alternate fraction {result.alternate_fraction:.4f}"
    )
    if adaptive:
        print(
            f"threshold recomputes {engine.state.recompute_count}, "
            f"last max |delta r| {engine.state.last_refresh_delta:g}"
        )
    if control is not None:
        swaps = sum(1 for s in control.steps if s.applied)
        print(
            f"controller {args.controller}: {len(control.steps)} steps, "
            f"{swaps} swaps, policy epoch {engine.state.policy_epoch}, "
            f"{control.clamp.violations} clamp violations"
        )
        print(f"control decisions sha256 {control.decisions_sha256()}")
    if verified is not None:
        print(
            "simulator equivalence: "
            + ("decisions match bit for bit" if verified else "MISMATCH")
        )
        if not verified:
            return 4
    else:
        print(
            "simulator equivalence: skipped "
            "(overload/adaptation/controller active)"
        )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve.loadgen import measure_overload, measure_throughput

    network, policy, scenario = _serve_pieces(args)
    try:
        trace = scenario.make_trace(args.duration + 10.0, args.seed)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    throughput = measure_throughput(
        network, policy, trace, batch_size=args.batch, rounds=args.rounds
    )
    overload = measure_overload(
        network, policy, trace, overload_factor=args.overload_factor
    )
    if args.json:
        print(json.dumps({
            "schema": "repro-serve-bench-v1",
            "throughput": throughput,
            "overload": overload,
        }, indent=2, sort_keys=True))
        return 0
    print(
        f"serial  : {throughput['serial_decisions_per_sec']:,.0f} decisions/sec"
    )
    print(
        f"batched : {throughput['batched_decisions_per_sec']:,.0f} decisions/sec "
        f"(batch {throughput['batch_size']}, {throughput['speedup']:.2f}x, "
        "identical decisions)"
    )
    print(
        f"overload x{overload['overload_factor']:g}: shed "
        f"{overload['shed_fraction']:.1%} of queries, "
        f"{overload['mode_transitions']} mode transitions, "
        f"final mode {overload['final_mode']}, "
        f"decision p99 {overload['decision_p99_seconds'] * 1e6:.1f}us"
    )
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ClusterConfig, ClusterRouter, replay_trace, replay_trace_cluster
    from .serve.engine import RequestEngine

    network, policy, scenario = _serve_pieces(args)
    try:
        trace = scenario.make_trace(args.duration + args.warmup, args.seed)
    except ValueError as exc:
        raise SystemExit(f"serve cluster: {exc}")
    try:
        config = ClusterConfig(
            num_shards=args.shards,
            mode=args.mode,
            journal_path=args.journal,
        )
        router = ClusterRouter(network, policy, config)
    except ValueError as exc:
        raise SystemExit(f"serve cluster: {exc}")

    async def run():
        async with router:
            report = await replay_trace_cluster(
                router, trace, warmup=args.warmup, batch_size=args.batch
            )
            audit = await router.audit()
            status = router.shard_status()
        return report, audit, status

    report, audit, status = asyncio.run(run())
    result = report.result
    verified = None
    if args.mode == "ordered":
        # Ordered mode promises bit-equivalence with the single-process
        # engine.  Pipelined mode decides each batch as one wave, whose
        # admissions run in rounds rather than in request order, so its
        # blocking differs from the engine's and there is no engine replay
        # to compare with.
        reference = replay_trace(
            RequestEngine(network, policy), trace, warmup=args.warmup
        )
        verified = report.decisions == reference.decisions
    clean = bool(audit["consistent"]) and not audit["leaked_circuits"]
    if args.json:
        print(json.dumps({
            "schema": "repro-serve-cluster-v1",
            "num_shards": args.shards,
            "mode": args.mode,
            "calls": len(trace.times),
            "requests": report.requests,
            "network_blocking": result.network_blocking,
            "alternate_fraction": result.alternate_fraction,
            "decisions_per_second": report.decisions_per_second,
            "wall_seconds": report.wall_seconds,
            "engine_equivalent": verified,
            "audit": audit,
            "shards": status,
        }, indent=2, sort_keys=True))
        return 0 if verified in (None, True) and clean else 4
    print(
        f"replayed {len(trace.times)} calls ({report.requests} requests) "
        f"across {args.shards} {args.mode} shards at "
        f"{report.decisions_per_second:,.0f} decisions/sec"
    )
    print(
        f"blocking {result.network_blocking:.4f}, "
        f"alternate fraction {result.alternate_fraction:.4f}"
    )
    print(
        f"audit: {'consistent' if audit['consistent'] else 'INCONSISTENT'}, "
        f"{audit['leaked_circuits']} leaked circuits, "
        f"{audit['held_calls']} calls still held"
    )
    if verified is not None:
        print(
            "engine equivalence: "
            + ("decisions match bit for bit" if verified else "MISMATCH")
        )
    else:
        print("engine equivalence: skipped (pipelined mode decides each batch "
              "as one wave, so its blocking differs from the engine's)")
    if verified is False or not clean:
        return 4
    return 0


def _cmd_control_replay(args: argparse.Namespace) -> int:
    """One closed-loop replay, with the controller's step trajectory."""
    from .control import make_control_loop
    from .serve.engine import RequestEngine
    from .serve.loadgen import aggregate_decisions, trace_requests
    from .serve.state import NetworkState

    _check_controller_flags(args, prefix="control")
    network, policy, scenario = _serve_pieces(args)
    try:
        trace = scenario.make_trace(args.duration + args.warmup, args.seed)
        state = NetworkState(network, policy)
        loop = make_control_loop(
            state, scenario.path_table, scenario.traffic_matrix,
            controller=args.controller, interval=args.control_interval,
        )
    except ValueError as exc:
        raise SystemExit(f"control: {exc}")
    if args.pin_epoch is not None:
        loop.pin(args.pin_epoch)
    engine = RequestEngine(network, policy, state=state, control=loop)
    decisions = engine.decide_batch(trace_requests(trace))
    result = aggregate_decisions(trace, decisions, args.warmup)

    if args.json:
        print(json.dumps({
            "schema": "repro-control-replay-v1",
            "workload": args.workload,
            "controller": args.controller,
            "interval": args.control_interval,
            "pinned_epoch": loop.pinned_epoch,
            "calls": len(trace.times),
            "network_blocking": result.network_blocking,
            "alternate_fraction": result.alternate_fraction,
            "policy_epoch": state.policy_epoch,
            "clamp_violations": loop.clamp.violations,
            "decisions_sha256": loop.decisions_sha256(),
            "trajectory": loop.trajectory(),
        }, indent=2, sort_keys=True))
        return 0
    from .experiments.report import format_table

    print(
        f"controller {args.controller} on {args.workload}: "
        f"{len(loop.steps)} steps, policy epoch {state.policy_epoch}, "
        f"blocking {result.network_blocking:.4f}"
    )
    rows = [
        [f"{s.time:.1f}", s.epoch, "yes" if s.applied else "pinned",
         f"{s.objective:.4f}", f"{s.max_delta:g}", s.clamp_lifted,
         f"{s.confidence:.2f}", f"{s.volatility:.2f}"]
        for s in loop.steps
    ]
    print(format_table(
        ["time", "epoch", "applied", "objective", "max |dr|",
         "clamp lifted", "confidence", "volatility"],
        rows,
    ))
    print(
        f"clamp violations {loop.clamp.violations}, "
        f"decisions sha256 {loop.decisions_sha256()}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .experiments.registry import run_all

    report = run_all(_config(args))
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-routing",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate one registered experiment")
    exp.add_argument("id", help="experiment id from DESIGN.md (e.g. FIG3, TAB1)")
    exp.add_argument("--seeds", type=int, default=10)
    exp.add_argument("--duration", type=float, default=100.0)
    exp.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    exp.set_defaults(func=_cmd_experiment)

    lister = sub.add_parser("list", help="list registered experiments")
    lister.set_defaults(func=_cmd_list)

    evaluate = sub.add_parser(
        "evaluate", help="run the routing schemes on your own network + traffic"
    )
    evaluate.add_argument("--network", required=True, help="network JSON file")
    evaluate.add_argument("--traffic", required=True, help="traffic JSON file")
    evaluate.add_argument("--hops", type=int, default=None, help="alternate hop cap H")
    evaluate.add_argument("--seeds", type=int, default=10)
    evaluate.add_argument("--duration", type=float, default=100.0)
    evaluate.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    evaluate.add_argument("--backend", choices=BACKENDS, default="auto",
                          help="simulation engine (all are bit-identical; "
                               "auto batches the seeds when possible)")
    evaluate.set_defaults(func=_cmd_evaluate)

    report = sub.add_parser("report", help="regenerate every experiment into one report")
    report.add_argument("--seeds", type=int, default=10)
    report.add_argument("--duration", type=float, default=100.0)
    report.add_argument("--output", help="write the markdown report here")
    report.set_defaults(func=_cmd_report)

    lab = sub.add_parser(
        "lab", help="content-addressed study orchestration (cached, resumable)"
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    run = lab_sub.add_parser("run", help="run a study through the result store")
    run.add_argument("--topology", default="nsfnet",
                     help="nsfnet or quadrangle (default nsfnet)")
    run.add_argument("--traffic", default="nominal",
                     help="'nominal' or a per-pair Erlang value")
    run.add_argument("--policies", nargs="+", default=["controlled"],
                     help="routing policies to study on common random numbers")
    run.add_argument("--load-scale", type=_positive_float, default=1.0)
    run.add_argument("--hops", type=_non_negative_int, default=None,
                     help="alternate hop cap H")
    run.add_argument("--experiment", default=None,
                     help="run a registered experiment's lab job graph instead")
    run.add_argument("--seeds", type=_positive_int, default=10)
    run.add_argument("--duration", type=_positive_float, default=100.0)
    run.add_argument("--backend", choices=BACKENDS, default="auto",
                     help="simulation engine (all are bit-identical; "
                          "auto batches each policy's seeds when possible)")
    run.set_defaults(func=_cmd_lab_run)

    resume = lab_sub.add_parser(
        "resume", help="finish an interrupted study from its manifest"
    )
    resume.add_argument("--study", default=None,
                        help="study key (default: most recent manifest)")
    resume.set_defaults(func=_cmd_lab_resume)

    for cmd in (run, resume):
        cmd.add_argument("--store", default=".repro-lab",
                         help="result-store root (default .repro-lab)")
        cmd.add_argument("--events", default=None,
                         help="JSONL telemetry path (default: inside the store)")
        cmd.add_argument("--workers", type=_non_negative_int, default=0,
                         help="process-pool size; 0 (default) runs in-process")
        cmd.add_argument("--max-jobs", type=_non_negative_int, default=None,
                         help="simulate at most N jobs, then checkpoint and stop")
        cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")

    status = lab_sub.add_parser("status", help="per-study progress from manifests")
    status.add_argument("--study", default=None, help="detail one study")
    status.set_defaults(func=_cmd_lab_status)

    ls = lab_sub.add_parser("ls", help="store contents summary")
    ls.set_defaults(func=_cmd_lab_ls)

    gc = lab_sub.add_parser("gc", help="drop replications no manifest references")
    gc.set_defaults(func=_cmd_lab_gc)

    for cmd in (status, ls, gc):
        cmd.add_argument("--store", default=".repro-lab",
                         help="result-store root (default .repro-lab)")
    for cmd in (status, ls):
        cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")

    serve = sub.add_parser(
        "serve", help="online admission-control service (repro.serve)"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="serve admission decisions over a JSON-lines socket"
    )
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=_non_negative_int, default=7411)
    serve_run.add_argument("--publish-every", type=_positive_float, default=None,
                           help="telemetry snapshot period in seconds")
    serve_run.add_argument("--read-timeout", type=_non_negative_float,
                           default=30.0,
                           help="disconnect a connection idle this many "
                                "seconds (0 disables)")
    serve_run.add_argument("--max-line-bytes", type=_positive_int,
                           default=1 << 16,
                           help="disconnect on request lines longer than this")
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_replay = serve_sub.add_parser(
        "replay", help="replay a generated trace; verify against the simulator"
    )
    serve_replay.add_argument("--duration", type=_positive_float, default=60.0,
                              help="measured trace time units")
    serve_replay.add_argument("--warmup", type=_non_negative_float, default=10.0)
    serve_replay.add_argument("--seed", type=_non_negative_int, default=0)
    serve_replay.add_argument("--socket", action="store_true",
                              help="replay through the socket server, not in-process")
    serve_replay.add_argument("--speedup", type=_positive_float, default=None,
                              help="pace replay: trace units per wall second")
    serve_replay.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    serve_replay.set_defaults(func=_cmd_serve_replay)

    serve_bench = serve_sub.add_parser(
        "bench", help="serial-vs-batched throughput and overload behaviour"
    )
    serve_bench.add_argument("--duration", type=_positive_float, default=40.0)
    serve_bench.add_argument("--seed", type=_non_negative_int, default=0)
    serve_bench.add_argument("--rounds", type=_positive_int, default=3)
    serve_bench.add_argument("--overload-factor", type=_positive_float,
                             default=2.0,
                             help="offered-rate multiple of the token rate")
    serve_bench.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    serve_cluster = serve_sub.add_parser(
        "cluster",
        help="replay a trace through the sharded cluster; audit + verify",
    )
    serve_cluster.add_argument("--shards", type=_positive_int, default=4,
                               help="shard worker processes")
    serve_cluster.add_argument("--mode", choices=("ordered", "pipelined"),
                               default="ordered",
                               help="ordered is engine-bit-identical; "
                                    "pipelined decides each --batch as one "
                                    "wave, so blocking differs from the "
                                    "engine's")
    serve_cluster.add_argument("--duration", type=_positive_float, default=20.0,
                               help="measured trace time units")
    serve_cluster.add_argument("--warmup", type=_non_negative_float, default=5.0)
    serve_cluster.add_argument("--seed", type=_non_negative_int, default=0)
    serve_cluster.add_argument("--journal", default=None,
                               help="mirror the reservation journal to this "
                                    "JSONL path")
    serve_cluster.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    serve_cluster.set_defaults(func=_cmd_serve_cluster)

    for cmd in (serve_run, serve_replay, serve_bench, serve_cluster):
        cmd.add_argument("--topology", default="nsfnet",
                         help="nsfnet or quadrangle (default nsfnet)")
        cmd.add_argument("--traffic", default="nominal",
                         help="'nominal' or a per-pair Erlang value")
        cmd.add_argument("--policy", default="controlled",
                         help="routing policy to serve (threshold family)")
        cmd.add_argument("--load-scale", type=_positive_float, default=1.0)
        cmd.add_argument("--hops", type=_non_negative_int, default=None,
                         help="alternate hop cap H")
        cmd.add_argument("--batch", type=_positive_int, default=64,
                         help="micro-batch size (max_batch)")
        cmd.add_argument("--workload", default=None,
                         help="time-varying workload spec: diurnal, "
                              "flash-crowd, regional-surge, adversarial[:SEED]"
                              " (default stationary)")
    # The request-engine flags: only run and replay build an engine.
    for cmd in (serve_run, serve_replay):
        cmd.add_argument("--rate", type=_positive_float, default=None,
                         help="token-bucket admission-query rate (enables shedding)")
        cmd.add_argument("--burst", type=_positive_float, default=256.0)
        cmd.add_argument("--reserve", type=_non_negative_float, default=0.25,
                         help="burst fraction reserved for primary-only service")
        cmd.add_argument("--queue-limit", type=_positive_int, default=None,
                         help="hard queue bound (enables queue shedding)")
        cmd.add_argument("--adapt-interval", type=_positive_float, default=None,
                         help="enable online threshold adaptation, this often")
        cmd.add_argument("--events", default=None,
                         help="JSONL telemetry path (serve_metrics events)")
        cmd.add_argument("--controller", choices=("gradient", "markov"),
                         default=None,
                         help="close the online protection-level control "
                              "loop (repro.control); needs a non-stationary "
                              "--workload")
        cmd.add_argument("--control-interval", type=_positive_float, default=5.0,
                         help="controller re-optimization window in trace "
                              "time units")

    control = sub.add_parser(
        "control",
        help="online protection-level optimizer (repro.control)",
    )
    control_sub = control.add_subparsers(dest="control_command", required=True)

    control_replay = control_sub.add_parser(
        "replay",
        help="closed-loop trace replay with the controller's step trajectory",
    )
    control_replay.add_argument("--duration", type=_positive_float, default=60.0,
                                help="measured trace time units")
    control_replay.add_argument("--warmup", type=_non_negative_float,
                                default=10.0)
    control_replay.add_argument("--seed", type=_non_negative_int, default=0)
    control_replay.add_argument("--pin-epoch", type=_non_negative_int, default=None,
                                help="freeze swaps at this policy epoch "
                                     "(rollback drill: proposals are "
                                     "recorded but not applied)")
    control_replay.add_argument("--topology", default="nsfnet",
                                help="nsfnet or quadrangle (default nsfnet)")
    control_replay.add_argument("--traffic", default="nominal",
                                help="'nominal' or a per-pair Erlang value")
    control_replay.add_argument("--policy", default="length-adaptive",
                                help="threshold-family policy to control "
                                     "(default length-adaptive)")
    control_replay.add_argument("--load-scale", type=_positive_float, default=1.1)
    control_replay.add_argument("--hops", type=_non_negative_int, default=6,
                                help="alternate hop cap H")
    control_replay.add_argument("--workload", default=None,
                                help="time-varying workload spec: diurnal, "
                                     "flash-crowd, regional-surge, "
                                     "adversarial[:SEED] (required: the "
                                     "controller is a no-op on stationary)")
    control_replay.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    control_replay.set_defaults(func=_cmd_control_replay)

    control_replay.add_argument("--controller", choices=("gradient", "markov"),
                                default="gradient")
    control_replay.add_argument("--control-interval", type=_positive_float,
                                default=5.0,
                                help="controller re-optimization window in "
                                     "trace time units")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
