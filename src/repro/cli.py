"""Command-line interface: the paper's experiments from a shell.

Subcommands:

* ``simulate`` — run the browsing/ad-ecosystem simulator, print workload
  statistics;
* ``detect``   — simulate and classify one week, print flagged ads and
  the confusion summary (optionally through the private protocol);
* ``validate`` — the §7.3 live-validation study (Figure-4 tree);
* ``bias``     — the §8 logistic-regression bias audit (Table 2 /
  Figure 5);
* ``compare``  — render the Table-3 capability matrix;
* ``overhead`` — the §7.1 protocol-overhead numbers;
* ``serve``    — boot the HTTP service plane (enrollment, rounds,
  history) and block until shutdown.

Every command is seeded and deterministic: re-running with the same
arguments reproduces the same output (``serve`` is deterministic in its
protocol outputs; tokens are random by design).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.api import SessionConfig
from repro.core.detector import DetectorConfig
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError, StoreError
from repro.simulation import SimulationConfig, Simulator
from repro.simulation.metrics import evaluate_classifications
from repro.sketch.countmin import CountMinSketch
from repro.validation.comparison import render_comparison_table
from repro.validation.study import LiveValidationStudy
from repro.validation.tree import TreeOutcome

if TYPE_CHECKING:
    from repro.protocol.net import ChaosSocketTransport


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=100,
                        help="panel size (default 100)")
    parser.add_argument("--websites", type=int, default=200,
                        help="site catalogue size (default 200)")
    parser.add_argument("--visits", type=int, default=80,
                        help="average weekly visits per user (default 80)")
    parser.add_argument("--frequency-cap", type=int, default=6,
                        help="targeted-ad repetitions per user (default 6)")
    parser.add_argument("--targeted-percent", type=float, default=1.0,
                        help="percent of inventory that is targeted "
                             "(default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")


def _config_from(args: argparse.Namespace,
                 num_weeks: int = 1) -> SimulationConfig:
    return SimulationConfig(
        num_users=args.users, num_websites=args.websites,
        average_user_visits=args.visits,
        percentage_targeted=args.targeted_percent,
        frequency_cap=args.frequency_cap, num_weeks=num_weeks,
        seed=args.seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate``: run the ecosystem and print workload statistics."""
    config = _config_from(args)
    result = Simulator(config).run()
    print(f"users={config.num_users} websites={config.num_websites} "
          f"seed={config.seed}")
    print(f"visits:          {len(result.visits)}")
    print(f"impressions:     {len(result.impressions)}")
    print(f"distinct ads:    {len(result.unique_ads)}")
    targeted = sum(1 for c in result.campaigns if c.is_targeted)
    print(f"campaigns:       {len(result.campaigns)} "
          f"({targeted} targeted)")
    return 0


def _settings_from(args: argparse.Namespace) -> SessionConfig:
    """The one :class:`~repro.api.SessionConfig` the ``detect`` wiring
    flags describe; a combination the session would refuse raises
    :class:`~repro.errors.ConfigurationError` here."""
    return SessionConfig(
        transport=args.transport, client_backend=args.clients,
        fan_in=args.fan_in)


def _chaos_transport(
        args: argparse.Namespace) -> "Optional[ChaosSocketTransport]":
    """The ``--chaos`` profile's :class:`~repro.protocol.net.
    ChaosSocketTransport` (None without a profile). The session does not
    own an instance it is handed, so whoever builds this closes it."""
    if args.chaos == "none":
        return None
    from repro.protocol.net import ChaosSocketTransport, FaultPlan
    seed = args.chaos_seed if args.chaos_seed is not None else args.seed
    return ChaosSocketTransport(getattr(FaultPlan, args.chaos)(seed=seed))


def _print_chaos_telemetry(args: argparse.Namespace, session) -> None:
    """What the fault plan actually did to the finished run."""
    if args.chaos == "none" or session is None:
        return
    transport = session.transport
    events = ", ".join(f"{kind}={count}" for kind, count
                       in sorted(transport.events.items())) or "none"
    print(f"chaos profile {args.chaos!r} "
          f"(seed {transport.plan.seed}): {events}; "
          f"injected delay {transport.injected_delay_s:.3f}s")


def cmd_detect(args: argparse.Namespace) -> int:
    """``detect``: simulate, classify and print the verdicts.

    With ``--churn`` (private mode) the run spans two weekly windows
    over a churned population: between the windows the persistent epoch
    session applies the roster delta via ``advance_epoch`` instead of
    re-enrolling, and the transition bookkeeping is printed. Each
    window runs one reporting round.
    """
    if not 0.0 <= args.churn < 1.0:
        print(f"--churn is a fraction of users replaced per epoch and "
              f"must be in [0, 1), got {args.churn}", file=sys.stderr)
        return 2
    if args.churn and not args.private:
        print("--churn requires --private (epochs are a property of the "
              "counting protocol session)", file=sys.stderr)
        return 2
    if args.transport != "memory" and not args.private:
        print("--transport configures the private counting protocol "
              "session; add --private", file=sys.stderr)
        return 2
    if (args.clients != "objects" or args.fan_in is not None) \
            and not args.private:
        print("--clients and --fan-in configure the private counting "
              "protocol session; add --private", file=sys.stderr)
        return 2
    if args.chaos_seed is not None and args.chaos == "none":
        print("--chaos-seed seeds the fault plan's per-link RNGs and does "
              "nothing without a plan; add --chaos wan|lossy|hostile",
              file=sys.stderr)
        return 2
    if args.chaos != "none" \
            and not (args.private and args.transport == "socket"):
        print("--chaos injects seeded WAN faults into the private round's "
              "real socket links; add --private --transport socket",
              file=sys.stderr)
        return 2
    if args.churn and round(args.churn * args.users) < 1:
        print(f"--churn {args.churn} replaces round({args.churn} * "
              f"{args.users}) = 0 users per epoch; raise --churn or "
              f"--users", file=sys.stderr)
        return 2
    try:
        # What the flag checks above did not need to phrase in CLI
        # terms (a fan-in below 2) is refused here, by the one
        # validator, in its own words.
        settings = _settings_from(args)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    chaos = _chaos_transport(args)
    if chaos is not None:
        settings = replace(settings, transport=chaos)
    try:
        if args.churn:
            return _detect_with_churn(args, settings)
        return _detect_one_week(args, settings)
    finally:
        if chaos is not None:
            chaos.close()


def _detect_one_week(args: argparse.Namespace,
                     settings: SessionConfig) -> int:
    """One weekly window through the pipeline, verdicts printed."""
    config = _config_from(args)
    result = Simulator(config).run()
    rule = ThresholdRule(args.threshold_rule)
    from repro.core.pipeline import DetectionPipeline
    pipeline = DetectionPipeline(
        detector_config=DetectorConfig(domains_rule=rule, users_rule=rule),
        private=args.private, num_cliques=args.cliques, settings=settings,
        store=args.store)
    try:
        out = pipeline.run_week(result.impressions, week=0)
        if args.private and args.transport != "memory":
            print(f"bytes on the wire this window: "
                  f"{out.round_result.total_bytes}")
        _print_chaos_telemetry(args, pipeline.session)
    finally:
        pipeline.close()
    mode = "private (blinded CMS)" if args.private else "cleartext oracle"
    print(f"mode: {mode}   Users_th={out.users_threshold:.2f} "
          f"({rule.value})")
    print(f"classified {len(out.classified)} (user, ad) pairs; "
          f"{len(out.targeted)} flagged\n")
    for call in out.targeted[:args.max_flagged]:
        truth = result.ground_truth.get(call.ad.identity)
        truth_str = truth.value if truth else "?"
        print(f"  {call.user_id}  {call.ad.identity[:58]:58s} "
              f"domains={call.domains_seen} users~{call.users_seen:.0f} "
              f"[{truth_str}]")
    counts = evaluate_classifications(out.classified, result.ground_truth)
    print(f"\nFN={counts.false_negative_rate:.1%} "
          f"FP={counts.false_positive_rate:.2%} "
          f"precision={counts.precision:.1%}")
    if args.store is not None:
        print(f"history recorded to {args.store} "
              f"(query it with: repro-eyewnder history --store "
              f"{args.store})")
    return 0


def _detect_with_churn(args: argparse.Namespace,
                       settings: SessionConfig) -> int:
    """Two windows over a churned population via the epoch lifecycle."""
    from repro.core.pipeline import DetectionPipeline
    from repro.simulation.churn import apply_churn, churn_schedule

    # The same rounding churn_schedule applies to the week-0 roster, so
    # the held-out joiner pool matches the schedule's quota exactly.
    quota = round(args.churn * args.users)
    # Simulate the base panel plus the future joiners (held out of the
    # first window) over two weekly windows.
    config = _config_from(args, num_weeks=2)
    config.num_users = args.users + quota
    result = Simulator(config).run()
    # Rosters come from the simulated population, not the impression
    # set — a quiet user with zero impressions is still a panel member,
    # and deriving from impressions would silently shrink the quota.
    all_users = sorted(u.user_id for u in result.population.users)
    base_roster = all_users[:args.users]
    joiner_pool = all_users[args.users:]
    plan = churn_schedule(base_roster, num_epochs=1,
                          churn_rate=args.churn, seed=args.seed,
                          joiner_pool=joiner_pool,
                          rejoin_probability=0.0)[0]
    rosters = [base_roster, apply_churn(base_roster, plan)]

    rule = ThresholdRule(args.threshold_rule)
    unique_ads = {imp.ad.identity for imp in result.impressions}
    pipeline = DetectionPipeline(
        detector_config=DetectorConfig(domains_rule=rule, users_rule=rule),
        private=True,
        round_config=DetectionPipeline.default_round_config(len(unique_ads)),
        num_cliques=args.cliques, settings=settings, store=args.store)

    print(f"mode: private (blinded CMS), churned population "
          f"({args.churn:.0%}/epoch)")
    try:
        return _run_churn_windows(args, pipeline, rosters, result)
    finally:
        pipeline.close()


def _run_churn_windows(args, pipeline, rosters, result) -> int:
    for week, roster in enumerate(rosters):
        # A roster member only participates in a window it has traffic
        # in — the pipeline enrolls reporters, so restrict the printed
        # roster to them too or the stats would drift from reality.
        active = {imp.user_id for imp in result.impressions
                  if imp.week == week}
        members = set(roster) & active
        impressions = [imp for imp in result.impressions
                       if imp.user_id in members]
        prev_session = pipeline.session
        out = pipeline.run_week(impressions, week=week)
        epoch = pipeline.session.epoch
        print(f"\nweek {week}: epoch {epoch.epoch_id} "
              f"({epoch.size} users, {epoch.num_cliques} cliques, "
              f"min clique {epoch.min_clique_size})   "
              f"Users_th={out.users_threshold:.2f}   "
              f"{len(out.targeted)} flagged")
        transition = pipeline.last_transition
        if transition is not None:
            print(f"  epoch transition: +{len(transition.joined)} joined, "
                  f"-{len(transition.left)} left, "
                  f"{len(transition.moved)} moved cliques; "
                  f"re-keyed {len(transition.rekeyed)} users "
                  f"({transition.modexps} modexps, "
                  f"{transition.secrets_reused} pair secrets reused)")
            if transition.epoch.min_clique_size < 4:
                print("  note: churn left a small clique — a report only "
                      "hides among its clique's reporting members "
                      f"(min {transition.epoch.min_clique_size})")
        elif week > 0 and pipeline.session is not prev_session:
            print("  (window re-enrolled from scratch: the roster delta "
                  "was not servable as an epoch transition)")
        elif week > 0:
            print("  (no membership change this window)")
    _print_chaos_telemetry(args, pipeline.session)
    if args.store is not None:
        print(f"history recorded to {args.store} "
              f"(query it with: repro-eyewnder history --store "
              f"{args.store})")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """``validate``: run the §7.3 live-validation study."""
    study = LiveValidationStudy(config=_config_from(args),
                                cb_min_websites=args.cb_threshold,
                                labeling_rate=args.labeling_rate,
                                crawl_sites=min(args.websites, 100),
                                seed=args.seed)
    report = study.run()
    print(f"classified: {report.total_ads} "
          f"({report.classified_targeted} targeted)")
    for outcome in TreeOutcome:
        count = report.tree.count(outcome)
        if count:
            print(f"  {outcome.value:22s} {count:6d} "
                  f"({report.tree.rate_within_branch(outcome):6.2%})")
    print(f"likely TP rate: {report.likely_tp_rate:.1%} (paper: 78%)")
    print(f"likely TN rate: {report.likely_tn_rate:.1%} (paper: 87%)")
    return 0


def cmd_bias(args: argparse.Namespace) -> int:
    """``bias``: fit the Table-2 regression and print effects."""
    from repro.analysis.biasstudy import (
        PAPER_TABLE2_ODDS_RATIOS,
        fit_bias_study,
        generate_bias_study,
    )
    from repro.analysis.effects import predicted_effects

    data = generate_bias_study(num_users=args.users,
                               ads_per_user=args.ads_per_user,
                               seed=args.seed)
    model = fit_bias_study(data)
    print(f"{'variable':18s} {'OR':>7s} {'paper':>7s} {'p':>10s}  sig")
    for stat in model.result.stats():
        paper = PAPER_TABLE2_ODDS_RATIOS.get(stat.name, float('nan'))
        print(f"{stat.name:18s} {stat.odds_ratio:7.3f} {paper:7.3f} "
              f"{stat.p_value:10.2e}  {stat.significance_stars()}")
    print("\neffects (P[targeted] per level):")
    for factor, curve in predicted_effects(model).items():
        levels = "  ".join(f"{e.level}={e.probability:.2f}" for e in curve)
        print(f"  {factor:7s} {levels}")
    return 0


def cmd_compare(_args: argparse.Namespace) -> int:
    """``compare``: print the Table-3 capability matrix."""
    print(render_comparison_table())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: boot the HTTP service plane and block until shutdown.

    The full stack comes up — HTTP routes, root aggregator wiring, the
    history store — and serves until a ``POST /v1/shutdown`` from the
    operator (or Ctrl-C). The operator token and the bound address are
    printed first, flushed, so a parent process can scrape them. A store
    that already holds its session, an operator token no header can
    carry, or a port that will not bind is one stderr line and exit 2.
    """
    if args.cms_depth <= 0 or args.cms_width <= 0 or args.id_space <= 0:
        print(f"--cms-depth/--cms-width/--id-space must be positive, got "
              f"{args.cms_depth}/{args.cms_width}/{args.id_space}",
              file=sys.stderr)
        return 2
    from repro.protocol.client import RoundConfig
    from repro.service import HttpError, ReproService

    config = RoundConfig(cms_depth=args.cms_depth, cms_width=args.cms_width,
                         cms_seed=args.seed, id_space=args.id_space)
    try:
        service = ReproService(
            config, seed=args.seed, num_cliques=args.cliques,
            use_oprf=args.use_oprf, threshold_rule=args.threshold_rule,
            transport=args.transport, host=args.host, port=args.port,
            operator_token=args.operator_token, store=args.store)
    except (StoreError, ConfigurationError) as exc:
        # A store that already holds this service's session (a second
        # life would reuse its one-time pads), or an operator token no
        # header can carry. Refused before any bind.
        print(exc, file=sys.stderr)
        return 2
    try:
        host, port = service.start()
        print(f"operator token: {service.operator_token}", flush=True)
        print(f"serving on http://{host}:{port}", flush=True)
        try:
            service.wait_for_shutdown()
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
        else:
            print("shutdown requested; stopping", flush=True)
    except HttpError as exc:  # the port is taken
        print(exc, file=sys.stderr)
        return 2
    finally:
        service.close()
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    """``history``: longitudinal queries over a recorded store.

    Every answer comes straight from SQL — no round is re-run, no
    detector re-classifies. ``--flagged --since-week N`` reads the
    ``flagged_campaigns`` view, ``--trend AD`` a campaign's week-by-week
    trajectory, ``--rounds`` the persisted protocol rounds; with no
    selector the store's overview is printed.
    """
    import os
    if args.store != ":memory:" and not os.path.exists(args.store):
        print(f"no history store at {args.store!r} (record one with "
              f"'detect --store PATH' or 'serve --store PATH')",
              file=sys.stderr)
        return 2
    from repro.store import HistoryStore
    with HistoryStore(args.store) as store:
        if args.flagged:
            rows = store.flagged_campaigns(args.since_week)
            print(f"{len(rows)} flagged campaign-week(s) "
                  f"since week {args.since_week}")
            for c in rows:
                print(f"  week {c.week}  {c.ad_identity[:56]:56s} "
                      f"flagged_users={c.flagged_users} "
                      f"users~{c.users_seen:.0f} (th {c.users_threshold:.2f})")
            return 0
        if args.trend is not None:
            points = store.trend(args.trend)
            if not points:
                print(f"no recorded verdicts for {args.trend!r}",
                      file=sys.stderr)
                return 1
            print(f"trend for {args.trend}:")
            for t in points:
                flag = " FLAGGED" if t.flagged_users else ""
                print(f"  week {t.week}: users~{t.users_seen:.0f} "
                      f"(th {t.users_threshold:.2f}), "
                      f"{t.flagged_users} user(s) flagged{flag}")
            return 0
        if args.rounds:
            rows = store.round_history(epoch=args.epoch, week=args.week)
            print(f"{len(rows)} persisted round(s)")
            for r in rows:
                week = "-" if r.week is None else str(r.week)
                print(f"  {r.session:20s} round {r.round_id:3d} "
                      f"epoch {r.epoch_id:2d} week {week:>3s}  "
                      f"reporting={r.num_reporting} missing={r.num_missing} "
                      f"th={r.users_threshold:.2f} bytes={r.total_bytes}")
            return 0
        # Overview: what the store holds, per recorded session lineage.
        print(f"history store {args.store} (schema v{store.version})")
        for name in store.session_names():
            epochs = store.epoch_records(name)
            rounds = store.round_history(session=name)
            record = store.session_record(name)
            assert record is not None
            print(f"  session {name!r}: seed={record.seed} "
                  f"cliques={record.num_cliques} "
                  f"backend={record.client_backend}; "
                  f"{len(epochs)} epoch(s), {len(rounds)} round(s)")
        weeks = store.recorded_weeks()
        detections = len(store.detection_records())
        flagged = len(store.flagged_campaigns())
        print(f"  weeks recorded: {weeks}")
        print(f"  detection verdicts: {detections} "
              f"({flagged} flagged campaign-week(s))")
    return 0


def cmd_overhead(_args: argparse.Namespace) -> int:
    """``overhead``: print the §7.1 protocol cost numbers."""
    print("CMS sizes (delta = epsilon = 0.001, 4-byte cells):")
    for items in (10_000, 50_000, 100_000):
        cms = CountMinSketch.from_error_bounds(0.001, 0.001, items)
        print(f"  {items:7d} ads -> {cms.depth}x{cms.width} cells, "
              f"{cms.size_bytes(4) / 1000:.1f} KB")
    print("\nkey-exchange volume (256-bit group, 16-byte framing):")
    for users in (10_000, 50_000):
        mb = (users - 1) * (16 + 32) / 1e6
        print(f"  {users:6d} users -> {mb:.2f} MB per client")
    print("\nOPRF: 2 group elements per unique ad "
          "(256 bytes at 1024-bit RSA)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-eyewnder",
        description="eyeWnder reproduction: detect targeted ads via "
                    "distributed counting (CoNEXT 2019)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the ecosystem simulator")
    _add_sim_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="simulate and classify one week")
    _add_sim_args(p_det)
    p_det.add_argument("--private", action="store_true",
                       help="use the blinded-CMS protocol for #Users")
    p_det.add_argument("--threshold-rule", default="mean",
                       choices=[r.value for r in ThresholdRule])
    p_det.add_argument("--max-flagged", type=int, default=10)
    p_det.add_argument("--cliques", type=int, default=1,
                       help="blinding cliques (and aggregators) for the "
                            "private round (default 1)")
    p_det.add_argument("--transport", default="memory",
                       choices=["memory", "wire", "socket"],
                       help="private-round transport: in-memory mailboxes, "
                            "the byte-exact wire codec, or real TCP "
                            "sockets with length-prefixed frames "
                            "(default memory)")
    p_det.add_argument("--churn", type=float, default=0.0,
                       help="fraction of users replaced between two "
                            "weekly windows (private mode): runs both "
                            "windows through one session, rotating the "
                            "roster with advance_epoch (default 0)")
    p_det.add_argument("--chaos", default="none",
                       choices=["none", "wan", "lossy", "hostile"],
                       help="inject seeded WAN faults (latency, jitter, "
                            "loss) into every socket link of the private "
                            "round: the socket transport becomes a chaos "
                            "transport carrying the profile's fault plan; "
                            "requires --private --transport socket "
                            "(default none)")
    p_det.add_argument("--chaos-seed", type=int, default=None,
                       help="seed for the fault plan's per-link RNGs "
                            "(default: --seed), so a chaos run replays "
                            "fault-for-fault")
    p_det.add_argument("--clients", default="objects",
                       choices=["objects", "batched"],
                       help="private-round client backend: one object per "
                            "user, or the struct-of-arrays army that "
                            "blinds whole cliques in vectorized NumPy "
                            "passes — bit-identical reports, built for "
                            "100k+ users (default objects)")
    p_det.add_argument("--fan-in", type=int, default=None,
                       help="bound the aggregation tree's fan-in: regional "
                            "aggregator tiers appear whenever more cliques "
                            "than this report, so the root only merges "
                            "<= fan-in partials (default: flat, every "
                            "clique reports straight to the root)")
    p_det.add_argument("--store", default=None, metavar="PATH",
                       help="persist the run's durable history (rounds, "
                            "epochs, weekly stats, detection verdicts) "
                            "into a HistoryStore SQLite file; query it "
                            "later with the 'history' subcommand")
    p_det.set_defaults(func=cmd_detect)

    p_val = sub.add_parser("validate",
                           help="run the live-validation study")
    _add_sim_args(p_val)
    p_val.add_argument("--cb-threshold", type=int, default=5,
                       help="CB profile threshold T (paper: 20)")
    p_val.add_argument("--labeling-rate", type=float, default=0.3)
    p_val.set_defaults(func=cmd_validate)

    p_bias = sub.add_parser("bias", help="run the bias audit (Table 2)")
    p_bias.add_argument("--users", type=int, default=400)
    p_bias.add_argument("--ads-per-user", type=int, default=60)
    p_bias.add_argument("--seed", type=int, default=11)
    p_bias.set_defaults(func=cmd_bias)

    p_cmp = sub.add_parser("compare",
                           help="print the Table-3 capability matrix")
    p_cmp.set_defaults(func=cmd_compare)

    p_ovh = sub.add_parser("overhead", help="print the §7.1 cost numbers")
    p_ovh.set_defaults(func=cmd_overhead)

    p_srv = sub.add_parser("serve",
                           help="boot the HTTP service plane (enrollment, "
                                "rounds, history) and block")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = ephemeral, printed "
                            "at startup)")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="deterministic enrollment seed (default 0)")
    p_srv.add_argument("--cliques", type=int, default=1,
                       help="blinding cliques per epoch (default 1)")
    p_srv.add_argument("--use-oprf", action="store_true",
                       help="map ad URLs through the OPRF instead of the "
                            "shared PRF")
    p_srv.add_argument("--transport", default="wire",
                       choices=["wire", "socket"],
                       help="protocol transport under the HTTP plane: "
                            "byte-exact wire codec or real sockets "
                            "(memory is refused — byte parity would be "
                            "vacuous; default wire)")
    p_srv.add_argument("--threshold-rule", default="mean",
                       choices=[r.value for r in ThresholdRule])
    p_srv.add_argument("--cms-depth", type=int, default=4,
                       help="CMS rows (default 4)")
    p_srv.add_argument("--cms-width", type=int, default=2048,
                       help="CMS columns (default 2048)")
    p_srv.add_argument("--id-space", type=int, default=100_000,
                       help="public ad-ID space size (default 100000)")
    p_srv.add_argument("--operator-token", default=None,
                       help="use this secret for the operator bearer token "
                            "instead of minting one; the full token "
                            "(principal + secret) is printed at startup "
                            "either way")
    p_srv.add_argument("--store", default=None, metavar="PATH",
                       help="persist the service's durable round history "
                            "into this HistoryStore SQLite file (default: "
                            "in-memory; the /v1/history routes still "
                            "answer but nothing survives the process)")
    p_srv.set_defaults(func=cmd_serve)

    p_hist = sub.add_parser(
        "history",
        help="query a recorded history store (SQL, no recomputation)")
    p_hist.add_argument("--store", required=True, metavar="PATH",
                        help="path to the HistoryStore SQLite file "
                             "written by 'detect --store' or "
                             "'serve --store'")
    p_hist.add_argument("--flagged", action="store_true",
                        help="list flagged campaigns from the "
                             "flagged_campaigns view")
    p_hist.add_argument("--since-week", type=int, default=0,
                        help="with --flagged: only weeks >= N (default 0)")
    p_hist.add_argument("--trend", default=None, metavar="AD_IDENTITY",
                        help="one campaign's week-by-week #Users "
                             "trajectory and flag status")
    p_hist.add_argument("--rounds", action="store_true",
                        help="list persisted protocol rounds")
    p_hist.add_argument("--epoch", type=int, default=None,
                        help="with --rounds: only epoch N")
    p_hist.add_argument("--week", type=int, default=None,
                        help="with --rounds: only week N")
    p_hist.set_defaults(func=cmd_history)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
