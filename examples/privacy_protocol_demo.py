#!/usr/bin/env python3
"""The §6 privacy-preserving protocol, step by step.

Walks the full machinery with a visible cast: an OPRF server mapping ad
URLs to IDs, ten users encoding ads into count-min sketches, DH-derived
blinding factors, a dropout mid-round, the two-message recovery, and the
final aggregate the honest-but-curious server actually sees.

The round runs through :class:`repro.api.ProtocolSession` — the stable
entry point over the message-driven endpoint layer — with the blinding
cliques sharded two ways, so the exchange fans out over two per-clique
aggregators whose partial sums a root aggregator combines.
"""

from repro.api import ProtocolSession
from repro.protocol import RoundConfig, enroll_users


def main() -> None:
    config = RoundConfig(cms_depth=6, cms_width=256, cms_seed=11,
                         id_space=2000)
    print("Enrolling 10 users (DH keypairs + blind-RSA OPRF server) ...")
    enrollment = enroll_users([f"user-{i}" for i in range(10)], config,
                              seed=3, use_oprf=True, num_cliques=2)
    clients = enrollment.clients

    # Everyone sees the brand ad; user-3 alone is chased by a tracker.
    for client in clients:
        client.observe_ad("http://brand.example/springsale")
    for _ in range(5):
        clients[3].observe_ad("http://tracker.example/you-again")

    # One mapper per enrolled panel: the id is a function of the URL
    # alone, so ten sightings of the brand ad cost one OPRF exchange.
    mapper = enrollment.ad_mapper
    print(f"  OPRF mapping: {mapper.protocol_rounds} exchanges for the "
          f"panel's {mapper.cache_size} distinct ads, "
          f"{mapper.bytes_exchanged()} bytes "
          f"(two group elements per distinct ad)\n")

    report = clients[3].build_report(round_id=1)
    print("One blinded report as the server sees it (first 8 cells):")
    print(f"  {report.cells[:8]} ... -> uniformly random-looking, "
          f"{report.size_bytes()} bytes")

    print("\nRunning the round with user-7 crashing before reporting ...")
    session = ProtocolSession(config, clients)
    session.drop_users(["user-7"])
    aggregators = [e.endpoint_id for e in session.endpoints
                   if e.endpoint_id.startswith("clique-aggregator")]
    print(f"  message-driven session: {len(session.endpoints)} endpoints, "
          f"fan-out over {aggregators}")
    result = session.run_round(1)
    print(f"  missing: {result.missing_users}, recovery round used: "
          f"{result.recovery_round_used} (scoped to the victim's clique)")
    pending = sum(session.transport.pending(e.endpoint_id)
                  for e in session.endpoints)
    print(f"  every client got the broadcast: Users_th = "
          f"{clients[0].last_threshold:.2f}, no mail left behind "
          f"({pending} pending messages)")

    brand_id = mapper.ad_id("http://brand.example/springsale")
    tracker_id = mapper.ad_id("http://tracker.example/you-again")
    print("\nServer-side estimates from the aggregate CMS:")
    print(f"  #Users(brand ad)   ~ {result.aggregate.query(brand_id)} "
          f"(9 surviving users saw it)")
    print(f"  #Users(tracker ad) ~ {result.aggregate.query(tracker_id)} "
          f"(only user-3 saw it; note: the server cannot tell WHO)")
    print(f"  Users_th = {result.users_threshold:.2f} "
          f"(mean of the estimated #Users distribution)")
    print(f"\nRound traffic: {result.total_messages} messages, "
          f"{result.total_bytes / 1024:.1f} KB total")


if __name__ == "__main__":
    main()
