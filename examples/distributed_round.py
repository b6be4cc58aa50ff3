"""Run a genuinely distributed private round: one process per aggregator.

The recipe for the networked deployment shape (paper Figure 1, with the
back-end actually on the other side of a socket):

1. enroll a population into ``k`` blinding cliques;
2. ask the session for the ``"socket"`` transport (every protocol
   message crosses a real TCP connection as a length-prefixed frame)
   and ``aggregator_procs=True`` (each clique aggregator — one per
   enrolled clique — and the root is a separate OS process speaking
   the wire format);
3. run rounds; churn the roster with ``advance_epoch`` — the live
   aggregator processes are re-wired in place, never restarted.

Which guarantees are transport-independent: pad one-time-ness is
enforced on the clients (keyed by ``(pair, round)``), and the aggregate
cells, #Users distribution and threshold are bit-identical whether the
aggregation runs in-process, over the wire codec, or across real
sockets and processes — this script checks that, end to end.
"""

from repro.api import ProtocolSession, SessionConfig
from repro.protocol.client import RoundConfig

CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=1000)
USERS = [f"user-{i:02d}" for i in range(16)]
CLIQUES = 2


def observe(session, salt=0):
    for i, client in enumerate(session.clients):
        for j in range(6):
            client.observe_ad(f"http://ads.example/{(i * 3 + j + salt) % 30}")


def main():
    # The in-process reference the distributed run must match, bit for bit.
    reference = ProtocolSession.create(USERS, CONFIG, seed=9, use_oprf=False,
                                       num_cliques=CLIQUES)
    observe(reference)
    expected = reference.run_next_round()

    with ProtocolSession.create(
            USERS, CONFIG,
            SessionConfig(transport="socket", aggregator_procs=True),
            seed=9, use_oprf=False, num_cliques=CLIQUES) as session:
        print(f"aggregator processes ({CLIQUES} cliques + root):")
        for endpoint_id, pid in session.aggregator_pool.pids.items():
            print(f"  {endpoint_id:24s} pid {pid}")

        observe(session)
        result = session.run_next_round()
        print(f"\nround 0: Users_th={result.users_threshold:.2f}  "
              f"bytes on the wire: {session.transport.total_bytes}")
        assert result.aggregate.cells == expected.aggregate.cells
        assert result.users_threshold == expected.users_threshold
        print("bit-identical to the in-process round: yes")

        pids_before = dict(session.aggregator_pool.pids)
        transition = session.advance_epoch(joins=["user-90"],
                                           leaves=["user-00"])
        assert dict(session.aggregator_pool.pids) == pids_before
        print(f"\nepoch advance: +{len(transition.joined)} joined, "
              f"-{len(transition.left)} left; aggregator processes "
              f"re-wired in place (same pids)")

        observe(session, salt=3)
        result = session.run_next_round()
        print(f"round 1 (epoch {session.epoch.epoch_id}): "
              f"Users_th={result.users_threshold:.2f}")


if __name__ == "__main__":
    main()
