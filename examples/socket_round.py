"""Run a private round whose every message crosses a real TCP socket.

The recipe for the socket transport:

1. enroll a population into ``k`` blinding cliques;
2. ask the session for the ``"socket"`` transport: every protocol
   message is wire-encoded and crosses a localhost TCP connection as a
   length-prefixed frame, while the clique aggregators and the root run
   in the operator's process;
3. run rounds; churn the roster with ``advance_epoch`` — the tree is
   re-wired in place over the same connection.

Which guarantees are transport-independent: pad one-time-ness is
enforced on the clients (keyed by ``(pair, round)``), and the aggregate
cells, #Users distribution and threshold are bit-identical whether the
messages move as Python objects, through the wire codec, or across a
real socket — this script checks that, end to end, before and after an
epoch advance.
"""

from repro.api import ProtocolSession, SessionConfig
from repro.protocol.client import RoundConfig

CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=1000)
USERS = [f"user-{i:02d}" for i in range(16)]
CLIQUES = 2
JOINS, LEAVES = ["user-90"], ["user-00"]


def observe(session, salt=0):
    for i, client in enumerate(session.clients):
        for j in range(6):
            client.observe_ad(f"http://ads.example/{(i * 3 + j + salt) % 30}")


def run(session):
    """Round 0, an epoch advance, round 1: both results and the move."""
    observe(session)
    first = session.run_next_round()
    transition = session.advance_epoch(joins=JOINS, leaves=LEAVES)
    observe(session, salt=3)
    return first, transition, session.run_next_round()


def main():
    # The in-memory reference the socket run must match, bit for bit.
    with ProtocolSession.create(USERS, CONFIG, seed=9, use_oprf=False,
                                num_cliques=CLIQUES) as reference:
        expected = run(reference)

    with ProtocolSession.create(
            USERS, CONFIG, SessionConfig(transport="socket"),
            seed=9, use_oprf=False, num_cliques=CLIQUES) as session:
        first, transition, second = run(session)
        print(f"bytes on the localhost TCP connection over both rounds: "
              f"{session.transport.total_bytes}")

    for label, result, want in (("round 0", first, expected[0]),
                                ("round 1", second, expected[2])):
        assert result.aggregate.cells == want.aggregate.cells
        assert result.distribution.values == want.distribution.values
        assert result.users_threshold == want.users_threshold
        print(f"{label}: Users_th={result.users_threshold:.2f}  "
              f"bit-identical to the in-memory round: yes")
    print(f"epoch advance between them: +{len(transition.joined)} joined, "
          f"-{len(transition.left)} left")


if __name__ == "__main__":
    main()
