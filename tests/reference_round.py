"""An independent reference round: paper §6's formulas, computed directly.

The oracle the aggregation tree and both client backends are checked
against. It shares no code with them: it imports nothing from the
blinding kernel, the clients or the aggregation tiers. It derives each
pad from the formula in ``crypto/blinding.py``'s module docstring and
sums in Python ints mod 2^32.

For users ``i`` and ``j`` of one clique, the round-``s`` pad of the pair
is ``H(y_j^{x_i} || s)``. ``H`` is SHAKE-128 absorbing the DH shared
secret's bytes, then ``s`` as 8 signed big-endian bytes, with the digest
read as big-endian ``uint32`` cells. User ``i`` blinds its cleartext
sketch with every clique mate's pad. It adds a pad when ``i`` is the
higher index and subtracts it when ``i`` is the lower one, so a clique's
pads cancel. When members of a clique drop out, every reporting mate
sends the negation of the pad terms it shares with them, provided at
least two mates report: a lone reporter's adjustment would unblind its
report, so it sends none, its report is dropped and it counts missing.
The root cells are the sum of every counted report and adjustment. ``Users_th`` is the mean of
the positive #Users estimates over the public ID space (paper §4.2).
"""

import hashlib

from repro.crypto.group import DHGroup, KeyPair
from repro.sketch.countmin import CountMinSketch

#: Cells are 4 bytes: every sum is taken mod 2^32.
MODULUS = 1 << 32


def pair_pad(secret: bytes, round_id: int, num_cells: int) -> list:
    """The unsigned pad one pair shares in one round."""
    xof = hashlib.shake_128()
    xof.update(secret)
    xof.update(round_id.to_bytes(8, "big", signed=True))
    raw = xof.digest(4 * num_cells)
    return [int.from_bytes(raw[4 * m:4 * m + 4], "big")
            for m in range(num_cells)]


def add(total: list, term: list, sign: int = 1) -> None:
    """``total += sign * term`` cell by cell, mod 2^32, in place."""
    for m, value in enumerate(term):
        total[m] = (total[m] + sign * value) % MODULUS


class ReferenceRound:
    """One round of the §6 protocol, from first principles.

    ``keys`` is the enrolled key material: its DH ``group`` and, per
    user id, its ``keypairs``, blinding ``index_of`` and ``clique_of``
    (an enrollment and a client army both carry these). ``ad_ids`` maps
    each user to the ad ids of the distinct URLs it saw (one sketch
    update each); ``dropped`` names the users whose report never
    arrives. ``config`` supplies the sketch shape (``cms_depth``,
    ``cms_width``, ``cms_seed``) and ``id_space``.

    After construction:

    * ``reports`` / ``adjustments`` map user ids to the cells of the
      blinded report / recovery adjustment that user sends (a lone
      reporter's report included);
    * ``root_cells`` is the sum of the counted ones;
    * ``reported`` and ``missing`` are the sorted participation rosters;
    * ``distribution`` lists the positive #Users estimates in ID order,
      and ``users_threshold`` is their mean (0.0 if there are none).
    """

    def __init__(self, keys, ad_ids: dict, round_id: int, dropped,
                 config) -> None:
        cells = config.cms_depth * config.cms_width
        group: DHGroup = keys.group
        index_of: dict = keys.index_of
        dropped = set(dropped)
        cliques: dict = {}
        for user in sorted(index_of):
            cliques.setdefault(keys.clique_of[user], []).append(user)

        pads: dict = {}

        def signed_pad(user: str, mate: str) -> tuple:
            """(sign, pad) of the term ``user`` adds for ``mate``: the
            pad of their DH shared secret, derived once per pair."""
            pair = tuple(sorted((user, mate)))
            if pair not in pads:
                own: KeyPair = keys.keypairs[user]
                shared = group.shared_secret(own, keys.keypairs[mate].public)
                pads[pair] = pair_pad(group.element_to_bytes(shared),
                                      round_id, cells)
            sign = 1 if index_of[user] > index_of[mate] else -1
            return sign, pads[pair]

        self.reports: dict = {}
        self.adjustments: dict = {}
        #: Lone reporters: sent a report, counted missing.
        lone = set()
        for clique_members in cliques.values():
            gone = [u for u in clique_members if u in dropped]
            reporters = [u for u in clique_members if u not in dropped]
            if gone and len(reporters) < 2:
                lone.update(reporters)
            for user in reporters:
                sketch = CountMinSketch(config.cms_depth, config.cms_width,
                                        config.cms_seed)
                sketch.update_many(list(ad_ids.get(user, ())))
                report = list(sketch.cells)
                for mate in clique_members:
                    if mate != user:
                        sign, pad = signed_pad(user, mate)
                        add(report, pad, sign)
                self.reports[user] = report
                if gone and user not in lone:
                    adjustment = [0] * cells
                    for mate in gone:
                        sign, pad = signed_pad(user, mate)
                        add(adjustment, pad, -sign)
                    self.adjustments[user] = adjustment

        self.reported = sorted(u for u in self.reports if u not in lone)
        self.missing = sorted(u for u in index_of
                              if u in dropped or u in lone)
        self.root_cells = [0] * cells
        for user in self.reported:
            add(self.root_cells, self.reports[user])
        for adjustment in self.adjustments.values():
            add(self.root_cells, adjustment)
        aggregate = CountMinSketch(config.cms_depth, config.cms_width,
                                   config.cms_seed, cells=self.root_cells)
        estimates = (aggregate.query(i) for i in range(config.id_space))
        self.distribution = [e for e in estimates if e > 0]
        self.users_threshold = (
            sum(self.distribution) / len(self.distribution)
            if self.distribution else 0.0)


def enrollment_round(enrollment, round_id: int, dropped=()) -> ReferenceRound:
    """The reference round of an enrollment of per-user clients: its key
    material, and each client's seen URLs mapped to ad ids."""
    ad_ids = {c.user_id: [c.ad_mapper.ad_id(url) for url in c.seen_urls]
              for c in enrollment.clients}
    return ReferenceRound(enrollment, ad_ids, round_id, dropped,
                          enrollment.config)
