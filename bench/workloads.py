"""Seeded, pure input generators for the benchmark's four workloads.

Nothing here imports ``repro``: a workload is *data* — user ids, per-user
ad sets, sketch dimensions, wiring names, a simulator configuration and
churn parameters — derived from ``--seed`` alone. The program under test
receives only these inputs, never the seed or the workload name, so it
cannot special-case the benchmark. ``digest()`` is the sha256 printed
with every run: same seed, same digest, in any process.

Why these four (the one-line versions live in ``BENCHMARK.json``):

``army_small_cliques``
    The 100k-user path in miniature: thousands of users in cliques of 4
    behind a fan-in-64 aggregation tree. Tens of thousands of small
    messages per round, so per-message, transport and tree overheads
    show here and nowhere else.
``army_big_cliques``
    Same batched backend used the opposite way: two cliques of 50 with
    a large sketch, so the round is almost all pairwise pad work
    (SHAKE squeeze + scatter-add). A pad-path gain that taxes the
    message path, or vice versa, shows as one row up and one row down.
``socket_pairs``
    Per-object clients in cliques of 2 over real localhost TCP: blinding
    is minimal, so the wire codec, framing and socket pump dominate. The
    per-object client path the army workloads bypass.
``detect_weeks``
    What a ``run_detection`` user waits for: simulator -> private
    pipeline with OPRF, roster churn between weeks and a durable store.
    The only workload touching the OPRF/RSA, detector, membership-epoch
    and store layers; its big-clique *objects* pad path is the
    counterpart of ``army_big_cliques``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Default seed, and the seed held out for claims (never tune on it).
DEFAULT_SEED = 12
HELD_OUT_SEED = 97


@dataclass(frozen=True)
class RoundInputs:
    """One population reporting the same observation window every round;
    an operation is one ``run_next_round()``."""

    user_ids: Tuple[str, ...]
    ads_of: Dict[str, Tuple[str, ...]]
    cms_depth: int
    cms_width: int
    cms_seed: int
    id_space: int
    num_cliques: int
    fan_in: Optional[int]
    client_backend: str
    transport: str
    enrollment_seed: int

    @property
    def clique_size(self) -> int:
        return len(self.user_ids) // self.num_cliques


@dataclass(frozen=True)
class DetectInputs:
    """A simulated panel observed for ``num_weeks`` with roster churn;
    set-up is the cold week 0, an operation is one warm week."""

    simulation: Dict[str, Union[int, float]]
    #: Sizes the sketch once for the whole deployment (a per-week size
    #: would re-enroll everyone whenever a week outgrows week 0's).
    expected_unique_ads: int
    roster_size: int
    churn_rate: float
    churn_seed: int
    num_cliques: int
    enrollment_seed: int

    @property
    def num_weeks(self) -> int:
        return int(self.simulation["num_weeks"])

    @property
    def clique_size(self) -> int:
        return self.roster_size // self.num_cliques


Inputs = Union[RoundInputs, DetectInputs]


def _round_inputs(rng: random.Random, users: int, num_cliques: int,
                  depth: int, width: int, ads_per_user: int, ad_pool: int,
                  fan_in: Optional[int], client_backend: str,
                  transport: str) -> RoundInputs:
    # Fixed-width ids: message sizes (and so wire_bytes_per_op) must not
    # depend on which ids a seed happens to draw.
    user_ids = tuple(f"u{n:07d}" for n in
                     sorted(rng.sample(range(10_000_000), users)))
    pool = [f"https://ads.example/c/{n:07d}" for n in
            rng.sample(range(10_000_000), ad_pool)]
    ads_of = {uid: tuple(sorted(rng.sample(pool, ads_per_user)))
              for uid in user_ids}
    return RoundInputs(
        user_ids=user_ids, ads_of=ads_of, cms_depth=depth, cms_width=width,
        cms_seed=rng.randrange(1 << 16), id_space=10 * ad_pool,
        num_cliques=num_cliques, fan_in=fan_in,
        client_backend=client_backend, transport=transport,
        enrollment_seed=rng.randrange(1 << 30))


def _detect_inputs(rng: random.Random) -> DetectInputs:
    return DetectInputs(
        simulation=dict(
            num_users=64, num_websites=150, average_user_visits=40,
            ads_per_website=4, num_weeks=5, percentage_targeted=2.0,
            brand_campaign_sites=20, seed=rng.randrange(1 << 30)),
        expected_unique_ads=1000, roster_size=40, churn_rate=0.10,
        churn_seed=rng.randrange(1 << 30), num_cliques=2,
        enrollment_seed=rng.randrange(1 << 30))


WORKLOADS = ("army_small_cliques", "army_big_cliques", "socket_pairs",
             "detect_weeks")


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``; pure and deterministic."""
    rng = random.Random(f"bench:{workload}:{seed}")
    if workload == "army_small_cliques":
        return _round_inputs(rng, users=4000, num_cliques=1000, depth=4,
                             width=256, ads_per_user=3, ad_pool=400,
                             fan_in=64, client_backend="batched",
                             transport="memory")
    if workload == "army_big_cliques":
        return _round_inputs(rng, users=100, num_cliques=2, depth=6,
                             width=1024, ads_per_user=35, ad_pool=2000,
                             fan_in=None, client_backend="batched",
                             transport="memory")
    if workload == "socket_pairs":
        return _round_inputs(rng, users=1200, num_cliques=600, depth=4,
                             width=256, ads_per_user=3, ad_pool=400,
                             fan_in=64, client_backend="objects",
                             transport="socket")
    if workload == "detect_weeks":
        return _detect_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {WORKLOADS}")


def digest(inputs: Inputs) -> str:
    """sha256 of the canonical JSON form of the inputs."""
    canonical = json.dumps(asdict(inputs), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def pairs_of(ads_of: Mapping[str, Sequence[str]]) -> List[Tuple[str, str]]:
    """Every (user, ad) observation of a window — one cleartext sketch
    insertion each."""
    return [(uid, url) for uid, urls in ads_of.items() for url in urls]
