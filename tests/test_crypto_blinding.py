"""Unit and property tests for the Kursawe-style blinding scheme.

The central invariant: summing the blinding vectors of all participating
users gives zero in every cell (mod 2^32), so blinded reports aggregate to
the true sum.
"""

import hashlib
import random
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlindingError, ConfigurationError
from repro.crypto import blinding as blinding_module
from repro.crypto.blinding import (
    BLINDING_MODULUS,
    BlindingGenerator,
    PadStreamProvider,
    blind_cliques,
    clique_blinding,
)
from repro.crypto.group import DHGroup
from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users


@pytest.fixture(scope="module")
def group():
    return DHGroup.standard(128)


def blind(user: BlindingGenerator, cells: Sequence[int],
          round_id: int) -> np.ndarray:
    """A report's cells: the cleartext added onto the blinding vector."""
    blinded = user.blinding_vector_array(len(cells), round_id)
    blinded += np.asarray(cells, dtype=np.uint32)
    return blinded


def make_users(group: DHGroup, n: int, seed: int = 0) -> List[BlindingGenerator]:
    rng = random.Random(seed)
    keypairs = [group.keypair(rng) for _ in range(n)]
    publics: Dict[int, int] = {i: kp.public for i, kp in enumerate(keypairs)}
    users = []
    for i, kp in enumerate(keypairs):
        peers = {j: pub for j, pub in publics.items() if j != i}
        users.append(BlindingGenerator(group, i, kp, peers))
    return users


class TestBlindingCancellation:
    @pytest.mark.parametrize("n_users", [2, 3, 5, 8])
    def test_blindings_sum_to_zero(self, group, n_users):
        users = make_users(group, n_users)
        num_cells = 12
        total = [0] * num_cells
        for user in users:
            vec = user.blinding_vector_array(num_cells, round_id=1).tolist()
            total = [(t + v) % BLINDING_MODULUS for t, v in zip(total, vec)]
        assert total == [0] * num_cells

    def test_blinded_reports_aggregate_to_true_sum(self, group):
        users = make_users(group, 4)
        reports = [[1, 2, 3], [4, 0, 1], [0, 0, 5], [2, 2, 2]]
        agg = [0, 0, 0]
        for user, cells in zip(users, reports):
            blinded = blind(user, cells, round_id=3).tolist()
            agg = [(a + b) % BLINDING_MODULUS for a, b in zip(agg, blinded)]
        assert agg == [7, 4, 11]

    def test_round_id_changes_blindings(self, group):
        users = make_users(group, 2)
        v1 = users[0].blinding_vector_array(4, round_id=1).tolist()
        v2 = users[0].blinding_vector_array(4, round_id=2).tolist()
        assert v1 != v2

    def test_cells_change_blindings(self, group):
        users = make_users(group, 2)
        vec = users[0].blinding_vector_array(8, round_id=1).tolist()
        assert len(set(vec)) > 1  # cells get distinct blinding factors

    def test_individual_blinded_cell_nonzero(self, group):
        """A single user's blinded report must not expose true counts."""
        users = make_users(group, 3)
        blinded = blind(users[0], [0] * 16, round_id=1).tolist()
        assert any(b != 0 for b in blinded)


class TestFaultTolerance:
    def test_adjustment_restores_cancellation(self, group):
        """Drop one user; survivors' adjustments fix the aggregate."""
        users = make_users(group, 5)
        num_cells = 6
        reports = [[i + 1] * num_cells for i in range(5)]
        missing = {2}
        survivors = [u for u in users if u.user_index not in missing]

        agg = [0] * num_cells
        for user in survivors:
            blinded = blind(user, reports[user.user_index],
                            round_id=9).tolist()
            agg = [(a + b) % BLINDING_MODULUS for a, b in zip(agg, blinded)]
        # Aggregate is noise at this point; apply the recovery round.
        for user in survivors:
            adj = user.adjustment_for_missing_array(
                missing, num_cells, round_id=9).tolist()
            agg = [(a + b) % BLINDING_MODULUS for a, b in zip(agg, adj)]

        expected_sum = sum(i + 1 for i in range(5) if i not in missing)
        assert agg == [expected_sum] * num_cells

    def test_adjustment_multiple_missing(self, group):
        users = make_users(group, 6)
        num_cells = 4
        missing = {0, 4}
        survivors = [u for u in users if u.user_index not in missing]
        agg = [0] * num_cells
        for user in survivors:
            blinded = blind(user, [1] * num_cells, round_id=2).tolist()
            adj = user.adjustment_for_missing_array(
                missing, num_cells, round_id=2).tolist()
            agg = [(a + b + c) % BLINDING_MODULUS
                   for a, b, c in zip(agg, blinded, adj)]
        assert agg == [len(survivors)] * num_cells

    def test_missing_self_rejected(self, group):
        users = make_users(group, 3)
        with pytest.raises(BlindingError):
            users[1].adjustment_for_missing_array({1}, 4, round_id=1)

    def test_unknown_peer_rejected(self, group):
        users = make_users(group, 3)
        with pytest.raises(BlindingError):
            users[0].adjustment_for_missing_array({99}, 4, round_id=1)


class TestValidation:
    def test_own_index_in_peers_rejected(self, group):
        rng = random.Random(3)
        kp = group.keypair(rng)
        with pytest.raises(ConfigurationError):
            BlindingGenerator(group, 0, kp, {0: kp.public})

    def test_nonpositive_cells_rejected(self, group):
        users = make_users(group, 2)
        with pytest.raises(ConfigurationError):
            users[0].blinding_vector_array(0, round_id=1)

    def test_exchange_bytes(self, group):
        users = make_users(group, 4)
        # 3 peers * 16 bytes per 128-bit element
        assert users[0].exchange_bytes() == 3 * 16


class TestBlindingProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=1000))
    def test_cancellation_property(self, n_users, num_cells, round_id):
        group = DHGroup.standard(128)
        users = make_users(group, n_users, seed=round_id)
        total = [0] * num_cells
        for user in users:
            vec = user.blinding_vector_array(
                num_cells, round_id=round_id).tolist()
            total = [(t + v) % BLINDING_MODULUS for t, v in zip(total, vec)]
        assert total == [0] * num_cells


def make_clique(group: DHGroup, indexes: Sequence[int], seed: int = 0):
    """A clique whose member rows carry the given (arbitrary, distinct)
    blinding indexes: per-object generators in row order, plus the
    batched wiring ``ClientArmy`` builds for the same members — pairs as
    ordered ``(lo, hi)`` index tuples, their shared-secret bytes, and
    each end's member row."""
    rng = random.Random(seed)
    keypairs = [group.keypair(rng) for _ in indexes]
    generators = [
        BlindingGenerator(
            group, index, keypairs[row],
            {other: keypairs[r].public
             for r, other in enumerate(indexes) if r != row})
        for row, index in enumerate(indexes)]
    pairs: List[Tuple[int, int]] = []
    secrets: List[bytes] = []
    lo_rows: List[int] = []
    hi_rows: List[int] = []
    for a in range(len(indexes)):
        for b in range(a + 1, len(indexes)):
            lo, hi = (a, b) if indexes[a] < indexes[b] else (b, a)
            pairs.append((indexes[lo], indexes[hi]))
            secrets.append(group.element_to_bytes(
                group.shared_secret(keypairs[lo], keypairs[hi].public)))
            lo_rows.append(lo)
            hi_rows.append(hi)
    return (generators, pairs, secrets,
            np.asarray(lo_rows, dtype=np.intp),
            np.asarray(hi_rows, dtype=np.intp))


class TestCliqueBlinding:
    """The batched kernel against the per-object generators it replaces."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=9, unique=True),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=-5, max_value=1000))
    def test_rows_equal_per_member_generators(self, indexes, num_cells,
                                              round_id):
        generators, pairs, secrets, lo, hi = make_clique(
            DHGroup.standard(128), indexes, seed=round_id)
        n = len(indexes)
        batched = clique_blinding(secrets, lo, hi, n, round_id, num_cells)
        assert batched.dtype == np.uint32 and batched.shape == (n, num_cells)
        for row, generator in enumerate(generators):
            expected = generator.blinding_vector_array(num_cells, round_id)
            assert batched[row].tobytes() == expected.tobytes()
        assert not (batched.sum(axis=0) % BLINDING_MODULUS).any()
        pad = PadStreamProvider().clique_matrix(
            pairs, secrets, round_id, num_cells)
        assert pad.dtype == np.uint32 and pad.shape == (len(pairs), num_cells)
        assert not pad.flags.writeable
        via_matrix = BlindingGenerator.accumulate_clique_matrix(pad, lo, hi, n)
        assert via_matrix.tobytes() == batched.tobytes()

    def test_discarded_rows_and_negate_equal_adjustments(self, group):
        indexes = [40, 7, 19, 3, 88, 61]
        generators, _, _, _, _ = make_clique(group, indexes, seed=4)
        missing = [19, 88]
        survivors = [g for g in generators if g.user_index not in missing]
        pairs, secrets, lo_rows, hi_rows = [], [], [], []
        for row, generator in enumerate(survivors):
            i = generator.user_index
            for j in missing:
                pairs.append((min(i, j), max(i, j)))
                secrets.append(generator._secret_bytes[j])
                lo_rows.append(row if i < j else -1)
                hi_rows.append(-1 if i < j else row)
        lo = np.asarray(lo_rows, dtype=np.intp)
        hi = np.asarray(hi_rows, dtype=np.intp)
        batched = clique_blinding(secrets, lo, hi, len(survivors), 11, 16,
                                  negate=True)
        for row, generator in enumerate(survivors):
            expected = generator.adjustment_for_missing_array(missing, 16, 11)
            assert batched[row].tobytes() == expected.tobytes()
        pad = PadStreamProvider().clique_matrix(pairs, secrets, 11, 16)
        via_matrix = BlindingGenerator.accumulate_clique_matrix(
            pad, lo, hi, len(survivors), negate=True)
        assert via_matrix.tobytes() == batched.tobytes()

    def test_one_member_clique_is_all_zeros(self):
        empty = np.asarray([], dtype=np.intp)
        batched = clique_blinding([], empty, empty, 1, 3, 12)
        assert batched.dtype == np.uint32 and batched.shape == (1, 12)
        assert not batched.any()
        assert PadStreamProvider().clique_matrix([], [], 3, 12).shape == (0, 12)

    def test_refusals_come_before_any_squeeze(self, group, monkeypatch):
        _, pairs, secrets, lo, hi = make_clique(group, [5, 2, 9])
        pad = PadStreamProvider.clique_matrix(pairs, secrets, 1, 8)
        squeezed = []

        def no_squeeze(*args, **kwargs):
            squeezed.append(args)
            raise AssertionError("squeezed before the arguments were checked")

        monkeypatch.setattr(blinding_module, "_squeeze", no_squeeze)
        monkeypatch.setattr(blinding_module, "_pad_bytes", no_squeeze)
        with pytest.raises(ConfigurationError, match="one lo/hi row"):
            clique_blinding(secrets[:2], lo, hi, 3, 1, 8)
        with pytest.raises(ConfigurationError, match="3 pairs but 2 secrets"):
            PadStreamProvider.clique_matrix(pairs, secrets[:2], 1, 8)
        for num_cells in (0, -4):
            with pytest.raises(ConfigurationError, match="num_cells"):
                clique_blinding(secrets, lo, hi, 3, 1, num_cells)
            with pytest.raises(ConfigurationError, match="num_cells"):
                PadStreamProvider.clique_matrix(pairs, secrets, 1, num_cells)
        with pytest.raises(ConfigurationError, match="num_cells"):
            clique_blinding([], lo[:0], hi[:0], 1, 1, 0)
        for bad_lo, bad_hi in ((lo[:2], hi), (lo, hi[:2]),
                               (lo.reshape(3, 1), hi.reshape(3, 1))):
            with pytest.raises(ConfigurationError, match="one lo/hi row"):
                clique_blinding(secrets, bad_lo, bad_hi, 3, 1, 8)
            with pytest.raises(ConfigurationError, match="one lo/hi row"):
                BlindingGenerator.accumulate_clique_matrix(
                    pad, bad_lo, bad_hi, 3)
        for not_2d in (pad[0], pad.reshape(3, 2, 4)):
            with pytest.raises(ConfigurationError, match="2-D"):
                BlindingGenerator.accumulate_clique_matrix(not_2d, lo, hi, 3)
        assert not squeezed

    @pytest.mark.parametrize("budget", [1, 16, 2**30])
    def test_stack_of_cliques_equals_per_member_generators(self, group,
                                                           monkeypatch,
                                                           budget):
        """Four same-layout cliques blinded by one call — in chunks of
        one, two or all four cliques of 8-cell rows — write over whatever
        the cells held exactly each member generator's blinding (its
        negation under ``negate``: every pair's sign flips). The stack is
        member-major: ``cells[r, k]`` is member row ``r`` of clique
        ``k``."""
        monkeypatch.setattr(blinding_module, "_SQUEEZE_CELLS", budget)
        cliques = [make_clique(group, [k, k + 4, k + 8], seed=k)
                   for k in range(1, 5)]
        _, _, _, lo, hi = cliques[0]
        secrets = [secret for clique in cliques for secret in clique[2]]
        blinding = np.stack([[g.blinding_vector_array(8, 5) for g in clique[0]]
                             for clique in cliques]).swapaxes(0, 1)
        for negate, want in ((False, blinding), (True, np.negative(blinding))):
            cells = np.random.default_rng(7).integers(
                0, 2**32, (3, 4, 8), dtype=np.uint32)
            blind_cliques(cells, secrets, lo, hi, 5, negate)
            assert cells.tobytes() == want.tobytes()

    def test_stack_refusals_come_before_any_squeeze(self, group, monkeypatch):
        _, _, secrets, lo, hi = make_clique(group, [5, 2, 9])
        squeezed = []

        def no_squeeze(*args, **kwargs):
            squeezed.append(args)
            raise AssertionError("squeezed before the arguments were checked")

        monkeypatch.setattr(blinding_module, "_pad_bytes", no_squeeze)
        stack = np.zeros((3, 2, 8), dtype=np.uint32)
        for cells in (stack[0], stack.astype(np.uint64)):
            with pytest.raises(ConfigurationError, match="uint32 stack"):
                blind_cliques(cells, secrets, lo, hi, 1)
        with pytest.raises(ConfigurationError, match="do not split"):
            blind_cliques(stack, secrets, lo, hi, 1)
        with pytest.raises(ConfigurationError, match="num_cells"):
            blind_cliques(stack[:, :, :0], secrets, lo, hi, 1)
        with pytest.raises(ConfigurationError, match="one lo/hi row"):
            blind_cliques(stack[:, :1], secrets[:2], lo, hi, 1)
        with pytest.raises(ConfigurationError, match="one lo/hi row"):
            blind_cliques(stack[:, :1], secrets, lo[:2], hi, 1)
        assert not squeezed and not stack.any()


def reference_stream(secret: bytes, round_id: int, num_cells: int) -> List[int]:
    """The pad keystream from bare ``hashlib``: SHAKE-128 over the secret
    then the round id (8 signed big-endian bytes), read as big-endian
    32-bit cells."""
    raw = hashlib.shake_128(
        secret + round_id.to_bytes(8, "big", signed=True)).digest(4 * num_cells)
    return [int.from_bytes(raw[k:k + 4], "big") for k in range(0, len(raw), 4)]


class TestPadPRG:
    """Known answers for the pad XOF: any change to a pad byte fails here."""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=64),
           st.integers(min_value=-2**63, max_value=2**63 - 1),
           st.integers(min_value=1, max_value=64))
    def test_squeeze_matches_bare_shake128(self, secret, round_id, num_cells):
        stream = blinding_module._squeeze(secret, round_id, num_cells)
        assert stream.dtype == np.uint32
        assert stream.tolist() == reference_stream(secret, round_id, num_cells)

    def test_stream_known_answer(self):
        stream = blinding_module._squeeze(bytes(range(32)), 7, 1024)
        assert hashlib.sha256(stream.astype(">u4").tobytes()).hexdigest() == (
            "d633c1badee80d96abc337893b3fb184a6d3951d718064efdad3256f8b4325c1")

    def test_blinded_report_known_answer(self):
        config = RoundConfig(cms_depth=2, cms_width=16, cms_seed=7,
                             id_space=100)
        enrollment = enroll_users(["alice", "bob", "carol"], config, seed=3,
                                  use_oprf=False)
        for i, client in enumerate(enrollment.clients):
            client.observe_ad(f"https://ads.example/{i}")
            client.observe_ad("https://ads.example/shared")
        encoded = wire.encode(enrollment.clients[1].build_report(5))
        assert hashlib.sha256(encoded).hexdigest() == (
            "f17384c9e8714ed72da8caeffd4214147989f1bb58acc0b8afbffafa891bc8a5")


_MAX_CELL = 2**32 - 1


def oracle_pad(mode: str, seed: int, num_pairs: int, num_cells: int) -> np.ndarray:
    """A ``(pairs, cells)`` ``uint32`` pad whose rows are all
    ``0xFFFFFFFF`` (``max``), all zero, random, or (``mixed``) one of the
    three each."""
    rng = np.random.default_rng(seed)
    pad = rng.integers(0, 2**32, (num_pairs, num_cells), dtype=np.uint32)
    kinds = {"max": 0, "zero": 1, "random": 2}.get(mode)
    kind = rng.integers(0, 3, num_pairs) if kinds is None else np.full(
        num_pairs, kinds)
    pad[kind == 0] = _MAX_CELL
    pad[kind == 1] = 0
    return pad


def signed_sum(terms: Sequence[Tuple[int, np.ndarray]], num_cells: int) -> List[int]:
    """``sum(sign * int(s)) % 2**32`` per cell, in Python ints."""
    return [sum(sign * int(stream[c]) for sign, stream in terms) % 2**32
            for c in range(num_cells)]


@pytest.fixture(scope="module")
def population_of_64(group) -> List[BlindingGenerator]:
    return make_users(group, 64, seed=11)


_MODES = st.sampled_from(["max", "zero", "random", "mixed"])
_SEEDS = st.integers(min_value=0, max_value=2**32)


class TestAccumulatorOracle:
    """Both accumulators against the blinding formula summed in Python
    ints, including streams at the wrap boundary and 64-member cliques."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=4), _MODES, _SEEDS,
           st.booleans(), st.none() | _SEEDS)
    def test_scatter_slots_and_matrix(self, members, num_cells, mode, seed,
                                      negate, scramble):
        """``scramble=None`` is a whole clique's wiring; otherwise each
        end keeps its member row, is discarded (``-1``) or lands on any
        row. The kernel blinds two cliques of that layout, each with its
        own pad, in one call, over a member-major stack of garbage."""
        pairs = [(a, b) for a in range(members) for b in range(a + 1, members)]
        lo = np.asarray([a for a, _ in pairs], dtype=np.intp)
        hi = np.asarray([b for _, b in pairs], dtype=np.intp)
        if scramble is not None:
            rng = np.random.default_rng(scramble)
            for ends in (lo, hi):
                choice = rng.integers(0, 3, len(pairs))
                ends[choice == 1] = -1
                ends[choice == 2] = rng.integers(0, members,
                                                 int((choice == 2).sum()))
        sign = -1 if negate else 1

        def expected(pad):
            terms: Dict[int, List[Tuple[int, np.ndarray]]] = {
                m: [] for m in range(-1, members)}
            for stream, lo_row, hi_row in zip(pad, lo.tolist(), hi.tolist()):
                terms[hi_row].append((sign, stream))
                terms[lo_row].append((-sign, stream))
            return [signed_sum(terms[m], num_cells) for m in range(members)]

        pads = [oracle_pad(mode, seed + k, len(pairs), num_cells)
                for k in range(2)]
        plus, minus = blinding_module._slot_ends(lo, hi, len(pairs), negate)
        stack = np.full((members, 2, num_cells), 0xDEADBEEF, dtype=np.uint32)
        blinding_module._scatter_slots(stack, np.stack(pads, axis=1),
                                       plus, minus)
        assert stack.swapaxes(0, 1).tolist() == [expected(pad) for pad in pads]
        for matrix in (pads[0], pads[0].astype(np.uint64)):
            result = BlindingGenerator.accumulate_clique_matrix(
                matrix, lo, hi, members, negate=negate)
            assert result.dtype == np.uint32
            assert result.tolist() == expected(pads[0])

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=4), _MODES, _SEEDS,
           st.integers(min_value=-5, max_value=1000))
    def test_generator_vectors_and_adjustments(self, population_of_64, data,
                                               num_cells, mode, seed,
                                               round_id):
        """A vector sums all 63 peers of a 64-member clique; an
        adjustment sums all of them or a drawn subset."""
        users = population_of_64
        user = users[data.draw(st.integers(min_value=0, max_value=63))]
        others = [u.user_index for u in users if u is not user]
        missing = data.draw(st.just(others) | st.lists(
            st.sampled_from(others), unique=True))
        pad = oracle_pad(mode, seed, len(users), num_cells)
        row_of = {user._secret_bytes[peer]: peer for peer in others}

        def fake_squeeze(secret, squeeze_round, cells):
            assert squeeze_round == round_id and cells == num_cells
            return pad[row_of[secret]]

        def up(peer):  # +1 when this user is the pair's high end
            return 1 if user.user_index > peer else -1

        with mock.patch.object(blinding_module, "_squeeze", fake_squeeze):
            vector = user.blinding_vector_array(num_cells, round_id)
            adjustment = user.adjustment_for_missing_array(
                missing, num_cells, round_id)
        assert vector.dtype == adjustment.dtype == np.uint32
        assert vector.tolist() == signed_sum(
            [(up(p), pad[p]) for p in others], num_cells)
        assert adjustment.tolist() == signed_sum(
            [(-up(p), pad[p]) for p in missing], num_cells)
