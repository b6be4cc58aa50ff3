"""Unit tests for repro.crypto.group."""

import builtins
import itertools
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.group as group_module
from repro.errors import ConfigurationError
from repro.crypto.group import DHGroup, KeyPair
from repro.crypto.primes import is_probable_prime
from repro.protocol.army import ClientArmy
from repro.protocol.membership import MembershipManager
from repro.protocol.client import RoundConfig

#: The three bundled groups plus a freshly generated one.
GROUPS = {bits: DHGroup.standard(bits) for bits in (128, 256, 1024)}
GROUPS[48] = DHGroup.generate(48, random.Random(1))


class FixedExponent:
    """An rng stand-in whose ``randrange`` returns one chosen exponent."""

    def __init__(self, x):
        self.x = x

    def randrange(self, start, stop):
        assert start <= self.x < stop
        return self.x


def quadratic_non_residue(group):
    """The smallest h > 1 outside the order-q subgroup (h^q = -1 mod p)."""
    return next(h for h in range(2, 1000)
                if pow(h, group.q, group.p) == group.p - 1)


def count_subgroup_checks(monkeypatch, q):
    """Record the base of every ``pow(base, q, p)`` the group module runs."""
    bases = []

    def counting_pow(base, exp, mod=None):
        if exp == q:
            bases.append(base)
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(group_module, "pow", counting_pow, raising=False)
    return bases


def count_pair_modexps(monkeypatch):
    """Record every ``pow`` the group module runs other than a subgroup
    check: on a group already built, each one is a pair modexp."""
    calls = []

    def counting_pow(base, exp, mod=None):
        if mod is not None and exp != (mod - 1) // 2:
            calls.append((base, exp))
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(group_module, "pow", counting_pow, raising=False)
    return calls


def count_pair_derivations(monkeypatch):
    """Record the public keys of every ``DHGroup.pair_secret`` call."""
    pairs = []
    derive = DHGroup.pair_secret

    def counting_pair_secret(self, one, other):
        pairs.append(frozenset((one.public, other.public)))
        return derive(self, one, other)

    monkeypatch.setattr(DHGroup, "pair_secret", counting_pair_secret)
    return pairs


@pytest.fixture(scope="module")
def group():
    return DHGroup.standard(128)


class TestGroupConstruction:
    def test_standard_groups_are_safe_primes(self):
        for bits in (128, 256, 1024):
            g = DHGroup.standard(bits)
            assert is_probable_prime(g.p)
            assert is_probable_prime(g.q)
            assert g.p == 2 * g.q + 1
            assert g.p.bit_length() == bits

    def test_standard_unknown_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DHGroup.standard(512)

    def test_generate_fresh_group(self):
        g = DHGroup.generate(48, random.Random(1))
        assert is_probable_prime(g.p)
        assert g.contains(g.g)

    def test_rejects_non_safe_prime(self):
        with pytest.raises(ConfigurationError):
            DHGroup(23 * 2 + 1 + 2)  # 49, not prime at all
        with pytest.raises(ConfigurationError):
            DHGroup(101)  # prime but (101-1)/2 = 50 composite

    def test_generator_has_order_q(self, group):
        assert pow(group.g, group.q, group.p) == 1
        assert group.g != 1

    def test_rejects_bad_generator(self, group):
        with pytest.raises(ConfigurationError):
            DHGroup(group.p, generator=1)


class TestKeyExchange:
    def test_keypair_public_consistent(self, group):
        kp = group.keypair(random.Random(5))
        assert kp.public == pow(group.g, kp.private, group.p)
        assert group.contains(kp.public)

    def test_shared_secret_symmetric(self, group):
        rng = random.Random(6)
        alice = group.keypair(rng)
        bob = group.keypair(rng)
        s_ab = group.shared_secret(alice, bob.public)
        s_ba = group.shared_secret(bob, alice.public)
        assert s_ab == s_ba

    def test_distinct_pairs_distinct_secrets(self, group):
        rng = random.Random(7)
        a, b, c = (group.keypair(rng) for _ in range(3))
        assert group.shared_secret(a, b.public) != group.shared_secret(
            a, c.public)

    def test_rejects_foreign_element(self, group):
        kp = group.keypair(random.Random(8))
        with pytest.raises(ConfigurationError):
            group.shared_secret(kp, group.p + 5)

    @pytest.mark.parametrize("bad", ["order-2", "non-residue"])
    def test_in_range_non_member_refused_every_time(self, bad):
        group = DHGroup.standard(128)
        key = group.p - 1 if bad == "order-2" else quadratic_non_residue(group)
        assert 0 < key < group.p
        rng = random.Random(10)
        own, peer = group.keypair(rng), group.keypair(rng)
        for _ in range(2):  # the first call, then a repeat
            with pytest.raises(ConfigurationError):
                group.shared_secret(own, key)
        group.shared_secret(own, peer.public)  # a valid key is now cached
        with pytest.raises(ConfigurationError):
            group.shared_secret(own, key)
        assert not group.contains(key)
        assert group.contains(peer.public)

    def test_identity_refused_every_time(self):
        group = DHGroup.standard(128)
        rng = random.Random(11)
        own, peer = group.keypair(rng), group.keypair(rng)
        assert group.contains(1)  # the subgroup's identity is a member
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                group.shared_secret(own, 1)
        group.shared_secret(own, peer.public)
        with pytest.raises(ConfigurationError):
            group.shared_secret(own, 1)

    def test_element_bytes(self, group):
        assert group.element_bytes == 16
        kp = group.keypair(random.Random(9))
        assert len(group.element_to_bytes(kp.public)) == 16

    def test_repr(self, group):
        assert "128" in repr(group)


class TestFixedBaseKeypair:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_public_is_g_to_the_x(self, data):
        group = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
        # Window edges (15, 16, 17) and the ends of [1, q) beside random x.
        x = data.draw(st.sampled_from([1, 15, 16, 17, group.q - 1])
                      | st.integers(min_value=1, max_value=group.q - 1))
        kp = group.keypair(FixedExponent(x))
        assert kp.private == x
        assert kp.public == pow(group.g, x, group.p)

    def test_racing_threads_build_one_table(self):
        group = DHGroup.standard(256)
        barrier = threading.Barrier(4)
        tables, keys = [], []

        def build(seed):
            barrier.wait()
            tables.append(group._generator_table())
            keys.append(group.keypair(random.Random(seed)))

        threads = [threading.Thread(target=build, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(table is tables[0] for table in tables)
        assert all(kp.public == pow(group.g, kp.private, group.p)
                   for kp in keys)


class TestSubgroupChecksOncePerKey:
    CONFIG = RoundConfig(cms_depth=2, cms_width=32, cms_seed=7, id_space=64)

    def test_army_enrollment_checks_each_key_once(self, monkeypatch):
        bases = count_subgroup_checks(monkeypatch, DHGroup.standard(128).q)
        users = [f"u{i:03d}" for i in range(100)]
        ClientArmy.enroll(users, self.CONFIG, use_oprf=False, num_cliques=2)
        # The generator plus at most one check per public key; checking
        # every pair's peer key would be 2,451.
        assert len(bases) <= 100
        assert len(bases) == len(set(bases))

    def test_advance_epoch_checks_no_drawn_key(self, monkeypatch):
        users = [f"u{i:02d}" for i in range(20)]
        manager = MembershipManager.enroll(users, self.CONFIG, seed=4,
                                           use_oprf=False)
        group = manager.group
        joiners = [f"joiner-{i}" for i in range(4)]
        bases = count_subgroup_checks(monkeypatch, group.q)
        manager.advance_epoch(joins=joiners)
        assert manager.epoch.min_clique_size == 24
        # Every key, the joiners' too, was drawn by this group: g^x is a
        # member by construction, so no check modexp runs.
        assert bases == []

    def test_key_from_elsewhere_checked_once_then_remembered(
            self, monkeypatch):
        group = DHGroup.standard(128)
        own = group.keypair(random.Random(12))
        by_hand = pow(group.g, 0xC0FFEE, group.p)
        other = DHGroup.standard(128)  # same prime, its own memo
        drawn_elsewhere = other.keypair(random.Random(13)).public
        bases = count_subgroup_checks(monkeypatch, group.q)
        for _ in range(2):  # the first use, then a repeat
            for key in (by_hand, drawn_elsewhere):
                assert group.shared_secret(own, key) == pow(
                    key, own.private, group.p)
        assert bases == [by_hand, drawn_elsewhere]


def exponents(group):
    """Private exponents in [1, q): window edges, the ends, random ones."""
    return (st.sampled_from([1, 15, 16, 17, group.q - 1])
            | st.integers(min_value=1, max_value=group.q - 1))


class TestHostPairSecret:
    """``pair_secret``, the host's derivation, against the device's
    formula ``shared_secret(own, peer_public)``."""

    def assert_matches_device(self, group, x, y):
        one = group.keypair(FixedExponent(x))
        other = group.keypair(FixedExponent(y))
        secret = group.pair_secret(one, other)
        assert secret == group.pair_secret(other, one)
        assert secret == group.shared_secret(one, other.public)
        assert secret == group.shared_secret(other, one.public)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_the_device_formula_from_either_end(self, data):
        group = GROUPS[data.draw(st.sampled_from([128, 256]))]
        x, y = data.draw(exponents(group)), data.draw(exponents(group))
        self.assert_matches_device(group, x, y)

    @settings(max_examples=5, deadline=None)
    @given(st.data())
    def test_equals_the_device_formula_at_1024_bits(self, data):
        group = GROUPS[1024]
        x, y = data.draw(exponents(group)), data.draw(exponents(group))
        self.assert_matches_device(group, x, y)

    @pytest.mark.parametrize("bad", [
        "identity", "order-2", "non-residue", "member-not-g^x"])
    def test_bad_key_pair_refused_every_time(self, bad):
        group = DHGroup.standard(128)
        rng = random.Random(14)
        own, peer = group.keypair(rng), group.keypair(rng)
        x = 0xC0FFEE
        public = {
            "identity": 1,
            "order-2": group.p - 1,
            "non-residue": quadratic_non_residue(group),
            "member-not-g^x": pow(group.g, x + 1, group.p),
        }[bad]
        keys = [KeyPair(private=x, public=public)]
        if bad == "identity":  # g^q is the identity: public == g^private
            keys.append(KeyPair(private=group.q, public=1))
        for key in keys:
            for _ in range(2):  # the first call, then a repeat
                with pytest.raises(ConfigurationError):
                    group.pair_secret(own, key)
                with pytest.raises(ConfigurationError):
                    group.pair_secret(key, own)
            group.pair_secret(own, peer)  # a good pair still derives
            with pytest.raises(ConfigurationError):
                group.pair_secret(own, key)

    def test_key_pair_from_elsewhere_checked_once_then_remembered(
            self, monkeypatch):
        group = DHGroup.standard(128)
        own = group.keypair(random.Random(15))
        other = DHGroup.standard(128)  # same prime, its own memo
        drawn_elsewhere = other.keypair(random.Random(16))
        walks = []
        power_of_g = group._power_of_g

        def counting_power_of_g(exponent):
            walks.append(exponent)
            return power_of_g(exponent)

        monkeypatch.setattr(group, "_power_of_g", counting_power_of_g)
        pair_exponent = own.private * drawn_elsewhere.private % group.q
        for _ in range(2):  # the first use, then a repeat
            assert group.pair_secret(own, drawn_elsewhere) == pow(
                drawn_elsewhere.public, own.private, group.p)
        # One check walk for the foreign key, then one walk per secret.
        assert walks == [drawn_elsewhere.private, pair_exponent,
                         pair_exponent]


class TestPairSecretsOncePerPair:
    """An in-process host, on either backend, derives each clique pair
    once through ``pair_secret`` and runs no pair modexp, while the
    transition still reports a deployment's two modexps a new pair."""

    CONFIG = RoundConfig(cms_depth=2, cms_width=32, cms_seed=7, id_space=64)
    USERS = [f"u{i:02d}" for i in range(40)]
    JOINERS = [f"joiner-{i}" for i in range(6)]

    @staticmethod
    def clique_pairs(epoch, keypairs):
        return {frozenset((keypairs[a].public, keypairs[b].public))
                for clique in range(epoch.num_cliques)
                for a, b in itertools.combinations(
                    epoch.members_of(clique), 2)}

    @pytest.mark.parametrize("backend", ["objects", "batched"])
    def test_enrollment_and_joiners_derive_each_pair_once(
            self, monkeypatch, backend):
        group = DHGroup.standard(128)
        modexps = count_pair_modexps(monkeypatch)
        derived = count_pair_derivations(monkeypatch)
        manager = MembershipManager.enroll(
            self.USERS, self.CONFIG, client_backend=backend, group=group,
            seed=4, use_oprf=False, num_cliques=10)
        before = self.clique_pairs(manager.epoch, manager._keypairs)
        assert len(before) == 10 * 6
        assert Counter(derived) == Counter(before)

        derived.clear()
        transition = manager.advance_epoch(joins=self.JOINERS)
        after = self.clique_pairs(manager.epoch, manager._keypairs)
        new_pairs = after - before
        assert len(new_pairs) == 6 * 4
        assert Counter(derived) == Counter(new_pairs)
        assert transition.modexps == 2 * len(new_pairs)
        assert modexps == []
