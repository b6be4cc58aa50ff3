"""Unit tests for the RSA-based OPRF and the ad-ID PRF layer."""

import builtins
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, KeyGenerationError, OPRFError
from repro.crypto.oprf import (
    MultiServerOPRF,
    OPRFClient,
    OPRFServer,
    hash_to_group,
    hash_to_output,
)
from repro.crypto.prf import KeyedPRF, ObliviousAdMapper
import repro.crypto.rsa as rsa_module
from repro.crypto.rsa import RSAKeyPair


@functools.lru_cache(maxsize=None)
def rsa_key(bits):
    """One key per modulus size, built on first use."""
    return RSAKeyPair.generate(bits, random.Random(bits))


def fault_one_crt_half(monkeypatch, keypair):
    """Make the next mod-p half of a CRT signature come back off by one."""
    faults = []

    def faulty_pow(base, exp, mod=None):
        result = builtins.pow(base, exp, mod)
        if mod == keypair._p and not faults:
            faults.append(base)
            return (result + 1) % mod
        return result

    monkeypatch.setattr(rsa_module, "pow", faulty_pow, raising=False)
    return faults


@pytest.fixture(scope="module")
def server():
    return OPRFServer.generate(bits=256, rng=random.Random(42))


@pytest.fixture()
def client(server):
    return OPRFClient(server.public_key, rng=random.Random(7))


class TestRSA:
    def test_sign_verify_roundtrip(self):
        kp = RSAKeyPair.generate(128, random.Random(1))
        x = 0x1234567
        assert kp.public.apply(kp.sign_raw(x)) == x

    def test_rejects_tiny_modulus(self):
        with pytest.raises(KeyGenerationError):
            RSAKeyPair.generate(16, random.Random(1))

    def test_deterministic_keygen(self):
        a = RSAKeyPair.generate(128, random.Random(5))
        b = RSAKeyPair.generate(128, random.Random(5))
        assert a.n == b.n

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_crt_signature_equals_plain_modexp(self, data):
        kp = rsa_key(data.draw(st.sampled_from([64, 128, 256, 512])))
        p, q = kp._p, kp._q
        d = pow(kp.e, -1, (p - 1) * (q - 1))
        # The ends of [1, n) and the multiples of one prime beside random x.
        x = data.draw(st.sampled_from([1, p, q, kp.n - 1])
                      | st.integers(min_value=1, max_value=kp.n - 1))
        assert kp.sign_raw(x) == pow(x, d, kp.n)

    def test_faulty_crt_half_raises(self, monkeypatch):
        kp = rsa_key(256)
        faults = fault_one_crt_half(monkeypatch, kp)
        with pytest.raises(OPRFError):
            kp.sign_raw(0x1234567)
        assert len(faults) == 1
        assert kp.public.apply(kp.sign_raw(0x1234567)) == 0x1234567

    def test_modulus_bytes(self):
        kp = RSAKeyPair.generate(128, random.Random(2))
        assert kp.modulus_bytes == (kp.n.bit_length() + 7) // 8


class TestHashFunctions:
    def test_hash_to_group_in_range(self, server):
        n = server.public_key.n
        for url in ("http://a.com", "http://b.com/ad?id=1", ""):
            assert 1 < hash_to_group(url, n) < n

    def test_hash_to_group_deterministic(self, server):
        n = server.public_key.n
        assert hash_to_group("x", n) == hash_to_group("x", n)

    def test_hash_to_output_length(self):
        assert len(hash_to_output(12345, 16)) == 16
        assert len(hash_to_output(12345, 32)) == 32

    def test_hash_to_output_zero(self):
        assert len(hash_to_output(0, 8)) == 8


class TestOPRFProtocol:
    def test_oblivious_equals_direct(self, server, client):
        """The blinded protocol computes the same PRF as direct evaluation."""
        for url in ("http://ads.example/1", "http://ads.example/2", "x"):
            assert client.evaluate(url, server) == server.evaluate_direct(url)

    def test_blinding_hides_input(self, server):
        """Two blindings of the same input look unrelated on the wire."""
        c1 = OPRFClient(server.public_key, rng=random.Random(1))
        c2 = OPRFClient(server.public_key, rng=random.Random(2))
        assert c1.blind("same-url").blinded != c2.blind("same-url").blinded

    def test_same_input_same_output_across_clients(self, server):
        c1 = OPRFClient(server.public_key, rng=random.Random(1))
        c2 = OPRFClient(server.public_key, rng=random.Random(2))
        assert c1.evaluate("u", server) == c2.evaluate("u", server)

    def test_different_inputs_different_outputs(self, server, client):
        outputs = {client.evaluate(f"url-{i}", server) for i in range(50)}
        assert len(outputs) == 50

    def test_bad_server_response_rejected(self, server, client):
        request = client.blind("http://x.com")
        with pytest.raises(OPRFError):
            client.finalize(request, (request.blinded * 3)
                            % server.public_key.n)

    def test_out_of_range_inputs_rejected(self, server, client):
        with pytest.raises(OPRFError):
            server.evaluate_blinded(0)
        with pytest.raises(OPRFError):
            server.evaluate_blinded(server.public_key.n + 1)
        request = client.blind("u")
        with pytest.raises(OPRFError):
            client.finalize(request, 0)

    def test_evaluation_counter(self, server, client):
        before = server.evaluations
        client.evaluate("counted", server)
        assert server.evaluations == before + 1

    def test_faulted_signature_is_not_counted(self, monkeypatch, server,
                                              client):
        before = server.evaluations
        fault_one_crt_half(monkeypatch, server._keypair)
        request = client.blind("http://ads.example/faulted")
        with pytest.raises(OPRFError):
            server.evaluate_blinded(request.blinded)
        assert server.evaluations == before

    def test_exchange_bytes_two_elements(self, server, client):
        assert client.exchange_bytes() == 2 * server.public_key.modulus_bytes

    @settings(max_examples=10, deadline=None)
    @given(st.text(min_size=1, max_size=100))
    def test_oblivious_consistency_property(self, url):
        server = OPRFServer.generate(bits=128, rng=random.Random(3))
        client = OPRFClient(server.public_key, rng=random.Random(4))
        assert client.evaluate(url, server) == server.evaluate_direct(url)


class TestMultiServerOPRF:
    def test_requires_servers(self):
        with pytest.raises(OPRFError):
            MultiServerOPRF([])

    def test_deterministic_function(self):
        servers = [OPRFServer.generate(128, random.Random(i)) for i in (1, 2)]
        a = MultiServerOPRF(servers, rng=random.Random(9))
        b = MultiServerOPRF(servers, rng=random.Random(10))
        assert a.evaluate("url") == b.evaluate("url")

    def test_differs_from_single_server(self):
        servers = [OPRFServer.generate(128, random.Random(i)) for i in (1, 2)]
        multi = MultiServerOPRF(servers, rng=random.Random(5))
        single = OPRFClient(servers[0].public_key, rng=random.Random(5))
        assert multi.evaluate("url") != single.evaluate("url", servers[0])


class TestKeyedPRF:
    def test_stable_mapping(self):
        prf = KeyedPRF(b"secret", id_space=1000)
        assert prf.ad_id("http://a.com") == prf.ad_id("http://a.com")

    def test_in_range(self):
        prf = KeyedPRF(b"secret", id_space=100)
        assert all(0 <= prf.ad_id(f"u{i}") < 100 for i in range(200))

    def test_key_matters(self):
        a, b = KeyedPRF(b"k1", 10 ** 9), KeyedPRF(b"k2", 10 ** 9)
        assert any(a.ad_id(f"u{i}") != b.ad_id(f"u{i}") for i in range(10))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KeyedPRF(b"", 10)
        with pytest.raises(ConfigurationError):
            KeyedPRF(b"k", 0)


class TestObliviousAdMapper:
    def test_caches_unique_urls(self, server):
        mapper = ObliviousAdMapper(
            OPRFClient(server.public_key, rng=random.Random(1)), server,
            id_space=10 ** 6)
        for _ in range(5):
            mapper.ad_id("http://repeat.com")
        assert mapper.protocol_rounds == 1
        assert mapper.cache_size == 1

    def test_ids_in_space(self, server):
        mapper = ObliviousAdMapper(
            OPRFClient(server.public_key, rng=random.Random(2)), server,
            id_space=50)
        assert all(0 <= mapper.ad_id(f"u{i}") < 50 for i in range(100))

    def test_two_mappers_agree(self, server):
        """Different users must derive the same ad ID for the same URL."""
        m1 = ObliviousAdMapper(
            OPRFClient(server.public_key, rng=random.Random(3)), server,
            id_space=10 ** 9)
        m2 = ObliviousAdMapper(
            OPRFClient(server.public_key, rng=random.Random(4)), server,
            id_space=10 ** 9)
        for i in range(10):
            assert m1.ad_id(f"http://ad/{i}") == m2.ad_id(f"http://ad/{i}")

    def test_bytes_exchanged(self, server):
        client = OPRFClient(server.public_key, rng=random.Random(5))
        mapper = ObliviousAdMapper(client, server, id_space=100)
        mapper.ad_id("a")
        mapper.ad_id("b")
        mapper.ad_id("a")
        assert mapper.bytes_exchanged() == 2 * client.exchange_bytes()

    def test_validation(self, server):
        with pytest.raises(ConfigurationError):
            ObliviousAdMapper(OPRFClient(server.public_key), server, 0)
