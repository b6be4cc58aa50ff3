"""Auth failure paths: 401 means nothing happened.

The promises under test (documented in ``docs/service.md``):

* a missing, malformed, unknown or wrong bearer token is refused with
  401 **before** the request body is parsed and before any protocol
  state is read — a rejected request can never have mutated state;
* token comparison is one :func:`hmac.compare_digest` over the UTF-8
  bytes of the full expected and presented tokens (with a decoy for
  unknown principals), so timing does not reveal where a guess diverges;
* a leave revokes — enrollment tokens are not usable across epochs
  after the user leaves.

These tests drive :class:`~repro.service.app.ServiceApp` directly with
synthetic :class:`~repro.service.http.Request` objects; the HTTP layer
on top is covered in ``test_service_http.py``.
"""

import json
from hmac import compare_digest as real_compare_digest

import pytest

from repro.errors import ConfigurationError
from repro.protocol.client import RoundConfig
from repro.service.app import OPERATOR_PRINCIPAL, ServiceApp
from repro.service.auth import ROLE_CLIENT, ROLE_OPERATOR, TokenBook
from repro.service.http import HttpError, Request
from repro.service.state import ServiceState


def make_request(method, path, body=None, token=None, raw_body=None):
    headers = {}
    if token is not None:
        headers["authorization"] = f"Bearer {token}"
    if raw_body is None:
        raw_body = json.dumps(body).encode() if body is not None else b""
    return Request(method=method, path=path, query={},
                   headers=headers, body=raw_body)


@pytest.fixture()
def config():
    return RoundConfig(cms_depth=3, cms_width=64, cms_seed=7, id_space=512)


@pytest.fixture()
def app(config):
    state = ServiceState(config, seed=11)
    tokens = TokenBook()
    application = ServiceApp(state, tokens)
    application.operator_token = tokens.mint(OPERATOR_PRINCIPAL,
                                             ROLE_OPERATOR)
    yield application
    state.close()


def snapshot_state(state):
    """Everything an unauthorized request must leave untouched."""
    return (state.status(), state.pending_joins, state.roster,
            state.open_round)


class TestTokenBook:
    def test_mint_then_authenticate(self):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        principal = book.authenticate(f"Bearer {token}")
        assert principal.name == "u1"
        assert principal.role == ROLE_CLIENT

    def test_second_mint_for_live_principal_is_409(self):
        book = TokenBook()
        book.mint("u1", ROLE_CLIENT)
        with pytest.raises(HttpError) as exc:
            book.mint("u1", ROLE_CLIENT)
        assert exc.value.status == 409

    def test_revoke_invalidates_immediately(self):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        assert book.revoke("u1") is True
        assert book.revoke("u1") is False
        with pytest.raises(HttpError) as exc:
            book.authenticate(f"Bearer {token}")
        assert exc.value.status == 401

    def test_adopted_secret_authenticates_via_full_token(self):
        book = TokenBook()
        token = book.adopt("operator", ROLE_OPERATOR, "chosen-by-the-cli")
        assert token.endswith(".chosen-by-the-cli")
        principal = book.authenticate(f"Bearer {token}")
        assert principal.role == ROLE_OPERATOR
        with pytest.raises(HttpError):  # the bare secret is not a token
            book.authenticate("Bearer chosen-by-the-cli")

    @pytest.mark.parametrize("secret", ["bad token", "caf\xe9", "tab\there"])
    def test_adopt_refuses_a_secret_no_header_can_carry(self, secret):
        with pytest.raises(ConfigurationError, match="printable ASCII"):
            TokenBook().adopt(OPERATOR_PRINCIPAL, ROLE_OPERATOR, secret)

    def test_require_role_mismatch_is_403(self):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        principal = book.authenticate(f"Bearer {token}")
        with pytest.raises(HttpError) as exc:
            book.require(principal, ROLE_OPERATOR)
        assert exc.value.status == 403

    @pytest.mark.parametrize("header", [
        None,                                   # missing entirely
        "",                                     # empty
        "Basic dXNlcjpwYXNz",                   # wrong scheme
        "Bearer",                               # no token at all
        "Bearer    ",                           # whitespace token
        "Bearer no-dot-separator",              # malformed token shape
        "Bearer !!!!.beef",                     # undecodable principal
        "Bearer \xe9\xe9",                      # non-ASCII token
        "Bearer b3BlcmF0b3I=.s3cre\xe9",         # operator's, last byte \xe9
    ])
    def test_missing_or_malformed_is_401(self, header):
        book = TokenBook()
        book.mint("u1", ROLE_CLIENT)
        book.adopt(OPERATOR_PRINCIPAL, ROLE_OPERATOR, "s3cret")
        with pytest.raises(HttpError) as exc:
            book.authenticate(header)
        assert exc.value.status == 401

    def test_wrong_secret_is_401(self):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        prefix, _, secret = token.partition(".")
        wrong = f"{prefix}.{'0' * len(secret)}"
        with pytest.raises(HttpError) as exc:
            book.authenticate(f"Bearer {wrong}")
        assert exc.value.status == 401


class TestConstantTimeComparison:
    """The comparison is one compare_digest over full token bytes."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return real_compare_digest(a, b)

        monkeypatch.setattr("repro.service.auth.hmac.compare_digest",
                            recording)
        return calls

    def test_valid_token_is_one_full_string_compare(self, spy):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        book.authenticate(f"Bearer {token}")
        assert spy == [(token.encode(), token.encode())]

    def test_wrong_secret_still_compares_full_strings_once(self, spy):
        book = TokenBook()
        token = book.mint("u1", ROLE_CLIENT)
        prefix, _, secret = token.partition(".")
        wrong = f"{prefix}.{'0' * len(secret)}"
        with pytest.raises(HttpError):
            book.authenticate(f"Bearer {wrong}")
        assert spy == [(token.encode(), wrong.encode())]

    def test_unknown_principal_compares_against_decoy(self, spy):
        """The unknown-principal path does the same constant-time work
        as every other rejection instead of returning early."""
        book = TokenBook()
        book.mint("u1", ROLE_CLIENT)
        stranger = TokenBook().mint("stranger", ROLE_CLIENT)
        with pytest.raises(HttpError):
            book.authenticate(f"Bearer {stranger}")
        assert len(spy) == 1
        assert spy[0] == (book._decoy.encode(), stranger.encode())


class TestRejectionsDoNotMutateState:
    """401/403 responses happen before any protocol state is touched."""

    def enroll_two(self, app):
        app(make_request("POST", "/v1/enroll", {"user_id": "u1"}))
        app(make_request("POST", "/v1/enroll", {"user_id": "u2"}))

    @pytest.mark.parametrize("token", [None, "garbage", "ZGVjb3k=.beef"])
    def test_unauthorized_epoch_advance_changes_nothing(self, app, token):
        self.enroll_two(app)
        before = snapshot_state(app.state)
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/epoch", {}, token=token))
        assert exc.value.status == 401
        assert snapshot_state(app.state) == before
        assert app.state.session is None  # the epoch never happened

    def test_auth_runs_before_body_parse(self, app):
        """A bad token with an unparseable body is 401, not 400: the
        body was never even looked at."""
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/epoch", token="nope",
                             raw_body=b"this is not json{"))
        assert exc.value.status == 401

    def test_client_role_cannot_open_round(self, app):
        self.enroll_two(app)
        app(make_request("POST", "/v1/epoch", {},
                         token=app.operator_token))
        client_token = json.loads(app(make_request(
            "POST", "/v1/enroll", {"user_id": "u3"})).body)["token"]
        before = snapshot_state(app.state)
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/rounds", token=client_token))
        assert exc.value.status == 403
        assert snapshot_state(app.state) == before
        assert app.state.open_round is None

    def test_unauthorized_submit_accounts_no_bytes(self, app):
        self.enroll_two(app)
        app(make_request("POST", "/v1/epoch", {},
                         token=app.operator_token))
        app(make_request("POST", "/v1/rounds", token=app.operator_token))
        before_bytes = app.state.transport.total_bytes
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/rounds/0/messages",
                             {"payload": "AAAA"}, token="u1-guess.beef"))
        assert exc.value.status == 401
        assert app.state.transport.total_bytes == before_bytes
        assert app.state.status()["reports_received"] == 0

    def test_operator_token_is_not_a_client_token(self, app):
        self.enroll_two(app)
        app(make_request("POST", "/v1/epoch", {},
                         token=app.operator_token))
        with pytest.raises(HttpError) as exc:
            app(make_request("GET", "/v1/enrollment",
                             token=app.operator_token))
        assert exc.value.status == 403


class TestLeaveRevokes:
    """Tokens are not usable across epochs after a leave."""

    def test_departed_token_stops_authenticating(self, app):
        for uid in ("u1", "u2", "u3", "u4", "u5"):
            app(make_request("POST", "/v1/enroll", {"user_id": uid}))
        tokens = {}
        # Grab u5's token by re-reading the mint (enroll returned it) —
        # re-enroll attempts are refused, so capture during enrollment.
        app2_state = app.state
        assert app2_state.pending_joins == ["u1", "u2", "u3", "u4", "u5"]
        app(make_request("POST", "/v1/epoch", {},
                         token=app.operator_token))
        # Re-mint is impossible; use the book directly to fetch u5's
        # live token the way the enroll response carried it.
        u5_token = app.tokens._tokens["u5"]
        assert app.tokens.authenticate(f"Bearer {u5_token}").name == "u5"

        response = app(make_request("POST", "/v1/epoch",
                                    {"leaves": ["u5"]},
                                    token=app.operator_token))
        assert json.loads(response.body)["left"] == ["u5"]

        with pytest.raises(HttpError) as exc:
            app(make_request("GET", "/v1/enrollment", token=u5_token))
        assert exc.value.status == 401
        assert not app.tokens.is_active("u5")

    def test_rejoin_mints_a_fresh_token(self, app):
        for uid in ("u1", "u2", "u3", "u4", "u5"):
            app(make_request("POST", "/v1/enroll", {"user_id": uid}))
        app(make_request("POST", "/v1/epoch", {},
                         token=app.operator_token))
        old_token = app.tokens._tokens["u5"]
        app(make_request("POST", "/v1/epoch", {"leaves": ["u5"]},
                         token=app.operator_token))
        rejoin = json.loads(app(make_request(
            "POST", "/v1/enroll", {"user_id": "u5"})).body)
        assert rejoin["token"] != old_token
        with pytest.raises(HttpError):
            app.tokens.authenticate(f"Bearer {old_token}")

    def test_double_enroll_is_409_hijack_refusal(self, app):
        app(make_request("POST", "/v1/enroll", {"user_id": "u1"}))
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/enroll", {"user_id": "u1"}))
        assert exc.value.status == 409

    def test_operator_name_is_reserved(self, app):
        with pytest.raises(HttpError) as exc:
            app(make_request("POST", "/v1/enroll",
                             {"user_id": "operator"}))
        assert exc.value.status == 409
