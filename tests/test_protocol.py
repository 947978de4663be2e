"""Signatures, certificates, package assembly/serialization, and the ordered
verification pipeline with all its rejection paths."""

import ast
import inspect
import random
import struct
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from hermes_seal import protocol, v2x_sim
from hermes_seal.audit_circuit import make_audit_inputs
from hermes_seal.cli import build_parser
from hermes_seal.field import (EncodingError, FieldElement, TEST_FIELD,
                               nonce_to_field)
from hermes_seal.groth16 import (Groth16Error, Proof, ProvingKey,
                                 VerifyingKey)
from hermes_seal.pairing import toy_group
from hermes_seal.protocol import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN,
                                  CIRCUITS, CIRCUITS_BY_SIGN_DOMAIN,
                                  Certificate, EnrollmentAuthority,
                                  ProofPackage, ProtocolError,
                                  RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN,
                                  VerifierState, audit_open, create_package,
                                  schnorr_keygen, schnorr_sign,
                                  schnorr_verify)
from hermes_seal.rss_circuit import (PUBLIC_ORDER, RSS_CIRCUIT, RssScenario,
                                     make_rss_inputs)


# -- domain separators --------------------------------------------------------


def test_domain_separator_values():
    assert RSS_COMMIT_DOMAIN == 65536
    assert RSS_SIGN_DOMAIN == 131072
    assert AUDIT_COMMIT_DOMAIN == 16842752
    assert AUDIT_SIGN_DOMAIN == 16908288
    assert len({RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN, AUDIT_COMMIT_DOMAIN,
                AUDIT_SIGN_DOMAIN}) == 4


# -- circuit descriptors ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_descriptor_matches_its_circuit(name):
    # built the way `setup --circuit NAME` builds it, with default options
    desc = CIRCUITS[name]
    args = build_parser().parse_args(["setup", "--circuit", name,
                                      "--out-dir", "unused"])
    meta, files = desc.params(args, None)
    cs = desc.load(meta, files.__getitem__).cs
    assert cs.labels[1:1 + cs.n_public] == list(desc.public_order)
    assert {"delta_commit", "T", "nu", "c"} <= set(desc.public_order)
    assert desc.public_order[-1] == desc.outcome
    assert CIRCUITS_BY_SIGN_DOMAIN[desc.sign_domain] is desc


def test_descriptor_domains_are_unique():
    domains = [d for c in CIRCUITS.values()
               for d in (c.commit_domain, c.sign_domain)]
    assert len(set(domains)) == len(domains) == 2 * len(CIRCUITS)


# -- Schnorr ------------------------------------------------------------------


def test_schnorr_roundtrip():
    rng = random.Random(0)
    kp = schnorr_keygen(rng)
    msg = b"perception claim"
    sig = schnorr_sign(kp, msg)
    assert len(sig) == 16
    assert schnorr_verify(kp.pk_bytes(), msg, sig)


def test_schnorr_rejections():
    rng = random.Random(1)
    kp = schnorr_keygen(rng)
    other = schnorr_keygen(rng)
    msg = b"message"
    sig = schnorr_sign(kp, msg)
    assert not schnorr_verify(kp.pk_bytes(), b"other message", sig)
    assert not schnorr_verify(other.pk_bytes(), msg, sig)
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    assert not schnorr_verify(kp.pk_bytes(), msg, flipped)
    assert not schnorr_verify(kp.pk_bytes(), msg, sig[:-1])
    assert not schnorr_verify(b"\x01" + bytes(18), msg, sig)


def test_schnorr_deterministic_nonce():
    kp = schnorr_keygen(random.Random(2))
    assert schnorr_sign(kp, b"m") == schnorr_sign(kp, b"m")
    assert schnorr_sign(kp, b"m") != schnorr_sign(kp, b"n")


# the 2-torsion point (0, 0), a point off the curve, and wrong lengths
BAD_KEYS = {
    "2-torsion": b"\x01" + bytes(18),
    "off-curve": b"\x01" + (2).to_bytes(9, "little") + (3).to_bytes(9, "little"),
    "short": b"\x01" + bytes(17),
    "long": b"\x01" + bytes(19),
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(BAD_KEYS))
def test_schnorr_rejects_bad_key_on_every_call(name):
    kp = schnorr_keygen(random.Random(3))
    msg = b"message"
    sig = schnorr_sign(kp, msg)
    bad = BAD_KEYS[name]
    protocol._schnorr_key.cache_clear()
    for _ in range(3):
        assert not schnorr_verify(bad, msg, sig)
        assert not schnorr_verify(bytearray(bad), msg, sig)
    assert protocol._schnorr_key(bad) is None
    info = protocol._schnorr_key.cache_info()
    assert (info.misses, info.hits) == (1, 6)
    assert schnorr_verify(kp.pk_bytes(), msg, sig)


def test_schnorr_key_memo_is_bounded():
    protocol._schnorr_key.cache_clear()
    size = protocol._schnorr_key.cache_info().maxsize
    assert size is not None
    kp = schnorr_keygen(random.Random(4))
    sig = schnorr_sign(kp, b"m")
    for i in range(size + 50):
        assert not schnorr_verify(b"\x02" + i.to_bytes(4, "little"), b"m",
                                  sig)
    assert protocol._schnorr_key.cache_info().currsize == size
    assert schnorr_verify(kp.pk_bytes(), b"m", sig)


# -- certificates -------------------------------------------------------------


def test_certificate_lifecycle(identity):
    ea, keypair, cert = identity
    assert EnrollmentAuthority.verify_certificate(cert, ea.root_pk_bytes, 100)
    # outside validity window
    assert not EnrollmentAuthority.verify_certificate(
        cert, ea.root_pk_bytes, (1 << 40) + 1)
    # wrong root
    other = EnrollmentAuthority(random.Random(5))
    assert not EnrollmentAuthority.verify_certificate(
        cert, other.root_pk_bytes, 100)
    # serialization roundtrip
    back = Certificate.from_bytes(cert.to_bytes())
    assert back.to_bytes() == cert.to_bytes()
    assert back.vid == cert.vid


def test_certificate_tamper_detected(identity):
    ea, keypair, cert = identity
    raw = bytearray(cert.to_bytes())
    raw[0] ^= 1  # vehicle ID
    tampered = Certificate.from_bytes(bytes(raw))
    assert not EnrollmentAuthority.verify_certificate(
        tampered, ea.root_pk_bytes, 100)


def test_certificate_truncations_raise_protocol_error(identity):
    _, _, cert = identity
    raw = cert.to_bytes()
    for cut in range(len(raw)):
        with pytest.raises(ProtocolError):
            Certificate.from_bytes(raw[:cut])


def test_certificate_validation():
    with pytest.raises(ProtocolError):
        Certificate(1 << 32, b"", 0, 1)
    with pytest.raises(ProtocolError):
        Certificate(1, b"", 10, 5)


# -- packages -----------------------------------------------------------------


def _fresh_package(art, identity, timestamp=100, seed=0):
    ea, keypair, cert = identity
    rng = random.Random(seed)
    publics, witness, nonce = make_rss_inputs(
        RssScenario(timestamp=timestamp), nonce=rng.randbytes(16),
        s_sec=rng.randrange(TEST_FIELD.p), circuit=art.circuit)
    w = art.circuit.generate_witness(publics, witness)
    pkg = create_package(
        art.pk, art.qap, w, FieldElement(publics.c, TEST_FIELD), keypair,
        cert, art.vk_bytes, art.r1cs_bytes, timestamp, RSS_SIGN_DOMAIN,
        nonce=nonce, proof_seed=rng.getrandbits(64))
    return pkg, publics, witness


def _fresh_state(art, identity, window=5):
    ea, _, _ = identity
    state = VerifierState(ea.root_pk_bytes, freshness_window=window)
    state.register_circuit(art.r1cs_bytes, art.vk)
    return state


def test_package_serialization_roundtrip(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    raw = pkg.to_bytes()
    back = ProofPackage.from_bytes(raw)
    assert back.to_bytes() == raw
    assert back.public_inputs == pkg.public_inputs
    assert back.sign_domain == RSS_SIGN_DOMAIN
    with pytest.raises(ProtocolError):
        ProofPackage.from_bytes(raw + b"\x00")
    with pytest.raises(ProtocolError):
        ProofPackage.from_bytes(b"XXXX" + raw[4:])


def test_package_read_from_a_bytearray_verifies(small_rss_artifacts,
                                                identity):
    # the certificate memo keys on the section's bytes
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    back = ProofPackage.from_bytes(bytearray(pkg.to_bytes()))
    state = _fresh_state(small_rss_artifacts, identity)
    assert state.verify_package(back, now=101) == (True, "ok")


def test_verify_accepts_and_records_nonce(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    state = _fresh_state(small_rss_artifacts, identity)
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (True, "ok")
    # immediate replay
    ok, reason = state.verify_package(pkg, now=102)
    assert (ok, reason) == (False, "replay")


def test_verify_hashes_no_circuit_artifact(small_rss_artifacts, identity,
                                           monkeypatch):
    # the R1CS and VK hashes of the signed payload come from the registry
    art = small_rss_artifacts
    pkg, _, _ = _fresh_package(art, identity)
    state = _fresh_state(art, identity)
    hashed = []
    real = protocol.byte_hash
    monkeypatch.setattr(protocol, "byte_hash",
                        lambda data: hashed.append(len(data)) or real(data))
    assert state.verify_package(pkg, now=101) == (True, "ok")
    assert hashed and max(hashed) < len(art.vk_bytes) < len(art.r1cs_bytes)


def test_verify_rejects_stale_timestamp(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    state = _fresh_state(small_rss_artifacts, identity)
    ok, reason = state.verify_package(pkg, now=100 + 6)
    assert (ok, reason) == (False, "freshness")
    ok, reason = state.verify_package(pkg, now=100 - 6)
    assert (ok, reason) == (False, "freshness")


def test_verify_rejects_unknown_circuit(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    ea, _, _ = identity
    state = VerifierState(ea.root_pk_bytes)  # empty registry
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (False, "unknown_circuit")


def test_verify_rejects_cross_context(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    state = _fresh_state(small_rss_artifacts, identity)
    pkg.sign_domain = AUDIT_SIGN_DOMAIN
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (False, "signature")


def test_verify_rejects_wrong_certificate_key(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    state = _fresh_state(small_rss_artifacts, identity)
    other = schnorr_keygen(random.Random(9))
    pkg.vk_sig_bytes = other.pk_bytes()
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (False, "certificate")


def test_verify_rejects_every_field_tamper(small_rss_artifacts, identity):
    state = _fresh_state(small_rss_artifacts, identity)
    expected = {
        "proof_bytes": "signature",
        "commitment": "signature",
        "signature": "signature",
        "cert_bytes": "certificate",
        "timestamp": "signature",
        "nonce": "signature",
    }
    for attr, want in expected.items():
        pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
        value = getattr(pkg, attr)
        if isinstance(value, bytes):
            mutated = bytes([value[0] ^ 1]) + value[1:]
        elif isinstance(value, FieldElement):
            mutated = FieldElement(value.value + 1, TEST_FIELD)
        else:
            mutated = value + 1
        setattr(pkg, attr, mutated)
        ok, reason = state.verify_package(pkg, now=101)
        assert (ok, reason) == (False, want), attr
    # public inputs are not under the signature; the pairing check owns them
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    pkg.public_inputs[-1] ^= 1
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (False, "proof")
    # r1cs hash points at nothing
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    pkg.r1cs_hash = bytes(32)
    ok, reason = state.verify_package(pkg, now=101)
    assert (ok, reason) == (False, "unknown_circuit")


def _reject_reasons_in_source_order(func):
    """The distinct reasons of the `return False, "<reason>"` statements in
    `func`, in the order they appear in its source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    returns = sorted((node for node in ast.walk(tree)
                      if isinstance(node, ast.Return)),
                     key=lambda node: (node.lineno, node.col_offset))
    reasons = [node.value.elts[1].value for node in returns
               if isinstance(node.value, ast.Tuple)
               and isinstance(node.value.elts[0], ast.Constant)
               and node.value.elts[0].value is False]
    return list(dict.fromkeys(reasons))


def test_reject_stages_follow_verify_package():
    stages = protocol.REJECT_STAGES
    assert list(stages) == \
        _reject_reasons_in_source_order(VerifierState.verify_package)
    # the `verify` command finds the failed stage by its (stage, reason)
    assert len(set(stages.values())) == len(stages)
    for reasons in v2x_sim._EXPECTED_REASONS.values():
        assert reasons <= stages.keys()


def test_nonce_store_pruning(small_rss_artifacts, identity):
    state = _fresh_state(small_rss_artifacts, identity)
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    assert state.verify_package(pkg, now=101)[0]
    assert list(state._nonces) == [nonce_to_field(pkg.nonce)]
    # advance beyond 2x window via an unrelated verification attempt
    late, _, _ = _fresh_package(small_rss_artifacts, identity, timestamp=200,
                                seed=1)
    assert state.verify_package(late, now=201)[0]
    assert list(state._nonces) == [nonce_to_field(late.nonce)]


def test_audit_open_roundtrip(rss_artifacts, identity):
    # full circuit: the commitment is a bound public input
    pkg, publics, witness = _fresh_package(rss_artifacts, identity)
    c_index = PUBLIC_ORDER.index("c")
    opening = RSS_CIRCUIT.opening(publics, witness)
    assert audit_open(pkg, opening, c_index)
    bad = dict(opening, blinder=witness.s_sec + 1)
    assert not audit_open(pkg, bad, c_index)
    # package whose public input disagrees with its commitment field
    pkg.public_inputs[c_index] = (pkg.public_inputs[c_index] + 1) % TEST_FIELD.p
    assert not audit_open(pkg, opening, c_index)


# -- envelope binding ---------------------------------------------------------


def _re_signed(pkg, keypair, art, **envelope):
    """A copy of `pkg` with envelope fields replaced, signed again by the
    sender: the signature is valid, the proof is the old one."""
    pkg = ProofPackage.from_bytes(pkg.to_bytes())
    for name, value in envelope.items():
        setattr(pkg, name, value)
    pkg.signature = schnorr_sign(keypair, protocol.assemble_payload(
        pkg.sign_domain, art.r1cs_bytes, art.vk_bytes, pkg.cert_bytes,
        pkg.proof_bytes, pkg.commitment, pkg.timestamp, pkg.nonce))
    return pkg


@pytest.fixture(scope="module")
def audit_package(audit_fixture_artifacts, identity):
    art = audit_fixture_artifacts
    _, keypair, cert = identity
    rng = random.Random(4)
    publics, witness, nonce, _ = make_audit_inputs(
        art.challenge, art.thresholds, art.detections, timestamp=100,
        nonce=rng.randbytes(16), s_sec=rng.randrange(TEST_FIELD.p))
    w = art.circuit.generate_witness(publics, witness)
    return create_package(
        art.pk, art.qap, w, FieldElement(publics.c, TEST_FIELD), keypair,
        cert, art.vk_bytes, art.r1cs_bytes, 100, AUDIT_SIGN_DOMAIN,
        nonce=nonce, proof_seed=rng.getrandbits(64))


ENVELOPE_CHANGES = {
    "timestamp": lambda pkg: pkg.timestamp + 1,
    "nonce": lambda pkg: bytes([pkg.nonce[0] ^ 1]) + pkg.nonce[1:],
    "commitment": lambda pkg: FieldElement(pkg.commitment.value + 1,
                                           TEST_FIELD),
}


@pytest.mark.parametrize("circuit", ["rss", "audit"])
def test_re_signed_envelope_rejected_at_binding(circuit, identity, request):
    if circuit == "rss":
        art = request.getfixturevalue("small_rss_artifacts")
        pkg, _, _ = _fresh_package(art, identity)
    else:
        art = request.getfixturevalue("audit_fixture_artifacts")
        pkg = request.getfixturevalue("audit_package")
    _, keypair, _ = identity
    # re-signing the unchanged envelope is accepted, so each reject below
    # is the binding check's
    assert _fresh_state(art, identity).verify_package(
        _re_signed(pkg, keypair, art), now=101) == (True, "ok")
    for name, change in ENVELOPE_CHANGES.items():
        moved = _re_signed(pkg, keypair, art, **{name: change(pkg)})
        state = _fresh_state(art, identity)
        assert state.verify_package(moved, now=101) == (False, "binding"), \
            name
        assert not state._nonces


def test_nonce_alias_rejected_at_replay(small_rss_artifacts, identity):
    # the sender re-sends its accepted proof inside the window under the
    # nonce n + q, re-signed: same nu, so the binding stage passes it and
    # the replay cache, keyed by nu, must not
    art = small_rss_artifacts
    _, keypair, _ = identity
    pkg, _, _ = _fresh_package(art, identity)
    n = int.from_bytes(pkg.nonce, "little")
    q = TEST_FIELD.p
    alias = (n + q if n + q < 1 << 128 else n - q).to_bytes(16, "little")
    assert alias != pkg.nonce
    assert nonce_to_field(alias) == nonce_to_field(pkg.nonce)
    moved = _re_signed(pkg, keypair, art, nonce=alias)
    assert _fresh_state(art, identity).verify_package(moved, now=101) == \
        (True, "ok")
    state = _fresh_state(art, identity)
    assert state.verify_package(pkg, now=101) == (True, "ok")
    assert state.verify_package(moved, now=102) == (False, "replay")
    # and in the other order
    state = _fresh_state(art, identity)
    assert state.verify_package(moved, now=101) == (True, "ok")
    assert state.verify_package(pkg, now=102) == (False, "replay")


def test_unknown_or_foreign_sign_domain_rejected_at_binding(
        small_rss_artifacts, identity):
    art = small_rss_artifacts
    _, keypair, _ = identity
    pkg, _, _ = _fresh_package(art, identity)
    state = _fresh_state(art, identity)
    for domain in (0x02020000, AUDIT_SIGN_DOMAIN,
                   RSS_COMMIT_DOMAIN):
        moved = _re_signed(pkg, keypair, art, sign_domain=domain)
        assert state.verify_package(moved, now=101) == (False, "binding"), \
            domain


def test_publics_that_misstate_the_circuit_rejected_at_binding(
        small_rss_artifacts, identity):
    # public inputs are not signed: a wrong delta_commit or count is caught
    # before the pairing
    state = _fresh_state(small_rss_artifacts, identity)
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    pkg.public_inputs[PUBLIC_ORDER.index("delta_commit")] = \
        AUDIT_COMMIT_DOMAIN
    assert state.verify_package(pkg, now=101) == (False, "binding")
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    pkg.public_inputs.pop()
    assert state.verify_package(pkg, now=101) == (False, "binding")


# -- malformed bytes ----------------------------------------------------------


@pytest.fixture(scope="module")
def package_bytes(small_rss_artifacts, identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    return pkg.to_bytes()


def test_package_truncations_raise_protocol_error(package_bytes):
    for cut in range(len(package_bytes)):
        with pytest.raises(ProtocolError):
            ProofPackage.from_bytes(package_bytes[:cut])


def test_malformed_sections_raise_protocol_error(small_rss_artifacts,
                                                identity):
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    good = pkg._sections(TEST_FIELD)
    w = TEST_FIELD.byte_width
    bad_sections = {
        "publics": [good["publics"][:-w],                    # count > values
                    good["publics"] + bytes(w),              # count < values
                    good["publics"][:2]],                    # no count
        "commit": [TEST_FIELD.p.to_bytes(w, "little")],      # value >= p
        "ctx": [good["ctx"][:-1]],
        "ts": [good["ts"] + b"\x00"],
        "nonce": [good["nonce"][:-1]],
    }
    for name, values in bad_sections.items():
        for value in values:
            sections = dict(good, **{name: value})
            raw = [protocol.PACKAGE_MAGIC, bytes([protocol.PACKAGE_VERSION])]
            for key in protocol._SECTION_ORDER:
                raw += [struct.pack("<I", len(sections[key])), sections[key]]
            with pytest.raises(ProtocolError):
                ProofPackage.from_bytes(b"".join(raw))


def test_short_certificate_is_a_certificate_reject(small_rss_artifacts,
                                                   identity):
    state = _fresh_state(small_rss_artifacts, identity)
    for cut in (0, 2, 10):
        pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
        pkg.cert_bytes = pkg.cert_bytes[:cut]
        back = ProofPackage.from_bytes(pkg.to_bytes())
        assert state.verify_package(back, now=101) == (False, "certificate")


@given(cut=st.none() | st.integers(min_value=0),
       flips=st.lists(st.integers(min_value=0), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_fuzzed_package_bytes(small_rss_artifacts, identity, package_bytes,
                              cut, flips):
    # truncated and bit-flipped bytes: decoding raises only ProtocolError,
    # and whatever decodes gets a (bool, stage) verdict
    raw = bytearray(package_bytes)
    for bit in flips:
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    if cut is not None:
        raw = raw[:cut % len(raw)]
    try:
        pkg = ProofPackage.from_bytes(bytes(raw))
    except ProtocolError:
        return
    state = _fresh_state(small_rss_artifacts, identity)
    ok, reason = state.verify_package(pkg, now=101)
    assert type(ok) is bool and isinstance(reason, str)
    assert not ok or reason == "ok"


@pytest.fixture(scope="module")
def encodings(small_rss_artifacts, identity, package_bytes):
    """Decoder name -> (decoder, the one error it may raise, a valid
    encoding)."""
    art, group = small_rss_artifacts, toy_group()
    return {
        "g1": (group.g1_from_bytes, EncodingError,
               group.g1_to_bytes(group.g1)),
        "g2": (group.g2_from_bytes, EncodingError,
               group.g1_to_bytes(group.g2)),
        "proof": (Proof.from_bytes, Groth16Error,
                  ProofPackage.from_bytes(package_bytes).proof_bytes),
        "proving key": (ProvingKey.from_bytes, Groth16Error,
                        art.pk.to_bytes()),
        "verifying key": (VerifyingKey.from_bytes, Groth16Error,
                          art.vk_bytes),
        "certificate": (Certificate.from_bytes, ProtocolError,
                        identity[2].to_bytes()),
        "package": (ProofPackage.from_bytes, ProtocolError, package_bytes),
    }


DECODERS = ["g1", "g2", "proof", "proving key", "verifying key",
            "certificate", "package"]


def _decode_or_typed_reject(encodings, name, data):
    decode, error, _ = encodings[name]
    try:
        decode(bytes(data))
    except error:
        pass


@given(name=st.sampled_from(DECODERS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_decoders_raise_only_their_error_on_random_bytes(encodings, name,
                                                          data):
    # any length, or the valid encoding's own length when that is short
    size = len(encodings[name][2])
    blob = data.draw(st.binary(max_size=200) if size > 200 else
                     st.binary(max_size=200) |
                     st.binary(min_size=size, max_size=size))
    _decode_or_typed_reject(encodings, name, blob)


@given(name=st.sampled_from(DECODERS), at=st.integers(min_value=0),
       value=st.integers(min_value=0, max_value=255))
@settings(max_examples=300, deadline=None)
def test_decoders_raise_only_their_error_on_byte_mutations(encodings, name,
                                                           at, value):
    raw = bytearray(encodings[name][2])
    raw[at % len(raw)] = value
    _decode_or_typed_reject(encodings, name, raw)


# -- certificate memo ---------------------------------------------------------


@pytest.fixture
def schnorr_calls(monkeypatch):
    """The public keys that `schnorr_verify` was called with, in order."""
    calls = []
    real = protocol.schnorr_verify

    def spy(pk_bytes, *args, **kwargs):
        calls.append(pk_bytes)
        return real(pk_bytes, *args, **kwargs)
    monkeypatch.setattr(protocol, "schnorr_verify", spy)
    return calls


def _vehicle(ea, vid, seed, valid_from=0, valid_to=1 << 40):
    keypair = schnorr_keygen(random.Random(seed))
    return ea, keypair, ea.issue(vid, keypair.pk_bytes(), valid_from,
                                 valid_to)


def test_certificate_memo_skips_root_check(small_rss_artifacts, identity,
                                           schnorr_calls):
    ea, keypair, cert = identity
    state = _fresh_state(small_rss_artifacts, identity)
    first, _, _ = _fresh_package(small_rss_artifacts, identity, seed=0)
    second, _, _ = _fresh_package(small_rss_artifacts, identity, seed=1)
    assert state.verify_package(first, now=101) == (True, "ok")
    assert schnorr_calls == [ea.root_pk_bytes, keypair.pk_bytes()]
    assert first.cert_bytes in state._certs
    del schnorr_calls[:]
    assert state.verify_package(second, now=102) == (True, "ok")
    assert schnorr_calls == [keypair.pk_bytes()]


def test_memoized_certificate_still_checks_window_and_key(
        small_rss_artifacts, identity, schnorr_calls):
    ea = identity[0]
    vehicle = _vehicle(ea, 8, seed=21, valid_from=90, valid_to=150)
    state = _fresh_state(small_rss_artifacts, identity, window=100)
    pkg, _, _ = _fresh_package(small_rss_artifacts, vehicle, timestamp=100)
    assert state.verify_package(pkg, now=101) == (True, "ok")
    assert pkg.cert_bytes in state._certs
    del schnorr_calls[:]
    # a memo hit outside the validity window
    late, _, _ = _fresh_package(small_rss_artifacts, vehicle, timestamp=160,
                                seed=1)
    assert state.verify_package(late, now=161) == (False, "certificate")
    early, _, _ = _fresh_package(small_rss_artifacts, vehicle, timestamp=80,
                                 seed=2)
    assert state.verify_package(early, now=80) == (False, "certificate")
    # a memo hit whose package names another signature key
    other, _, _ = _fresh_package(small_rss_artifacts, vehicle, seed=3)
    other.vk_sig_bytes = identity[1].pk_bytes()
    assert state.verify_package(other, now=101) == (False, "certificate")
    assert schnorr_calls == []


def test_failed_certificate_is_not_memoized(small_rss_artifacts, identity):
    state = _fresh_state(small_rss_artifacts, identity)
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    # a certificate from another authority
    foreign = _vehicle(EnrollmentAuthority(random.Random(5)), 7, seed=22)
    bad, _, _ = _fresh_package(small_rss_artifacts, foreign)
    assert state.verify_package(bad, now=101) == (False, "certificate")
    # a tampered certificate, then the same bytes again
    raw = bytearray(pkg.cert_bytes)
    raw[0] ^= 1
    pkg.cert_bytes = bytes(raw)
    for _ in range(2):
        assert state.verify_package(pkg, now=101) == (False, "certificate")
    # a certificate checked outside its validity window
    short = _vehicle(identity[0], 9, seed=23, valid_from=500, valid_to=600)
    early, _, _ = _fresh_package(small_rss_artifacts, short)
    assert state.verify_package(early, now=101) == (False, "certificate")
    assert state._certs == {}


def test_certificate_memo_pruned_after_horizon(small_rss_artifacts, identity):
    state = _fresh_state(small_rss_artifacts, identity, window=5)
    other = _vehicle(identity[0], 10, seed=24)
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity, timestamp=100)
    assert state.verify_package(pkg, now=101)[0]
    # seen again at 108: the entry's last-seen time moves forward
    again, _, _ = _fresh_package(small_rss_artifacts, identity,
                                 timestamp=107, seed=1)
    assert state.verify_package(again, now=108)[0]
    mid, _, _ = _fresh_package(small_rss_artifacts, other, timestamp=117,
                               seed=2)
    assert state.verify_package(mid, now=118)[0]     # 118 - 108 <= 10
    assert pkg.cert_bytes in state._certs
    late, _, _ = _fresh_package(small_rss_artifacts, other, timestamp=130,
                                seed=3)
    assert state.verify_package(late, now=131)[0]    # 131 - 108 > 10
    assert pkg.cert_bytes not in state._certs
    assert mid.cert_bytes in state._certs


def test_vehicle_key_memo_hit_on_second_package(small_rss_artifacts, identity,
                                                monkeypatch):
    from hermes_seal.pairing import BilinearGroup
    decoded = []
    real = BilinearGroup.g1_from_bytes

    def spy(self, data):
        decoded.append(bytes(data))
        return real(self, data)
    monkeypatch.setattr(BilinearGroup, "g1_from_bytes", spy)
    vehicle = _vehicle(identity[0], 11, seed=25)
    key = vehicle[1].pk_bytes()
    state = _fresh_state(small_rss_artifacts, identity)
    protocol._schnorr_key.cache_clear()
    first, _, _ = _fresh_package(small_rss_artifacts, vehicle, seed=4)
    second, _, _ = _fresh_package(small_rss_artifacts, vehicle, seed=5)
    assert state.verify_package(first, now=101) == (True, "ok")
    assert decoded.count(key) == 1
    hits = protocol._schnorr_key.cache_info().hits
    assert state.verify_package(second, now=102) == (True, "ok")
    assert decoded.count(key) == 1
    assert protocol._schnorr_key.cache_info().hits == hits + 1
