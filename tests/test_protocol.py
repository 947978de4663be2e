"""Signatures, certificates, package assembly/serialization, and the ordered
verification pipeline with all its rejection paths."""

import random

import pytest

from hermes_seal import protocol
from hermes_seal.field import FieldElement, TEST_FIELD
from hermes_seal.protocol import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN,
                                  Certificate, DomainSeparator,
                                  EnrollmentAuthority, ProofPackage,
                                  ProtocolError, RSS_COMMIT_DOMAIN,
                                  RSS_SIGN_DOMAIN, VerifierState, audit_open,
                                  create_package, schnorr_keygen,
                                  schnorr_sign, schnorr_verify)
from hermes_seal.commitment import open_commitment
from hermes_seal.rss_circuit import (PUBLIC_ORDER, RssScenario,
                                     make_rss_inputs)


# -- domain separators --------------------------------------------------------


def test_domain_separator_values():
    assert RSS_COMMIT_DOMAIN.value == 65536
    assert RSS_SIGN_DOMAIN.value == 131072
    assert AUDIT_COMMIT_DOMAIN.value == 16842752
    assert AUDIT_SIGN_DOMAIN.value == 16908288
    assert len({d.value for d in (RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN,
                                  AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN)}) == 4


def test_domain_separator_packing():
    d = DomainSeparator(0xAB, 0xCD, 0x1234)
    assert d.value == (0xAB << 24) | (0xCD << 16) | 0x1234
    with pytest.raises(ProtocolError):
        DomainSeparator(256, 0)
    with pytest.raises(ProtocolError):
        DomainSeparator(0, 0, 1 << 16)


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
    assert back.sign_domain.value == RSS_SIGN_DOMAIN.value
    with pytest.raises(ProtocolError):
        ProofPackage.from_bytes(raw + b"\x00")
    with pytest.raises(ProtocolError):
        ProofPackage.from_bytes(b"XXXX" + raw[4:])


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
            mutated = value + 1
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


def test_nonce_store_pruning(small_rss_artifacts, identity):
    state = _fresh_state(small_rss_artifacts, identity)
    pkg, _, _ = _fresh_package(small_rss_artifacts, identity)
    assert state.verify_package(pkg, now=101)[0]
    assert len(state._nonces) == 1
    # advance beyond 2x window via an unrelated verification attempt
    late, _, _ = _fresh_package(small_rss_artifacts, identity, timestamp=200,
                                seed=1)
    assert state.verify_package(late, now=201)[0]
    assert pkg.nonce not in state._nonces


def test_audit_open_roundtrip(rss_artifacts, identity):
    # full circuit: the commitment is a bound public input
    pkg, publics, witness = _fresh_package(rss_artifacts, identity)
    c_index = PUBLIC_ORDER.index("c")
    opening = open_commitment(
        publics.delta_commit,
        witness.commitment_payload(publics.T, publics.nu), witness.s_sec)
    assert audit_open(pkg, opening, c_index)
    bad = open_commitment(
        publics.delta_commit,
        witness.commitment_payload(publics.T, publics.nu), witness.s_sec + 1)
    assert not audit_open(pkg, bad, c_index)
    # package whose public input disagrees with its commitment field
    pkg.public_inputs[c_index] = (pkg.public_inputs[c_index] + 1) % TEST_FIELD.p
    assert not audit_open(pkg, opening, c_index)
