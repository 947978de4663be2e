"""Vehicle-to-verifier protocol: signatures, certificates, proof-package
assembly, and the ordered verification pipeline.

A proof package bundles a zk-SNARK proof with everything a roadside verifier
needs to check it statelessly except for the two registries it already
holds: the enrollment authority's root key (certificate chain) and the
circuit registry mapping R1CS hashes to verifying keys.  The signed payload
binds, by hash, every artifact in the package plus context, commitment,
timestamp, and nonce, so any tampering breaks the signature before the
(more expensive) pairing check runs.  The artifacts are hashed as the bytes
they are; the signing context is the circuit's sign domain, an int from
`field`.

Signatures are Schnorr over G1 of the toolkit's one pairing group
(`pairing.toy_group()`), so keypairs, the enrollment authority and the
verifier state hold no group of their own.

The package's whole byte format is here: `ProofPackage.to_bytes` writes
its sections in `_SECTION_ORDER`, each behind a 4-byte length, and the
fixed-width ones (commitment, timestamp, nonce, context) through
`section_bytes`, which the signed payload shares.

`VerifierState.verify_package` runs its checks cheapest and most diagnostic
first, in the order of `REJECT_STAGES`, which also names what the `verify`
command prints for each.  The binding check asks that the public
delta_commit, T, nu and c restate the signed envelope.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
import struct

from .audit_circuit import AUDIT_CIRCUIT
from .commitment import byte_hash, verify_commitment
from .field import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN, FieldElement,
                    NONCE_BYTES, ProtocolError, RSS_COMMIT_DOMAIN,
                    RSS_SIGN_DOMAIN, TEST_FIELD, nonce_to_field)
from .groth16 import Groth16Error, Proof, VerifyingKey, prove, verify
from .pairing import G1Element, Q, toy_group
from .rss_circuit import RSS_CIRCUIT

__all__ = [
    "RSS_COMMIT_DOMAIN",
    "RSS_SIGN_DOMAIN",
    "AUDIT_COMMIT_DOMAIN",
    "AUDIT_SIGN_DOMAIN",
    "SignatureKeypair",
    "schnorr_keygen",
    "schnorr_sign",
    "schnorr_verify",
    "Certificate",
    "EnrollmentAuthority",
    "section_bytes",
    "assemble_payload",
    "ProofPackage",
    "VerifierState",
    "create_package",
    "audit_open",
    "ProtocolError",
    "DEFAULT_FRESHNESS_WINDOW",
    "REJECT_STAGES",
    "CIRCUITS",
    "CIRCUITS_BY_SIGN_DOMAIN",
]

DEFAULT_FRESHNESS_WINDOW = 5  # seconds

CIRCUITS = {c.name: c for c in (RSS_CIRCUIT, AUDIT_CIRCUIT)}
CIRCUITS_BY_SIGN_DOMAIN = {c.sign_domain: c for c in CIRCUITS.values()}

_GROUP = toy_group()


# -- Schnorr signatures over G1 ----------------------------------------------


class SignatureKeypair:
    __slots__ = ("sk", "pk")

    def __init__(self, sk: int, pk: G1Element):
        self.sk = sk
        self.pk = pk

    def pk_bytes(self) -> bytes:
        return _GROUP.g1_to_bytes(self.pk)


def schnorr_keygen(rng=None) -> SignatureKeypair:
    sk = (rng.randrange(1, Q) if rng is not None
          else secrets.randbelow(Q - 1) + 1)
    return SignatureKeypair(sk, _GROUP.scalar_mul_g1(sk, _GROUP.g1))


def _challenge(r_bytes: bytes, pk_bytes: bytes, message: bytes) -> int:
    return int.from_bytes(
        hashlib.sha256(b"HS-SCHNORR-e" + r_bytes + pk_bytes + message).digest(),
        "big") % Q


def schnorr_sign(keypair: SignatureKeypair, message: bytes) -> bytes:
    """Deterministic-nonce Schnorr; signature is e||s, 8 bytes each."""
    k = int.from_bytes(
        hashlib.sha256(b"HS-SCHNORR-k" + keypair.sk.to_bytes(8, "little")
                       + message).digest(), "big") % Q
    k = k or 1
    r_bytes = _GROUP.g1_to_bytes(_GROUP.scalar_mul_g1(k, _GROUP.g1))
    e = _challenge(r_bytes, keypair.pk_bytes(), message)
    s = (k + e * keypair.sk) % Q
    return e.to_bytes(8, "little") + s.to_bytes(8, "little")


@functools.lru_cache(maxsize=1024)
def _schnorr_key(pk_bytes: bytes):
    """The public key that `pk_bytes` encodes if it is a point of the
    order-q subgroup, else None.  Memoized on the bytes, since a verifier
    sees the same few root and vehicle keys on package after package."""
    try:
        pk = _GROUP.g1_from_bytes(pk_bytes)
    except ValueError:
        return None
    return pk if _GROUP.in_subgroup_g1(pk) else None


def schnorr_verify(pk_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """Accept iff `signature` is a Schnorr signature on `message` under the
    key `pk_bytes`.  The key is decoded and subgroup-checked once per
    distinct encoding (`_schnorr_key`, a bounded memo); bytes that are no
    valid key are remembered as such and rejected."""
    if len(signature) != 16:
        return False
    e = int.from_bytes(signature[:8], "little")
    s = int.from_bytes(signature[8:], "little")
    if not (0 <= e < Q and 0 <= s < Q):
        return False
    pk = _schnorr_key(bytes(pk_bytes))
    if pk is None:
        return False
    # R' = s*G - e*PK; accept iff H(R', PK, m) == e
    r_pt = _GROUP.scalar_mul_g1(s, _GROUP.g1) - _GROUP.scalar_mul_g1(e, pk)
    return _challenge(_GROUP.g1_to_bytes(r_pt), pk_bytes, message) == e


# -- certificates ------------------------------------------------------------


class Certificate:
    """Binds a vehicle ID to its signature verification key, with validity
    window, signed by the enrollment authority's root key."""

    __slots__ = ("vid", "vk_sig_bytes", "valid_from", "valid_to", "signature")

    def __init__(self, vid: int, vk_sig_bytes: bytes, valid_from: int,
                 valid_to: int, signature: bytes = b""):
        if not 0 <= vid < 1 << 32:
            raise ProtocolError("vehicle ID out of 32-bit range")
        if valid_to < valid_from:
            raise ProtocolError("certificate validity window is inverted")
        self.vid = vid
        self.vk_sig_bytes = vk_sig_bytes
        self.valid_from = valid_from
        self.valid_to = valid_to
        self.signature = signature

    def body_bytes(self) -> bytes:
        return (struct.pack("<I", self.vid)
                + struct.pack("<H", len(self.vk_sig_bytes)) + self.vk_sig_bytes
                + struct.pack("<QQ", self.valid_from, self.valid_to))

    def to_bytes(self) -> bytes:
        return (self.body_bytes()
                + struct.pack("<H", len(self.signature)) + self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        try:
            vid, klen = struct.unpack_from("<IH", data, 0)
            vk = data[6:6 + klen]
            valid_from, valid_to = struct.unpack_from("<QQ", data, 6 + klen)
            off = 22 + klen
            (slen,) = struct.unpack_from("<H", data, off)
        except struct.error as exc:
            raise ProtocolError("truncated certificate encoding") from exc
        sig = data[off + 2:off + 2 + slen]
        if off + 2 + slen != len(data):
            raise ProtocolError("certificate encoding length mismatch")
        return cls(vid, vk, valid_from, valid_to, sig)


class EnrollmentAuthority:
    """Issues vehicle certificates under one root signature key."""

    def __init__(self, rng=None):
        self.root = schnorr_keygen(rng)

    @property
    def root_pk_bytes(self) -> bytes:
        return self.root.pk_bytes()

    def issue(self, vid: int, vk_sig_bytes: bytes, valid_from: int,
              valid_to: int) -> Certificate:
        cert = Certificate(vid, vk_sig_bytes, valid_from, valid_to)
        cert.signature = schnorr_sign(self.root, cert.body_bytes())
        return cert

    @staticmethod
    def verify_certificate(cert: Certificate, root_pk_bytes: bytes,
                           now: int) -> bool:
        if not cert.valid_from <= now <= cert.valid_to:
            return False
        return schnorr_verify(root_pk_bytes, cert.body_bytes(), cert.signature)


# -- fixed-width sections ----------------------------------------------------

# byte width of each fixed-width section, shared by the package and the
# signed payload; the format is little-endian throughout
_WIDTHS = {"commit": TEST_FIELD.byte_width, "ts": 8, "nonce": NONCE_BYTES,
           "ctx": 4}


def section_bytes(name: str, value) -> bytes:
    """The bytes of the fixed-width section `name`: an int little-endian,
    the nonce as it is.  A value that does not fit the section's width
    raises ProtocolError."""
    width = _WIDTHS[name]
    try:
        data = value if name == "nonce" else value.to_bytes(width, "little")
    except OverflowError:
        data = b""
    if len(data) != width:
        raise ProtocolError(f"{name} value {value!r} does not fit "
                            f"{width} bytes")
    return data


# -- signed payload ----------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _artifact_hashes(r1cs_bytes: bytes, vk_bytes: bytes):
    """(R1CS hash, VK hash) of one circuit, the two hashes the signed
    payload carries; the R1CS hash also names the circuit in a package and
    in the verifier's registry.  Memoized on the bytes, since a prover or
    verifier keeps using the same few circuits."""
    return byte_hash(r1cs_bytes), byte_hash(vk_bytes)


def assemble_payload(sign_domain: int, r1cs_bytes: bytes,
                     vk_bytes: bytes, cert_bytes: bytes, proof_bytes: bytes,
                     commitment_value: FieldElement, timestamp: int,
                     nonce: bytes, artifact_hashes=None) -> bytes:
    """The message under the vehicle's signature: context, artifact hashes,
    commitment, timestamp, nonce -- in this fixed order.

    A caller that already holds the circuit's `_artifact_hashes` passes
    them as `artifact_hashes`; `r1cs_bytes` and `vk_bytes` are then not
    read.
    """
    r1cs_hash, vk_hash = artifact_hashes or _artifact_hashes(r1cs_bytes,
                                                             vk_bytes)
    return b"".join([
        section_bytes("ctx", sign_domain),
        r1cs_hash,
        vk_hash,
        byte_hash(cert_bytes),
        byte_hash(proof_bytes),
        section_bytes("commit", commitment_value.value),
        section_bytes("ts", timestamp),
        section_bytes("nonce", nonce),
    ])


# -- proof package -----------------------------------------------------------

PACKAGE_MAGIC = b"HSPG"
PACKAGE_VERSION = 1

# section order is part of the wire format
_SECTION_ORDER = ["proof", "publics", "commit", "sig", "vk_sig", "cert",
                  "r1cs_hash", "ts", "nonce", "ctx"]


class ProofPackage:
    """Everything a vehicle transmits for one claim."""

    __slots__ = ("proof_bytes", "public_inputs", "commitment", "signature",
                 "vk_sig_bytes", "cert_bytes", "r1cs_hash", "timestamp",
                 "nonce", "sign_domain")

    def __init__(self, proof_bytes, public_inputs, commitment, signature,
                 vk_sig_bytes, cert_bytes, r1cs_hash, timestamp, nonce,
                 sign_domain: int):
        self.proof_bytes = proof_bytes
        self.public_inputs = [int(x) for x in public_inputs]
        self.commitment = commitment
        self.signature = signature
        self.vk_sig_bytes = vk_sig_bytes
        self.cert_bytes = cert_bytes
        self.r1cs_hash = r1cs_hash
        self.timestamp = timestamp
        self.nonce = nonce
        self.sign_domain = sign_domain

    def _sections(self, field):
        pubs = struct.pack("<I", len(self.public_inputs)) + b"".join(
            v.to_bytes(field.byte_width, "little") for v in self.public_inputs)
        return {
            "proof": self.proof_bytes,
            "publics": pubs,
            "commit": section_bytes("commit", self.commitment.value),
            "sig": self.signature,
            "vk_sig": self.vk_sig_bytes,
            "cert": self.cert_bytes,
            "r1cs_hash": self.r1cs_hash,
            "ts": section_bytes("ts", self.timestamp),
            "nonce": section_bytes("nonce", self.nonce),
            "ctx": section_bytes("ctx", self.sign_domain),
        }

    def to_bytes(self, field=TEST_FIELD) -> bytes:
        sections = self._sections(field)
        out = [PACKAGE_MAGIC, bytes([PACKAGE_VERSION])]
        for name in _SECTION_ORDER:
            payload = sections[name]
            out.append(struct.pack("<I", len(payload)))
            out.append(payload)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, field=TEST_FIELD) -> "ProofPackage":
        """Decode a package; any malformed encoding raises ProtocolError."""
        data = bytes(data)  # sections of a bytearray would be unhashable
        if data[:4] != PACKAGE_MAGIC:
            raise ProtocolError("bad package magic")
        if data[4:5] != bytes([PACKAGE_VERSION]):
            raise ProtocolError(f"unsupported package version {data[4:5].hex()}")
        off = 5
        raw = {}
        for name in _SECTION_ORDER:
            if off + 4 > len(data):
                raise ProtocolError(f"package truncated before section {name}")
            (length,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + length > len(data):
                raise ProtocolError(f"package truncated in section {name}")
            raw[name] = data[off:off + length]
            off += length
        if off != len(data):
            raise ProtocolError("trailing bytes in package encoding")
        publics = raw["publics"]
        w = field.byte_width
        n_pub = int.from_bytes(publics[:4], "little")
        if len(publics) < 4 or len(publics) != 4 + n_pub * w:
            raise ProtocolError("public-input section length does not match "
                                "its count")
        pubs = [int.from_bytes(publics[4 + i * w:4 + (i + 1) * w], "little")
                for i in range(n_pub)]
        for name, width in _WIDTHS.items():
            if len(raw[name]) != width:
                raise ProtocolError(f"section {name} is {len(raw[name])} "
                                    f"bytes, not {width}")
        commitment = int.from_bytes(raw["commit"], "little")
        if commitment >= field.p:
            raise ProtocolError("commitment is not below the field modulus")
        return cls(raw["proof"], pubs, FieldElement(commitment, field),
                   raw["sig"], raw["vk_sig"], raw["cert"], raw["r1cs_hash"],
                   int.from_bytes(raw["ts"], "little"), raw["nonce"],
                   int.from_bytes(raw["ctx"], "little"))


def _bound(package: ProofPackage) -> bool:
    """The proof's public inputs restate the package's signed envelope, so
    freshness and replay checks of the envelope cover the claim too."""
    circuit = CIRCUITS_BY_SIGN_DOMAIN.get(package.sign_domain)
    if (circuit is None
            or len(package.public_inputs) != len(circuit.public_order)):
        return False
    publics = dict(zip(circuit.public_order, package.public_inputs))
    return (publics["delta_commit"] == circuit.commit_domain
            and publics["T"] == package.timestamp
            and publics["nu"] == nonce_to_field(package.nonce)
            and publics["c"] == package.commitment.value)


def create_package(pk, qap, witness, commitment_value: FieldElement,
                   keypair: SignatureKeypair, cert: Certificate,
                   vk_bytes: bytes, r1cs_bytes: bytes, timestamp: int,
                   sign_domain: int, nonce: bytes = None,
                   proof_seed=None) -> ProofPackage:
    """Prove, then sign the assembled payload; returns the full package."""
    nonce = nonce if nonce is not None else secrets.token_bytes(NONCE_BYTES)
    proof = prove(pk, qap, witness, seed=proof_seed)
    proof_bytes = proof.to_bytes()
    cert_bytes = cert.to_bytes()
    hashes = _artifact_hashes(r1cs_bytes, vk_bytes)
    message = assemble_payload(sign_domain, r1cs_bytes, vk_bytes, cert_bytes,
                               proof_bytes, commitment_value, timestamp, nonce,
                               artifact_hashes=hashes)
    signature = schnorr_sign(keypair, message)
    publics = qap.cs.public_inputs(witness)
    return ProofPackage(proof_bytes, publics, commitment_value, signature,
                        keypair.pk_bytes(), cert_bytes, hashes[0], timestamp,
                        nonce, sign_domain)


# verify_package's reject reasons in the order it checks them ->
# (stage, printed reason) as the `verify` command reports them
REJECT_STAGES = {
    "certificate": ("certificate", "certificate-invalid"),
    "unknown_circuit": ("circuit-registered", "unknown-circuit"),
    "signature": ("signature", "signature-invalid"),
    "binding": ("binding", "envelope-mismatch"),
    "freshness": ("freshness", "stale-timestamp"),
    "replay": ("nonce", "nonce-replay"),
    "proof": ("proof", "proof-invalid"),
}


class VerifierState:
    """Roadside verifier: root key, circuit registry, replay cache, and a
    memo of the certificates that verified under the root key.

    The memo is keyed by the exact certificate bytes and holds only
    certificates whose root signature checked out, so a repeated
    certificate skips decoding and the root-key Schnorr check; every
    package still has its certificate's validity window and key binding
    checked.  The replay cache is keyed by nu = nonce_to_field(nonce), the
    value the proof binds, so two nonces that alias mod q are one nonce.
    Nonces and memo entries not seen for longer than twice the freshness
    window are pruned together.
    """

    def __init__(self, ea_root_pk_bytes: bytes,
                 freshness_window: int = DEFAULT_FRESHNESS_WINDOW):
        self.ea_root_pk_bytes = ea_root_pk_bytes
        self.freshness_window = freshness_window
        self.registry = {}       # r1cs_hash -> (VerifyingKey, artifact hashes)
        self._nonces = {}        # nu -> timestamp seen
        self._certs = {}         # cert bytes -> [Certificate, time last seen]

    def register_circuit(self, r1cs_bytes: bytes, vk: VerifyingKey):
        """Accept packages for this circuit; its payload hashes and the
        key's IC tables are computed here once, not per package."""
        hashes = _artifact_hashes(r1cs_bytes, vk.to_bytes())
        vk.ic_tables()
        self.registry[hashes[0]] = (vk, hashes)

    def _prune(self, now: int):
        horizon = 2 * self.freshness_window
        for n in [n for n, ts in self._nonces.items() if now - ts > horizon]:
            del self._nonces[n]
        for c in [c for c, (_, seen) in self._certs.items()
                  if now - seen > horizon]:
            del self._certs[c]

    def _certificate_ok(self, package: ProofPackage, now: int) -> bool:
        """The package's certificate is valid at `now`, chains to the root
        key, and certifies the package's signature key."""
        entry = self._certs.get(package.cert_bytes)
        if entry is None:
            try:
                cert = Certificate.from_bytes(package.cert_bytes)
            except ProtocolError:
                return False
            if not EnrollmentAuthority.verify_certificate(
                    cert, self.ea_root_pk_bytes, now):
                return False
            entry = self._certs[package.cert_bytes] = [cert, now]
        cert = entry[0]
        if not cert.valid_from <= now <= cert.valid_to:
            return False
        entry[1] = now
        return cert.vk_sig_bytes == package.vk_sig_bytes

    def verify_package(self, package: ProofPackage, now: int):
        """(accepted, reason).  Reason is 'ok' on acceptance, else the name
        of the first failed check."""
        if not self._certificate_ok(package, now):
            return False, "certificate"
        entry = self.registry.get(package.r1cs_hash)
        if entry is None:
            return False, "unknown_circuit"
        vk, hashes = entry
        message = assemble_payload(
            package.sign_domain, None, None, package.cert_bytes,
            package.proof_bytes, package.commitment, package.timestamp,
            package.nonce, artifact_hashes=hashes)
        if not schnorr_verify(package.vk_sig_bytes, message,
                              package.signature):
            return False, "signature"
        if not _bound(package):
            return False, "binding"
        if abs(now - package.timestamp) > self.freshness_window:
            return False, "freshness"
        self._prune(now)
        nu = nonce_to_field(package.nonce)
        if nu in self._nonces:
            return False, "replay"
        try:
            proof = Proof.from_bytes(package.proof_bytes)
        except Groth16Error:
            return False, "proof"
        if not verify(vk, proof, package.public_inputs):
            return False, "proof"
        self._nonces[nu] = now
        return True, "ok"


def audit_open(package: ProofPackage, opening: dict,
               commitment_public_index: int) -> bool:
    """Auditor-side check that a revealed opening matches the commitment the
    proof was bound to (both the package field and the public input)."""
    c = package.commitment.value
    if package.public_inputs[commitment_public_index] != c:
        return False
    return verify_commitment(c, opening)
