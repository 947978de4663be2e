"""Groth16 zk-SNARK over the QAP layer: trusted setup, prover, verifier.

Setup samples toxic waste (tau, alpha, beta, gamma, delta), evaluates the
wire polynomials at tau via sparse accumulation (never materializing dense
polynomials), and commits everything to the curve with fixed-base window
tables plus Montgomery batch inversion.  Proofs are three group elements;
their byte encoding is constant-length regardless of circuit size.

Everything is over the one pairing group (`pairing.toy_group()`), whose
scalar field F_q every circuit is over: keys and proofs hold no group.
The prover makes three MSMs (A, B in G1, and C' = C - s*A - r*B1), with
the key's constant points and delta among their bases, and takes B in G2
as psi(B1) = LAMBDA * B1, one scalar multiplication, so the proving key
holds no G2 point; it has its own PK_VERSION.  A and B1 need only the
witness and the blinding scalars, so on a machine with more than one CPU
one forked child computes them, with psi(B1) and s*A + r*B1, while the
prover runs the quotient and C'; the proof is the same either way.

The verifier takes public inputs only in canonical form (each in [0, q)),
runs subgroup checks on all three proof elements, and then checks the
Groth16 equation
    e(A, B) = e(alpha, beta) * e(IC(x), gamma) * e(C, delta)
as one pairing product with one final exponentiation,
    e(A, B) * e(-IC(x), gamma) * e(-C, delta) = e(alpha, beta),
where e(alpha, beta) and the Miller-loop lines of gamma and delta are
precomputed in the verifying key (a prepared verifying key).  B's subgroup
check comes from the Miller loop over B, which ends at q*B.  IC(x) is
summed from fixed-base tables of the IC points with IC_WINDOW-bit digits,
one table entry per nonzero digit; the key builds them on first use.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import signal
import struct

from .field import EncodingError
from .pairing import G1Element, G2Element, Q, TOY_CURVE_PROFILE, toy_group
from .qap import QapInstance, compute_quotient

__all__ = [
    "ProvingKey",
    "VerifyingKey",
    "Proof",
    "setup",
    "prove",
    "verify",
    "Groth16Error",
    "PROOF_MAGIC",
    "PK_MAGIC",
    "VK_MAGIC",
]

PK_MAGIC = b"HSPK"
VK_MAGIC = b"HSVK"
PROOF_MAGIC = b"HSPF"
KEY_VERSION = 1  # verifying key and proof
PK_VERSION = 2   # proving key, G1 points only
IC_WINDOW = 4  # bits per digit of a public input in the IC tables
# below this many wires a prove computes A and B1 itself: on a 2-vCPU Xeon
# VM a fork and reap cost about 2 ms in a 20 MB process and 10 ms at
# 150 MB, where a 253-wire circuit proves as fast either way
FORK_MIN_WIRES = 256

_GROUP = toy_group()


class Groth16Error(Exception):
    pass


def _check_header(data: bytes, magic: bytes, version: int, size: int,
                  what: str):
    """A key's or proof's fixed header: `size` bytes, its magic, version
    and curve."""
    if len(data) < size:
        raise Groth16Error(f"{what} is {len(data)} bytes, shorter than its "
                           f"{size}-byte header")
    if data[:4] != magic:
        raise Groth16Error(f"bad {what} magic")
    if data[4] != version:
        raise Groth16Error(f"unsupported {what} version {data[4]}")
    if data[5] != TOY_CURVE_PROFILE:
        raise Groth16Error(f"unknown curve profile {data[5]:#x}")


@contextlib.contextmanager
def _decoding_points(what: str):
    """A malformed point in `what` is a Groth16Error like any other fault
    of its encoding."""
    try:
        yield
    except EncodingError as exc:
        raise Groth16Error(f"bad point in {what}: {exc}") from exc


def _check_length(data: bytes, size: int, what: str):
    """The exact length the header's point counts give, before any point
    is decoded."""
    if len(data) != size:
        raise Groth16Error(f"{what} is {len(data)} bytes; its header "
                           f"counts give {size}")


def _point_reader(data: bytes, off: int):
    """`read(decode, count)`: the next `count` points of `data` from byte
    `off` on, each decoded by `decode`."""
    pb = _GROUP.point_bytes

    def read(decode, count):
        nonlocal off
        out = [decode(data[off + i * pb:off + (i + 1) * pb])
               for i in range(count)]
        off += count * pb
        return out
    return read


class ProvingKey:
    """The G1 commitments the prover needs, bound to one circuit digest;
    B's G2 copy is psi of its G1 copy, so the key holds no G2 point."""

    def __init__(self, circuit_digest, n_public,
                 alpha_g1, beta_g1, delta_g1, a_g1, b_g1, k_g1, h_g1):
        self.circuit_digest = circuit_digest
        self.n_public = n_public
        self.alpha_g1 = alpha_g1
        self.beta_g1 = beta_g1
        self.delta_g1 = delta_g1
        self.a_g1 = a_g1    # [g1 * A_j(tau)], j = 0..m
        self.b_g1 = b_g1    # [g1 * B_j(tau)]
        self.k_g1 = k_g1    # [g1 * (beta A_j + alpha B_j + C_j)/delta], j > l
        self.h_g1 = h_g1    # [g1 * tau^k t(tau)/delta], k = 0..n-2

    def to_bytes(self) -> bytes:
        out = [PK_MAGIC, bytes([PK_VERSION, TOY_CURVE_PROFILE]),
               self.circuit_digest,
               struct.pack("<IIII", self.n_public, len(self.a_g1),
                           len(self.k_g1), len(self.h_g1))]
        out += map(_GROUP.g1_to_bytes,
                   [self.alpha_g1, self.beta_g1, self.delta_g1, *self.a_g1,
                    *self.b_g1, *self.k_g1, *self.h_g1])
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProvingKey":
        _check_header(data, PK_MAGIC, PK_VERSION, 54, "proving key")
        digest = data[6:38]
        n_public, m1, nk, nh = struct.unpack_from("<IIII", data, 38)
        _check_length(data, 54 + (3 + 2 * m1 + nk + nh) * _GROUP.point_bytes,
                      "proving key")
        g1 = _GROUP.g1_from_bytes
        points = _point_reader(data, 54)
        with _decoding_points("proving key"):
            alpha_g1, beta_g1, delta_g1 = points(g1, 3)
            a_g1 = points(g1, m1)
            b_g1 = points(g1, m1)
            k_g1 = points(g1, nk)
            h_g1 = points(g1, nh)
        return cls(digest, n_public, alpha_g1, beta_g1, delta_g1,
                   a_g1, b_g1, k_g1, h_g1)


class VerifyingKey:
    """Verifier material: four constants plus the public-input commitments,
    prepared for `verify` with e(alpha, beta) and the lines of gamma and
    delta.  The fixed-base tables of the IC points are built on first use
    (`ic_tables`), not here, so decoding or generating a key stays cheap."""

    def __init__(self, circuit_digest, alpha_g1, beta_g2, gamma_g2, delta_g2,
                 ic):
        self.circuit_digest = circuit_digest
        self.alpha_g1 = alpha_g1
        self.beta_g2 = beta_g2
        self.gamma_g2 = gamma_g2
        self.delta_g2 = delta_g2
        self.ic = ic  # [g1 * (beta A_j + alpha B_j + C_j)/gamma], j = 0..l
        self.alpha_beta = _GROUP.pair(alpha_g1, beta_g2)
        self.gamma_lines = _GROUP.lines(gamma_g2)
        self.delta_lines = _GROUP.lines(delta_g2)
        self._ic_tables = None

    def ic_tables(self) -> list:
        """The fixed-base tables of `ic` (IC_WINDOW bits), built on first
        use and kept with the key."""
        if self._ic_tables is None:
            self._ic_tables = _GROUP.fixed_base_tables(self.ic, IC_WINDOW)
        return self._ic_tables

    @property
    def n_public(self) -> int:
        return len(self.ic) - 1

    def to_bytes(self) -> bytes:
        out = [VK_MAGIC, bytes([KEY_VERSION, TOY_CURVE_PROFILE]),
               self.circuit_digest, struct.pack("<I", len(self.ic))]
        out += map(_GROUP.g1_to_bytes,  # G1 and G2 points encode alike
                   [self.alpha_g1, self.beta_g2, self.gamma_g2, self.delta_g2,
                    *self.ic])
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        _check_header(data, VK_MAGIC, KEY_VERSION, 42, "verifying key")
        digest = data[6:38]
        (ic_len,) = struct.unpack_from("<I", data, 38)
        _check_length(data, 42 + (4 + ic_len) * _GROUP.point_bytes,
                      "verifying key")
        g1, g2 = _GROUP.g1_from_bytes, _GROUP.g2_from_bytes
        points = _point_reader(data, 42)
        with _decoding_points("verifying key"):
            [alpha_g1] = points(g1, 1)
            beta_g2, gamma_g2, delta_g2 = points(g2, 3)
            ic = points(g1, ic_len)
        return cls(digest, alpha_g1, beta_g2, gamma_g2, delta_g2, ic)


class Proof:
    """(A, B, C) in G1 x G2 x G1; constant-size byte encoding."""

    __slots__ = ("a", "b", "c", "circuit_digest")

    def __init__(self, a: G1Element, b: G2Element, c: G1Element,
                 circuit_digest: bytes):
        self.a, self.b, self.c = a, b, c
        self.circuit_digest = circuit_digest

    def to_bytes(self) -> bytes:
        return b"".join([PROOF_MAGIC, bytes([KEY_VERSION, TOY_CURVE_PROFILE]),
                         self.circuit_digest,
                         *map(_GROUP.g1_to_bytes, (self.a, self.b, self.c))])

    @classmethod
    def byte_length(cls) -> int:
        return 6 + 32 + 3 * _GROUP.point_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "Proof":
        _check_header(data, PROOF_MAGIC, KEY_VERSION, 38, "proof")
        _check_length(data, cls.byte_length(), "proof")
        g1, g2 = _GROUP.g1_from_bytes, _GROUP.g2_from_bytes
        points = _point_reader(data, 38)
        with _decoding_points("proof"):
            [a], [b], [c] = points(g1, 1), points(g2, 1), points(g1, 1)
        return cls(a, b, c, data[6:38])


def setup(qap: QapInstance, seed=None):
    """Sample toxic waste and produce (pk, vk) for the circuit behind `qap`.

    A seed gives a reproducible ceremony for tests; omit it for fresh
    randomness.  The trapdoor (tau, alpha, beta, gamma, delta) is never
    returned or stored in a key; it is not erased either, since Python
    cannot overwrite an int, and a seeded generator can re-derive it.
    """
    q = Q
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    while True:
        tau = rng.randrange(1, q)
        if qap.domain.eval_vanishing(tau):  # tau off the domain
            break
    alpha = rng.randrange(1, q)
    beta = rng.randrange(1, q)
    gamma = rng.randrange(1, q)
    delta = rng.randrange(1, q)

    a_tau, b_tau, c_tau = qap.wire_evals_at(tau)
    t_tau = qap.domain.eval_vanishing(tau)
    gamma_inv = pow(gamma, -1, q)
    delta_inv = pow(delta, -1, q)
    l = qap.cs.n_public
    m1 = qap.cs.n_wires
    n = len(qap.domain)

    k_scalars = [(beta * a_tau[j] + alpha * b_tau[j] + c_tau[j]) % q
                 for j in range(m1)]
    ic_scalars = [k_scalars[j] * gamma_inv % q for j in range(l + 1)]
    priv_scalars = [k_scalars[j] * delta_inv % q for j in range(l + 1, m1)]
    h_scalars = []
    acc = t_tau * delta_inv % q
    for _ in range(n - 1):
        h_scalars.append(acc)
        acc = acc * tau % q

    g1_points = map(G1Element, _GROUP.generator_table().exp_many(
        [alpha, beta, delta] + a_tau + b_tau + priv_scalars + h_scalars
        + ic_scalars))

    def take(count):
        return list(itertools.islice(g1_points, count))

    alpha_g1, beta_g1, delta_g1 = take(3)
    a_g1 = take(m1)
    b_g1 = take(m1)
    k_g1 = take(len(priv_scalars))
    h_g1 = take(len(h_scalars))
    ic = take(l + 1)
    beta_g2, gamma_g2, delta_g2 = (_GROUP.scalar_mul_g2(x, _GROUP.g2)
                                   for x in (beta, gamma, delta))

    digest = qap.cs.digest()
    pk = ProvingKey(digest, l, alpha_g1, beta_g1, delta_g1, a_g1, b_g1, k_g1,
                    h_g1)
    vk = VerifyingKey(digest, alpha_g1, beta_g2, gamma_g2, delta_g2, ic)
    return pk, vk


def prove(pk: ProvingKey, qap: QapInstance, witness, seed=None) -> Proof:
    """Produce a randomized proof; raises if the witness is unsatisfying.

    The proof is A, B = psi(B1) and C = C' + s*A + r*B1, with r and s the
    blinding scalars.  A, B1 and C' = MSM([w_priv, h, -rs], [K, H, delta])
    are one MSM each.  A and B depend only on the witness, r and s, so
    they are computed beside the quotient and C' (`_beside`): in a forked
    child when this process may run on more than one CPU and the circuit
    has at least FORK_MIN_WIRES wires, else in-process.  The proof is the
    same group elements, and so the same bytes, either way."""
    q = Q
    values = witness.values if hasattr(witness, "values") else list(witness)
    if len(values) != len(pk.a_g1):
        raise Groth16Error(
            f"witness length {len(values)} != key wire count {len(pk.a_g1)}")
    if qap.cs.digest() != pk.circuit_digest:
        raise Groth16Error("proving key was generated for a different circuit")
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    r = rng.randrange(q)
    s = rng.randrange(q)

    with _beside(pk, values, r, s) as witness_terms:
        h = compute_quotient(qap, witness)  # rejects unsatisfying witnesses
        c = _GROUP.multi_scalar_mul(
            [*values[pk.n_public + 1:], *h, -r * s % q],
            [*pk.k_g1, *pk.h_g1, pk.delta_g1])
        a, b, blind = witness_terms()
    return Proof(a, b, c + blind, pk.circuit_digest)


def _witness_terms(pk: ProvingKey, values, r, s) -> list:
    """[A, B, s*A + r*B1]: A and B1 are one MSM each, with the key's
    constant point at scalar 1 and delta at r or s, and B in G2 is
    psi(B1), since each of its G2 bases is LAMBDA times the G1 one."""
    msm = _GROUP.multi_scalar_mul
    a = msm([1, *values, r], [pk.alpha_g1, *pk.a_g1, pk.delta_g1])
    b1 = msm([1, *values, s], [pk.beta_g1, *pk.b_g1, pk.delta_g1])
    return [a, _GROUP.psi(b1),
            _GROUP.scalar_mul_g1(s, a) + _GROUP.scalar_mul_g1(r, b1)]


def _forks(n_wires: int) -> bool:
    """Whether `_beside` forks: the platform can, this process may run on
    more than one CPU, and the circuit is big enough to repay the fork."""
    return (n_wires >= FORK_MIN_WIRES and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


@contextlib.contextmanager
def _beside(pk: ProvingKey, values, r, s):
    """Yields a function that returns `_witness_terms(pk, values, r, s)`.

    In-process, the function computes them.  Forked, one child computes
    them while the caller's block runs and writes their encodings to a
    pipe, and the function reads them.  The child is killed, if it is
    still running, and reaped when the block ends, whether it returns or
    raises."""
    if not _forks(len(values)):
        yield lambda: _witness_terms(pk, values, r, s)
        return
    pb = _GROUP.point_bytes
    size = 3 * pb
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        # the child runs without the cyclic GC, whose full collections
        # would write to, and so copy, every page of the shared heap; it
        # leaves through os._exit, so it neither flushes the parent's
        # buffered stdio nor returns into the caller
        status = 1
        try:
            gc.disable()
            os.close(rfd)
            os.write(wfd, b"".join(map(_GROUP.g1_to_bytes,
                                       _witness_terms(pk, values, r, s))))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)

    def read():
        chunks = []
        while chunk := os.read(rfd, size):
            chunks.append(chunk)
        data = b"".join(chunks)
        if len(data) != size:
            raise Groth16Error(f"prover child wrote {len(data)} of {size} "
                               "bytes")
        a, b, blind = (_GROUP._point_from_bytes(data[i:i + pb])
                       for i in range(0, size, pb))
        return [G1Element(a), G2Element(b), G1Element(blind)]

    try:
        yield read
    finally:
        os.close(rfd)
        os.kill(pid, signal.SIGKILL)  # no effect once the child has exited
        os.waitpid(pid, 0)


def verify(vk: VerifyingKey, proof: Proof, public_inputs) -> bool:
    """Canonical inputs and subgroup checks, then the Groth16 equation as
    one pairing product against the key's e(alpha, beta).

    A and C get `in_subgroup_g1`; B's check comes from the Miller loop over
    B (`checked_lines`), which ends at q*B.  IC(x) is summed from the key's
    fixed-base tables."""
    inputs = [int(x) for x in public_inputs]
    if len(inputs) != vk.n_public:
        return False
    if not all(0 <= x < Q for x in inputs):
        return False  # an input >= q would alias x mod q
    if proof.circuit_digest != vk.circuit_digest:
        return False
    if not (_GROUP.in_subgroup_g1(proof.a) and _GROUP.in_subgroup_g1(proof.c)):
        return False
    b_lines, b_in_subgroup = _GROUP.checked_lines(proof.b)
    if not b_in_subgroup:
        return False
    ic = _GROUP.fixed_base_msm([1] + inputs, vk.ic, vk.ic_tables())
    product = _GROUP.pairing_product([(proof.a, b_lines),
                                     (-ic, vk.gamma_lines),
                                     (-proof.c, vk.delta_lines)])
    return product == vk.alpha_beta
