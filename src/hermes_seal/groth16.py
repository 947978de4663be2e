"""Groth16 zk-SNARK over the QAP layer: trusted setup, prover, verifier.

Setup samples toxic waste (tau, alpha, beta, gamma, delta), evaluates the
wire polynomials at tau via sparse accumulation (never materializing dense
polynomials), and commits everything to the curve with fixed-base window
tables plus Montgomery batch inversion.

Everything is over the one pairing group (`pairing.toy_group()`), whose
scalar field F_q every circuit is over: keys and proofs hold no group.
The prover makes three MSMs (A, B in G1, and C' = C - s*A - r*B1), with
the key's constant points and delta among their bases, and takes B in G2
as psi(B1) = LAMBDA * B1, one scalar multiplication, so the proving key
holds no G2 point; it has its own PK_VERSION.  A and B1 need only the
witness and the blinding scalars, so on a machine with more than one CPU
one forked child computes them, with psi(B1) and s*A + r*B1, while the
prover runs the quotient and C'.  The child also takes a prefix of C''s
terms [K..., H...]: it sums its K terms right after A and B1, while the
quotient still runs, and its H terms, if any, once the prover hands over
h's first terms through a shared map.  The prefix is the one that makes
the later of the two processes' estimated ends earliest (`_child_share`:
one unit per bucket addition, a term costing its scalar's c-bit windows,
the quotient QUOTIENT_TERMS * n log2(n) full-width terms); at audit size
it reaches into H.  The child adds its partial sums into s*A + r*B1, so
it still returns three points, and the proof is the same either way.

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

Keys and proofs share one byte layout, written by `_pack` and read by
`_unpack`: magic, version, curve byte, circuit digest, u32 counts (a
proving key's l, m + 1, |K| and |H|, a verifying key's |IC|, none in a
proof, whose length is constant), then runs of points.  The reader checks
the header, then the exact length the counts give, then each point; any
fault is a Groth16Error.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import mmap
import os
import random
import signal
import struct
from array import array

from .field import EncodingError
from .pairing import (G1Element, G2Element, Q, TOY_CURVE_PROFILE, _msm_window,
                      toy_group)
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
# the quotient's cost in full-width C' terms per n * log2(n), n the domain
# size, which sizes the forked child's share of C' (`_child_share`).  On a
# 2-vCPU Xeon VM, in-process with the GC off, `compute_quotient` took as
# long as 0.55 n such terms at n = 1024 and 0.79 n at n = 32768; the
# constant keeps 0.55 n at n = 1024, and so gives 0.825 n at n = 32768
QUOTIENT_TERMS = 0.055

_GROUP = toy_group()


class Groth16Error(Exception):
    pass


def _pack(magic: bytes, version: int, digest: bytes, counts, points) -> bytes:
    """A key's or proof's bytes: magic, version, curve, circuit digest, the
    u32 counts, then the points (G1 and G2 points encode alike)."""
    return b"".join([magic, bytes([version, TOY_CURVE_PROFILE]), digest,
                     struct.pack(f"<{len(counts)}I", *counts),
                     *map(_GROUP.g1_to_bytes, points)])


def _unpack(data: bytes, magic: bytes, version: int, n_counts: int, what: str,
            layout):
    """(digest, counts, runs) from `_pack`'s bytes: `layout(*counts)`
    gives the (decode, count) runs, and `runs` one point list per run."""
    head = 38 + 4 * n_counts
    if len(data) < head:
        raise Groth16Error(f"{what} is {len(data)} bytes, shorter than its "
                           f"{head}-byte header")
    if data[:4] != magic:
        raise Groth16Error(f"bad {what} magic")
    if data[4] != version:
        raise Groth16Error(f"unsupported {what} version {data[4]}")
    if data[5] != TOY_CURVE_PROFILE:
        raise Groth16Error(f"unknown curve profile {data[5]:#x}")
    counts = struct.unpack_from(f"<{n_counts}I", data, 38)
    runs = layout(*counts)
    pb = _GROUP.point_bytes
    size = head + pb * sum(count for _, count in runs)
    if len(data) != size:
        raise Groth16Error(f"{what} is {len(data)} bytes; its header "
                           f"counts give {size}")
    offsets = iter(range(head, size, pb))
    try:
        return data[6:38], counts, [
            [decode(data[i:i + pb]) for i in itertools.islice(offsets, count)]
            for decode, count in runs]
    except EncodingError as exc:
        raise Groth16Error(f"bad point in {what}: {exc}") from exc


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
        return _pack(PK_MAGIC, PK_VERSION, self.circuit_digest,
                     [self.n_public, len(self.a_g1), len(self.k_g1),
                      len(self.h_g1)],
                     [self.alpha_g1, self.beta_g1, self.delta_g1, *self.a_g1,
                      *self.b_g1, *self.k_g1, *self.h_g1])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProvingKey":
        digest, (n_public, *_), [consts, *runs] = _unpack(
            data, PK_MAGIC, PK_VERSION, 4, "proving key", _pk_layout)
        return cls(digest, n_public, *consts, *runs)


def _pk_layout(n_public, m1, nk, nh):
    if nk != m1 - n_public - 1:  # one K point per private wire
        raise Groth16Error(f"proving key has {nk} K points for {m1} wires "
                           f"and {n_public} public inputs")
    g1 = _GROUP.g1_from_bytes
    return [(g1, 3), (g1, m1), (g1, m1), (g1, nk), (g1, nh)]


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
        return _pack(VK_MAGIC, KEY_VERSION, self.circuit_digest,
                     [len(self.ic)],
                     [self.alpha_g1, self.beta_g2, self.gamma_g2,
                      self.delta_g2, *self.ic])

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        digest, _, [[alpha_g1], g2_points, ic] = _unpack(
            data, VK_MAGIC, KEY_VERSION, 1, "verifying key",
            lambda ic_len: [(_GROUP.g1_from_bytes, 1),
                            (_GROUP.g2_from_bytes, 3),
                            (_GROUP.g1_from_bytes, ic_len)])
        return cls(digest, alpha_g1, *g2_points, ic)


class Proof:
    """(A, B, C) in G1 x G2 x G1; constant-size byte encoding."""

    __slots__ = ("a", "b", "c", "circuit_digest")

    def __init__(self, a: G1Element, b: G2Element, c: G1Element,
                 circuit_digest: bytes):
        self.a, self.b, self.c = a, b, c
        self.circuit_digest = circuit_digest

    def to_bytes(self) -> bytes:
        return _pack(PROOF_MAGIC, KEY_VERSION, self.circuit_digest, [],
                     [self.a, self.b, self.c])

    @classmethod
    def byte_length(cls) -> int:
        return 6 + 32 + 3 * _GROUP.point_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "Proof":
        digest, _, [[a], [b], [c]] = _unpack(
            data, PROOF_MAGIC, KEY_VERSION, 0, "proof",
            lambda: [(_GROUP.g1_from_bytes, 1), (_GROUP.g2_from_bytes, 1),
                     (_GROUP.g1_from_bytes, 1)])
        return cls(a, b, c, digest)


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
    has at least FORK_MIN_WIRES wires, else in-process.  A forked child
    also takes a prefix of C''s terms [K..., H...] (`_child_share`) and
    adds its partial sum into s*A + r*B1; this process sums the rest and
    delta, and hands the child the h its share needs once the quotient
    is known.  The proof is the same group elements, and so the same
    bytes, either way."""
    q = Q
    values = witness.values if hasattr(witness, "values") else list(witness)
    if len(values) != len(pk.a_g1):
        raise Groth16Error(
            f"witness length {len(values)} != key wire count {len(pk.a_g1)}")
    if qap.cs.digest() != pk.circuit_digest:
        raise Groth16Error("proving key was generated for a different circuit")
    if (pk.n_public, len(pk.h_g1)) != (qap.cs.n_public, len(qap.domain) - 1):
        raise Groth16Error("proving key's public-input or H point count "
                           "does not fit the circuit")
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    r = rng.randrange(q)
    s = rng.randrange(q)

    with _beside(pk, values, r, s, len(qap.domain)) as (share, hand_over,
                                                         witness_terms):
        h = compute_quotient(qap, witness)  # rejects unsatisfying witnesses
        hand_over(h)
        c = _GROUP.multi_scalar_mul(
            [*values[pk.n_public + 1:], *h, -r * s % q][share:],
            [*pk.k_g1, *pk.h_g1, pk.delta_g1][share:])
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


def _child_share(values, n_public: int, n: int) -> int:
    """How many terms of C''s list [K..., H...] a forked child takes: the
    shortest prefix that makes the later of the two processes' estimated
    ends earliest.

    The unit is one bucket addition.  A term with nonzero scalar v costs
    ceil(bits(v) / c), c being `_msm_window` of C''s size; a blinding
    scalar, delta's and every H term cost the full width, since h is not
    known before the quotient; the quotient, two iNTTs and an NTT-based
    product, costs QUOTIENT_TERMS * n * log2(n) full-width terms.  The
    child sums A, B1 and its K terms, then its H terms, which cannot
    start before the quotient ends: it ends at max(A + B1 + its K,
    quotient) + its H terms, and this process at quotient + the other
    terms + delta.  A pure function of the witness and n, so a prove of
    the same witness always splits alike."""
    bits = Q.bit_length()
    n_k = len(values) - n_public - 1
    c = _msm_window(n_k + n, bits)
    full = -(-bits // c)
    costs = [-(-v.bit_length() // c) for v in values]
    prefix = list(itertools.accumulate(itertools.chain(
        costs[n_public + 1:], itertools.repeat(full, n - 1)), initial=0))
    ab = 2 * (1 + sum(costs) + full)  # A and B1: [1, *values, r or s]
    quotient = QUOTIENT_TERMS * n * (n.bit_length() - 1) * full
    wait = max(0, quotient - ab - prefix[n_k])  # the child's, before H
    rest = quotient + full + prefix[-1]  # this process's end less the share

    def later(k):  # the later end when the child takes k terms
        return max(ab + prefix[k] + (wait if k > n_k else 0),
                   rest - prefix[k])
    # the child's end rises with k and this process's falls: the earliest
    # later end is at the first k where the child's end reaches this
    # process's, or at the shortest prefix that costs what k - 1 terms do
    k = bisect.bisect_left(prefix, (rest - ab) / 2, 0, n_k + 1)
    if k > n_k:
        k = bisect.bisect_left(prefix, (rest - ab - wait) / 2, n_k + 1)
    candidates = [bisect.bisect_left(prefix, prefix[k - 1])] if k else []
    if k < len(prefix):
        candidates.append(k)
    return min(candidates, key=later)


def _forks(n_wires: int) -> bool:
    """Whether `_beside` forks: the platform can, this process may run on
    more than one CPU, and the circuit is big enough to repay the fork."""
    return (n_wires >= FORK_MIN_WIRES and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


@contextlib.contextmanager
def _beside(pk: ProvingKey, values, r, s, n: int):
    """Yields (share, hand_over, witness_terms): C''s terms from `share` on
    are the caller's, `hand_over(h)` is called once the quotient h is
    known, and `witness_terms()` returns `_witness_terms(pk, values, r, s)`
    with the MSM of C''s first `share` terms added into s*A + r*B1.

    In-process the share is 0, `hand_over` does nothing and
    `witness_terms` computes the terms.  Forked, the share is
    `_child_share`'s and one child computes the terms and its share of C'
    while the caller's block runs, and writes their encodings to a pipe,
    which `witness_terms` reads.  A share that reaches into H needs h's
    first terms: this process writes them into an anonymous shared mmap
    of 8 * (n - 1) bytes, made before the fork, and signals with one byte
    on a second pipe, which the child reads after its MSMs over A, B1 and
    its K terms (a pipe for h itself would block this process, h being
    larger than a pipe's buffer).  If that pipe ends without the byte,
    the child exits with status 1 and writes nothing.  This process runs
    without the cyclic GC while the child lives and restores the caller's
    setting after; the child is killed, if it is still running, and
    reaped when the block ends, whether it returns or raises."""
    if not _forks(len(values)):
        yield 0, lambda h: None, lambda: _witness_terms(pk, values, r, s)
        return
    share = _child_share(values, pk.n_public, n)
    n_h = max(0, share - len(pk.k_g1))  # the H terms of the child's share
    pb = _GROUP.point_bytes
    size = 3 * pb
    rfd, wfd = os.pipe()
    h_ready, h_set = os.pipe() if n_h else (None, None)
    h_map = mmap.mmap(-1, 8 * (n - 1)) if n_h else None
    try:
        pid = os.fork()
    except OSError:
        for fd in (rfd, wfd, h_ready, h_set):
            if fd is not None:
                os.close(fd)
        if h_map:
            h_map.close()
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
            if n_h:
                os.close(h_set)
            *terms, blind = _witness_terms(pk, values, r, s)
            start = pk.n_public + 1
            blind += _GROUP.multi_scalar_mul(values[start:start + share],
                                             pk.k_g1[:share])
            if n_h:
                if not os.read(h_ready, 1):
                    os._exit(1)  # the prover ended before its quotient
                blind += _GROUP.multi_scalar_mul(
                    array("Q", h_map[:8 * n_h]).tolist(), pk.h_g1[:n_h])
            os.write(wfd, b"".join(map(_GROUP.g1_to_bytes, [*terms, blind])))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    if n_h:
        os.close(h_ready)

    def hand_over(h):
        if n_h:
            h_map[:8 * n_h] = array("Q", h[:n_h]).tobytes()
            os.write(h_set, b"\x01")

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

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield share, hand_over, read
    finally:
        if gc_was_enabled:
            gc.enable()
        os.close(rfd)
        if n_h:
            os.close(h_set)
        os.kill(pid, signal.SIGKILL)  # no effect once the child has exited
        os.waitpid(pid, 0)
        if n_h:
            h_map.close()


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
