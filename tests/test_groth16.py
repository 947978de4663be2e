"""Trusted setup, proving, verification: completeness, soundness smoke
checks, key/proof serialization, and ceremony determinism."""

import gc
import hashlib
import math
import os
import pathlib
import random
import signal
import struct
import time

import pytest

from hermes_seal import groth16
from hermes_seal.audit_circuit import make_audit_inputs
from hermes_seal.field import EncodingError, TEST_FIELD
from hermes_seal.groth16 import (Groth16Error, Proof, ProvingKey,
                                 VerifyingKey, prove, setup, verify)
from hermes_seal.pairing import (Q, BilinearGroup, G2Element, _add,
                                 _msm_window, _on_curve, _scalar_mul,
                                 toy_group)
from hermes_seal.protocol import VerifierState
from hermes_seal.qap import InvalidWitnessError, r1cs_to_qap
from hermes_seal.r1cs import CircuitBuilder, ConstraintSystem
from hermes_seal.rss_circuit import PUBLIC_ORDER, RssScenario, make_rss_inputs

P = TEST_FIELD.p

# SHA-256 of Proof.to_bytes() under a fixed ceremony seed and proof seed:
# a prover change that alters any proof byte fails these.
GOLDEN_CUBIC_PROOF = \
    "5e5293d47da06af8a207f0babe994dd4d5636f52364d3a9cf91cdff4b0fc364e"
GOLDEN_CUBIC_PK = \
    "f59d55a492ac98d8f0466d84487e57f0a173f70ba796e79c9d06f17be8817f62"
GOLDEN_SMALL_RSS_PROOF = \
    "27220ff490847b576ed4d9c34720645aa0ad563ea296b8370a64825d672ff484"


def _cubic_circuit():
    """x = y^3 + y with x public: the classic toy relation."""
    bld = CircuitBuilder()
    x = bld.alloc_public("x")
    y = bld.alloc_private("y")
    sq = bld.gadget_mul(y, y, "sq")
    cube = bld.gadget_mul(sq, y, "cube")
    bld.enforce(bld.lc(cube) + bld.lc(y), bld.lc(1), bld.lc(x), "bind")
    return bld.finalize(), x, y


@pytest.fixture(scope="module")
def cubic():
    cs, x, y = _cubic_circuit()
    qap = r1cs_to_qap(cs)
    pk, vk = setup(qap, seed=42)
    return cs, qap, pk, vk, x, y


def test_completeness(cubic):
    cs, qap, pk, vk, x, y = cubic
    rng = random.Random(1)
    for _ in range(20):
        yv = rng.randrange(P)
        xv = (pow(yv, 3, P) + yv) % P
        w = cs.generate_witness({x: xv, y: yv})
        proof = prove(pk, qap, w, seed=rng.getrandbits(64))
        assert verify(vk, proof, cs.public_inputs(w))


def test_one_row_evaluation_per_create(cubic, monkeypatch):
    # generate_witness evaluates the rows once; prove's quotient reuses
    # those evaluations
    cs, qap, pk, vk, x, y = cubic
    calls = []
    real = ConstraintSystem.evaluate

    def spy(self, witness):
        calls.append(self)
        return real(self, witness)
    monkeypatch.setattr(ConstraintSystem, "evaluate", spy)
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=1)
    assert calls == [cs]
    monkeypatch.undo()
    assert proof.to_bytes() == prove(pk, qap, list(w.values), seed=1).to_bytes()
    assert verify(vk, proof, cs.public_inputs(w))


def test_proofs_are_randomized(cubic):
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    p1 = prove(pk, qap, w, seed=1)
    p2 = prove(pk, qap, w, seed=2)
    assert p1.to_bytes() != p2.to_bytes()
    assert verify(vk, p1, cs.public_inputs(w))
    assert verify(vk, p2, cs.public_inputs(w))


def test_wrong_public_input_rejected(cubic):
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=7)
    assert not verify(vk, proof, [31])
    assert not verify(vk, proof, [0])
    assert not verify(vk, proof, [])          # arity mismatch
    assert not verify(vk, proof, [30, 30])


def test_mangled_proof_rejected(cubic):
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=7)
    publics = cs.public_inputs(w)
    for attr in ("a", "c"):
        bad = Proof(proof.a, proof.b, proof.c, proof.circuit_digest)
        setattr(bad, attr, getattr(proof, attr) + group.g1)
        assert not verify(vk, bad, publics)
    bad = Proof(proof.a, proof.b + group.g2, proof.c, proof.circuit_digest)
    assert not verify(vk, bad, publics)


def test_proof_serialization(cubic):
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=3)
    raw = proof.to_bytes()
    assert len(raw) == Proof.byte_length() == 95
    back = Proof.from_bytes(raw)
    assert back.to_bytes() == raw
    assert verify(vk, back, cs.public_inputs(w))
    with pytest.raises(Exception):
        Proof.from_bytes(raw[:-1])


def test_key_serialization(cubic):
    cs, qap, pk, vk, x, y = cubic
    pk2 = ProvingKey.from_bytes(pk.to_bytes())
    vk2 = VerifyingKey.from_bytes(vk.to_bytes())
    assert pk2.to_bytes() == pk.to_bytes()
    assert vk2.to_bytes() == vk.to_bytes()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk2, qap, w, seed=4)
    assert verify(vk2, proof, cs.public_inputs(w))


def test_version_1_proving_key_refused(cubic):
    # a version-1 key also held B's G2 copies; this layout has none
    cs, qap, pk, vk, x, y = cubic
    raw = bytearray(pk.to_bytes())
    assert raw[4] == 2
    raw[4] = 1
    with pytest.raises(Groth16Error, match="proving key version 1"):
        ProvingKey.from_bytes(bytes(raw))


def _recount(raw, counts, points):
    """A proving key's bytes with new header counts and point bytes."""
    return raw[:38] + struct.pack("<IIII", *counts) + points


def test_proving_key_counts_must_agree(cubic):
    # a key's K run holds one point per private wire; a count that breaks
    # this is refused when the key is decoded, not by the MSM at prove
    cs, qap, pk, vk, x, y = cubic
    raw = pk.to_bytes()
    l, m1, nk, nh = struct.unpack_from("<IIII", raw, 38)
    assert nk == m1 - l - 1
    with pytest.raises(Groth16Error, match="K points"):
        ProvingKey.from_bytes(_recount(raw, (l + 1, m1, nk, nh), raw[54:]))


def test_prove_refuses_key_counts_unlike_circuit(cubic):
    # counts that agree with each other but not with the circuit: one more
    # public and one K point fewer would prove over misaligned bases, and
    # one more H point would fail in the MSM; both are typed errors
    cs, qap, pk, vk, x, y = cubic
    raw = pk.to_bytes()
    pb = toy_group().point_bytes
    l, m1, nk, nh = struct.unpack_from("<IIII", raw, 38)
    k_at = 54 + (3 + 2 * m1) * pb
    shifted = _recount(raw, (l + 1, m1, nk - 1, nh),
                       raw[54:k_at] + raw[k_at + pb:])
    extra_h = _recount(raw, (l, m1, nk, nh + 1), raw[54:] + raw[-pb:])
    w = cs.generate_witness({x: 30, y: 3})
    for bad in (shifted, extra_h):
        key = ProvingKey.from_bytes(bad)
        with pytest.raises(Groth16Error, match="does not fit the circuit"):
            prove(key, qap, w, seed=1)


def _rss_witness(art, s_sec=1):
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=s_sec, circuit=art.circuit)
    return art.circuit.generate_witness(publics, witness)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """The prover sees two usable CPUs, so an RSS prove forks; returns the
    list that gets one entry per fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return forks


def test_prove_is_three_msms(cubic, rss_artifacts, two_cpus, monkeypatch):
    # A, B1 and C' = MSM([w_priv, h, -rs], [K, H, delta]); B in G2 is
    # psi(B1).  An RSS prove forks one child for A and B1, so this process
    # makes only C''s MSM.  Below FORK_MIN_WIRES, on one CPU or without
    # os.fork, the prove makes all three MSMs itself and does not fork.
    calls = []
    real = BilinearGroup.multi_scalar_mul

    def spy(self, scalars, points):
        calls.append(len(points))
        return real(self, scalars, points)
    monkeypatch.setattr(BilinearGroup, "multi_scalar_mul", spy)
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=1)
    assert len(w.values) < groth16.FORK_MIN_WIRES
    assert (len(calls), two_cpus) == (3, [])
    assert verify(vk, proof, cs.public_inputs(w))

    art = rss_artifacts
    full = _rss_witness(art)
    calls.clear()
    forked = prove(art.pk, art.qap, full, seed=1).to_bytes()
    # the child takes K[:481] of C'; this process sums K[481:], H and delta
    assert groth16._child_share(full.values, art.pk.n_public, 1024) == 481
    assert len(art.pk.k_g1) == 1017 and len(art.pk.h_g1) == 1023
    assert calls == [1017 - 481 + 1023 + 1]
    assert two_cpus == [os.getpid()]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls.clear()
    assert prove(art.pk, art.qap, full, seed=1).to_bytes() == forked
    assert len(calls) == 3 and len(two_cpus) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    calls.clear()
    assert prove(art.pk, art.qap, full, seed=1).to_bytes() == forked
    assert len(calls) == 3


def test_forked_and_in_process_proofs_match(rss_artifacts, two_cpus,
                                            monkeypatch):
    # A and B from a child or from this process: the same proof bytes
    art = rss_artifacts
    forked = []
    for i in range(3):
        full = _rss_witness(art, s_sec=i + 1)
        forked.append(prove(art.pk, art.qap, full, seed=100 + i).to_bytes())
        assert verify(art.vk, Proof.from_bytes(forked[-1]),
                      art.cs.public_inputs(full))
    assert len(two_cpus) == 3
    monkeypatch.setattr(groth16, "FORK_MIN_WIRES", art.cs.n_wires + 1)
    for i in range(3):
        full = _rss_witness(art, s_sec=i + 1)
        assert prove(art.pk, art.qap, full, seed=100 + i).to_bytes() == \
            forked[i]
    assert len(two_cpus) == 3
    _no_child_left()


def test_unsatisfying_witness_leaves_no_child(rss_artifacts, two_cpus):
    # the quotient rejects the witness while the child runs; the child is
    # killed and reaped
    art = rss_artifacts
    values = list(_rss_witness(art).values)
    values[-1] = (values[-1] + 1) % P
    with pytest.raises(InvalidWitnessError):
        prove(art.pk, art.qap, values, seed=1)
    assert len(two_cpus) == 1
    _no_child_left()


def _reference_share(values, n_public, n, quotient_terms):
    """`_child_share` term by term: the shortest prefix of [K..., H...]
    that makes the later of the two processes' ends earliest.  The child
    sums A, B1 and its K terms, and starts its H terms no earlier than
    the quotient's end; this process ends at the quotient, the other
    terms and delta."""
    bits = Q.bit_length()
    n_k = len(values) - n_public - 1
    c = _msm_window(n_k + n, bits)

    def cost(v):
        return math.ceil(v.bit_length() / c)
    full = math.ceil(bits / c)
    terms = [cost(v) for v in values[n_public + 1:]] + [full] * (n - 1)
    quotient = quotient_terms * n * math.log2(n) * full
    child = cost(1) * 2 + sum(cost(v) for v in values) * 2 + 2 * full
    parent = quotient + sum(terms) + full
    best, share = max(child, parent), 0
    for k, term in enumerate(terms, 1):
        if k == n_k + 1:  # the first H term waits for h
            child = max(child, quotient)
        child += term
        parent -= term
        if max(child, parent) < best:
            best, share = max(child, parent), k
    return share


@pytest.mark.parametrize("quotient_terms", [0.0, groth16.QUOTIENT_TERMS,
                                            0.55, 2.0, 1e6])
def test_child_share_rule(rss_artifacts, quotient_terms, monkeypatch):
    # a pure function of the witness and n: the same split every time, the
    # child's prefix and this process's suffix cover each C' term once, and
    # the child takes at most the n - 1 H terms; that the two sides' MSMs
    # sum to C' is the byte-identical proof tests' part
    monkeypatch.setattr(groth16, "QUOTIENT_TERMS", quotient_terms)
    art = rss_artifacts
    n, n_k = len(art.qap.domain), len(art.pk.k_g1)
    rng = random.Random(5)
    for values in (list(_rss_witness(art).values),
                   [rng.choice([0, 1, rng.randrange(P)])
                    for _ in range(art.cs.n_wires)]):
        share = groth16._child_share(values, art.pk.n_public, n)
        assert share == groth16._child_share(list(values), art.pk.n_public, n)
        assert share == _reference_share(values, art.pk.n_public, n,
                                         quotient_terms)
        terms = [("K", j) for j in range(n_k)] + [("H", k)
                                                   for k in range(n - 1)]
        assert sorted(terms[:share] + terms[share:]) == sorted(terms)
        assert 0 <= share and max(0, share - n_k) <= n - 1
    if quotient_terms == 1e6:
        # both processes start H after the quotient: they split it evenly
        assert share == n_k + n // 2


def test_child_share_waits_for_the_quotient(rss_artifacts, monkeypatch):
    # the rule never starts the child's H terms before the quotient's
    # estimated end: once the quotient outlasts the child's A, B1 and K,
    # both processes start their H terms at its end, so the child takes
    # half of them, where starting them at once would give it more
    art = rss_artifacts
    values = _rss_witness(art).values
    n, n_k = len(art.qap.domain), len(art.pk.k_g1)
    for quotient_terms in (1.0, 5.0, 1e6):
        monkeypatch.setattr(groth16, "QUOTIENT_TERMS", quotient_terms)
        n_h = groth16._child_share(values, art.pk.n_public, n) - n_k
        assert n_h == n // 2  # n - 1 H terms, and delta on this side


def test_child_share_at_audit_size(audit_fixture_artifacts):
    # at audit size and the module's QUOTIENT_TERMS the share reaches into
    # H, and the child, whose H terms start no earlier than this process's,
    # takes at most half of them
    art = audit_fixture_artifacts
    publics, witness = make_audit_inputs(
        art.challenge, art.thresholds, art.detections, nonce=bytes(16),
        s_sec=1)[:2]
    values = art.circuit.generate_witness(publics, witness).values
    n, n_k = len(art.qap.domain), len(art.pk.k_g1)
    share = groth16._child_share(values, art.pk.n_public, n)
    assert share == _reference_share(values, art.pk.n_public, n,
                                     groth16.QUOTIENT_TERMS)
    assert 0 < share - n_k <= n // 2


def _into_h(art, monkeypatch):
    """QUOTIENT_TERMS at 2 n log2(n), so the RSS child's share ends inside
    H."""
    monkeypatch.setattr(groth16, "QUOTIENT_TERMS", 2.0)
    share = groth16._child_share(_rss_witness(art).values, art.pk.n_public,
                                 len(art.qap.domain))
    assert 0 < share - len(art.pk.k_g1) < len(art.pk.h_g1)


def test_child_share_into_h_matches_in_process(rss_artifacts, two_cpus,
                                                monkeypatch):
    # the child reads h's first terms from the shared map: same bytes as
    # an in-process prove
    art = rss_artifacts
    _into_h(art, monkeypatch)
    full = _rss_witness(art, s_sec=2)
    forked = prove(art.pk, art.qap, full, seed=7).to_bytes()
    assert len(two_cpus) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert prove(art.pk, art.qap, full, seed=7).to_bytes() == forked
    assert verify(art.vk, Proof.from_bytes(forked),
                  art.cs.public_inputs(full))
    _no_child_left()


def test_unsatisfying_witness_while_child_waits_for_h(rss_artifacts, two_cpus,
                                                       monkeypatch):
    # the quotient raises only once the child is blocked reading the
    # signal for h; the child is still reaped and no proof comes out
    art = rss_artifacts
    _into_h(art, monkeypatch)
    children = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        children.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    real_quotient = groth16.compute_quotient

    def late_quotient(qap, witness):
        stat = pathlib.Path(f"/proc/{children[0]}/stat")
        deadline = time.monotonic() + 60
        while stat.read_text().rsplit(")", 1)[1].split()[0] != "S":
            assert time.monotonic() < deadline, "child never blocked"
            time.sleep(0.01)
        return real_quotient(qap, witness)
    monkeypatch.setattr(groth16, "compute_quotient", late_quotient)
    values = list(_rss_witness(art).values)
    values[-1] = (values[-1] + 1) % P
    with pytest.raises(InvalidWitnessError):
        prove(art.pk, art.qap, values, seed=1)
    assert len(two_cpus) == 1
    _no_child_left()


def test_child_sums_its_k_terms_before_h(rss_artifacts, two_cpus,
                                         monkeypatch, tmp_path):
    # the child's MSM over its K terms needs no h, so it ends while the
    # quotient is still waiting for it here; its MSM over H terms starts
    # only after the quotient has ended
    art = rss_artifacts
    _into_h(art, monkeypatch)
    log = tmp_path / "child_msms"
    parent = os.getpid()
    real_msm = BilinearGroup.multi_scalar_mul

    def logged_msm(self, scalars, points):
        start = time.monotonic()
        result = real_msm(self, scalars, points)
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{len(points)} {start} {time.monotonic()}\n")
        return result
    monkeypatch.setattr(BilinearGroup, "multi_scalar_mul", logged_msm)
    real_quotient = groth16.compute_quotient
    quotient_ends = []

    def quotient_after_k(qap, witness):
        deadline = time.monotonic() + 60
        while not log.exists() or len(log.read_text().splitlines()) < 3:
            assert time.monotonic() < deadline, "child's K MSM never ended"
            time.sleep(0.01)
        h = real_quotient(qap, witness)
        quotient_ends.append(time.monotonic())
        return h
    monkeypatch.setattr(groth16, "compute_quotient", quotient_after_k)
    full = _rss_witness(art, s_sec=3)
    n, n_k = len(art.qap.domain), len(art.pk.k_g1)
    n_h = groth16._child_share(full.values, art.pk.n_public, n) - n_k
    forked = prove(art.pk, art.qap, full, seed=11).to_bytes()
    msms = [line.split() for line in log.read_text().splitlines()]
    m1 = art.cs.n_wires
    assert [int(size) for size, _, _ in msms] == [m1 + 2, m1 + 2, n_k, n_h]
    assert float(msms[3][1]) >= quotient_ends[0]
    monkeypatch.setattr(groth16, "compute_quotient", real_quotient)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert prove(art.pk, art.qap, full, seed=11).to_bytes() == forked
    assert len(two_cpus) == 1
    _no_child_left()


@pytest.mark.parametrize("enabled", [True, False])
def test_forked_prove_pauses_gc(rss_artifacts, two_cpus, monkeypatch,
                                enabled):
    # this process's side of a forked prove runs without the cyclic GC,
    # and the caller's setting is back after a proof and after a raise
    art = rss_artifacts
    seen = []
    real_quotient = groth16.compute_quotient

    def quotient(qap, witness):
        seen.append(gc.isenabled())
        return real_quotient(qap, witness)
    monkeypatch.setattr(groth16, "compute_quotient", quotient)
    bad = list(_rss_witness(art).values)
    bad[-1] = (bad[-1] + 1) % P
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        prove(art.pk, art.qap, _rss_witness(art), seed=1)
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidWitnessError):
            prove(art.pk, art.qap, bad, seed=1)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False, False] and len(two_cpus) == 2
    _no_child_left()


@pytest.mark.parametrize("fault", ["raises", "killed", "short"])
def test_failed_child_is_groth16_error(rss_artifacts, two_cpus, monkeypatch,
                                       fault):
    # a child that raises, dies, or writes too little: a typed error in
    # this process, never a hang or a proof
    def broken(pk, values, r, s):
        if fault == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "raises":
            raise RuntimeError("child fault")
        return [pk.alpha_g1]
    monkeypatch.setattr(groth16, "_witness_terms", broken)
    art = rss_artifacts
    with pytest.raises(Groth16Error, match="prover child wrote"):
        prove(art.pk, art.qap, _rss_witness(art), seed=1)
    assert len(two_cpus) == 1
    _no_child_left()


def test_truncated_keys_raise_groth16_error(cubic):
    # the header is checked first, then the exact length its point counts
    # give, before any point is decoded: every cut is one typed error
    cs, qap, pk, vk, x, y = cubic
    proof = prove(pk, qap, cs.generate_witness({x: 30, y: 3}), seed=1)
    for raw, decode in ((vk.to_bytes(), VerifyingKey.from_bytes),
                        (pk.to_bytes(), ProvingKey.from_bytes),
                        (proof.to_bytes(), Proof.from_bytes)):
        for cut in range(len(raw)):
            with pytest.raises(Groth16Error):
                decode(raw[:cut])
        with pytest.raises(Groth16Error, match="header counts give"):
            decode(raw + b"\x00")


def test_malformed_points_raise_groth16_error(cubic):
    # right length, but a point's flag byte is 7, or its x is off the
    # curve: the group's EncodingError, re-raised as the key's or proof's
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    proof = prove(pk, qap, cs.generate_witness({x: 30, y: 3}), seed=1)
    pb = group.point_bytes
    for raw, decode, first in ((vk.to_bytes(), VerifyingKey.from_bytes, 42),
                               (pk.to_bytes(), ProvingKey.from_bytes, 54),
                               (proof.to_bytes(), Proof.from_bytes, 38)):
        flag = bytearray(raw)
        flag[first] = 7
        off_curve = bytearray(raw)
        off_curve[first + 2] ^= 1
        for bad, why in ((flag, "bad point flag byte 0x7"),
                         (off_curve, "point not on curve")):
            with pytest.raises(EncodingError, match=why):
                group.g1_from_bytes(bytes(bad[first:first + pb]))
            with pytest.raises(Groth16Error, match=why):
                decode(bytes(bad))


def test_setup_determinism(cubic):
    cs, qap, pk, vk, x, y = cubic
    pk2, vk2 = setup(qap, seed=42)
    assert pk2.to_bytes() == pk.to_bytes()
    assert vk2.to_bytes() == vk.to_bytes()
    pk3, vk3 = setup(qap, seed=43)
    assert vk3.to_bytes() != vk.to_bytes()


def test_circuit_digest_binding(cubic):
    cs, qap, pk, vk, x, y = cubic
    # a proving key for a different circuit refuses to prove this witness
    bld = CircuitBuilder()
    a = bld.alloc_public("a")
    b = bld.alloc_private("b")
    bld.gadget_mul(b, b, "bsq")
    bld.assert_equal(a, b, "a=b")
    other_cs = bld.finalize()
    other_qap = r1cs_to_qap(other_cs)
    other_pk, _ = setup(other_qap, seed=9)
    w = cs.generate_witness({x: 30, y: 3})
    with pytest.raises(Groth16Error):
        prove(other_pk, qap, w, seed=1)


def test_verify_checks_digest(cubic):
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=5)
    bad = Proof(proof.a, proof.b, proof.c, b"\x00" * 32)
    assert not verify(vk, bad, cs.public_inputs(w))


def test_golden_proof_cubic(cubic):
    cs, qap, pk, vk, x, y = cubic
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=11)
    assert hashlib.sha256(pk.to_bytes()).hexdigest() == GOLDEN_CUBIC_PK
    assert hashlib.sha256(proof.to_bytes()).hexdigest() == GOLDEN_CUBIC_PROOF


def test_golden_proof_small_rss(small_rss_artifacts):
    art = small_rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=1, circuit=art.circuit)
    w = art.circuit.generate_witness(publics, witness)
    proof = prove(art.pk, art.qap, w, seed=11)
    assert hashlib.sha256(proof.to_bytes()).hexdigest() == \
        GOLDEN_SMALL_RSS_PROOF


def test_verify_rejects_identity_and_rearranged_elements(cubic):
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=12)
    publics = cs.public_inputs(w)
    assert verify(vk, proof, publics)
    d = proof.circuit_digest
    for bad in (Proof(group.identity_g1(), proof.b, proof.c, d),
                Proof(proof.a, G2Element(None), proof.c, d),
                Proof(proof.a, proof.b, group.identity_g1(), d),
                Proof(proof.c, proof.b, proof.a, d),      # A and C swapped
                Proof(proof.a, proof.b, -proof.c, d)):
        assert not verify(vk, bad, publics)
    # e(-A, -B) = e(A, B): negating both is another valid proof
    assert verify(vk, Proof(-proof.a, -proof.b, proof.c, d), publics)


def test_verify_product_matches_pairing_equation(cubic):
    # the one-product check against e(A,B) = e(alpha,beta) e(IC,gamma) e(C,delta)
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=13)
    for publics in ([30], [31]):
        ic = group.multi_scalar_mul([1] + publics, vk.ic)
        equation = group.pair(proof.a, proof.b) == (
            vk.alpha_beta * group.pair(ic, vk.gamma_g2)
            * group.pair(proof.c, vk.delta_g2))
        assert verify(vk, proof, publics) is equation is (publics == [30])


def test_verify_requires_canonical_inputs(cubic, small_rss_artifacts):
    cs, qap, pk, vk, x, y = cubic
    q = toy_group().q
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=14)
    assert verify(vk, proof, [30])
    assert not verify(vk, proof, [30 + q])
    assert not verify(vk, proof, [30 - q])
    # the SAFE claim of an RSS proof: its alias SAFE + q is refused
    art = small_rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=1, circuit=art.circuit)
    full = art.circuit.generate_witness(publics, witness)
    rss_proof = prove(art.pk, art.qap, full, seed=15)
    inputs = art.cs.public_inputs(full)
    assert verify(art.vk, rss_proof, inputs)
    safe = PUBLIC_ORDER.index("SAFE")
    aliased = list(inputs)
    aliased[safe] += q
    assert not verify(art.vk, rss_proof, aliased)


# -- B's subgroup check from the Miller loop -----------------------------------


def _torsion_point(order):
    """The point of order 2, or a point of order 3, of E(F_p) (order 36q)."""
    group = toy_group()
    if order == 2:
        return (0, 0)
    x = 1
    while True:
        rhs = (x ** 3 + x) % group.p
        y = pow(rhs, (group.p + 1) // 4, group.p)
        if y * y % group.p == rhs:
            pt = _scalar_mul(12 * group.q, (x, y))
            if pt is not None:
                return pt
        x += 1


@pytest.mark.parametrize("order", [2, 3])
def test_verify_rejects_b_off_the_subgroup(cubic, order):
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=16)
    assert verify(vk, proof, [30])
    torsion = _torsion_point(order)
    assert _scalar_mul(order, torsion) is None
    bad_b = G2Element(_add(proof.b.point, torsion))
    assert _on_curve(bad_b.point)
    assert not verify(vk, Proof(proof.a, bad_b, proof.c, proof.circuit_digest),
                      [30])


def test_verify_rejects_off_curve_b(cubic):
    cs, qap, pk, vk, x, y = cubic
    group = toy_group()
    w = cs.generate_witness({x: 30, y: 3})
    proof = prove(pk, qap, w, seed=17)
    xb, yb = proof.b.point
    off = G2Element((xb, (yb + 1) % group.p))
    assert not _on_curve(off.point)
    assert not verify(vk, Proof(proof.a, off, proof.c, proof.circuit_digest),
                      [30])


# -- fixed-base IC tables -------------------------------------------------------


def _table_sum(vk, scalars):
    group = toy_group()
    return group.fixed_base_msm(scalars, vk.ic, vk.ic_tables())


def test_ic_tables_match_msm(small_rss_artifacts):
    vk = VerifyingKey.from_bytes(small_rss_artifacts.vk_bytes)
    group = toy_group()
    q = group.q
    n = vk.n_public
    rng = random.Random(18)
    special = [0, 1, q - 1] + [1 << k for k in range(0, 62, 3)]
    vectors = [[0] * n, [q - 1] * n]
    vectors += [[special[(i + j) % len(special)] for i in range(n)]
                for j in range(len(special))]
    vectors += [[rng.randrange(q) for _ in range(n)] for _ in range(10)]
    for inputs in vectors:
        scalars = [1] + inputs
        assert _table_sum(vk, scalars) == \
            group.multi_scalar_mul(scalars, vk.ic), inputs
    assert _table_sum(vk, [0] * (n + 1)).point is None


def test_ic_tables_with_identity_and_repeated_points():
    group = toy_group()
    P = group.scalar_mul_g1(123456789, group.g1)
    ident = group.identity_g1()
    vk = VerifyingKey(bytes(32), group.g1, group.g2, group.g2, group.g2,
                      [P, ident, P, -P, ident, group.g1])
    q = group.q
    for scalars in ([1, 5, 7, 9, 11, 13], [1, 0, 1, 1, 0, 0],
                    [3, q - 1, 3, 3, 2, 0], [0, 1, 0, 0, 1, 0],
                    [q - 1, 2, 1, 0, 7, q - 1]):
        assert _table_sum(vk, scalars) == \
            group.multi_scalar_mul(scalars, vk.ic), scalars


def test_ic_tables_built_once_per_key(small_rss_artifacts, monkeypatch):
    builds = []
    real = BilinearGroup.fixed_base_tables

    def spy(self, points, window):
        builds.append(len(points))
        return real(self, points, window)
    monkeypatch.setattr(BilinearGroup, "fixed_base_tables", spy)
    art = small_rss_artifacts
    vk = VerifyingKey.from_bytes(art.vk_bytes)
    assert builds == []              # decoding a key builds no tables
    first = VerifierState(b"")
    first.register_circuit(art.r1cs_bytes, vk)
    assert builds == [len(vk.ic)]
    tables = vk.ic_tables()
    VerifierState(b"").register_circuit(art.r1cs_bytes, vk)
    first.register_circuit(art.r1cs_bytes, vk)
    assert vk.ic_tables() is tables
    assert builds == [len(vk.ic)]
