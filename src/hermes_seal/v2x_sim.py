"""Deterministic discrete-event simulation of the vehicle-to-verifier
broadcast protocol under packet loss, latency jitter, and active adversaries.

Logical time is integer milliseconds.  A single seeded RNG drives every
random choice in a fixed order, so identical scenarios produce
byte-identical reports.  The broadcast bus delivers each (message,
verifier) pair at most once, in timestamp order, with bounded jitter and an
independent drop probability per delivery.

Adversary types:
    replay           re-deliver an observed package unchanged
    stale-timestamp  re-deliver an observed package after the freshness
                     window has passed
    cross-context    rewrite the package's signing context (RSS <-> audit)
    tamper           flip one package field per delivery, cycling through
                     every field
    re-envelope      the prover re-signs its own package, once stale, under a
                     fresh timestamp, nonce and commitment

Every delivery is one event (time, seq, verifier, package bytes, attack),
with `attack` None for a genuine one, and one loop decodes, verifies and
counts them all.  An adversarial reject must name a stage the attack
expects; an acceptance that violates protocol guarantees counts as an
attack success (the report's `attack_successes` must be zero).  A replayed
package arriving at a verifier that never saw the original is *expected*
to be accepted -- nonce stores are per-verifier -- and is not a success.

The simulator drives the library APIs directly (no subprocesses).
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import random

from .field import FieldElement, NONCE_BYTES, TEST_FIELD
from .groth16 import setup
from .protocol import (AUDIT_SIGN_DOMAIN, EnrollmentAuthority, ProofPackage,
                       RSS_SIGN_DOMAIN, VerifierState, assemble_payload,
                       create_package, schnorr_keygen, schnorr_sign)
from .qap import r1cs_to_qap
from .rss_circuit import RssScenario, build_rss_circuit, make_rss_inputs

__all__ = [
    "SimScenario",
    "SimReport",
    "make_scenario",
    "run_scenario",
    "SimArtifacts",
    "default_artifacts",
    "TEMPLATES",
    "ADVERSARY_TYPES",
]

ADVERSARY_TYPES = ("replay", "stale-timestamp", "cross-context", "tamper",
                   "re-envelope")

TAMPER_FIELDS = ["proof", "publics", "alias", "commit", "sig", "vk_sig",
                 "cert", "r1cs_hash", "ts", "nonce", "ctx"]

# which verifier reject reasons are protocol-correct for each attack; any
# acceptance outside these expectations is an attack success
_EXPECTED_REASONS = {
    "replay": {"replay"},
    "stale-timestamp": {"freshness"},
    "cross-context": {"signature"},
    "re-envelope": {"binding"},
    "tamper:proof": {"signature"},
    # a publics-only tamper keeps the signature valid, so at a verifier that
    # already accepted the original the nonce check fires first ("replay");
    # "proof" fires when the original never arrived there
    "tamper:publics": {"proof", "replay"},
    "tamper:alias": {"proof", "replay"},    # SAFE + q: same value mod q
    "tamper:commit": {"signature"},
    "tamper:sig": {"signature"},
    "tamper:vk_sig": {"certificate"},
    "tamper:cert": {"certificate"},
    "tamper:r1cs_hash": {"unknown_circuit", "signature"},
    "tamper:ts": {"signature", "freshness"},
    "tamper:nonce": {"signature"},
    "tamper:ctx": {"signature"},
}


@dataclasses.dataclass
class SimScenario:
    """One reproducible simulation run."""
    template: str = "occluded-stop-sign"
    seed: int = 0
    n_provers: int = 1
    n_verifiers: int = 1
    n_broadcasts: int = 1          # per prover
    drop_prob: float = 0.0
    latency_min: int = 5           # ms
    latency_max: int = 50          # ms
    broadcast_period: int = 1000   # ms between a prover's broadcasts
    freshness_window: int = 5000   # ms
    adversaries: tuple = ()
    local_map_update: bool = False  # accepted claims update a toy local map

    def __post_init__(self):
        if self.latency_min > self.latency_max:
            raise ValueError("latency bounds are inverted")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be within [0, 1]")
        if self.latency_max >= self.freshness_window:
            raise ValueError("latency may not exceed the freshness window")
        for adv in self.adversaries:
            if adv not in ADVERSARY_TYPES:
                raise ValueError(f"unknown adversary type {adv!r}")
        self.adversaries = tuple(self.adversaries)


TEMPLATES = {
    # single ego vehicle warns one verifier about an occluded stop sign;
    # the accepted claim flips the verifier's toy local-map flag
    "occluded-stop-sign": dict(n_provers=1, n_verifiers=1, n_broadcasts=1,
                               drop_prob=0.0, adversaries=(),
                               local_map_update=True),
    # one honest prover, several verifiers, an adversary replaying every
    # observed package to everyone
    "replay-storm": dict(n_provers=1, n_verifiers=3, n_broadcasts=4,
                         drop_prob=0.25, adversaries=("replay",)),
    # several provers and verifiers with every adversary type active
    "mixed-fleet": dict(n_provers=2, n_verifiers=3, n_broadcasts=3,
                        drop_prob=0.1,
                        adversaries=ADVERSARY_TYPES),
}


def make_scenario(template: str, **overrides) -> SimScenario:
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}; "
                         f"choose from {sorted(TEMPLATES)}")
    kwargs = dict(TEMPLATES[template])
    kwargs.update(overrides)
    return SimScenario(template=template, **kwargs)


# -- shared proving artifacts --------------------------------------------------


class SimArtifacts:
    """Reduced RSS circuit, keys, and QAP shared across simulation runs (the
    circuit and ceremony are scenario-independent, so building them once is
    sound)."""

    def __init__(self):
        self.circuit = build_rss_circuit(include_commitment=False)
        cs = self.circuit.cs
        self.qap = r1cs_to_qap(cs)
        self.pk, self.vk = setup(self.qap, seed=2024)
        self.r1cs_bytes = cs.to_bytes()
        self.vk_bytes = self.vk.to_bytes()


@functools.lru_cache(maxsize=1)
def default_artifacts() -> SimArtifacts:
    return SimArtifacts()


# -- report --------------------------------------------------------------------


@dataclasses.dataclass
class SimReport:
    template: str
    seed: int
    broadcasts: int = 0
    genuine_attempted: int = 0     # (message, verifier) delivery attempts
    adversarial_attempted: int = 0
    delivered: int = 0
    dropped: int = 0
    accepts: int = 0
    rejects: dict = dataclasses.field(default_factory=dict)
    attack_attempts: int = 0
    attack_successes: int = 0
    unexpected_reasons: int = 0    # adversarial rejects with wrong reason
    map_updates: int = 0

    @property
    def total_rejects(self) -> int:
        return sum(self.rejects.values())

    def conserved(self) -> bool:
        """accepts + rejects + drops == attempted deliveries (none lost)."""
        attempted = self.genuine_attempted + self.adversarial_attempted
        return (self.accepts + self.total_rejects + self.dropped == attempted
                and self.delivered == self.accepts + self.total_rejects)

    def to_text(self) -> str:
        lines = [
            f"template {self.template}",
            f"seed {self.seed}",
            f"broadcasts {self.broadcasts}",
            f"genuine-attempted {self.genuine_attempted}",
            f"adversarial-attempted {self.adversarial_attempted}",
            f"delivered {self.delivered}",
            f"dropped {self.dropped}",
            f"accepts {self.accepts}",
            f"rejects {self.total_rejects}",
        ]
        for reason in sorted(self.rejects):
            lines.append(f"reject[{reason}] {self.rejects[reason]}")
        lines += [
            f"attack-attempts {self.attack_attempts}",
            f"attack-successes {self.attack_successes}",
            f"unexpected-reasons {self.unexpected_reasons}",
            f"map-updates {self.map_updates}",
            f"conserved {self.conserved()}",
        ]
        return "\n".join(lines) + "\n"


# -- package mutations (adversary toolbox) ------------------------------------


def _mutate_package(raw: bytes, what: str) -> bytes:
    """Return the package `raw` with exactly one field altered."""
    p = ProofPackage.from_bytes(raw)

    def flip(data: bytes, at: int) -> bytes:
        return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]

    if what == "proof":
        p.proof_bytes = flip(p.proof_bytes, 8)
    elif what == "publics":
        # flip the claimed outcome bit (last public input)
        p.public_inputs[-1] ^= 1
    elif what == "alias":
        p.public_inputs[-1] += TEST_FIELD.p
    elif what == "commit":
        p.commitment = FieldElement(p.commitment.value + 1, TEST_FIELD)
    elif what == "sig":
        p.signature = flip(p.signature, 0)
    elif what == "vk_sig":
        p.vk_sig_bytes = flip(p.vk_sig_bytes, 1)
    elif what == "cert":
        p.cert_bytes = flip(p.cert_bytes, 0)        # vehicle ID
    elif what == "r1cs_hash":
        p.r1cs_hash = flip(p.r1cs_hash, 0)
    elif what == "ts":
        p.timestamp += 1
    elif what == "nonce":
        p.nonce = flip(p.nonce, 0)
    elif what == "ctx":
        p.sign_domain = (AUDIT_SIGN_DOMAIN if p.sign_domain == RSS_SIGN_DOMAIN
                         else RSS_SIGN_DOMAIN)
    else:
        raise ValueError(f"unknown tamper field {what!r}")
    return p.to_bytes()


# -- the event loop ------------------------------------------------------------


def run_scenario(scenario: SimScenario) -> SimReport:
    """Run one scenario over the shared `default_artifacts()`: schedule
    every delivery as one event, then drain them all through one path."""
    art = default_artifacts()
    rng = random.Random(scenario.seed)
    report = SimReport(scenario.template, scenario.seed)

    # enrollment: one authority, one keypair + certificate per prover
    ea = EnrollmentAuthority(rng)
    provers = []
    for vid in range(1, scenario.n_provers + 1):
        kp = schnorr_keygen(rng)
        cert = ea.issue(vid, kp.pk_bytes(), 0, 1 << 40)
        provers.append((kp, cert))

    verifiers = []
    for _ in range(scenario.n_verifiers):
        vs = VerifierState(ea.root_pk_bytes,
                           freshness_window=scenario.freshness_window)
        vs.register_circuit(art.r1cs_bytes, art.vk)
        verifiers.append(vs)

    # every push precedes the first pop, so the heap's size is the
    # insertion counter that breaks ties between equal times
    events = []   # heap of (time, seq, verifier, package bytes, attack)

    def push(t, v, raw, attack=None):
        if attack is not None:
            report.adversarial_attempted += 1
        heapq.heappush(events, (t, len(events), v, raw, attack))

    # the honest broadcast schedule (packages proven up front, in a fixed
    # order, so RNG consumption stays deterministic)
    driving = RssScenario()
    broadcasts = []   # (time, package bytes, prover keypair)
    for k in range(scenario.n_broadcasts):
        t = (k + 1) * scenario.broadcast_period
        for kp, cert in provers:
            driving.timestamp = t
            publics, witness, nonce = make_rss_inputs(
                driving, nonce=rng.randbytes(NONCE_BYTES),
                s_sec=rng.randrange(TEST_FIELD.p), circuit=art.circuit)
            full = art.circuit.generate_witness(publics, witness)
            pkg = create_package(
                art.pk, art.qap, full, FieldElement(publics.c, TEST_FIELD),
                kp, cert, art.vk_bytes, art.r1cs_bytes, t, RSS_SIGN_DOMAIN,
                nonce=nonce, proof_seed=rng.getrandbits(64))
            raw = pkg.to_bytes()
            broadcasts.append((t, raw, kp))
            report.broadcasts += 1
            for v in range(scenario.n_verifiers):
                report.genuine_attempted += 1
                if rng.random() < scenario.drop_prob:
                    report.dropped += 1
                    continue
                push(t + rng.randint(scenario.latency_min,
                                     scenario.latency_max), v, raw)

    # adversaries observe every on-air broadcast and schedule injections
    tamper_fields = itertools.cycle(TAMPER_FIELDS)
    for adv in scenario.adversaries:
        for t, raw, kp in broadcasts:
            if adv == "replay":
                for v in range(scenario.n_verifiers):
                    push(t + scenario.latency_max + 1, v, raw, adv)
                continue
            v = rng.randrange(scenario.n_verifiers)
            if adv == "stale-timestamp":
                push(t + scenario.freshness_window + 10, v, raw, adv)
            elif adv == "cross-context":
                push(t + scenario.latency_max + 2, v,
                     _mutate_package(raw, "ctx"), adv)
            elif adv == "tamper":
                what = next(tamper_fields)
                push(t + scenario.latency_max + 3, v,
                     _mutate_package(raw, what), f"tamper:{what}")
            else:   # re-envelope
                pkg = ProofPackage.from_bytes(raw)
                pkg.timestamp = t + scenario.freshness_window + 10
                pkg.nonce = rng.randbytes(NONCE_BYTES)
                pkg.commitment = FieldElement(rng.randrange(TEST_FIELD.p),
                                              TEST_FIELD)
                pkg.signature = schnorr_sign(kp, assemble_payload(
                    pkg.sign_domain, art.r1cs_bytes, art.vk_bytes,
                    pkg.cert_bytes, pkg.proof_bytes, pkg.commitment,
                    pkg.timestamp, pkg.nonce))
                push(pkg.timestamp, v, pkg.to_bytes(), adv)

    # drain the bus in (time, insertion) order
    seen_nonces = [set() for _ in verifiers]
    local_maps = [set() for _ in verifiers]   # object IDs on each map
    while events:
        now, _, v, raw, attack = heapq.heappop(events)
        pkg = ProofPackage.from_bytes(raw)
        accepted, reason = verifiers[v].verify_package(pkg, now=now)
        report.delivered += 1
        report.attack_attempts += attack is not None
        if not accepted:
            report.rejects[reason] = report.rejects.get(reason, 0) + 1
            if attack is not None and reason not in _EXPECTED_REASONS[attack]:
                report.unexpected_reasons += 1
            continue
        report.accepts += 1
        # a replay at a verifier that never saw the original is benign
        if attack is not None and (attack != "replay"
                                   or pkg.nonce in seen_nonces[v]):
            report.attack_successes += 1
            continue
        seen_nonces[v].add(pkg.nonce)
        if scenario.local_map_update:
            obj_id = pkg.public_inputs[1]
            report.map_updates += obj_id not in local_maps[v]
            local_maps[v].add(obj_id)
    return report
