"""The three seeded, single-client, closed-loop workloads.

Each workload builds its program state in `setup()` (the part `setup_s`
times), then runs ops `0, 1, 2, ...` on a lane.  A lane holds the mutable
verifier state, so a traced and an untraced lane can run the same op
sequence side by side.  The inputs of op `i` depend only on the seed and
`i`.  Every library call the benchmark times is returned as a `Call` with
its outcome and the outcome the protocol requires.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time

from hermes_seal import audit_circuit, groth16, protocol, qap, rss_circuit
from hermes_seal.field import NONCE_BYTES, TEST_FIELD, FieldElement

FIELD = TEST_FIELD
FRESHNESS_MS = 5000        # logical clocks run in milliseconds, as in v2x_sim
LATENCY_MS = (5, 50)       # bus delay of a genuine delivery

# stage at which the verifier must reject each one-field tamper; tampers
# arrive before the genuine copy, so the nonce is still unseen
TAMPER_STAGE = {
    "proof": "signature", "publics": "proof", "commit": "signature",
    "sig": "signature", "vk_sig": "certificate", "cert": "certificate",
    "r1cs_hash": "unknown_circuit", "ts": "signature", "nonce": "signature",
    "ctx": "signature",
}

# ROADMAP item 1: the protocol requires a reject for each of these; what
# this code base is known to do instead.  They are not part of the timed
# trace (a workload's ops must not fail); RoadsideVerify.defect_probe
# delivers them once per run and the run prints what happened.
KNOWN_DEFECTS = {
    "alias": "accept",
    "truncated": "exception:struct.error",
    "short-cert": "exception:struct.error",
    "re-envelope": "accept",
}


@dataclasses.dataclass
class Call:
    kind: str            # "create" or "verify"
    label: str           # delivery kind, e.g. "genuine", "tamper:ts"
    start: float         # perf_counter when the call began
    seconds: float
    outcome: str         # "created", "accept", "reject:<stage>", "exception:<type>"
    ok: bool             # outcome is what the protocol requires


def op_rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def deliver(state, raw: bytes, now: int):
    """from_bytes + verify_package, timed; (outcome, package, start, seconds)."""
    pkg = None
    t0 = time.perf_counter()
    try:
        pkg = protocol.ProofPackage.from_bytes(raw, FIELD)
        accepted, reason = state.verify_package(pkg, now)
    except protocol.ProtocolError:
        outcome = "reject:malformed"
    except Exception as exc:  # a crash is a measured outcome, not a stop
        outcome = f"exception:{type(exc).__module__}.{type(exc).__qualname__}"
    else:
        outcome = "accept" if accepted else "reject:" + reason
    return outcome, pkg, t0, time.perf_counter() - t0


def verify_call(label, outcome, start, seconds, expected):
    """Call for a delivery whose required outcome is `expected`."""
    return Call("verify", label, start, seconds, outcome, outcome == expected)


class Keys:
    """A circuit's QAP, Groth16 keys (after a bytes round trip) and the
    encodings a package names."""

    def __init__(self, circuit, ceremony_seed: int, recorder):
        cs = circuit.cs
        self.circuit = circuit
        self.qap = qap.r1cs_to_qap(
            cs, qap.EvaluationDomain.for_size(cs.n_constraints, cs.field))
        with recorder.op("setup"):
            pk, vk = groth16.setup(self.qap, seed=ceremony_seed)
        pk_bytes = pk.to_bytes()
        self.pk = groth16.ProvingKey.from_bytes(pk_bytes)
        self.pk_digest = hashlib.sha256(pk_bytes).digest()
        self.vk_bytes = vk.to_bytes()
        self.vk = groth16.VerifyingKey.from_bytes(self.vk_bytes)
        self.r1cs_bytes = cs.to_bytes()

    def context(self):
        cs = self.circuit.cs
        return {"r1cs.constraints": cs.n_constraints,
                "r1cs.wires": cs.n_wires,
                "qap.domain_size": len(self.qap.domain)}


class Workload:
    name = ""
    window = 1      # ops whose layer counts must repeat exactly per seed
    stride = 1      # the loop stops only after a multiple of this many ops
    n_verifiers = 1

    def __init__(self, seed: int, recorder):
        self.seed = seed
        self.recorder = recorder
        self.setup_calls = []

    def _enroll(self, rng, n_vehicles):
        self.ea = protocol.EnrollmentAuthority(rng)
        self.vehicles = []
        for vid in range(1, n_vehicles + 1):
            kp = protocol.schnorr_keygen(rng)
            self.vehicles.append((kp, self.ea.issue(vid, kp.pk_bytes(), 0,
                                                    1 << 40)))

    def new_verifier(self):
        state = protocol.VerifierState(self.ea.root_pk_bytes,
                                       freshness_window=FRESHNESS_MS)
        state.register_circuit(self.keys.r1cs_bytes, self.keys.vk)
        return state

    def new_lane(self):
        return {"states": [self.new_verifier()
                           for _ in range(self.n_verifiers)]}

    def nonce_store_size(self, lane) -> int:
        # VerifierState exposes no size for its replay cache
        return max(len(state._nonces) for state in lane["states"])

    def _create(self, build_inputs, vehicle, ts, sign_domain, rng, recorder):
        """inputs -> witness -> create_package -> bytes, timed as one call."""
        kp, cert = vehicle
        nonce = rng.randbytes(NONCE_BYTES)
        s_sec = rng.randrange(FIELD.p)
        proof_seed = rng.getrandbits(64)
        keys = self.keys
        with recorder.op("create"):
            t0 = time.perf_counter()
            publics, witness = build_inputs(nonce, s_sec)
            full = keys.circuit.generate_witness(publics, witness)
            pkg = protocol.create_package(
                keys.pk, keys.qap, full, FieldElement(publics.c, FIELD), kp,
                cert, keys.vk_bytes, keys.r1cs_bytes, ts, sign_domain,
                nonce=nonce, proof_seed=proof_seed)
            raw = pkg.to_bytes(FIELD)
            seconds = time.perf_counter() - t0
        return raw, Call("create", "genuine", t0, seconds, "created", True)

    def _deliver_claim(self, lane, raw, ts, claim_index, claim, recorder):
        """At each verifier the genuine copy must be accepted with the
        native claim, and a duplicate of it rejected as a replay."""
        calls = []
        for state in lane["states"]:
            with recorder.op("verify"):
                outcome, pkg, start, seconds = deliver(state, raw, ts + 20)
            calls.append(Call("verify", "genuine", start, seconds, outcome,
                              outcome == "accept"
                              and pkg.public_inputs[claim_index] == claim))
            with recorder.op("verify"):
                outcome, _, start, seconds = deliver(state, raw, ts + 40)
            calls.append(verify_call("replay", outcome, start, seconds,
                                     "reject:replay"))
        return calls


class RssBroadcast(Workload):
    """One vehicle proves a safety claim per scenario; one verifier checks it."""

    name = "rss-broadcast"
    window = 4

    def setup(self):
        rng = op_rng(self.name, self.seed, "setup")
        circuit = rss_circuit.build_rss_circuit()
        self.keys = Keys(circuit, rng.getrandbits(64), self.recorder)
        self._enroll(rng, 1)

    def run(self, lane, i, recorder):
        rng = op_rng(self.name, self.seed, i)
        ts = 1000 + 100 * i
        raw, claim, create = rss_create(self, self.vehicles[0], ts, rng,
                                        recorder)
        calls = self._deliver_claim(lane, raw, ts,
                                    rss_circuit.PUBLIC_ORDER.index("SAFE"),
                                    claim, recorder)
        return [create] + calls, raw


def rss_create(workload, vehicle, ts, rng, recorder):
    """One RSS package for a drawn scenario; the claim is the native SAFE."""
    scenario = rss_circuit.RssScenario(
        speed_mps=rng.uniform(5.0, 30.0), distance_m=rng.uniform(5.0, 90.0),
        probability=rng.uniform(0.5, 1.0), timestamp=ts)
    circuit = workload.keys.circuit
    native = {}

    def build_inputs(nonce, s_sec):
        publics, witness, _ = rss_circuit.make_rss_inputs(
            scenario, nonce=nonce, s_sec=s_sec, circuit=circuit, field=FIELD)
        # below threshold the object counts as not detected, which the
        # circuit treats as vacuously safe (see rss_circuit's docstring)
        native["safe"] = 1 if witness.Pr < circuit.theta else \
            rss_circuit.evaluate_predicate(witness.Pr, circuit.theta,
                                           publics.d_S_current, publics.d_S)
        return publics, witness

    raw, call = workload._create(build_inputs, vehicle, ts,
                                 protocol.RSS_SIGN_DOMAIN, rng, recorder)
    return raw, native["safe"], call


class AuditChallenge(Workload):
    """One vendor proves precision/recall on the fixture challenge for a
    seeded detection set; the regulator and five observers verify it (six
    verifiers give the short verify timings enough samples per run)."""

    name = "audit-challenge"
    window = 1
    n_verifiers = 6

    def setup(self):
        rng = op_rng(self.name, self.seed, "setup")
        self.challenge = audit_circuit.fixture_challenge()
        self.thresholds = audit_circuit.AuditThresholds()
        circuit = audit_circuit.build_audit_circuit(self.challenge,
                                                    self.thresholds)
        self.keys = Keys(circuit, rng.getrandbits(64), self.recorder)
        self._enroll(rng, 1)

    def detections(self, rng, aim_pass: bool):
        """Per image: jittered hits on some ground truths, maybe a phantom.
        Even ops aim at PASS (every critical object found), odd ops at FAIL
        (one image misses its critical object); the native report decides."""
        miss_image = -1 if aim_pass else rng.randrange(self.challenge.n_images)
        per_image = []
        for i, gts in enumerate(self.challenge.images):
            dets = []
            for g in gts:
                hit = (rng.random() < 0.8 if not g.critical
                       else i != miss_image)
                if hit:
                    dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
                    x1, y1, x2, y2 = g.box
                    dets.append(audit_circuit.Detection(
                        (x1 + dx, y1 + dy, x2 + dx, y2 + dy), g.class_id,
                        rng.randint(51, 100)))
            if len(dets) < self.challenge.m_max and rng.random() < 0.3:
                x = rng.randint(1000, 3000)
                dets.append(audit_circuit.Detection(
                    (x, x, x + 80, x + 80), rng.randint(1, 4),
                    rng.randint(51, 100)))
            per_image.append(dets)
        return per_image

    def run(self, lane, i, recorder):
        rng = op_rng(self.name, self.seed, i)
        ts = 1000 + 10_000 * i
        dets = self.detections(rng, aim_pass=i % 2 == 0)
        report = {}

        def build_inputs(nonce, s_sec):
            publics, witness, _, native = audit_circuit.make_audit_inputs(
                self.challenge, self.thresholds, dets, timestamp=ts,
                nonce=nonce, s_sec=s_sec, field=FIELD)
            report.update(native)
            return publics, witness

        raw, create = self._create(build_inputs, self.vehicles[0], ts,
                                   protocol.AUDIT_SIGN_DOMAIN, rng, recorder)
        calls = self._deliver_claim(
            lane, raw, ts, audit_circuit.AUDIT_PUBLIC_ORDER.index("PASS"),
            report["PASS"], recorder)
        return [create] + calls, raw


class RoadsideVerify(Workload):
    """One roadside unit with several verifier states drains a seeded bus
    trace of genuine, replayed, stale, rewritten and tampered packages.
    No proving happens in the timed phase."""

    name = "roadside-verify"
    n_vehicles = 3
    n_verifiers = 3
    n_pool = 9

    def setup(self):
        rng = op_rng(self.name, self.seed, "setup")
        circuit = rss_circuit.build_rss_circuit()
        self.keys = Keys(circuit, rng.getrandbits(64), self.recorder)
        self._enroll(rng, self.n_vehicles)
        self.pool = []
        for j in range(self.n_pool):
            ts = 1000 * (j + 1)
            vehicle = self.vehicles[j % self.n_vehicles]
            raw, _, call = rss_create(self, vehicle, ts, rng, self.recorder)
            self.pool.append((ts, vehicle, raw))
            self.setup_calls.append(call)
        self.trace = self._bus_trace(op_rng(self.name, self.seed, "trace"))
        self.window = self.stride = len(self.trace)

    def _bus_trace(self, rng):
        """One cycle of deliveries (now, verifier, bytes, label, expected),
        in arrival order."""
        events = []

        def push(now, v, raw, label, expected):
            events.append((now, len(events), v, raw, label, expected))

        fields = list(TAMPER_STAGE)
        for j, (ts, vehicle, raw) in enumerate(self.pool):
            for v in range(self.n_verifiers):
                push(ts + rng.randint(*LATENCY_MS), v, raw, "genuine",
                     "accept")
            push(ts + LATENCY_MS[1] + 1, rng.randrange(self.n_verifiers), raw,
                 "replay", "reject:replay")
            push(ts + FRESHNESS_MS + 10, rng.randrange(self.n_verifiers), raw,
                 "stale", "reject:freshness")
            push(ts + LATENCY_MS[1] + 2, rng.randrange(self.n_verifiers),
                 _rewrite(raw, "ctx"), "cross-context", "reject:signature")
        for k, what in enumerate(fields):
            ts, _, raw = self.pool[k % self.n_pool]
            push(ts + 2, rng.randrange(self.n_verifiers), _rewrite(raw, what),
                 "tamper:" + what, "reject:" + TAMPER_STAGE[what])
        events.sort(key=lambda e: e[:2])
        return [e[:1] + e[2:] for e in events]

    def defect_probe(self):
        """Deliver each KNOWN_DEFECTS case once, untimed, to a fresh
        verifier; returns [(label, outcome)].  The protocol requires a
        reject for every one."""
        rng = op_rng(self.name, self.seed, "defects")
        ts0, vehicle0, raw0 = self.pool[0]
        fresh_ts = self.pool[-1][0] + 2 * FRESHNESS_MS
        cases = [
            ("alias", _rewrite(raw0, "alias"), ts0 + 3),
            ("truncated", raw0[:len(raw0) // 2], ts0 + 4),
            ("short-cert", _rewrite(raw0, "short-cert"), ts0 + 4),
            ("re-envelope", self._re_envelope(raw0, vehicle0, fresh_ts, rng),
             fresh_ts + 10),
        ]
        return [(label, deliver(self.new_verifier(), raw, now)[0])
                for label, raw, now in cases]

    def _re_envelope(self, raw, vehicle, ts, rng):
        """The sender re-signs its old proof under a fresh envelope."""
        kp, _ = vehicle
        pkg = protocol.ProofPackage.from_bytes(raw, FIELD)
        pkg.timestamp = ts
        pkg.nonce = rng.randbytes(NONCE_BYTES)
        pkg.commitment = FieldElement(rng.randrange(FIELD.p), FIELD)
        message = protocol.assemble_payload(
            pkg.sign_domain, self.keys.r1cs_bytes, self.keys.vk_bytes,
            pkg.cert_bytes, pkg.proof_bytes, pkg.commitment, pkg.timestamp,
            pkg.nonce)
        pkg.signature = protocol.schnorr_sign(kp, message)
        return pkg.to_bytes(FIELD)

    def run(self, lane, i, recorder):
        if i % len(self.trace) == 0:    # a new cycle starts with empty caches
            lane["states"] = [self.new_verifier()
                              for _ in range(self.n_verifiers)]
        now, v, raw, label, expected = self.trace[i % len(self.trace)]
        with recorder.op("verify"):
            outcome, _, start, seconds = deliver(lane["states"][v], raw, now)
        return [verify_call(label, outcome, start, seconds, expected)], outcome


def _rewrite(raw: bytes, what: str) -> bytes:
    """Package bytes with one section altered.  Like v2x_sim's tamper
    helper, but kept here so the benchmark's inputs stay fixed when the
    library changes."""
    p = protocol.ProofPackage.from_bytes(raw, FIELD)

    def flip(data, at):
        b = bytearray(data)
        b[at] ^= 0x01
        return bytes(b)

    if what == "proof":
        p.proof_bytes = flip(p.proof_bytes, 8)
    elif what == "publics":
        p.public_inputs[-1] ^= 1                     # the claimed outcome
    elif what == "alias":
        p.public_inputs[-1] += FIELD.p               # same value mod q
    elif what == "commit":
        p.commitment = FieldElement(p.commitment.value + 1, FIELD)
    elif what == "sig":
        p.signature = flip(p.signature, 0)
    elif what == "vk_sig":
        p.vk_sig_bytes = flip(p.vk_sig_bytes, 1)
    elif what == "cert":
        p.cert_bytes = flip(p.cert_bytes, 0)         # vehicle ID
    elif what == "short-cert":
        p.cert_bytes = p.cert_bytes[:2]
    elif what == "r1cs_hash":
        p.r1cs_hash = flip(p.r1cs_hash, 0)
    elif what == "ts":
        p.timestamp += 1
    elif what == "nonce":
        p.nonce = flip(p.nonce, 0)
    elif what == "ctx":
        p.sign_domain = protocol.AUDIT_SIGN_DOMAIN
    else:
        raise ValueError(f"unknown rewrite {what!r}")
    return p.to_bytes(FIELD)


WORKLOADS = {w.name: w for w in (RssBroadcast, RoadsideVerify, AuditChallenge)}
