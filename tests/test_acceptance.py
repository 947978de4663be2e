"""Acceptance suite: one test per release criterion, each emitting a single
PASS/FAIL summary line, echoed in the terminal summary and written to
acceptance_report.txt by a session that runs every criterion.

Stated runtime targets are *reported* in the summary lines, not asserted:
they describe reference hardware, and this suite must stay meaningful on
slower machines.  Correctness claims (accept/reject counts, exact values)
are always asserted.
"""

import math
import pathlib
import random
from time import perf_counter

import pytest

from hermes_seal.audit_circuit import (AuditThresholds, ChallengeSet,
                                       Detection, GroundTruth,
                                       build_audit_circuit, make_audit_inputs)
from hermes_seal.cli import main as cli_main
from hermes_seal.commitment import sponge_hash
from hermes_seal.field import TEST_FIELD, scale, unscale
from hermes_seal.groth16 import Groth16Error, Proof, prove, verify
from hermes_seal.protocol import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN,
                                  RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN)
from hermes_seal.r1cs import UnsatisfiableError
from hermes_seal.rss_circuit import (RssParams, RssPublicInputs, RssScenario,
                                     RssWitness, build_rss_circuit,
                                     evaluate_predicate, make_rss_inputs,
                                     rss_safe_distance)
from hermes_seal.v2x_sim import TEMPLATES, default_artifacts, make_scenario, \
    run_scenario

from commitment_games import game_binding, game_collision, game_hiding

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "acceptance_report.txt"


_LINES = []  # this session's criterion lines, in the order reported


@pytest.fixture(scope="session")
def _fresh_report(acceptance_lines):
    """When the session ends, hand this session's lines to the terminal
    summary, and rewrite the report only if every criterion of this
    module reported: a partial run leaves the committed report as it
    is."""
    yield
    acceptance_lines.extend(_LINES)
    criteria = [name for name in globals()
                if name.startswith("test_criterion_")]
    if len({line.split()[1] for line in _LINES}) == len(criteria):
        REPORT_PATH.write_text("".join(f"{line}\n" for line in _LINES))


pytestmark = pytest.mark.usefixtures("_fresh_report")


def _report(number, name, ok, detail):
    line = f"criterion {number:02d} {name}: " \
           f"{'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line)
    assert ok, line


# -- 1: input scaling round-trip ------------------------------------------------


def test_criterion_01_scaling_roundtrip():
    rng = random.Random(20240824)
    t0 = perf_counter()
    worked = scale(0.75, 100) == 75 and unscale(scale(0.75, 100),
                                                100) == 0.75
    worst_rel = 0.0
    ok = worked
    for _ in range(100_000):
        rho = 10 ** rng.randrange(0, 7)
        x = rng.uniform(-1e6, 1e6)
        err = abs(unscale(scale(x, rho), rho) - x)
        ok = ok and err < 1.0 / rho
        worst_rel = max(worst_rel, err * rho)
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "input scaling round-trip", ok,
            f"100000 samples, worst error {worst_rel:.6f}/rho, "
            f"{elapsed:.2f} s (< 1 s required)")


# -- 2: safe-distance reference values ------------------------------------------


def test_criterion_02_safe_distance_values():
    params = RssParams(v=13.41, t_rec=1.0, mu=0.75, g=9.81)
    reaction = params.v * params.t_rec
    braking = params.v ** 2 / (2 * params.mu * params.g)
    total = rss_safe_distance(params)
    ok = (abs(reaction - 13.41) <= 0.01 and abs(braking - 12.22) <= 0.01
          and abs(total - 25.63) <= 0.05)
    _report(2, "safe-distance reference values", ok,
            f"reaction {reaction:.2f} m, braking {braking:.2f} m, "
            f"total {total:.2f} m")


# -- 3: prover completeness ------------------------------------------------------


def _random_scenario(rng):
    x1, y1 = rng.randrange(0, 1000), rng.randrange(0, 1000)
    return RssScenario(
        speed_mps=rng.uniform(0.5, 40.0),
        distance_m=rng.uniform(0.0, 500.0),
        probability=rng.uniform(0.0, 1.0),
        yaw=rng.uniform(-3.14, 3.14),
        bbox=(x1, y1, x1 + rng.randrange(1, 500), y1 + rng.randrange(1, 500)),
        timestamp=rng.randrange(1 << 30),
    )


def test_criterion_03_completeness(rss_artifacts):
    art = rss_artifacts
    rng = random.Random(3)
    n = 1000
    accepted = 0
    t0 = perf_counter()
    for i in range(n):
        publics, witness, _ = make_rss_inputs(
            _random_scenario(rng), nonce=rng.randbytes(16),
            s_sec=rng.randrange(TEST_FIELD.p), circuit=art.circuit)
        w = art.circuit.generate_witness(publics, witness)
        proof = prove(art.pk, art.qap, w, seed=rng.getrandbits(64))
        if verify(art.vk, proof, art.cs.public_inputs(w)):
            accepted += 1
    elapsed = perf_counter() - t0
    _report(3, "prover completeness", accepted == n,
            f"{accepted}/{n} randomized satisfiable instances accepted; "
            f"{elapsed:.0f} s total, target < 60 s "
            f"({'met' if elapsed < 60 else 'not met on this hardware'})")


# -- 4: soundness under tampering ------------------------------------------------


def test_criterion_04_soundness_smoke(small_rss_artifacts):
    art = small_rss_artifacts
    rng = random.Random(4)
    pool = []
    for i in range(8):
        publics, witness, _ = make_rss_inputs(
            _random_scenario(rng), nonce=rng.randbytes(16),
            s_sec=rng.randrange(TEST_FIELD.p), circuit=art.circuit)
        w = art.circuit.generate_witness(publics, witness)
        proof = prove(art.pk, art.qap, w, seed=rng.getrandbits(64))
        pub = art.cs.public_inputs(w)
        assert verify(art.vk, proof, pub)
        pool.append((proof, pub))
    n = 1200
    false_accepts = 0
    t0 = perf_counter()
    for trial in range(n):
        proof, pub = pool[trial % len(pool)]
        mode = trial % 3
        try:
            if mode == 0:
                # flip one random bit of the serialized proof
                raw = bytearray(proof.to_bytes())
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                mutated = Proof.from_bytes(bytes(raw))
                accepted = verify(art.vk, mutated, pub)
            elif mode == 1:
                # perturb one public input
                bad = list(pub)
                k = rng.randrange(len(bad))
                bad[k] = (bad[k] + rng.randrange(1, TEST_FIELD.p)) \
                    % TEST_FIELD.p
                accepted = verify(art.vk, proof, bad)
            else:
                # splice a proof onto a different instance's public inputs
                other = pool[(trial + 1) % len(pool)][1]
                assert other != pub  # nonces differ, so publics differ
                accepted = verify(art.vk, proof, other)
        except (Groth16Error, ValueError):
            # malformed serialization (bad length, off-curve point) is a
            # rejection at the parsing stage
            accepted = False
        false_accepts += accepted
    elapsed = perf_counter() - t0
    _report(4, "soundness under tampering", false_accepts == 0,
            f"{false_accepts}/{n} tampered instances accepted; "
            f"{elapsed:.0f} s total, target < 60 s "
            f"({'met' if elapsed < 60 else 'not met on this hardware'})")


# -- 5: constant proof size ------------------------------------------------------


def test_criterion_05_constant_proof_size(rss_artifacts,
                                          audit_fixture_artifacts):
    rng = random.Random(5)
    r_art = rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=rng.randbytes(16),
                                          s_sec=7, circuit=r_art.circuit)
    rss_proof = prove(r_art.pk, r_art.qap,
                      r_art.circuit.generate_witness(publics, witness),
                      seed=1)
    a_art = audit_fixture_artifacts
    a_pub, a_wit, _, _ = make_audit_inputs(
        a_art.challenge, a_art.thresholds, a_art.detections, s_sec=9,
        nonce=rng.randbytes(16))
    audit_proof = prove(a_art.pk, a_art.qap,
                        a_art.circuit.generate_witness(a_pub, a_wit), seed=2)
    n_rss, n_audit = r_art.cs.n_constraints, a_art.cs.n_constraints
    sizes = (len(rss_proof.to_bytes()), len(audit_proof.to_bytes()))
    ok = sizes == (95, 95) and Proof.byte_length() == 95 \
        and n_rss == 1024 and n_audit == 32768
    _report(5, "constant proof size", ok,
            f"{sizes[0]} bytes at {n_rss} constraints vs {sizes[1]} bytes "
            f"at {n_audit} constraints")


# -- 6: audit reproduction -------------------------------------------------------


def test_criterion_06_audit_reproduction(audit_fixture_artifacts):
    art = audit_fixture_artifacts
    t0 = perf_counter()
    publics, witness, _, report = make_audit_inputs(
        art.challenge, art.thresholds, art.detections, s_sec=11,
        nonce=bytes(16))
    counts = (art.challenge.n_images,
              sum(len(g) for g in art.challenge.images),
              sum(g.critical for img in art.challenge.images for g in img),
              sum(len(d) for d in art.detections))
    w = art.circuit.generate_witness(publics, witness)
    proof = prove(art.pk, art.qap, w, seed=6)
    verified = verify(art.vk, proof, art.cs.public_inputs(w))
    elapsed = perf_counter() - t0
    ok = (counts == (5, 20, 5, 16) and report["TP"] == 15
          and report["TP_crit"] == 4 and report["PASS"] == 0 and verified)
    _report(6, "audit reproduction", ok,
            f"5 images / 20 truths / 5 critical / 16 detections -> "
            f"TP={report['TP']}, TP_crit={report['TP_crit']}, "
            f"PASS={report['PASS']}, proof verified={verified}; "
            f"{elapsed:.0f} s, target < 120 s "
            f"({'met' if elapsed < 120 else 'not met on this hardware'})")


# -- 7: circuit/native equivalence at reduced widths -----------------------------


def test_criterion_07_exhaustive_equivalence():
    t0 = perf_counter()
    # safety predicate: 6-bit comparators, threshold 0.75 * 8 = 6
    circuit = build_rss_circuit(theta=0.75, rho_prob=8, prob_bits=6,
                                dist_bits=6, include_commitment=False)
    theta = circuit.theta
    witness = RssWitness(Pr=0, b=(0, 0, 1, 1), phi_V=0, lambda_V=0, v=0,
                         psi=0, s_sec=0)
    publics = RssPublicInputs(
        delta_commit=RSS_COMMIT_DOMAIN, ID=11, d_S=0, d_S_current=0,
        phi_S=0, lambda_S=0, rho_prob=8, rho_geo=1, rho_psi=1, T=0, nu=0)
    mismatches = flips_caught = flips_tried = combos = 0
    for pr in range(64):
        witness.Pr = pr
        for d_s in range(64):
            publics.d_S = d_s
            for d_cur in range(64):
                combos += 1
                publics.d_S_current = d_cur
                expected = 1 if (pr < theta or d_cur >= d_s) else 0
                publics.SAFE = expected
                w = circuit.generate_witness(publics, witness)
                if circuit.cs.public_inputs(w)[-1] != expected:
                    mismatches += 1
                # above threshold the circuit must equal the native rule
                if pr >= theta and expected != evaluate_predicate(
                        pr, theta, d_cur, d_s):
                    mismatches += 1
                if combos % 1009 == 0:
                    flips_tried += 1
                    publics.SAFE = expected ^ 1
                    try:
                        circuit.generate_witness(publics, witness)
                    except UnsatisfiableError:
                        flips_caught += 1
    # audit predicate: 3 images, 4 slots, randomized instances
    rng = random.Random(7)
    images = []
    for i in range(3):
        gts = []
        for k in range(rng.randrange(1, 4)):
            x, y = 40 * k, 60 * i
            gts.append(GroundTruth((x, y, x + 30, y + 30),
                                   rng.randrange(1, 3), rng.randrange(2)))
        images.append(gts)
    challenge = ChallengeSet(images, m_max=4, rho_prob=100, rho_bbox=100)
    thresholds = AuditThresholds()
    audit = build_audit_circuit(challenge, thresholds)
    audit_trials = 300
    audit_mismatches = audit_flips_caught = audit_flips_tried = 0
    for trial in range(audit_trials):
        per_image = []
        for gts in images:
            dets = []
            for g in gts:
                if rng.random() < 0.6:
                    dx = rng.randrange(0, 8)
                    dets.append(Detection(
                        (g.box[0] + dx, g.box[1], g.box[2] + dx, g.box[3]),
                        g.class_id if rng.random() < 0.8
                        else 3 - g.class_id, rng.randrange(20, 101)))
            if rng.random() < 0.3 and len(dets) < challenge.m_max:
                dets.append(Detection((500, 500, 540, 540), 1,
                                      rng.randrange(20, 101)))
            per_image.append(dets[:challenge.m_max])
        a_pub, a_wit, _, rep = make_audit_inputs(
            challenge, thresholds, per_image,
            s_sec=rng.randrange(TEST_FIELD.p), nonce=bytes(16))
        w = audit.generate_witness(a_pub, a_wit)
        if audit.cs.public_inputs(w)[-1] != rep["PASS"]:
            audit_mismatches += 1
        if trial % 25 == 0:
            audit_flips_tried += 1
            a_pub.PASS ^= 1
            try:
                audit.generate_witness(a_pub, a_wit)
            except UnsatisfiableError:
                audit_flips_caught += 1
    elapsed = perf_counter() - t0
    ok = (mismatches == 0 and flips_caught == flips_tried
          and audit_mismatches == 0
          and audit_flips_caught == audit_flips_tried)
    _report(7, "circuit/native equivalence at reduced widths", ok,
            f"safety: {combos} exhaustive combos, {mismatches} mismatches, "
            f"{flips_caught}/{flips_tried} flipped verdicts rejected; "
            f"audit: {audit_trials} instances, {audit_mismatches} "
            f"mismatches, {audit_flips_caught}/{audit_flips_tried} flips "
            f"rejected; {elapsed:.0f} s, target < 600 s "
            f"({'met' if elapsed < 600 else 'not met on this hardware'})")


# -- 8: protocol defenses in simulation ------------------------------------------


def test_criterion_08_protocol_defenses():
    default_artifacts()     # key setup is not part of the timed runs
    t0 = perf_counter()
    runs = attacks = successes = unexpected = not_conserved = 0
    for template in sorted(TEMPLATES):
        for seed in range(50):
            report = run_scenario(make_scenario(template, seed=seed))
            runs += 1
            attacks += report.attack_attempts
            successes += report.attack_successes
            unexpected += report.unexpected_reasons
            not_conserved += not report.conserved()
    elapsed = perf_counter() - t0
    ok = successes == 0 and unexpected == 0 and not_conserved == 0
    _report(8, "protocol defenses", ok,
            f"{runs} seeded runs across {len(TEMPLATES)} templates, "
            f"{attacks} attack deliveries, {successes} false accepts, "
            f"{unexpected} wrong-stage rejections, "
            f"{not_conserved} accounting violations; {elapsed:.0f} s")


# -- 9: domain separation --------------------------------------------------------


def test_criterion_09_domain_separators():
    values = (RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN, AUDIT_COMMIT_DOMAIN,
              AUDIT_SIGN_DOMAIN)
    ok = values == (65536, 131072, 16842752, 16908288)
    _report(9, "domain separation constants", ok,
            "commit/sign separators " + ", ".join(map(str, values)))


# -- 10: commitment security games ------------------------------------------------


def test_criterion_10_commitment_games():
    t0 = perf_counter()
    rng = random.Random(10)
    binding = game_binding(1 << 20, rng)
    hiding_n = 10_000
    advantage = game_hiding(hiding_n, rng)
    sigma3 = 3 * 0.5 / math.sqrt(hiding_n)
    truncated = game_collision(1000, rng, truncate_bits=16)
    trunc_ok = truncated is not None
    if trunc_ok:
        a, b = truncated
        mask = (1 << 16) - 1
        trunc_ok = (a != b and sponge_hash(list(a)) & mask
                    == sponge_hash(list(b)) & mask)
    elapsed = perf_counter() - t0
    ok = binding is None and advantage <= sigma3 and trunc_ok
    _report(10, "commitment security games", ok,
            f"binding: 0 equivocations in 2^20 attempts; hiding advantage "
            f"{advantage:.4f} (3-sigma bound {sigma3:.4f}); 16-bit "
            f"truncation collides within 1000 attempts: {trunc_ok}; "
            f"{elapsed:.0f} s")


# -- 11: benchmark reporting ------------------------------------------------------


def test_criterion_11_benchmark(tmp_path, capfd):
    out = tmp_path / "bench.csv"
    code = cli_main(["bench", "--runs", "100", "--seed", "0",
                     "--out", str(out)])
    capfd.readouterr()
    lines = out.read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    shares = {r[0]: float(r[2]) for r in rows}
    means = {r[0]: float(r[1]) for r in rows}
    total = sum(shares.values())
    ok = (code == 0 and lines[0] == "stage,mean-ms,share-percent"
          and list(shares) == ["witness generation", "proof generation",
                               "proof verification"]
          and abs(total - 100.0) <= 0.5)
    detail = "; ".join(f"{k} {means[k]:.1f} ms ({shares[k]:.1f}%)"
                       for k in shares)
    _report(11, "pipeline benchmark", ok,
            f"100 runs; {detail}; shares sum {total:.2f}%")
