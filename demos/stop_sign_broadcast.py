"""End-to-end walkthrough: an ego vehicle proves that an occluded stop sign
makes its current situation unsafe, broadcasts the sealed claim, and a
receiving vehicle verifies it without learning the raw sensor data.

Run:  python3 demos/stop_sign_broadcast.py
"""

import random
import time

from hermes_seal.field import FieldElement, TEST_FIELD
from hermes_seal.groth16 import setup
from hermes_seal.protocol import (EnrollmentAuthority, ProofPackage,
                                  RSS_SIGN_DOMAIN, VerifierState,
                                  create_package, schnorr_keygen)
from hermes_seal.qap import r1cs_to_qap
from hermes_seal.rss_circuit import (RssScenario, build_rss_circuit,
                                     make_rss_inputs)


def main():
    rng = random.Random(2024)

    print("== one-time ceremony ==")
    t0 = time.perf_counter()
    circuit = build_rss_circuit()
    qap = r1cs_to_qap(circuit.cs)
    pk, vk = setup(qap, seed=2024)
    print(f"circuit: {circuit.cs.n_constraints} constraints, "
          f"{circuit.cs.n_public} public inputs "
          f"({time.perf_counter() - t0:.1f} s)")

    print("\n== enrollment ==")
    ea = EnrollmentAuthority(rng)
    keypair = schnorr_keygen(rng)
    cert = ea.issue(7, keypair.pk_bytes(), valid_from=0, valid_to=1 << 40)
    print("vehicle 7 enrolled with the authority")

    print("\n== the driving moment ==")
    # 30 mph toward a stop sign the receiver cannot see, 30 m away,
    # detector confidence 0.80
    scenario = RssScenario(speed_mps=13.41, distance_m=30.0,
                           probability=0.80, timestamp=1000)
    publics, witness, nonce = make_rss_inputs(scenario, circuit=circuit)
    print(f"safe distance (cm): {publics.d_S}, current: {publics.d_S_current}"
          f" -> SAFE={publics.SAFE}")

    print("\n== prove + package ==")
    t0 = time.perf_counter()
    full_witness = circuit.generate_witness(publics, witness)
    pkg = create_package(pk, qap, full_witness,
                         FieldElement(publics.c, TEST_FIELD), keypair, cert,
                         vk.to_bytes(), circuit.cs.to_bytes(),
                         timestamp=1000, sign_domain=RSS_SIGN_DOMAIN,
                         nonce=nonce)
    raw = pkg.to_bytes()
    print(f"package: {len(raw)} bytes on the wire "
          f"({time.perf_counter() - t0:.2f} s); the raw detection, position "
          f"and speed never leave the vehicle")

    print("\n== receive + verify ==")
    verifier = VerifierState(ea.root_pk_bytes, freshness_window=5)
    verifier.register_circuit(circuit.cs.to_bytes(), vk)
    received = ProofPackage.from_bytes(raw)
    ok, reason = verifier.verify_package(received, now=1001)
    print(f"first delivery:  accepted={ok} ({reason})")

    ok, reason = verifier.verify_package(received, now=1002)
    print(f"replayed copy:   accepted={ok} ({reason})")

    received.public_inputs[-1] ^= 1  # claim the opposite verdict
    fresh = VerifierState(ea.root_pk_bytes, freshness_window=5)
    fresh.register_circuit(circuit.cs.to_bytes(), vk)
    ok, reason = fresh.verify_package(received, now=1001)
    print(f"flipped verdict: accepted={ok} ({reason})")


if __name__ == "__main__":
    main()
