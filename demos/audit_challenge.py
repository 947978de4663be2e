"""Regulator audit walkthrough: a vendor proves its detector's precision and
recall on a secret challenge set without revealing per-image detections.

Run:  python3 demos/audit_challenge.py
"""

import time

from hermes_seal.audit_circuit import (AuditThresholds, build_audit_circuit,
                                       fixture_challenge, fixture_detections,
                                       make_audit_inputs)
from hermes_seal.groth16 import prove, setup, verify
from hermes_seal.qap import r1cs_to_qap


def main():
    challenge = fixture_challenge()
    thresholds = AuditThresholds()
    detections = fixture_detections()

    print("== challenge ==")
    n_gt = sum(len(g) for g in challenge.images)
    n_crit = sum(g.critical for img in challenge.images for g in img)
    print(f"{challenge.n_images} images, {n_gt} ground truths "
          f"({n_crit} critical), {sum(len(d) for d in detections)} "
          f"detections submitted")

    print("\n== circuit + ceremony ==")
    t0 = time.perf_counter()
    circuit = build_audit_circuit(challenge, thresholds)
    qap = r1cs_to_qap(circuit.cs)
    pk, vk = setup(qap, seed=7)
    print(f"{circuit.cs.n_constraints} constraints "
          f"({time.perf_counter() - t0:.1f} s)")

    print("\n== native evaluation (vendor side) ==")
    publics, witness, _, report = make_audit_inputs(
        challenge, thresholds, detections)
    for i, row in enumerate(report["per_image"]):
        print(f"image {i}: {row}")
    print(f"TP={report['TP']}, TP_crit={report['TP_crit']}, "
          f"PASS={report['PASS']}  (one critical object was missed)")

    print("\n== prove + verify (regulator side) ==")
    t0 = time.perf_counter()
    w = circuit.generate_witness(publics, witness)
    proof = prove(pk, qap, w)
    elapsed = time.perf_counter() - t0
    ok = verify(vk, proof, circuit.cs.public_inputs(w))
    print(f"proof: {len(proof.to_bytes())} bytes, generated in "
          f"{elapsed:.1f} s, verifies={ok}")
    print("the regulator learns only the PASS/FAIL verdict, never the "
          "detections themselves")


if __name__ == "__main__":
    main()
