"""Hermes' Seal: a zero-knowledge proof toolkit for verifiable,
privacy-preserving perception exchange between vehicles and roadside
verifiers.

Layering (each module depends only on those before it):
    field       prime fields, fixed-point scaling, domain separators
    pairing     toy supersingular pairing group, MSM
    r1cs        constraint systems, circuit builder, gadgets, descriptors
    qap         radix-2 evaluation domain, inverse NTT, R1CS -> QAP quotient
    groth16     trusted setup, prover, verifier
    commitment  algebraic sponge hash, commitments
    rss_circuit safe-stopping-distance case study
    audit_circuit  detection-audit case study
    protocol    signatures, certificates, package byte format, verifier state
    cli         command-line front end
    v2x_sim     deterministic broadcast simulation harness
"""

from .field import (FieldElement, PrimeModulus, EncodingError, TEST_FIELD,
                    STANDARD_FIELD, NONCE_BYTES, scale, unscale)
from .pairing import BilinearGroup, G1Element, G2Element, GtElement, toy_group
from .r1cs import (CircuitBuilder, ConstraintSystem, LinearCombination,
                   MissingInputError, R1csError, UnsatisfiableError, Wire,
                   Witness)
from .qap import (EvaluationDomain, InvalidWitnessError, QapInstance,
                  compute_quotient, r1cs_to_qap)
from .groth16 import (Groth16Error, Proof, ProvingKey, VerifyingKey, prove,
                      setup, verify)
from .commitment import (byte_hash, commit, open_commitment, sponge_gadget,
                         sponge_hash, verify_commitment)
from .protocol import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN, Certificate,
                       EnrollmentAuthority, ProofPackage, ProtocolError,
                       RSS_COMMIT_DOMAIN, RSS_SIGN_DOMAIN, SignatureKeypair,
                       VerifierState, audit_open, create_package,
                       schnorr_keygen, schnorr_sign, schnorr_verify)
from .rss_circuit import (RssCircuit, RssParams, RssPublicInputs, RssScenario,
                          RssWitness, build_rss_circuit, evaluate_predicate,
                          make_rss_inputs, parse_scenario, format_scenario,
                          rss_safe_distance)
from .audit_circuit import (AuditCircuit, AuditPublicInputs, AuditThresholds,
                            AuditWitness, ChallengeSet, Detection,
                            GroundTruth, build_audit_circuit, greedy_match,
                            make_audit_inputs, parse_challenge_text,
                            parse_detections)

__version__ = "0.1.0"
