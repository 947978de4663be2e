"""Command-line front end: key ceremonies, proving, verifying, auditing,
benchmarks, and golden vectors.

Exit codes: 0 = success / package accepted, 1 = verification reject,
2 = usage or input error.  All subcommands are deterministic under --seed
(byte-identical artifacts) except for the measured timings in `bench`.

On-disk layout produced by `setup --out-dir D --circuit NAME`:
    D/NAME.meta        build parameters (key = value lines)
    D/NAME.challenge   canonical challenge text (audit only)
    D/NAME.r1cs        constraint system encoding
    D/NAME.pk          proving key
    D/NAME.vk          verifying key

A verifier state directory (created by `provision`) holds:
    ea_root.pk         enrollment authority root public key
    registry/H.r1cs,H.vk   registered circuits, H = hex R1CS hash
    nonces.txt         persisted replay cache ("nu timestamp" lines, nu the
                       nonce as a field element; older "nonce-hex timestamp"
                       lines are read as nonce_to_field(nonce))
The state directory for `verify` may also be supplied via the
HERMES_SEAL_STATE_DIR environment variable.  `verify` prints one PASS/FAIL
line per stage: context, then the stages of `protocol.REJECT_STAGES` in
order, up to the first that fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from .commitment import sponge_hash
from .field import (FieldElement, NONCE_BYTES, STANDARD_FIELD, TEST_FIELD,
                    nonce_to_field)
from .groth16 import ProvingKey, VerifyingKey, prove, setup, verify
from .protocol import (CIRCUITS, REJECT_STAGES, Certificate,
                       EnrollmentAuthority, ProofPackage, SignatureKeypair,
                       VerifierState, audit_open, create_package,
                       schnorr_keygen, section_bytes, toy_group)
from .qap import r1cs_to_qap
from .r1cs import R1csError, UnsatisfiableError
from .rss_circuit import RssScenario, build_rss_circuit, make_rss_inputs

__all__ = ["main", "cmd_setup", "cmd_prove", "cmd_verify", "cmd_audit_open",
           "cmd_bench", "cmd_vectors", "cmd_provision", "STATE_DIR_ENV"]

STATE_DIR_ENV = "HERMES_SEAL_STATE_DIR"


class CliError(Exception):
    """Input/usage error; converted to exit code 2 by main()."""


def _read(path: str, mode: str = "rb"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, data, mode: str = "wb"):
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _parse_meta(text: str) -> dict:
    meta = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def _build_circuit_from_dir(circuit_dir: str, name: str):
    """Rebuild the circuit named by D/NAME.meta and cross-check the stored
    R1CS encoding; returns (descriptor, circuit, r1cs_bytes)."""
    def read(suffix, mode="r"):
        return _read(os.path.join(circuit_dir, name + suffix), mode)
    meta = _parse_meta(read(".meta"))
    desc = CIRCUITS.get(meta.get("circuit"))
    if desc is None:
        raise CliError(f"unknown circuit kind {meta.get('circuit')!r} in "
                       f"{name}.meta")
    circuit = desc.load(meta, read)
    r1cs_bytes = read(".r1cs", "rb")
    if circuit.cs.to_bytes() != r1cs_bytes:
        raise CliError(f"{name}.r1cs does not match the parameters in "
                       f"{name}.meta; circuit files are inconsistent")
    return desc, circuit, r1cs_bytes


# -- setup ---------------------------------------------------------------------


def cmd_setup(args) -> int:
    desc = CIRCUITS[args.circuit]
    meta, files = desc.params(args, lambda path: _read(path, "r"))
    circuit = desc.load(meta, lambda suffix: files[suffix])

    os.makedirs(args.out_dir, exist_ok=True)
    cs = circuit.cs
    r1cs_bytes = cs.to_bytes()
    qap = r1cs_to_qap(cs)
    pk, vk = setup(qap, seed=args.seed)

    base = os.path.join(args.out_dir, args.circuit)
    _write(base + ".meta", "".join(
        f"{k} = {v}\n" for k, v in {"circuit": desc.name, **meta}.items()),
        "w")
    for suffix, text in files.items():
        _write(base + suffix, text, "w")
    _write(base + ".r1cs", r1cs_bytes)
    _write(base + ".pk", pk.to_bytes())
    _write(base + ".vk", vk.to_bytes())

    print(f"circuit {args.circuit}")
    print(f"constraints {cs.n_constraints}")
    print(f"wires {cs.n_wires}")
    print(f"public-inputs {cs.n_public}")
    print(f"r1cs-digest {hashlib.sha256(r1cs_bytes).hexdigest()}")
    for ext in (".r1cs", ".pk", ".vk"):
        print(f"wrote {base}{ext}")
    return 0


# -- prove ---------------------------------------------------------------------


def _load_identity(identity_dir: str):
    group = toy_group()
    sk = int.from_bytes(_read(os.path.join(identity_dir, "vehicle.sk")),
                        "little")
    keypair = SignatureKeypair(sk, group.scalar_mul_g1(sk, group.g1))
    cert = Certificate.from_bytes(
        _read(os.path.join(identity_dir, "vehicle.cert")))
    return keypair, cert


def cmd_prove(args) -> int:
    desc, circuit, r1cs_bytes = _build_circuit_from_dir(args.circuit_dir,
                                                        args.circuit)
    rng = random.Random(args.seed) if args.seed is not None else None
    nonce = rng.randbytes(NONCE_BYTES) if rng else None
    s_sec = rng.randrange(TEST_FIELD.p) if rng else None
    proof_seed = rng.getrandbits(64) if rng else None
    input_path = getattr(args, desc.input_option)
    if input_path is None:
        raise CliError(f"--{desc.input_option} is required for the "
                       f"{desc.name} circuit")
    publics, witness, nonce = desc.inputs(circuit, _read(input_path, "r"),
                                          args.now, nonce, s_sec)

    try:
        full_witness = circuit.generate_witness(publics, witness)
    except UnsatisfiableError as exc:
        print(f"error: witness does not satisfy the circuit: {exc}",
              file=sys.stderr)
        return 2
    except R1csError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pk_bytes = _read(os.path.join(args.circuit_dir, f"{args.circuit}.pk"))
    try:
        pk = ProvingKey.from_bytes(pk_bytes)
    except Exception as exc:
        raise CliError(f"proving key unreadable or corrupted: {exc}") from exc
    if pk.circuit_digest != circuit.cs.digest():
        raise CliError("proving key does not match the circuit "
                       "(digest mismatch); refusing to prove")
    vk_bytes = _read(os.path.join(args.circuit_dir, f"{args.circuit}.vk"))
    keypair, cert = _load_identity(args.identity_dir)
    if not cert.valid_from <= args.now <= cert.valid_to:
        raise CliError(f"certificate is valid from {cert.valid_from} to "
                       f"{cert.valid_to}, not at --now {args.now}")

    qap = r1cs_to_qap(circuit.cs)
    package = create_package(
        pk, qap, full_witness, FieldElement(publics.c, TEST_FIELD), keypair,
        cert, vk_bytes, r1cs_bytes, args.now, desc.sign_domain, nonce=nonce,
        proof_seed=proof_seed)
    package_bytes = package.to_bytes(TEST_FIELD)
    _write(args.out, package_bytes)
    if args.opening_out is not None:
        opening = {**desc.opening(publics, witness),
                   "c_index": desc.public_order.index("c")}
        _write(args.opening_out, json.dumps(opening, indent=1) + "\n", "w")
        print(f"wrote opening {args.opening_out}")
    print(f"{desc.outcome} {getattr(publics, desc.outcome)}")
    print(f"wrote package {args.out} ({len(package_bytes)} bytes)")
    return 0


# -- verify --------------------------------------------------------------------


def _load_state(state_dir: str) -> VerifierState:
    state = VerifierState(_read(os.path.join(state_dir, "ea_root.pk")))
    reg_dir = os.path.join(state_dir, "registry")
    if os.path.isdir(reg_dir):
        for fname in sorted(os.listdir(reg_dir)):
            if not fname.endswith(".r1cs"):
                continue
            r1cs_bytes = _read(os.path.join(reg_dir, fname))
            vk_bytes = _read(os.path.join(reg_dir, fname[:-5] + ".vk"))
            state.register_circuit(r1cs_bytes, VerifyingKey.from_bytes(vk_bytes))
    nonce_path = os.path.join(state_dir, "nonces.txt")
    if os.path.exists(nonce_path):
        for line in _read(nonce_path, "r").splitlines():
            if line.strip():
                key, ts = line.split()
                nu = (nonce_to_field(bytes.fromhex(key))
                      if len(key) == 2 * NONCE_BYTES else int(key))
                state._nonces[nu] = max(int(ts), state._nonces.get(nu, 0))
    return state


def _save_nonces(state_dir: str, state: VerifierState):
    lines = [f"{nu} {ts}" for nu, ts in sorted(state._nonces.items())]
    _write(os.path.join(state_dir, "nonces.txt"),
           "\n".join(lines) + ("\n" if lines else ""), "w")


def cmd_verify(args) -> int:
    state_dir = args.state_dir or os.environ.get(STATE_DIR_ENV)
    if not state_dir:
        raise CliError("no state directory: pass --state-dir or set "
                       f"{STATE_DIR_ENV}")
    if not os.path.isdir(state_dir):
        raise CliError(f"state directory {state_dir} does not exist")
    package = ProofPackage.from_bytes(_read(args.package))
    vk = VerifyingKey.from_bytes(_read(args.vk))
    if vk.circuit_digest != package.r1cs_hash:
        print("context FAIL context-mismatch")
        print("reject")
        return 1
    print("context PASS")
    state = _load_state(state_dir)
    accepted, reason = state.verify_package(package, now=args.now)
    failed = None if accepted else REJECT_STAGES[reason]
    for stage, printed in REJECT_STAGES.values():
        if (stage, printed) == failed:
            print(f"{stage} FAIL {printed}")
            print("reject")
            return 1
        print(f"{stage} PASS")
    _save_nonces(state_dir, state)
    print("accept")
    return 0


# -- audit-open ----------------------------------------------------------------


def cmd_audit_open(args) -> int:
    package = ProofPackage.from_bytes(_read(args.package))
    try:
        opening = json.loads(_read(args.opening, "r"))
        c_index = int(opening["c_index"])
        checked = {"domain_sep": int(opening["domain_sep"]),
                   "payload": [int(x) for x in opening["payload"]],
                   "blinder": int(opening["blinder"])}
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"malformed opening file: {exc}") from exc
    if not 0 <= c_index < len(package.public_inputs):
        raise CliError("malformed opening file: c_index out of range")
    if audit_open(package, checked, c_index):
        print("opening valid")
        return 0
    print("opening invalid")
    return 1


# -- bench ---------------------------------------------------------------------

BENCH_STAGES = ["witness generation", "proof generation", "proof verification"]


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise CliError(f"--runs must be at least 1, not {args.runs}")
    rng = random.Random(args.seed if args.seed is not None else 0)
    circuit = build_rss_circuit()
    qap = r1cs_to_qap(circuit.cs)
    pk, vk = setup(qap, seed=rng.getrandbits(64))
    scenario = RssScenario()
    totals = dict.fromkeys(BENCH_STAGES, 0.0)
    for _ in range(args.runs):
        nonce = rng.randbytes(NONCE_BYTES)
        s_sec = rng.randrange(TEST_FIELD.p)
        t0 = time.perf_counter()
        publics, witness, _ = make_rss_inputs(scenario, nonce=nonce,
                                              s_sec=s_sec, circuit=circuit)
        full = circuit.generate_witness(publics, witness)
        t1 = time.perf_counter()
        proof = prove(pk, qap, full, seed=rng.getrandbits(64))
        t2 = time.perf_counter()
        ok = verify(vk, proof, circuit.cs.public_inputs(full))
        t3 = time.perf_counter()
        if not ok:
            raise CliError("benchmark proof unexpectedly rejected")
        totals["witness generation"] += t1 - t0
        totals["proof generation"] += t2 - t1
        totals["proof verification"] += t3 - t2
    grand = sum(totals.values())
    lines = ["stage,mean-ms,share-percent"]
    for stage in BENCH_STAGES:
        mean_ms = totals[stage] / args.runs * 1000.0
        share = totals[stage] / grand * 100.0
        lines.append(f"{stage},{mean_ms:.3f},{share:.2f}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, csv_text, "w")
    sys.stdout.write(csv_text)
    return 0


# -- vectors -------------------------------------------------------------------


def cmd_vectors(args) -> int:
    lines = ["golden-vectors v1"]
    for c in (CIRCUITS["rss"], CIRCUITS["audit"]):   # in the pinned order
        for op, dom in (("commit", c.commit_domain), ("sign", c.sign_domain)):
            lines.append(f"domain-separator {c.name}-{op} {dom}")
    for fname, field in (("test", TEST_FIELD), ("standard", STANDARD_FIELD)):
        for inputs in ([], [0], [1], [1, 2], [1, 2, 3], [field.p - 1]):
            h = sponge_hash(inputs, field)
            label = ",".join(str(x) for x in inputs)
            lines.append(f"sponge {fname} [{label}] {h}")
    samples = [("ctx", CIRCUITS["rss"].sign_domain), ("ts", 123456789),
               ("nonce", bytes(range(NONCE_BYTES))), ("commit", 42)]
    for name, value in samples:
        lines.append(f"encode {name} {section_bytes(name, value).hex()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text, "w")
    sys.stdout.write(text)
    return 0


# -- provision -----------------------------------------------------------------


def cmd_provision(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    ea = EnrollmentAuthority(rng)
    keypair = schnorr_keygen(rng)
    cert = ea.issue(args.vid, keypair.pk_bytes(), args.valid_from,
                    args.valid_to)

    os.makedirs(args.identity_dir, exist_ok=True)
    _write(os.path.join(args.identity_dir, "vehicle.sk"),
           keypair.sk.to_bytes(8, "little"))
    _write(os.path.join(args.identity_dir, "vehicle.cert"), cert.to_bytes())
    _write(os.path.join(args.identity_dir, "ea_root.pk"), ea.root_pk_bytes)

    reg_dir = os.path.join(args.state_dir, "registry")
    os.makedirs(reg_dir, exist_ok=True)
    _write(os.path.join(args.state_dir, "ea_root.pk"), ea.root_pk_bytes)
    nonce_path = os.path.join(args.state_dir, "nonces.txt")
    if not os.path.exists(nonce_path):
        _write(nonce_path, "", "w")
    registered = 0
    for circuit_dir in args.circuit_dir:
        for fname in sorted(os.listdir(circuit_dir)):
            if not fname.endswith(".r1cs"):
                continue
            r1cs_bytes = _read(os.path.join(circuit_dir, fname))
            vk_bytes = _read(os.path.join(circuit_dir, fname[:-5] + ".vk"))
            digest = hashlib.sha256(r1cs_bytes).hexdigest()
            _write(os.path.join(reg_dir, digest + ".r1cs"), r1cs_bytes)
            _write(os.path.join(reg_dir, digest + ".vk"), vk_bytes)
            registered += 1
    print(f"provisioned identity {args.identity_dir} (vid {args.vid})")
    print(f"provisioned state {args.state_dir} ({registered} circuits)")
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermes-seal",
        description="verifiable perception exchange: prove, verify, audit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="compile a circuit and run key ceremony")
    p.add_argument("--circuit", choices=sorted(CIRCUITS), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--theta", type=float, default=0.75,
                   help="detection threshold (rss)")
    p.add_argument("--rho-prob", type=int, default=100)
    p.add_argument("--challenge", help="challenge text file (audit)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("prove", help="generate a signed proof package")
    p.add_argument("--circuit", choices=sorted(CIRCUITS), required=True)
    p.add_argument("--circuit-dir", required=True)
    p.add_argument("--identity-dir", required=True)
    p.add_argument("--scenario", help="scenario text file (rss)")
    p.add_argument("--detections", help="detections text file (audit)")
    p.add_argument("--out", required=True, help="package output file")
    p.add_argument("--opening-out", help="write the commitment opening here")
    p.add_argument("--now", type=int, default=0, help="logical timestamp")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="verify a proof package")
    p.add_argument("--vk", required=True)
    p.add_argument("--package", required=True)
    p.add_argument("--state-dir",
                   help=f"verifier state (default ${STATE_DIR_ENV})")
    p.add_argument("--now", type=int, default=0, help="logical timestamp")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit-open",
                       help="check a revealed commitment opening")
    p.add_argument("--package", required=True)
    p.add_argument("--opening", required=True)
    p.set_defaults(func=cmd_audit_open)

    p = sub.add_parser("bench", help="per-stage latency benchmark (CSV)")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--out", help="also write the CSV here")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("vectors", help="emit deterministic golden vectors")
    p.add_argument("--out", help="also write the vectors here")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("provision",
                       help="create identity files and a verifier state dir")
    p.add_argument("--identity-dir", required=True)
    p.add_argument("--state-dir", required=True)
    p.add_argument("--circuit-dir", action="append", default=[],
                   help="register circuits from this setup dir (repeatable)")
    p.add_argument("--vid", type=int, default=1)
    p.add_argument("--valid-from", type=int, default=0)
    p.add_argument("--valid-to", type=int, default=1 << 40)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_provision)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed binary inputs, bad files, ...
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
