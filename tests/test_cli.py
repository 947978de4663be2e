"""End-to-end command-line flows: key ceremony, proving, verification with
persistent verifier state, commitment opening, golden vectors, benchmarks,
and every documented exit code."""

import hashlib
import json
import shutil

import pytest

from hermes_seal.audit_circuit import (AuditThresholds, ChallengeSet,
                                       Detection, GroundTruth, canonical_text)
from hermes_seal.cli import main
from hermes_seal.field import nonce_to_field
from hermes_seal.protocol import (ProofPackage, SignatureKeypair,
                                  VerifierState, assemble_payload,
                                  schnorr_sign, toy_group)
from hermes_seal.rss_circuit import RssScenario, format_scenario

from audit_text import format_detections


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One provisioned deployment shared by the CLI tests: rss keys,
    identity, verifier state, and a scenario file."""
    root = tmp_path_factory.mktemp("cli")
    keys = root / "keys"
    assert main(["setup", "--circuit", "rss", "--out-dir", str(keys),
                 "--seed", "7"]) == 0
    assert main(["provision", "--identity-dir", str(root / "id"),
                 "--state-dir", str(root / "state"),
                 "--circuit-dir", str(keys), "--seed", "9",
                 "--vid", "42"]) == 0
    (root / "scn.txt").write_text(format_scenario(RssScenario()))
    return root


def run(args):
    return main([str(a) for a in args])


def test_setup_outputs(workspace, capfd):
    keys = workspace / "keys"
    for ext in (".meta", ".r1cs", ".pk", ".vk"):
        assert (keys / f"rss{ext}").exists()
    # deterministic ceremony: same seed, byte-identical keys
    again = workspace / "keys_again"
    assert run(["setup", "--circuit", "rss", "--out-dir", again,
                "--seed", "7"]) == 0
    out = capfd.readouterr().out
    assert "constraints 1024" in out
    assert "public-inputs 16" in out
    for ext in (".r1cs", ".pk", ".vk"):
        assert (again / f"rss{ext}").read_bytes() == \
            (keys / f"rss{ext}").read_bytes()


def test_setup_rejects_bad_theta(workspace, tmp_path, capfd):
    assert run(["setup", "--circuit", "rss", "--out-dir", tmp_path,
                "--theta", "1.5"]) == 2
    assert "theta" in capfd.readouterr().err


def test_prove_verify_accept_then_replay(workspace, capfd):
    pkg = workspace / "pkg.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", pkg, "--opening-out", workspace / "open.json",
                "--now", "100", "--seed", "5"]) == 0
    out = capfd.readouterr().out
    assert "SAFE 1" in out
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--state-dir", workspace / "state",
                "--now", "101"]) == 0
    out = capfd.readouterr().out
    assert out.splitlines()[-1] == "accept"
    assert all(f"{stage} PASS" in out for stage in
               ("context", "certificate", "circuit-registered", "signature",
                "binding", "freshness", "nonce", "proof"))
    # the nonce store persisted: an identical re-send is a replay
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--state-dir", workspace / "state",
                "--now", "102"]) == 1
    out = capfd.readouterr().out
    assert "nonce FAIL nonce-replay" in out
    assert out.splitlines()[-1] == "reject"


def test_verify_rejects_re_signed_envelope(workspace, tmp_path, capfd):
    # the vehicle re-signs an old proof under a later timestamp
    keys = workspace / "keys"
    assert run(["prove", "--circuit", "rss", "--circuit-dir", keys,
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", tmp_path / "old.bin", "--now", "500",
                "--seed", "13"]) == 0
    pkg = ProofPackage.from_bytes((tmp_path / "old.bin").read_bytes())
    pkg.timestamp = 600
    group = toy_group()
    sk = int.from_bytes((workspace / "id" / "vehicle.sk").read_bytes(),
                        "little")
    keypair = SignatureKeypair(sk, group.scalar_mul_g1(sk, group.g1))
    pkg.signature = schnorr_sign(keypair, assemble_payload(
        pkg.sign_domain, (keys / "rss.r1cs").read_bytes(),
        (keys / "rss.vk").read_bytes(), pkg.cert_bytes, pkg.proof_bytes,
        pkg.commitment, pkg.timestamp, pkg.nonce))
    (tmp_path / "new.bin").write_bytes(pkg.to_bytes())
    capfd.readouterr()
    assert run(["verify", "--vk", keys / "rss.vk",
                "--package", tmp_path / "new.bin",
                "--state-dir", workspace / "state", "--now", "601"]) == 1
    out = capfd.readouterr().out
    assert "signature PASS" in out
    assert "binding FAIL envelope-mismatch" in out
    assert out.splitlines()[-1] == "reject"


def test_prove_deterministic_under_seed(workspace):
    outs = []
    for name in ("d1.bin", "d2.bin"):
        assert run(["prove", "--circuit", "rss",
                    "--circuit-dir", workspace / "keys",
                    "--identity-dir", workspace / "id",
                    "--scenario", workspace / "scn.txt",
                    "--out", workspace / name, "--now", "1",
                    "--seed", "11"]) == 0
        outs.append((workspace / name).read_bytes())
    assert outs[0] == outs[1]


def test_verify_stale_timestamp(workspace, capfd):
    pkg = workspace / "stale.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", pkg, "--now", "200", "--seed", "6"]) == 0
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--state-dir", workspace / "state",
                "--now", "300"]) == 1
    assert "freshness FAIL stale-timestamp" in capfd.readouterr().out


def test_verify_state_dir_from_environment(workspace, monkeypatch):
    pkg = workspace / "env.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", pkg, "--now", "400", "--seed", "12"]) == 0
    monkeypatch.setenv("HERMES_SEAL_STATE_DIR", str(workspace / "state"))
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--now", "401"]) == 0
    monkeypatch.delenv("HERMES_SEAL_STATE_DIR")
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--now", "401"]) == 2  # no state dir at all


def test_verify_truncated_vk_exits_2(workspace, tmp_path, capfd):
    pkg = tmp_path / "pkg.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", pkg, "--now", "900", "--seed", "15"]) == 0
    raw = (workspace / "keys" / "rss.vk").read_bytes()
    capfd.readouterr()
    for cut in (5, 30, 42 + 19 + 7, len(raw) - 1):
        vk = tmp_path / f"cut{cut}.vk"
        vk.write_bytes(raw[:cut])
        assert run(["verify", "--vk", vk, "--package", pkg,
                    "--state-dir", workspace / "state", "--now", "901"]) == 2
        assert "error: Groth16Error: verifying key is" in \
            capfd.readouterr().err


def test_nonce_store_keys_on_nu_and_reads_old_lines(workspace, tmp_path,
                                                    capfd):
    pkg_path = tmp_path / "pkg.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", pkg_path, "--now", "800", "--seed", "14"]) == 0
    nonce = ProofPackage.from_bytes(pkg_path.read_bytes()).nonce
    verify = ["verify", "--vk", workspace / "keys" / "rss.vk",
              "--package", pkg_path, "--now", "801", "--state-dir"]
    # an accept writes the nonce as "nu timestamp"
    state = tmp_path / "state"
    shutil.copytree(workspace / "state", state)
    (state / "nonces.txt").write_text("")
    assert run(verify + [state]) == 0
    assert (state / "nonces.txt").read_text() == \
        f"{nonce_to_field(nonce)} 801\n"
    # a store written as "nonce-hex timestamp" lines still blocks a replay
    old = tmp_path / "old_state"
    shutil.copytree(workspace / "state", old)
    (old / "nonces.txt").write_text(f"{nonce.hex()} 799\n")
    capfd.readouterr()
    assert run(verify + [old]) == 1
    assert "nonce FAIL nonce-replay" in capfd.readouterr().out


def test_prove_unsatisfiable_names_constraint(workspace, tmp_path, capfd):
    scn = tmp_path / "wrong_id.txt"
    scn.write_text(format_scenario(RssScenario(object_id=12)))
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", scn, "--out", tmp_path / "x.bin",
                "--seed", "1"]) == 2
    assert "assert_stop_sign" in capfd.readouterr().err


def test_prove_rejects_tampered_pk(workspace, tmp_path, capfd):
    keys = tmp_path / "keys"
    keys.mkdir()
    for ext in (".meta", ".r1cs", ".pk", ".vk"):
        data = (workspace / "keys" / f"rss{ext}").read_bytes()
        if ext == ".pk":
            # flip a byte inside the embedded circuit digest (offset 6..38)
            data = data[:10] + bytes([data[10] ^ 0xFF]) + data[11:]
        (keys / f"rss{ext}").write_bytes(data)
    assert run(["prove", "--circuit", "rss", "--circuit-dir", keys,
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", tmp_path / "x.bin", "--seed", "1"]) == 2
    assert "proving key" in capfd.readouterr().err


@pytest.mark.parametrize("now", ["99", "201"])
def test_prove_refuses_certificate_invalid_at_now(workspace, tmp_path, capfd,
                                                  now):
    identity, _ = _provision(workspace, tmp_path, "--valid-from", "100",
                             "--valid-to", "200")
    out = tmp_path / "pkg.bin"
    capfd.readouterr()
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys", "--identity-dir", identity,
                "--scenario", workspace / "scn.txt", "--out", out,
                "--now", now, "--seed", "1"]) == 2
    assert (f"certificate is valid from 100 to 200, not at --now {now}"
            in capfd.readouterr().err)
    assert not out.exists()


def test_audit_open_and_malformed(workspace, tmp_path, capfd):
    pkg = workspace / "pkg.bin"            # from the prove test above
    opening = workspace / "open.json"
    assert run(["audit-open", "--package", pkg, "--opening", opening]) == 0
    assert "opening valid" in capfd.readouterr().out
    # wrong blinder -> invalid (exit 1)
    data = json.loads(opening.read_text())
    data["blinder"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["audit-open", "--package", pkg, "--opening", bad]) == 1
    capfd.readouterr()
    # malformed file -> usage error (exit 2)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["audit-open", "--package", pkg, "--opening", garbled]) == 2
    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps({"payload": [1]}))
    assert run(["audit-open", "--package", pkg,
                "--opening", missing_key]) == 2


def test_context_mismatch_with_foreign_vk(workspace, tmp_path, capfd):
    # a vk from an independent ceremony of a *different* circuit
    other = tmp_path / "other_keys"
    assert run(["setup", "--circuit", "rss", "--theta", "0.8",
                "--out-dir", other, "--seed", "1"]) == 0
    capfd.readouterr()
    assert run(["verify", "--vk", other / "rss.vk",
                "--package", workspace / "pkg.bin",
                "--state-dir", workspace / "state", "--now", "101"]) == 1
    assert "context FAIL context-mismatch" in capfd.readouterr().out


def test_vectors_deterministic(workspace, tmp_path, capfd):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["vectors", "--out", a]) == 0
    assert run(["vectors", "--out", b]) == 0
    capfd.readouterr()
    text = a.read_text()
    assert a.read_bytes() == b.read_bytes()
    # the published vectors are pinned byte for byte (21 lines)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "6ec9bfb7987d045b2106b95597a92a892bbce1ff79ea56ad93cf7d38acc068f0")
    assert "domain-separator rss-commit 65536" in text
    assert "domain-separator rss-sign 131072" in text
    assert "domain-separator audit-commit 16842752" in text
    assert "domain-separator audit-sign 16908288" in text


def test_bench_csv_shape(workspace, tmp_path, capfd):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--runs", "3", "--seed", "0", "--out", out]) == 0
    capfd.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "stage,mean-ms,share-percent"
    stages = [ln.split(",")[0] for ln in lines[1:]]
    assert stages == ["witness generation", "proof generation",
                      "proof verification"]
    shares = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert abs(sum(shares) - 100.0) <= 0.5


def test_bench_rejects_runs_below_one(monkeypatch, capfd):
    # a usage error naming --runs, before the RSS setup, not a division
    # by zero after it
    def no_setup():
        raise AssertionError("bench built the circuit")
    monkeypatch.setattr("hermes_seal.cli.build_rss_circuit", no_setup)
    for runs in ("0", "-3"):
        assert run(["bench", "--runs", runs]) == 2
        assert f"--runs must be at least 1, not {runs}" in \
            capfd.readouterr().err


def test_usage_errors(workspace, capfd):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    capfd.readouterr()
    # missing file -> IO error, exit 2
    assert run(["verify", "--vk", "/nonexistent.vk",
                "--package", "/nonexistent.bin",
                "--state-dir", workspace / "state"]) == 2


# -- byte identity under fixed seeds -----------------------------------------

# SHA-256 of what `prove --seed` writes; any change to key, proof, package
# or opening encoding shows here
RSS_PACKAGE_SHA256 = \
    "1e7f79bd5fc95e11af847067464766000d424cf2bb73305cf5cdc8fce81545ff"
RSS_OPENING_SHA256 = \
    "e747a51492ea08e1371c286da7ed4fbb2a240d9b62dc685686789bc16e5b7e32"
AUDIT_PACKAGE_SHA256 = \
    "09ed06eabf304b38e922dbabc760772c174a16743f2dfd39dfb3a9d2db3947d0"
AUDIT_OPENING_SHA256 = \
    "0dadda7eabef107a900743db11665de4ccf3614b62d9f94fb0d7f2060bcb97d2"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_rss_prove_bytes_pinned(workspace, tmp_path, capfd):
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--scenario", workspace / "scn.txt",
                "--out", tmp_path / "p.bin",
                "--opening-out", tmp_path / "o.json",
                "--now", "100", "--seed", "5"]) == 0
    capfd.readouterr()
    assert _sha256(tmp_path / "p.bin") == RSS_PACKAGE_SHA256
    assert _sha256(tmp_path / "o.json") == RSS_OPENING_SHA256


def test_prove_requires_the_circuits_input_file(workspace, tmp_path, capfd):
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys",
                "--identity-dir", workspace / "id",
                "--out", tmp_path / "x.bin", "--seed", "1"]) == 2
    assert "--scenario is required" in capfd.readouterr().err


# -- the audit circuit end to end ----------------------------------------------


@pytest.fixture(scope="module")
def audit_workspace(tmp_path_factory):
    """A 2-image, 3-slot challenge (as conftest.small_audit): keys,
    identity, verifier state and a passing detections file."""
    root = tmp_path_factory.mktemp("cli_audit")
    images = [
        [GroundTruth((10, 10, 40, 40), 1, critical=1),
         GroundTruth((60, 10, 90, 40), 2, critical=0)],
        [GroundTruth((10, 60, 40, 90), 1, critical=0)],
    ]
    challenge = ChallengeSet(images, m_max=3, rho_prob=100, rho_bbox=100)
    (root / "challenge.txt").write_text(
        canonical_text(challenge, AuditThresholds()))
    dets = [[Detection((10, 10, 40, 40), 1, 90),
             Detection((60, 10, 90, 40), 2, 80)],
            [Detection((10, 60, 40, 90), 1, 70)]]
    (root / "dets.txt").write_text(format_detections(dets))
    keys = root / "keys"
    assert run(["setup", "--circuit", "audit", "--out-dir", keys,
                "--challenge", root / "challenge.txt", "--seed", "3"]) == 0
    assert run(["provision", "--identity-dir", root / "id",
                "--state-dir", root / "state", "--circuit-dir", keys,
                "--seed", "9", "--vid", "42"]) == 0
    return root


def test_audit_setup_outputs(audit_workspace, capfd):
    keys = audit_workspace / "keys"
    for ext in (".meta", ".challenge", ".r1cs", ".pk", ".vk"):
        assert (keys / f"audit{ext}").exists()
    assert (keys / "audit.challenge").read_text() == \
        (audit_workspace / "challenge.txt").read_text()
    assert (keys / "audit.meta").read_text() == "circuit = audit\n"


def test_audit_prove_verify_open(audit_workspace, capfd):
    ws = audit_workspace
    pkg, opening = ws / "pkg.bin", ws / "open.json"
    capfd.readouterr()
    assert run(["prove", "--circuit", "audit", "--circuit-dir", ws / "keys",
                "--identity-dir", ws / "id", "--detections", ws / "dets.txt",
                "--out", pkg, "--opening-out", opening,
                "--now", "100", "--seed", "5"]) == 0
    assert "PASS 1" in capfd.readouterr().out
    assert _sha256(pkg) == AUDIT_PACKAGE_SHA256
    assert _sha256(opening) == AUDIT_OPENING_SHA256
    assert run(["verify", "--vk", ws / "keys" / "audit.vk", "--package", pkg,
                "--state-dir", ws / "state", "--now", "101"]) == 0
    assert capfd.readouterr().out.splitlines()[-1] == "accept"
    assert run(["audit-open", "--package", pkg, "--opening", opening]) == 0
    assert "opening valid" in capfd.readouterr().out
    # the audit circuit needs its detections file
    assert run(["prove", "--circuit", "audit", "--circuit-dir", ws / "keys",
                "--identity-dir", ws / "id", "--out", ws / "x.bin",
                "--seed", "1"]) == 2
    assert "--detections is required" in capfd.readouterr().err


# -- the whole `verify` output, one case per outcome ---------------------------

_VERIFY_LINES = ["context", "certificate", "circuit-registered", "signature",
                 "binding", "freshness", "nonce", "proof"]


def _expected_verify_output(fail_stage, printed):
    """Every stage before `fail_stage` passes, then it fails and the verdict
    is reject; with no failing stage all pass and the verdict is accept."""
    if fail_stage is None:
        return "".join(f"{s} PASS\n" for s in _VERIFY_LINES) + "accept\n"
    passed = _VERIFY_LINES[:_VERIFY_LINES.index(fail_stage)]
    return ("".join(f"{s} PASS\n" for s in passed)
            + f"{fail_stage} FAIL {printed}\nreject\n")


def _case_package(workspace, tmp_path, identity):
    pkg = tmp_path / "pkg.bin"
    assert run(["prove", "--circuit", "rss",
                "--circuit-dir", workspace / "keys", "--identity-dir", identity,
                "--scenario", workspace / "scn.txt", "--out", pkg,
                "--now", "1000", "--seed", "21"]) == 0
    return pkg


def _rewrite(pkg, edit):
    package = ProofPackage.from_bytes(pkg.read_bytes())
    edit(package)
    pkg.write_bytes(package.to_bytes())


def _provision(workspace, tmp_path, *extra):
    # the workspace's seed and vid: same EA root and vehicle key
    assert run(["provision", "--identity-dir", tmp_path / "id",
                "--state-dir", tmp_path / "state", "--seed", "9",
                "--vid", "42", *extra]) == 0
    return tmp_path / "id", tmp_path / "state"


def _re_sign(workspace):
    keys = workspace / "keys"
    group = toy_group()
    sk = int.from_bytes((workspace / "id" / "vehicle.sk").read_bytes(),
                        "little")
    keypair = SignatureKeypair(sk, group.scalar_mul_g1(sk, group.g1))

    def edit(pkg):
        pkg.timestamp += 1
        pkg.signature = schnorr_sign(keypair, assemble_payload(
            pkg.sign_domain, (keys / "rss.r1cs").read_bytes(),
            (keys / "rss.vk").read_bytes(), pkg.cert_bytes, pkg.proof_bytes,
            pkg.commitment, pkg.timestamp, pkg.nonce))
    return edit


def _flip_signature_byte(pkg):
    pkg.signature = bytes([pkg.signature[0] ^ 1]) + pkg.signature[1:]


def _flip_last_public(pkg):
    # SAFE: not in the signed envelope and not bound to it
    pkg.public_inputs[-1] ^= 1


VERIFY_CASES = [
    ("accept", None, None),
    ("context", "context", "context-mismatch"),
    ("certificate", "certificate", "certificate-invalid"),
    ("unregistered", "circuit-registered", "unknown-circuit"),
    ("signature", "signature", "signature-invalid"),
    ("binding", "binding", "envelope-mismatch"),
    ("freshness", "freshness", "stale-timestamp"),
    ("nonce", "nonce", "nonce-replay"),
    ("proof", "proof", "proof-invalid"),
]


@pytest.mark.parametrize("case,fail_stage,printed", VERIFY_CASES,
                         ids=[c[0] for c in VERIFY_CASES])
def test_verify_output_pinned(workspace, tmp_path, capfd, case, fail_stage,
                              printed):
    vk, now = workspace / "keys" / "rss.vk", 1001
    identity, state = workspace / "id", tmp_path / "state"
    if case == "certificate":
        identity, state = _provision(
            workspace, tmp_path, "--circuit-dir", workspace / "keys",
            "--valid-to", "1000")
    elif case == "unregistered":
        identity, state = _provision(workspace, tmp_path)
    else:
        shutil.copytree(workspace / "state", state)
    pkg = _case_package(workspace, tmp_path, identity)
    if case == "context":
        raw = bytearray(vk.read_bytes())
        raw[6] ^= 1                      # first byte of the circuit digest
        vk = tmp_path / "foreign.vk"
        vk.write_bytes(bytes(raw))
    elif case == "signature":
        _rewrite(pkg, _flip_signature_byte)
    elif case == "binding":
        _rewrite(pkg, _re_sign(workspace))
    elif case == "freshness":
        now += 300
    elif case == "proof":
        _rewrite(pkg, _flip_last_public)
    verify = ["verify", "--vk", vk, "--package", pkg, "--state-dir", state,
              "--now", now]
    if case == "nonce":
        assert run(verify) == 0
    capfd.readouterr()
    code = run(verify)
    assert capfd.readouterr().out == \
        _expected_verify_output(fail_stage, printed)
    assert code == (0 if fail_stage is None else 1)


def test_verify_unknown_reject_reason_exits_2(workspace, tmp_path, capfd,
                                              monkeypatch):
    pkg = _case_package(workspace, tmp_path, workspace / "id")
    monkeypatch.setattr(VerifierState, "verify_package",
                        lambda self, package, now: (False, "mystery"))
    capfd.readouterr()
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--state-dir", workspace / "state",
                "--now", "1001"]) == 2
    out, err = capfd.readouterr()
    assert out == "context PASS\n"
    assert "KeyError" in err
