"""End-to-end command-line flows: key ceremony, proving, verification with
persistent verifier state, commitment opening, golden vectors, benchmarks,
and every documented exit code."""

import json

import pytest

from hermes_seal.cli import main
from hermes_seal.rss_circuit import RssScenario, format_scenario


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
                "freshness", "nonce", "proof"))
    # the nonce store persisted: an identical re-send is a replay
    assert run(["verify", "--vk", workspace / "keys" / "rss.vk",
                "--package", pkg, "--state-dir", workspace / "state",
                "--now", "102"]) == 1
    out = capfd.readouterr().out
    assert "nonce FAIL nonce-replay" in out
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


def test_usage_errors(workspace, capfd):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    capfd.readouterr()
    # missing file -> IO error, exit 2
    assert run(["verify", "--vk", "/nonexistent.vk",
                "--package", "/nonexistent.bin",
                "--state-dir", workspace / "state"]) == 2
