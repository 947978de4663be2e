"""Shared fixtures: expensive circuits and key material are built once per
session and reused read-only."""

import os
import random

import pytest

from hermes_seal.audit_circuit import (AuditThresholds, ChallengeSet,
                                       GroundTruth, build_audit_circuit,
                                       fixture_challenge, fixture_detections)
from hermes_seal.groth16 import setup
from hermes_seal.protocol import EnrollmentAuthority, schnorr_keygen
from hermes_seal.qap import r1cs_to_qap
from hermes_seal.rss_circuit import build_rss_circuit


class Artifacts:
    """Circuit + QAP + keys bundle."""

    def __init__(self, circuit, seed=12345):
        self.circuit = circuit
        self.cs = circuit.cs
        self.qap = r1cs_to_qap(circuit.cs)
        self.pk, self.vk = setup(self.qap, seed=seed)
        self.r1cs_bytes = circuit.cs.to_bytes()
        self.vk_bytes = self.vk.to_bytes()


@pytest.fixture(scope="session")
def rss_artifacts():
    """Production-width safety circuit with keys."""
    return Artifacts(build_rss_circuit())


@pytest.fixture(scope="session")
def small_rss_artifacts():
    """Reduced safety circuit (no sponge) with keys; fast proving."""
    return Artifacts(build_rss_circuit(include_commitment=False))


@pytest.fixture(scope="session")
def audit_fixture_artifacts():
    """The reference 5-image audit circuit with keys."""
    challenge = fixture_challenge()
    thresholds = AuditThresholds()
    circuit = build_audit_circuit(challenge, thresholds)
    art = Artifacts(circuit)
    art.challenge = challenge
    art.thresholds = thresholds
    art.detections = fixture_detections()
    return art


@pytest.fixture(scope="session")
def small_audit():
    """A 2-image, 3-slot audit circuit (no keys; satisfiability tests)."""
    rng = random.Random(7)
    images = [
        [GroundTruth((10, 10, 40, 40), 1, critical=1),
         GroundTruth((60, 10, 90, 40), 2, critical=0)],
        [GroundTruth((10, 60, 40, 90), 1, critical=0)],
    ]
    challenge = ChallengeSet(images, m_max=3, rho_prob=100, rho_bbox=100)
    thresholds = AuditThresholds()
    circuit = build_audit_circuit(challenge, thresholds)
    return challenge, thresholds, circuit


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """At the end of the session this process has no child, running or
    unreaped: the prover reaps the one child it forks per proof, whether
    the proof succeeds or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind: waitpid(-1, WNOHANG) "
                f"gave ({pid}, {status:#x})")


_ACCEPTANCE_LINES = pytest.StashKey[list]()


@pytest.fixture(scope="session")
def acceptance_lines(request):
    """The acceptance criteria's report lines of this session; the
    terminal summary echoes them."""
    return request.config.stash.setdefault(_ACCEPTANCE_LINES, [])


def pytest_terminal_summary(terminalreporter):
    """Echo this session's one-line-per-criterion acceptance report, so a
    report that an earlier session wrote is never shown as this one's."""
    lines = terminalreporter.config.stash.get(_ACCEPTANCE_LINES, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def identity():
    """Enrollment authority plus one enrolled vehicle."""
    rng = random.Random(99)
    ea = EnrollmentAuthority(rng)
    keypair = schnorr_keygen(rng)
    cert = ea.issue(7, keypair.pk_bytes(), 0, 1 << 40)
    return ea, keypair, cert
