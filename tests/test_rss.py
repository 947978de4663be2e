"""Safe-stopping-distance case study: formula values, predicate/circuit
agreement, input scaling, and the scenario text format."""

import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from hermes_seal.commitment import commit
from hermes_seal.field import TEST_FIELD
from hermes_seal.r1cs import UnsatisfiableError
from hermes_seal.rss_circuit import (DIST_BITS, PROB_BITS, RHO_DIST,
                                     RSS_CIRCUIT, RssParams, RssScenario,
                                     STOP_SIGN_ID, build_rss_circuit,
                                     evaluate_predicate,
                                     format_scenario, make_rss_inputs,
                                     nonce_to_field, parse_scenario,
                                     rss_safe_distance)


# -- formula ------------------------------------------------------------------


def test_safe_distance_reference_values():
    # 30 mph = 13.41 m/s, 1 s reaction, mu = 0.75, g = 9.81
    params = RssParams(v=13.41, t_rec=1.0, mu=0.75, g=9.81)
    reaction = params.v * params.t_rec
    braking = params.v ** 2 / (2 * params.mu * params.g)
    assert abs(reaction - 13.41) <= 0.01
    assert abs(braking - 12.22) <= 0.01
    assert abs(rss_safe_distance(params) - 25.63) <= 0.05


@given(st.floats(min_value=0, max_value=60, allow_nan=False),
       st.floats(min_value=0.1, max_value=3, allow_nan=False),
       st.floats(min_value=0.1, max_value=1, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_safe_distance_monotone_in_speed(v, t_rec, mu):
    p1 = RssParams(v=v, t_rec=t_rec, mu=mu)
    p2 = RssParams(v=v + 1, t_rec=t_rec, mu=mu)
    assert rss_safe_distance(p2) > rss_safe_distance(p1)


def test_params_validation():
    with pytest.raises(ValueError):
        RssParams(v=-1)
    with pytest.raises(ValueError):
        RssParams(v=1, mu=0, g=9.81)  # braking capacity zero


# -- predicate vs circuit -----------------------------------------------------


def test_predicate_truth_table():
    # theta = 75, d_safe = 2563 (scaled)
    assert evaluate_predicate(80, 75, 3000, 2563) == 1
    assert evaluate_predicate(80, 75, 2000, 2563) == 0
    assert evaluate_predicate(70, 75, 3000, 2563) == 0  # below threshold
    assert evaluate_predicate(75, 75, 2563, 2563) == 1  # boundary inclusive


def test_circuit_documented_divergence_below_threshold(small_rss_artifacts):
    """Below the detection threshold the native predicate says unsafe while
    the circuit treats the frame as vacuously safe; this asymmetry is part
    of the rule definition."""
    art = small_rss_artifacts
    scenario = RssScenario(probability=0.50, distance_m=5.0)  # close AND dim
    publics, witness, _ = make_rss_inputs(scenario, nonce=bytes(16), s_sec=3,
                                          circuit=art.circuit)
    assert publics.SAFE == 1  # vacuously safe in-circuit
    assert evaluate_predicate(50, 75, 500, publics.d_S) == 0


def test_circuit_rejects_flipped_safe_bit(small_rss_artifacts):
    art = small_rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=3, circuit=art.circuit)
    publics.SAFE ^= 1
    with pytest.raises(UnsatisfiableError):
        art.circuit.generate_witness(publics, witness)


def test_circuit_rejects_wrong_object_id(small_rss_artifacts):
    art = small_rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(object_id=12),
                                          nonce=bytes(16), s_sec=3,
                                          circuit=art.circuit)
    with pytest.raises(UnsatisfiableError, match="assert_stop_sign"):
        art.circuit.generate_witness(publics, witness)


def test_full_circuit_binds_commitment(rss_artifacts):
    art = rss_artifacts
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=5, circuit=art.circuit)
    w = art.circuit.generate_witness(publics, witness)
    opening = RSS_CIRCUIT.opening(publics, witness)
    assert opening["payload"][-2:] == [publics.T, publics.nu]
    assert publics.c == commit(**opening)
    # wrong commitment public input -> unsatisfiable at the sponge binding
    publics.c = (publics.c + 1) % TEST_FIELD.p
    with pytest.raises(UnsatisfiableError, match="bind_commitment"):
        art.circuit.generate_witness(publics, witness)


def _seeded_inputs(circuit, seed):
    rng = random.Random(seed)
    scenario = RssScenario(speed_mps=rng.uniform(0, 30),
                           distance_m=rng.uniform(0, 60),
                           probability=rng.uniform(0.5, 1.0),
                           timestamp=rng.randrange(1 << 32))
    publics, witness, _ = make_rss_inputs(scenario, nonce=rng.randbytes(16),
                                          s_sec=rng.randrange(TEST_FIELD.p),
                                          circuit=circuit)
    return publics, witness


def test_full_circuit_rejects_at_named_rows(rss_artifacts):
    """Each one-row check of the full-width circuit names itself."""
    circuit = rss_artifacts.circuit
    q = TEST_FIELD.p
    verdicts = set()
    for seed in range(12):
        publics, witness = _seeded_inputs(circuit, seed)
        circuit.generate_witness(publics, witness)
        verdicts.add(publics.SAFE)
        for name, value, label in (
                ("ID", publics.ID + 1, "assert_stop_sign"),
                ("SAFE", 1 - publics.SAFE, "bind_safe_output"),
                ("c", (publics.c + 1) % q, "bind_commitment"),
                ("delta_commit", publics.delta_commit + 1,
                 "assert_commit_domain")):
            with pytest.raises(UnsatisfiableError, match=rf"\({label}\)"):
                circuit.generate_witness(
                    dataclasses.replace(publics, **{name: value}), witness)
    assert verdicts == {0, 1}             # SAFE flipped both ways


def test_rss_rows_fit_1024_domain(rss_artifacts):
    """The full circuit fills its 1024-row domain exactly: one more row
    doubles the domain, every quotient transform and the h MSM."""
    cs = rss_artifacts.cs
    real = [label for label in cs.row_labels if label is not None]
    per_label = collections.Counter(label.split(".")[0] for label in real)
    assert cs.n_constraints == 1024 and len(real) <= 1024, \
        f"{len(real)} real rows in a {cs.n_constraints} domain: " \
        f"{dict(per_label.most_common())}"
    assert cs.n_wires <= 1034


def test_constraint_count_and_publics(rss_artifacts):
    cs = rss_artifacts.cs
    assert cs.n_constraints == 1024       # padded power of two
    assert cs.n_public == 16
    assert STOP_SIGN_ID == 11
    assert PROB_BITS == 16 and DIST_BITS == 32 and RHO_DIST == 100


def test_theta_baked_into_keys():
    c1 = build_rss_circuit(theta=0.75, include_commitment=False)
    c2 = build_rss_circuit(theta=0.80, include_commitment=False)
    assert c1.cs.digest() != c2.cs.digest()


def test_scaled_range_validation():
    with pytest.raises(ValueError):
        build_rss_circuit(theta=0.9, rho_prob=1 << 20)  # exceeds PROB_BITS
    with pytest.raises(ValueError):
        make_rss_inputs(RssScenario(distance_m=1e9), nonce=bytes(16), s_sec=1)


def test_nonce_to_field():
    assert nonce_to_field(bytes(16)) == 0
    assert nonce_to_field((1).to_bytes(16, "little")) == 1
    with pytest.raises(ValueError):
        nonce_to_field(b"short")


# -- scenario text format -----------------------------------------------------


def test_scenario_text_roundtrip():
    s = RssScenario(speed_mps=22.5, distance_m=41.0, probability=0.9,
                    bbox=(1, 2, 3, 4), timestamp=77)
    assert parse_scenario(format_scenario(s)) == s


def test_scenario_text_comments_and_errors():
    s = parse_scenario("speed_mps = 10  # brisk\n\ndistance_m = 50\n")
    assert s.speed_mps == 10 and s.distance_m == 50
    with pytest.raises(ValueError, match="unknown key"):
        parse_scenario("warp_factor = 9\n")
    with pytest.raises(ValueError, match="expected"):
        parse_scenario("no equals sign here\n")
