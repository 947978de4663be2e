"""Radix-2 evaluation domains, NTT interpolation, and the R1CS-to-QAP
reduction with quotient computation, checked against the schoolbook oracle
in `schoolbook.py` (whose own polynomial arithmetic is tested first)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from hermes_seal.field import STANDARD_FIELD, TEST_FIELD
from hermes_seal.qap import (EvaluationDomain, InvalidWitnessError,
                             _quotient, compute_quotient, r1cs_to_qap)
from hermes_seal.r1cs import CircuitBuilder

P = TEST_FIELD.p
coeff_lists = st.lists(st.integers(min_value=0, max_value=P - 1),
                       min_size=0, max_size=8)


def _oracle_domain(dom):
    return schoolbook.Domain(dom.points, P)


def _interpolate(dom, values):
    """The polynomial of degree < n through (w^i, values_i), by the domain's
    inverse NTT."""
    ninv = pow(len(dom), -1, P)
    return schoolbook.Poly([v * ninv for v in dom._intt(values)], P)


# -- the oracle's polynomials -------------------------------------------------


@given(coeff_lists, coeff_lists,
       st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=60, deadline=None)
def test_poly_ring_via_evaluation(ac, bc, x):
    # oracle: evaluation homomorphism
    a, b = schoolbook.Poly(ac, P), schoolbook.Poly(bc, P)
    assert (a + b).eval(x) == (a.eval(x) + b.eval(x)) % P
    assert (a - b).eval(x) == (a.eval(x) - b.eval(x)) % P
    assert (a * b).eval(x) == a.eval(x) * b.eval(x) % P


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_poly_divmod_identity(ac, bc):
    a, b = schoolbook.Poly(ac, P), schoolbook.Poly(bc, P)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert (q * b + r - a).is_zero()
    assert r.degree < b.degree or r.is_zero()


# -- evaluation domains -------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 8, 64, 1024])
def test_radix2_domain(size):
    dom = EvaluationDomain(size, TEST_FIELD)
    assert len(dom) == size
    assert len(set(dom.points)) == size
    z = _oracle_domain(dom).vanishing()
    for pt in dom.points:
        assert z.eval(pt) == 0
        assert dom.eval_vanishing(pt) == 0
    off = 123456789
    assert dom.eval_vanishing(off) == z.eval(off) != 0


@pytest.mark.parametrize("size", [4, 32, 256])
def test_interpolation_roundtrip(size):
    rng = random.Random(size)
    dom = EvaluationDomain(size, TEST_FIELD)
    values = [rng.randrange(P) for _ in range(size)]
    poly = _interpolate(dom, values)
    assert poly.degree < size or poly.is_zero()
    for pt, v in zip(dom.points, values):
        assert poly.eval(pt) == v


def test_interpolation_ntt_vs_schoolbook():
    # schoolbook Lagrange vs radix-2 iNTT must agree coefficient-wise
    rng = random.Random(5)
    size = 16
    sub = EvaluationDomain(size, TEST_FIELD)
    values = [rng.randrange(P) for _ in range(size)]
    assert _interpolate(sub, values).coeffs == \
        _oracle_domain(sub).interpolate(values).coeffs


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_ntt_matches_naive_dft(size):
    # oracle: out_i = sum_j v_j w^(-ij), straight from the definition
    rng = random.Random(size)
    dom = EvaluationDomain(size, TEST_FIELD)
    pts = dom.points
    values = [rng.randrange(P) for _ in range(size)]
    fwd = [sum(v * pts[i * j % size] for j, v in enumerate(values)) % P
           for i in range(size)]
    inv = [sum(v * pts[-i * j % size] for j, v in enumerate(values)) % P
           for i in range(size)]
    assert dom._intt(values) == inv
    assert dom._intt(fwd) == [v * size % P for v in values]


def test_lagrange_at():
    dom = EvaluationDomain(8, TEST_FIELD)
    x = 424242
    basis = dom.lagrange_at(x)
    # oracle: interpolation of indicator vectors
    oracle = _oracle_domain(dom)
    for i in range(8):
        indicator = [1 if j == i else 0 for j in range(8)]
        assert oracle.interpolate(indicator).eval(x) == basis[i]
    assert dom.lagrange_at(dom.points[3]) == [int(i == 3) for i in range(8)]


def test_duplicate_points_rejected():
    # the oracle's domain must be a set of distinct points to mean anything
    with pytest.raises(ValueError):
        schoolbook.Domain([1, 1, 2], P)


# -- R1CS -> QAP --------------------------------------------------------------


def _toy_circuit():
    bld = CircuitBuilder()
    x = bld.alloc_public("x")
    y = bld.alloc_private("y")
    sq = bld.gadget_mul(y, y, "y_sq")
    bld.enforce(bld.lc(sq) + bld.lc(y), bld.lc(1), bld.lc(x), "x=y2+y")
    cs = bld.finalize()
    return cs, x, y


def test_qap_divisibility_iff_satisfied():
    cs, x, y = _toy_circuit()
    qap = r1cs_to_qap(cs)
    dom = qap.domain
    w = cs.generate_witness({x: 30, y: 5})
    h = schoolbook.Poly(compute_quotient(qap, w), P)
    # check A(t)*B(t) - C(t) == H(t)*Z(t) at a random off-domain point, with
    # A, B, C from the oracle's dense wire polynomials
    t = 987654321987
    aw, bw, cw = (sum(polys[i].eval(t) * w[i] for i in range(cs.n_wires)) % P
                  for polys in schoolbook.wire_polys(cs, _oracle_domain(dom)))
    assert (aw * bw - cw) % P == h.eval(t) * dom.eval_vanishing(t) % P
    assert dom.eval_vanishing(t) == _oracle_domain(dom).vanishing().eval(t)


def test_wire_evals_at_matches_schoolbook():
    cs, _, _ = _toy_circuit()
    qap = r1cs_to_qap(cs)
    tau = 987654321987
    dense = schoolbook.wire_polys(cs, _oracle_domain(qap.domain))
    assert qap.wire_evals_at(tau) == tuple(
        [poly.eval(tau) for poly in col] for col in dense)


def test_wire_evals_at_matches_dict_walk(rss_artifacts):
    # the compiled rows' per-side weights give the per-row walk's values,
    # off the domain and on it
    qap = rss_artifacts.qap
    cs = qap.cs
    rows = schoolbook.rows_of(cs)
    rng = random.Random(3)
    for x in [rng.randrange(P) for _ in range(3)] + [qap.domain.points[5]]:
        assert qap.wire_evals_at(x) == schoolbook.wire_evals(
            rows, cs.n_wires, qap.domain.lagrange_at(x), P)


def test_r1cs_to_qap_builds_its_domain():
    cs, _, _ = _toy_circuit()
    qap = r1cs_to_qap(cs)
    explicit = r1cs_to_qap(cs, EvaluationDomain.for_size(cs.n_constraints,
                                                         cs.field))
    assert qap.domain.points == explicit.domain.points
    assert qap.wire_evals_at(5) == explicit.wire_evals_at(5)
    with pytest.raises(ValueError, match="domain size"):
        r1cs_to_qap(cs, EvaluationDomain(2 * cs.n_constraints, cs.field))
    # every system is over F_q, so a domain over another field is refused
    # here; its keys would give proofs that never verify
    assert cs.field is TEST_FIELD
    with pytest.raises(ValueError, match="field"):
        r1cs_to_qap(cs, EvaluationDomain(cs.n_constraints, STANDARD_FIELD))


def test_qap_invalid_witness_names_row():
    cs, x, y = _toy_circuit()
    qap = r1cs_to_qap(cs)
    w = cs.generate_witness({x: 30, y: 5})
    bad = list(w.values)
    bad[x.index] = 31
    with pytest.raises(InvalidWitnessError, match="constraint"):
        compute_quotient(qap, bad)


def test_quotient_evaluates_a_witness_of_another_system():
    # same wires, another last row (x = y^2 + 2y): the witness's kept
    # evaluations satisfy its own system, so they must not stand in here
    cs, x, y = _toy_circuit()
    bld = CircuitBuilder()
    x2, y2 = bld.alloc_public("x"), bld.alloc_private("y")
    sq = bld.gadget_mul(y2, y2, "y_sq")
    bld.enforce(bld.lc(sq) + bld.lc((y2, 2)), bld.lc(1), bld.lc(x2),
                "x=y2+2y")
    other = bld.finalize()
    assert other.n_wires == cs.n_wires
    w = cs.generate_witness({x: 30, y: 5})
    qap = r1cs_to_qap(other)
    for witness in (w, list(w.values)):
        with pytest.raises(InvalidWitnessError,
                           match=r"violates constraint 1$"):
            compute_quotient(qap, witness)
    # a witness of `other` itself, and the same values as a plain list
    w2 = other.generate_witness({x2: 35, y2: 5})
    assert compute_quotient(qap, w2) == compute_quotient(qap, list(w2.values))


def test_quotient_ntt_matches_generic():
    # same circuit and points: the product quotient against the oracle's
    # dense wire polynomials and long division
    cs, x, y = _toy_circuit()
    qap = r1cs_to_qap(cs)
    w = cs.generate_witness({x: 12, y: 3})
    h_fast = compute_quotient(qap, w)
    h_slow = schoolbook.quotient(cs, _oracle_domain(qap.domain), w)
    assert len(h_fast) == len(qap.domain) - 1
    assert schoolbook.Poly(h_fast, P).coeffs == h_slow.coeffs


def _chain_circuit(rng, n):
    """A random satisfiable chain of products over x (public) and y
    (private), with between n/2 + 1 and n rows, padded to n rows."""
    bld = CircuitBuilder()
    x = bld.alloc_public("x")
    y = bld.alloc_private("y")
    wires = [x, y]
    for i in range(rng.randint(n // 2 + 1, n)):
        u, v, w = (rng.choice(wires) for _ in range(3))
        left = bld.lc((u, rng.randrange(P)), (v, rng.randrange(P)),
                      rng.randrange(P))
        right = bld.lc((w, rng.randrange(P)), rng.randrange(P))
        wires.append(bld.gadget_mul(left, right, f"m{i}"))
    cs = bld.finalize()
    assert cs.n_constraints == n
    w = cs.generate_witness({x: rng.randrange(P), y: rng.randrange(P)})
    return cs, w, wires[2:]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_coset_quotient_matches_schoolbook(n):
    rng = random.Random(n)
    sub = EvaluationDomain(n, TEST_FIELD)
    generic = _oracle_domain(sub)
    for _ in range(3):
        cs, w, _ = _chain_circuit(rng, n)
        h_fast = compute_quotient(r1cs_to_qap(cs, sub), w)
        h_slow = schoolbook.quotient(cs, generic, w)
        assert len(h_fast) == n - 1  # deg H <= n - 2
        assert schoolbook.Poly(h_fast, P).coeffs == h_slow.coeffs


@pytest.mark.parametrize("n", [4, 64])
def test_unsatisfying_chain_witness_names_row(n):
    rng = random.Random(100 + n)
    cs, w, products = _chain_circuit(rng, n)
    row = rng.randrange(len(products))   # product i is row i's output wire
    bad = list(w.values)
    bad[products[row].index] += 1
    with pytest.raises(InvalidWitnessError,
                       match=rf"violates constraint {row}$"):
        compute_quotient(r1cs_to_qap(cs), bad)
    with pytest.raises(ValueError, match=rf"violates constraint {row}$"):
        schoolbook.quotient(cs, _oracle_domain(EvaluationDomain(n)), bad)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_quotient_slot_holds_worst_case(n):
    # A and B with every coefficient n^-1 (p - 1), so that the iNTT hands the
    # packing all p - 1 and coefficient n - 1 of the unreduced product is
    # n (p - 1)^2, the most a slot must hold; a carry out of any slot would
    # change the top half
    dom = EvaluationDomain(n, TEST_FIELD)
    spike = [P - 1] + [0] * (n - 1)
    assert dom._intt(spike) == [P - 1] * n
    a = _interpolate(dom, spike)
    assert _quotient(dom, spike, spike) == (a * a).coeffs[n:]


def test_rss_quotient_at_random_point(rss_artifacts):
    art = rss_artifacts
    from hermes_seal.rss_circuit import RssScenario, make_rss_inputs
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=1, circuit=art.circuit)
    w = art.circuit.generate_witness(publics, witness)
    h = schoolbook.Poly(compute_quotient(art.qap, w), P)
    r = random.Random(1024).randrange(P)
    a, b, c = (sum(e * v for e, v in zip(evals, w.values)) % P
               for evals in art.qap.wire_evals_at(r))
    assert (a * b - c) % P == h.eval(r) * art.qap.domain.eval_vanishing(r) % P


def test_constraint_evaluations_match_rows(small_rss_artifacts):
    art = small_rss_artifacts
    from hermes_seal.rss_circuit import RssScenario, make_rss_inputs
    publics, witness, _ = make_rss_inputs(RssScenario(), nonce=bytes(16),
                                          s_sec=1, circuit=art.circuit)
    w = art.circuit.generate_witness(publics, witness)
    for av, bv, cv in zip(*art.cs.evaluate(w)):
        assert av * bv % P == cv
