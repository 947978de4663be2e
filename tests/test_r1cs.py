"""Constraint system builder, gadget semantics, solver pipeline, the wire
index space, and the R1CS encoding's digests."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import schoolbook
from hermes_seal.audit_circuit import make_audit_inputs
from hermes_seal.field import TEST_FIELD
from hermes_seal.r1cs import (CircuitBuilder, ConstraintSystem,
                              MissingInputError, R1csError,
                              UnsatisfiableError, Wire, Witness)
from hermes_seal.rss_circuit import RssScenario, make_rss_inputs

P = TEST_FIELD.p


# -- gadgets vs native oracle -------------------------------------------------


@given(st.integers(min_value=0, max_value=P - 1),
       st.integers(min_value=0, max_value=P - 1))
@example(0, P - 1)
@settings(max_examples=50, deadline=None)
def test_gadget_mul(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_mul(x, y)
    # a product whose operands are a hint's output and an LC with a
    # constant term
    z = bld.gadget_is_zero(x)
    zy = bld.gadget_mul(z, bld.lc((y, 3), 7))
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert w[out.index] == a * b % P
    assert w[zy.index] == (3 * b + 7) % P * (a == 0)


@given(st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=50, deadline=None)
def test_gadget_is_zero(a):
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    out = bld.gadget_is_zero(x)
    cs = bld.finalize()
    w = cs.generate_witness({x: a})
    assert w[out.index] == (1 if a == 0 else 0)


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=80, deadline=None)
def test_gadget_geq(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_geq(x, y, bits=8)
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert w[out.index] == (1 if a >= b else 0)


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
@settings(max_examples=50, deadline=None)
def test_bit_decompose(a):
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bits = bld.gadget_bit_decompose(x, 12)
    cs = bld.finalize()
    w = cs.generate_witness({x: a})
    assert [w[b.index] for b in bits] == [(a >> i) & 1 for i in range(12)]


def test_bit_decompose_range_enforced():
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bld.gadget_bit_decompose(x, 4)
    cs = bld.finalize()
    with pytest.raises((UnsatisfiableError, R1csError)):
        cs.generate_witness({x: 16})  # out of 4-bit range


def _gadget_or(bld, x, y, label="or"):
    """out = x + y - x*y in one row, solved natively: an OR of bits."""
    xl, yl = bld.lc(x), bld.lc(y)
    out = bld.alloc_internal(label)
    bld.enforce(xl, yl, xl + yl - bld.lc(out), label)

    def solve(v):
        xv, yv = v[x.index], v[y.index]
        v[out.index] = (xv + yv - xv * yv) % P
    bld.add_solver([out], solve)
    return out


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_boolean_gadgets(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    a_and = bld.gadget_and(x, y)
    a_or = _gadget_or(bld, x, y)
    not_x = bld.gadget_not(x)
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert w[a_and.index] == (a & b)
    assert w[a_or.index] == (a | b)
    # NOT returns a linear combination over wire indices; evaluate it
    lc_val = sum(w[i] * k for i, k in not_x.terms.items()) % P
    assert lc_val == 1 - a


def test_assert_bool_rejects_non_bit():
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bld.assert_bool(x, "x_bool")
    cs = bld.finalize()
    cs.generate_witness({x: 1})
    with pytest.raises(UnsatisfiableError):
        cs.generate_witness({x: 2})


# -- solver and error reporting -----------------------------------------------


def test_unsatisfiable_names_constraint_label():
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bld.assert_equal(x, bld.lc(5), "pin_x_to_five")
    cs = bld.finalize()
    with pytest.raises(UnsatisfiableError, match="pin_x_to_five"):
        cs.generate_witness({x: 6})


def test_product_reading_an_unsolved_wire_is_named():
    # the hint wire h gets its solver only after the product that reads it
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    h = bld.alloc_internal("h")
    bld.gadget_mul(h, x, "early")
    bld.add_solver([h], lambda v: v.__setitem__(h.index, 2))
    cs = bld.finalize()
    with pytest.raises(R1csError, match=r"product row 0 \(early\)"):
        cs.generate_witness({x: 3})


def test_final_check_reads_the_final_values():
    # a hint that rewrites an operand of an already-solved product: the
    # product's row, evaluated over the final values, no longer holds
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bld.assert_equal(x, x, "first")
    bld.gadget_mul(x, x, "square")
    h = bld.alloc_internal("h")

    def rogue(v):
        v[h.index] = 0
        v[x.index] += 1
    bld.add_solver([h], rogue)
    bld.assert_equal(h, 0, "h_zero")
    cs = bld.finalize()
    with pytest.raises(UnsatisfiableError,
                       match=r"violates constraint 1 \(square\)"):
        cs.generate_witness({x: 3})


def test_missing_input_named():
    bld = CircuitBuilder()
    x = bld.alloc_private("needed_value")
    bld.assert_equal(x, bld.lc(5))
    cs = bld.finalize()
    with pytest.raises(MissingInputError, match="needed_value"):
        cs.generate_witness({})


def test_public_inputs_ordering():
    bld = CircuitBuilder()
    pub_a = bld.alloc_public("a")
    pub_b = bld.alloc_public("b")
    priv = bld.alloc_private("w")
    prod = bld.gadget_mul(pub_a, priv, "a*w")
    bld.assert_equal(prod, pub_b, "a*w=b")
    cs = bld.finalize()
    # every wire keeps the index it was allocated with: the constant, the
    # publics 1..l in allocation order, then the rest in allocation order
    assert [pub_a.index, pub_b.index, priv.index, prod.index] == [1, 2, 3, 4]
    assert cs.n_public == 2
    assert cs.labels == ["one", "a", "b", "w", "a*w"]
    w = cs.generate_witness({pub_a: 3, priv: 4, pub_b: 12})
    assert w.values == (1, 3, 12, 4, 12)
    assert cs.public_inputs(w) == [3, 12]


@pytest.mark.parametrize("first", ["alloc_private", "alloc_internal"])
def test_alloc_public_after_private_raises(first):
    bld = CircuitBuilder()
    bld.alloc_public("a")
    getattr(bld, first)("w")
    with pytest.raises(R1csError, match="'b' allocated after a private"):
        bld.alloc_public("b")
    # the refused wire was not allocated
    assert bld.alloc_internal("next").index == 3


def test_check_validates_each_row():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_mul(x, y, "prod")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert cs.first_violation(cs.evaluate(w)) is None
    bad = list(w.values)
    bad[out.index] = (bad[out.index] + 1) % P
    assert cs.first_violation(cs.evaluate(bad)) == 0


def test_witness_keeps_its_system_and_checked_evaluations():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    bld.gadget_mul(x, y, "prod")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert w.cs is cs
    # row 1 is finalize's 0 * 0 = 0 padding
    assert w.evaluations == cs.evaluate(w) == ([2, 0], [3, 0], [6, 0])
    # the values the evaluations belong to cannot change
    assert w.values == (1, 2, 3, 6)
    with pytest.raises(TypeError):
        w.values[3] = 7
    with pytest.raises(AttributeError):
        w.values = (1, 2, 3, 7)
    assert w.values == (1, 2, 3, 6)
    # a witness built by hand has neither
    plain = Witness([1, 2, 3, 6])
    assert plain.cs is None and plain.evaluations is None


def test_evaluate_feeds_check():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    xy = bld.gadget_mul(x, y, "xy")
    out = bld.gadget_mul(xy, y, "xyy")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert cs.evaluate(w) == ([2, 6], [3, 3], [6, 18])
    assert cs.first_violation(cs.evaluate(w)) is None
    bad = list(w.values)
    bad[out.index] += 1
    assert cs.first_violation(cs.evaluate(bad)) == 1
    with pytest.raises(R1csError, match=r"witness length 3 != wire count 5"):
        cs.evaluate(bad[:3])


# -- compiled rows against the dict walk --------------------------------------

_COEFFS = st.sampled_from([1, 2, P - 1]) | st.integers(0, P - 1)
_VALUES = st.integers(0, 2 * P)


@st.composite
def _systems(draw):
    """A small system and its input wires.  After the inputs, each step
    adds a product row or a hint (w_new = w_src + k) that solves one new
    wire, or a check row over any wires, one that every witness
    satisfies or a random one; padding rows end it.  A side is a new dict of up
    to three terms (empty and one-term ones included) or a dict an
    earlier side holds (a row's a may be its b), and it may read a wire
    no earlier step solves.  A hint may also rewrite an earlier wire."""
    n_inputs = draw(st.integers(1, 4))
    n_public = draw(st.integers(0, n_inputs))
    inputs = [Wire(i, f"in{i}") for i in range(1, n_inputs + 1)]
    kinds = draw(st.lists(st.sampled_from(["product", "hint", "check"]),
                          max_size=8))
    n_wires = 1 + n_inputs + sum(kind != "check" for kind in kinds)
    rows, row_labels, solvers, sides = [], [], [], []

    def side(limit):
        if draw(st.integers(0, 9)) == 0:
            limit = n_wires  # may read an unsolved wire
        shared = [d for d in sides if all(j < limit for j in d)]
        if shared and draw(st.booleans()):
            return draw(st.sampled_from(shared))
        terms = draw(st.dictionaries(st.integers(0, limit - 1), _COEFFS,
                                     max_size=3))
        sides.append(terms)
        return terms
    new = 1 + n_inputs
    for kind in kinds:
        if kind == "product":
            a = side(new)
            b = a if draw(st.booleans()) else side(new)
            solvers.append(len(rows))
            rows.append((a, b, {new: 1}))
        elif kind == "hint":
            src, k = draw(st.integers(0, new - 1)), draw(_COEFFS)
            rogue = draw(st.booleans())

            def solve(v, t=new, src=src, k=k, rogue=rogue):
                v[t] = (v[src] + k) % P
                if rogue:
                    v[src] = (v[src] + 1) % P
            solvers.append(([new], solve))
            sum_k = {0: k}
            sum_k[src] = sum_k.get(src, 0) + 1
            rows.append((sum_k, {0: 1}, {new: 1}))
        elif draw(st.booleans()):  # holds for every witness
            x = side(n_wires)
            rows.append((x, {0: 1}, x) if draw(st.booleans())
                        else ({}, x, {}))
        else:
            rows.append((side(n_wires), side(n_wires), side(n_wires)))
        row_labels.append(f"{kind}{len(rows) - 1}")
        new += kind != "check"
    pad = draw(st.integers(0, 3))
    rows += [({}, {}, {})] * pad
    row_labels += [None] * pad
    if not rows:
        rows, row_labels = [({}, {}, {})], [None]
    cs = ConstraintSystem(rows, n_wires, n_public,
                          [f"w{j}" for j in range(n_wires)], solvers, inputs,
                          row_labels)
    return cs, inputs


def _outcome(solve, assignments):
    """A solve's witness values and evaluations, or its error."""
    try:
        w = solve(assignments)
    except R1csError as exc:
        return type(exc), str(exc)
    return w.values, w.evaluations


def _same_as_dict_walk(cs, values):
    evaluations = cs.evaluate(values)
    assert evaluations == schoolbook.evaluate(cs, values)
    assert cs.first_violation(evaluations) == \
        schoolbook.first_violation(cs, evaluations)


@given(_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_rows_match_dict_walk(system, data):
    # the same witness or error from generate_witness, and the same
    # evaluations and first violated row, before and after tampering
    cs, inputs = system
    missing = data.draw(st.sampled_from([None] * 7 + inputs[:1]))
    assignments = {w: data.draw(_VALUES) for w in inputs if w is not missing}
    outcome = _outcome(cs.generate_witness, assignments)
    assert outcome == _outcome(
        lambda a: schoolbook.generate_witness(cs, a), assignments)
    if isinstance(outcome[0], tuple):
        values = list(outcome[0])
    else:
        values = [data.draw(_VALUES) for _ in range(cs.n_wires)]
    _same_as_dict_walk(cs, values)
    for _ in range(data.draw(st.integers(1, 3))):
        values[data.draw(st.integers(0, cs.n_wires - 1))] = data.draw(_VALUES)
        _same_as_dict_walk(cs, values)


def _assignments(circuit, publics, witness, monkeypatch):
    """The input assignment a circuit hands its system."""
    with monkeypatch.context() as m:
        m.setattr(circuit.cs, "generate_witness", lambda assigned: assigned)
        return circuit.generate_witness(publics, witness)


def test_compiled_rows_match_dict_walk_on_production_circuits(
        rss_artifacts, audit_fixture_artifacts, monkeypatch):
    rng = random.Random(11)
    rss, audit = rss_artifacts, audit_fixture_artifacts
    cases = []
    for seed in range(3):
        scenario = RssScenario(speed_mps=rng.uniform(5, 30),
                               distance_m=rng.uniform(5, 90),
                               probability=rng.uniform(0.5, 1.0))
        publics, witness, _ = make_rss_inputs(
            scenario, nonce=rng.randbytes(16), s_sec=rng.randrange(P),
            circuit=rss.circuit)
        cases.append((rss.circuit, publics, witness))
        publics, witness = make_audit_inputs(
            audit.challenge, audit.thresholds, audit.detections,
            nonce=rng.randbytes(16), s_sec=rng.randrange(P))[:2]
        cases.append((audit.circuit, publics, witness))
    for circuit, publics, witness in cases:
        cs = circuit.cs
        assignments = _assignments(circuit, publics, witness, monkeypatch)
        w = cs.generate_witness(assignments)
        expected = schoolbook.generate_witness(cs, assignments)
        assert (w.values, w.evaluations) == \
            (expected.values, expected.evaluations)
        values = list(w.values)
        values[rng.randrange(1, cs.n_wires)] = rng.randrange(P)
        _same_as_dict_walk(cs, values)


# -- the encoding's digests ----------------------------------------------------

# SHA-256 of `to_bytes()`: (rows, wires, digest).  The wire index space and
# the row encoding are fixed by these; keys and proofs bind the digest.
R1CS_DIGESTS = {
    "rss": (1024, 1034, "c533822ac9169d6677a369505a28be92"
                        "278acd1190b6f42733f575626da523bc"),
    "reduced-rss": (256, 157, "c61eb24ba13eb4725e22c4a3eb6e44c6"
                              "d92a292412d7370ef5b3b5c51b52f463"),
    "audit-fixture": (32768, 26618, "0eb0cf872e3b1cf99b886fff116f611e"
                                    "38c114347ca4683d51675df1d6384cf5"),
}


def test_r1cs_digests_pinned(rss_artifacts, small_rss_artifacts,
                             audit_fixture_artifacts):
    for name, art in (("rss", rss_artifacts),
                      ("reduced-rss", small_rss_artifacts),
                      ("audit-fixture", audit_fixture_artifacts)):
        cs = art.cs
        assert (cs.n_constraints, cs.n_wires, cs.digest().hex()) == \
            R1CS_DIGESTS[name], name


def _solver_steps(cs):
    """Solver steps by kind: "product" for a product row, else the hint
    closure's name."""
    return Counter("product" if isinstance(step, int)
                   else step[1].__qualname__.split(".")[-3]
                   for step in cs._solvers)


def test_products_solve_from_their_rows(rss_artifacts,
                                        audit_fixture_artifacts):
    # every gadget_mul row is its own solver step; closures remain only
    # for hints
    assert _solver_steps(rss_artifacts.cs) == {
        "product": 877, "gadget_bit_decompose": 5}
    assert _solver_steps(audit_fixture_artifacts.cs) == {
        "product": 9169, "gadget_bit_decompose": 825, "gadget_is_zero": 105,
        "build_audit_circuit": 5}


def test_pad_to_power_of_two():
    # finalize pads with unlabelled 0 * 0 = 0 rows to a power of two, and
    # to 2 rows at least
    for rows, size in ((1, 2), (2, 2), (4, 4), (5, 8)):
        bld = CircuitBuilder()
        x = bld.alloc_private("x")
        for i in range(rows):
            bld.gadget_mul(x, x, f"m{i}")
        cs = bld.finalize()
        assert cs.n_constraints == size
        assert cs.row_labels == [f"m{i}" for i in range(rows)] + \
            [None] * (size - rows)
        assert cs.rows[rows:] == [({}, {}, {})] * (size - rows)
        w = cs.generate_witness({x: 3})
        assert cs.first_violation(cs.evaluate(w)) is None
