"""Constraint system builder, gadget semantics, solver pipeline, and the
R1CS wire encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from hermes_seal.field import TEST_FIELD
from hermes_seal.r1cs import (CircuitBuilder, ConstraintSystem,
                              MissingInputError, R1csError,
                              UnsatisfiableError, Witness,
                              pad_to_power_of_two)

P = TEST_FIELD.p


def val(cs, w, wire):
    """Witness value of a builder wire, after the public-input permutation."""
    return w[cs.wire_index(wire)]


# -- gadgets vs native oracle -------------------------------------------------


@given(st.integers(min_value=0, max_value=P - 1),
       st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=50, deadline=None)
def test_gadget_mul(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_mul(x, y)
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert val(cs, w, out) == a * b % P


@given(st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=50, deadline=None)
def test_gadget_is_zero(a):
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    out = bld.gadget_is_zero(x)
    cs = bld.finalize()
    w = cs.generate_witness({x: a})
    assert val(cs, w, out) == (1 if a == 0 else 0)


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=80, deadline=None)
def test_gadget_geq(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_geq(x, y, bits=8)
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert val(cs, w, out) == (1 if a >= b else 0)


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
@settings(max_examples=50, deadline=None)
def test_bit_decompose(a):
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bits = bld.gadget_bit_decompose(x, 12)
    cs = bld.finalize()
    w = cs.generate_witness({x: a})
    assert [val(cs, w, b) for b in bits] == [(a >> i) & 1 for i in range(12)]


def test_bit_decompose_range_enforced():
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    bld.gadget_bit_decompose(x, 4)
    cs = bld.finalize()
    with pytest.raises((UnsatisfiableError, R1csError)):
        cs.generate_witness({x: 16})  # out of 4-bit range


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_boolean_gadgets(a, b):
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    a_and = bld.gadget_and(x, y)
    a_or = bld.gadget_or(x, y)
    not_x = bld.gadget_not(x)
    cs = bld.finalize()
    w = cs.generate_witness({x: a, y: b})
    assert val(cs, w, a_and) == (a & b)
    assert val(cs, w, a_or) == (a | b)
    # NOT returns a linear combination over provisional indices; evaluate it
    lc_val = sum(w[cs._perm[i]] * k for i, k in not_x.terms.items()) % P
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
    priv = bld.alloc_private("w")
    pub_b = bld.alloc_public("b")
    bld.enforce(bld.lc(pub_a), bld.lc(priv), bld.lc(pub_b), "a*w=b")
    cs = bld.finalize()
    w = cs.generate_witness({pub_a: 3, priv: 4, pub_b: 12})
    # publics occupy indices 1..l in declaration order; w[0] == 1
    assert w[0] == 1
    assert cs.public_inputs(w) == [3, 12]


def test_check_validates_each_row():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    out = bld.gadget_mul(x, y, "prod")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert cs.is_satisfied(w)
    bad = list(w.values)
    bad[cs.wire_index(out)] = (bad[cs.wire_index(out)] + 1) % P
    assert not cs.is_satisfied(bad)


def test_witness_keeps_its_system_and_checked_evaluations():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    bld.gadget_mul(x, y, "prod")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert w.cs is cs
    assert w.evaluations == cs.evaluate(w) == ([2], [3], [6])
    # the values the evaluations belong to cannot change
    assert w.values == (1, 2, 3, 6)
    with pytest.raises(TypeError):
        w.values[3] = 7
    with pytest.raises(AttributeError):
        w.values = (1, 2, 3, 7)
    assert w.values == (1, 2, 3, 6)
    # a witness built by hand has neither
    plain = Witness([1, 2, 3, 6], cs.field)
    assert plain.cs is None and plain.evaluations is None


def test_evaluate_feeds_check():
    bld = CircuitBuilder()
    x, y = bld.alloc_private("x"), bld.alloc_private("y")
    xy = bld.gadget_mul(x, y, "xy")
    out = bld.gadget_mul(xy, y, "xyy")
    cs = bld.finalize()
    w = cs.generate_witness({x: 2, y: 3})
    assert cs.evaluate(w) == ([2, 6], [3, 3], [6, 18])
    assert cs.check(w) == (True, None)
    bad = list(w.values)
    bad[cs.wire_index(out)] += 1
    assert cs.first_violation(cs.evaluate(bad)) == 1
    assert cs.check(bad) == (False, 1)
    with pytest.raises(R1csError, match=r"witness length 3 != wire count 5"):
        cs.check(bad[:3])


# -- serialization ------------------------------------------------------------


def test_r1cs_bytes_roundtrip():
    bld = CircuitBuilder()
    x = bld.alloc_public("x")
    y = bld.alloc_private("y")
    bld.gadget_geq(x, y, bits=6, label="cmp")
    cs = bld.finalize()
    raw = cs.to_bytes()
    back = ConstraintSystem.from_bytes(raw, TEST_FIELD)
    assert back.n_constraints == cs.n_constraints
    assert back.n_wires == cs.n_wires
    assert back.n_public == cs.n_public
    assert back.to_bytes() == raw
    assert back.digest() == cs.digest()


def test_r1cs_bytes_rejects_garbage():
    with pytest.raises(R1csError):
        ConstraintSystem.from_bytes(b"not-an-r1cs-blob-000", TEST_FIELD)


def test_pad_to_power_of_two():
    bld = CircuitBuilder()
    x = bld.alloc_private("x")
    for i in range(5):
        bld.gadget_mul(x, x, f"m{i}")
    cs = pad_to_power_of_two(bld.finalize())
    assert cs.n_constraints == 8
    w = cs.generate_witness({x: 3})
    assert cs.is_satisfied(w)
