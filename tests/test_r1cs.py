"""Constraint system builder, gadget semantics, solver pipeline, the wire
index space, and the R1CS encoding's digests."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from hermes_seal.field import TEST_FIELD
from hermes_seal.r1cs import (CircuitBuilder, MissingInputError, R1csError,
                              UnsatisfiableError, Witness)

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
