"""Field elements (a package commitment's canonical residue tagged with its
modulus), scaling quantization, and tagged encodings."""

import pytest
from hypothesis import given, strategies as st

from hermes_seal.field import (DTypeTag, EncodingError, FieldElement,
                               NONCE_BYTES, STANDARD_FIELD, TEST_FIELD,
                               decode, encode, scale, unscale)

P = TEST_FIELD.p
elems = st.integers(min_value=0, max_value=P - 1)


# -- field elements: canonical residues tagged with their modulus -----------


def test_field_element_keeps_canonical_residue():
    assert FieldElement(P + 5, TEST_FIELD).value == 5
    assert FieldElement(-1, TEST_FIELD).value == P - 1
    a, b = FieldElement(7, TEST_FIELD), FieldElement(P + 7, TEST_FIELD)
    assert a.value == b.value == 7
    # no equality of its own: an element never matches an int, congruent
    # or not, so a comparison has to name `value`
    assert a != 7 and a != P + 7 and a != b
    assert len(a.to_bytes()) == TEST_FIELD.byte_width
    big = FieldElement(-1, STANDARD_FIELD)
    assert big.to_bytes() == (STANDARD_FIELD.p - 1).to_bytes(
        STANDARD_FIELD.byte_width, "little")


def test_roots_of_unity():
    for order in (1, 2, 4, 1024, 1 << 20):
        w = TEST_FIELD.root_of_unity(order)
        assert pow(w, order, P) == 1
        if order > 1:
            assert pow(w, order // 2, P) != 1
    with pytest.raises(ValueError):
        TEST_FIELD.root_of_unity(3)
    with pytest.raises(ValueError):
        TEST_FIELD.root_of_unity(1 << 40)  # beyond 2-adicity 32


# -- scaling ------------------------------------------------------------------


def test_scaling_worked_example():
    z = scale(0.75, 100)
    assert z == 75
    assert unscale(z, 100) == 0.75


def test_scaling_negative_reals():
    z = scale(-1.25, 100)
    assert z == P - 125
    assert unscale(z, 100) == -1.25


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=10**6))
def test_scaling_roundtrip_error_bound(x, rho):
    # floor quantization error lies in [0, 1/rho); the tiny slack covers
    # float rounding at the floor boundary (e.g. x just below zero, where
    # the error rounds to exactly 1/rho in binary64)
    assert abs(unscale(scale(x, rho), rho) - x) <= (1.0 + 1e-9) / rho


def test_scaling_floor_quantization():
    # floor, not round: 0.999 at rho=100 -> 99
    assert scale(0.999, 100) == 99
    assert scale(-0.001, 1000) == P - 1


def test_scaling_factor_validation():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            scale(1.0, bad)
    with pytest.raises(ValueError):
        scale(float("nan"), 10)


# -- tagged encodings ---------------------------------------------------------

# frozen golden bytes (oracle: widths and little-endian order are contract)
_GOLDENS = [
    (131072, DTypeTag.CTX, bytes.fromhex("00000200")),
    (123456789, DTypeTag.TS, bytes.fromhex("15cd5b0700000000")),
    (bytes(range(16)), DTypeTag.NONCE, bytes(range(16))),
    (FieldElement(42, TEST_FIELD), DTypeTag.COMMIT,
     (42).to_bytes(8, "little")),
]


@pytest.mark.parametrize("value,tag,expected", _GOLDENS)
def test_encode_goldens(value, tag, expected):
    assert encode(value, tag) == expected
    back = decode(expected, tag)
    if tag is DTypeTag.COMMIT:
        back, value = back.value, value.value
    assert back == value


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ctx_roundtrip(v):
    assert decode(encode(v, DTypeTag.CTX), DTypeTag.CTX) == v


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_ts_roundtrip(v):
    assert decode(encode(v, DTypeTag.TS), DTypeTag.TS) == v


@given(st.binary(min_size=NONCE_BYTES, max_size=NONCE_BYTES))
def test_nonce_roundtrip(v):
    assert decode(encode(v, DTypeTag.NONCE), DTypeTag.NONCE) == v


@given(elems)
def test_commit_roundtrip(v):
    back = decode(encode(FieldElement(v, TEST_FIELD), DTypeTag.COMMIT),
                  DTypeTag.COMMIT)
    assert back.value == v and back.modulus is TEST_FIELD


def test_encoding_rejections():
    with pytest.raises(EncodingError):
        encode(1 << 32, DTypeTag.CTX)          # overflow
    with pytest.raises(EncodingError):
        encode(-1, DTypeTag.TS)                # negative
    with pytest.raises(EncodingError):
        encode(True, DTypeTag.CTX)             # bool is not an int here
    with pytest.raises(EncodingError):
        encode(b"short", DTypeTag.NONCE)       # wrong nonce width
    with pytest.raises(EncodingError):
        encode(7, DTypeTag.COMMIT)             # not a field element
    with pytest.raises(EncodingError):
        decode(b"\x00" * 3, DTypeTag.CTX)      # truncated
    with pytest.raises(EncodingError):
        decode(P.to_bytes(8, "little"), DTypeTag.COMMIT)  # >= p
    with pytest.raises(EncodingError):
        decode("notbytes", DTypeTag.CTX)
