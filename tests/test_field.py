"""Field elements (a package commitment's canonical residue), scaling
quantization, and the byte format of a package's fixed-width sections."""

import pytest
from hypothesis import given, strategies as st

from hermes_seal.field import (FieldElement, NONCE_BYTES, TEST_FIELD, scale,
                               unscale)
from hermes_seal.protocol import ProofPackage, ProtocolError, section_bytes

P = TEST_FIELD.p
elems = st.integers(min_value=0, max_value=P - 1)


# -- field elements: canonical residues ---------------------------------------


def test_field_element_keeps_canonical_residue():
    assert FieldElement(P + 5, TEST_FIELD).value == 5
    assert FieldElement(-1, TEST_FIELD).value == P - 1
    a, b = FieldElement(7, TEST_FIELD), FieldElement(P + 7, TEST_FIELD)
    assert a.value == b.value == 7
    # no equality of its own: an element never matches an int, congruent
    # or not, so a comparison has to name `value`
    assert a != 7 and a != P + 7 and a != b


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


# -- the package's fixed-width sections ----------------------------------------
# `protocol.section_bytes` writes them and `ProofPackage.from_bytes` reads
# them back; the commitment's width is the field's byte width.

# frozen golden bytes (oracle: widths and little-endian order are contract)
_GOLDENS = [
    pytest.param("ctx", 131072, bytes.fromhex("00000200"), id="ctx"),
    pytest.param("ts", 123456789, bytes.fromhex("15cd5b0700000000"), id="ts"),
    pytest.param("nonce", bytes(range(16)), bytes(range(16)), id="nonce"),
    pytest.param("commit", 42, (42).to_bytes(8, "little"), id="commit"),
]


def _package(ctx=0, ts=0, nonce=bytes(NONCE_BYTES), commit=0):
    """A package with empty artifacts around the given envelope."""
    return ProofPackage(b"", [], FieldElement(commit, TEST_FIELD), b"", b"",
                        b"", b"", ts, nonce, ctx)


def _read_back(name, value):
    """`value` as the `name` section of a package, written to bytes and
    read back."""
    back = ProofPackage.from_bytes(_package(**{name: value}).to_bytes())
    return {"ctx": back.sign_domain, "ts": back.timestamp,
            "nonce": back.nonce, "commit": back.commitment.value}[name]


@pytest.mark.parametrize("name,value,expected", _GOLDENS)
def test_encode_goldens(name, value, expected):
    assert section_bytes(name, value) == expected
    assert _read_back(name, value) == value


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ctx_roundtrip(v):
    assert _read_back("ctx", v) == v


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_ts_roundtrip(v):
    assert _read_back("ts", v) == v


@given(st.binary(min_size=NONCE_BYTES, max_size=NONCE_BYTES))
def test_nonce_roundtrip(v):
    assert _read_back("nonce", v) == v


@given(elems)
def test_commit_roundtrip(v):
    assert _read_back("commit", v) == v


def test_encoding_rejections():
    for name, value in (("ctx", 1 << 32),        # overflow
                        ("ts", 1 << 64),
                        ("ts", -1),              # negative
                        ("commit", 1 << 64),
                        ("nonce", b"short"),     # wrong nonce width
                        ("nonce", bytes(NONCE_BYTES + 1))):
        with pytest.raises(ProtocolError):
            section_bytes(name, value)
    # a commitment >= p fits its 8 bytes but does not decode
    pkg = _package()
    pkg.commitment.value = P
    with pytest.raises(ProtocolError):
        ProofPackage.from_bytes(pkg.to_bytes())
