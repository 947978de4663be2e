"""Prime fields, real<->field scaling, and canonical tagged byte encodings.

Arithmetic throughout the toolkit (witness solving, NTTs, MSM scalars, the
sponge, Schnorr) is done on plain ints mod `PrimeModulus.p`.  A
`FieldElement` is a canonical residue tagged with its modulus: the type of
the field values that cross an API or a wire format, such as commitments
and scaled reals.
"""

from __future__ import annotations

import dataclasses
import enum
import math

__all__ = [
    "PrimeModulus",
    "FieldElement",
    "DTypeTag",
    "TEST_FIELD",
    "STANDARD_FIELD",
    "batch_inverse",
    "scale",
    "unscale",
    "encode",
    "decode",
    "EncodingError",
    "ProtocolError",
    "DomainSeparator",
    "RSS_COMMIT_DOMAIN",
    "RSS_SIGN_DOMAIN",
    "AUDIT_COMMIT_DOMAIN",
    "AUDIT_SIGN_DOMAIN",
    "nonce_to_field",
]


class EncodingError(ValueError):
    """Raised when encode/decode receives malformed input for a tag."""


class ProtocolError(Exception):
    """A malformed protocol value: domain separator, package or certificate."""


class PrimeModulus:
    """Description of a prime field F_p: the modulus plus derived constants."""

    __slots__ = ("name", "p", "byte_width", "two_adicity", "_odd_part", "_generator")

    def __init__(self, name: str, p: int, generator: int):
        self.name = name
        self.p = p
        self.byte_width = (p.bit_length() + 7) // 8
        odd, s = p - 1, 0
        while odd % 2 == 0:
            odd //= 2
            s += 1
        self.two_adicity = s
        self._odd_part = odd
        self._generator = generator  # multiplicative generator of F_p^*

    def __repr__(self):
        return f"PrimeModulus({self.name}, {self.p.bit_length()}-bit)"

    def root_of_unity(self, order: int) -> int:
        """Primitive root of unity of the given power-of-two order, as an int."""
        if order & (order - 1) or order == 0:
            raise ValueError("order must be a power of two")
        if order > (1 << self.two_adicity):
            raise ValueError(f"field {self.name} has 2-adicity {self.two_adicity}, "
                             f"cannot supply order-{order} roots")
        root = pow(self._generator, self._odd_part, self.p)
        size = 1 << self.two_adicity
        while size > order:
            root = root * root % self.p
            size //= 2
        return root


# "test" profile: 62-bit prime with 2-adicity 32, q % 3 == 2 so x^3 is a
# permutation (sponge S-box), and 36*q - 1 is prime (toy pairing curve).
TEST_FIELD = PrimeModulus("test", 2305843327041273857, 3)

# "standard" profile: the 254-bit scalar field of the BN254 curve family.
STANDARD_FIELD = PrimeModulus(
    "standard",
    21888242871839275222246405745257275088548364400416034343698204186575808495617,
    5,
)


class FieldElement:
    """Canonical residue in [0, p) tagged with its modulus.  It compares
    equal to an int congruent to it; arithmetic is done on `value` as an
    int."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        if not 0 <= value < modulus.p:
            value %= modulus.p
        self.value = value
        self.modulus = modulus

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.value == other.value and self.modulus.p == other.modulus.p
        if isinstance(other, int):
            return self.value == other % self.modulus.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus.p))

    def __repr__(self):
        return f"Fp({self.value})"

    def __bool__(self):
        return self.value != 0

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.modulus.byte_width, "little")


def batch_inverse(values, p: int):
    """Inverses mod p of nonzero `values` with one modular inversion
    (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _check_rho(rho: int):
    if not isinstance(rho, int) or rho < 1:
        raise ValueError("scaling factor must be a positive integer")


def scale(x: float, rho: int, field: PrimeModulus = TEST_FIELD) -> FieldElement:
    """Quantize a real to F_p: floor(x * rho) mod p.

    Caller must keep |floor(x*rho)| < p/2 or the signed roundtrip breaks.
    Negative reals land in the upper half of the field.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot scale non-finite value {x!r}")
    _check_rho(rho)
    return FieldElement(math.floor(x * rho) % field.p, field)


def unscale(z: FieldElement, rho: int) -> float:
    """Inverse of scale: z/rho for the lower half of the field, (z-p)/rho above."""
    _check_rho(rho)
    p = z.modulus.p
    signed = z.value if z.value <= (p - 1) // 2 else z.value - p
    return signed / rho


class DTypeTag(enum.Enum):
    """Datatype tags selecting the canonical serialization rule."""

    CTX = "CTX"
    R1CS = "R1CS"
    VK = "VK"
    CERT = "CERT"
    PROOF = "PROOF"
    COMMIT = "COMMIT"
    TS = "TS"
    NONCE = "NONCE"


# Fixed-width rules.  The wire format is little-endian throughout; widths are
# part of this artifact's contract (CTX 4 bytes, TS 8 bytes, NONCE 16 bytes,
# COMMIT one field element).  The blob tags carry already-serialized binary
# sections unchanged.
_INT_WIDTHS = {DTypeTag.CTX: 4, DTypeTag.TS: 8}
_BLOB_TAGS = frozenset({DTypeTag.R1CS, DTypeTag.VK, DTypeTag.CERT, DTypeTag.PROOF})
NONCE_BYTES = 16


def encode(value, dtype: DTypeTag) -> bytes:
    """Canonical byte encoding of a value under a datatype tag.

    Deterministic and injective per tag over the tag's declared domain.
    """
    if dtype in _INT_WIDTHS:
        if not isinstance(value, int) or isinstance(value, bool):
            raise EncodingError(f"{dtype.value} encodes integers, got {type(value).__name__}")
        width = _INT_WIDTHS[dtype]
        if not 0 <= value < 1 << (8 * width):
            raise EncodingError(f"{dtype.value} value {value} out of {width}-byte range")
        return value.to_bytes(width, "little")
    if dtype is DTypeTag.NONCE:
        if not isinstance(value, (bytes, bytearray)) or len(value) != NONCE_BYTES:
            raise EncodingError(f"NONCE encodes exactly {NONCE_BYTES} raw bytes")
        return bytes(value)
    if dtype is DTypeTag.COMMIT:
        if not isinstance(value, FieldElement):
            raise EncodingError("COMMIT encodes a field element")
        return value.to_bytes()
    if dtype in _BLOB_TAGS:
        if not isinstance(value, (bytes, bytearray)):
            raise EncodingError(f"{dtype.value} encodes raw bytes")
        return bytes(value)
    raise EncodingError(f"unknown dtype tag {dtype!r}")


def decode(data: bytes, dtype: DTypeTag, field: PrimeModulus = TEST_FIELD):
    """Exact inverse of encode for the same tag; rejects malformed buffers."""
    if not isinstance(data, (bytes, bytearray)):
        raise EncodingError("decode expects bytes")
    data = bytes(data)
    if dtype in _INT_WIDTHS:
        width = _INT_WIDTHS[dtype]
        if len(data) != width:
            raise EncodingError(f"{dtype.value} expects {width} bytes, got {len(data)}")
        return int.from_bytes(data, "little")
    if dtype is DTypeTag.NONCE:
        if len(data) != NONCE_BYTES:
            raise EncodingError(f"NONCE expects {NONCE_BYTES} bytes, got {len(data)}")
        return data
    if dtype is DTypeTag.COMMIT:
        if len(data) != field.byte_width:
            raise EncodingError(f"COMMIT expects {field.byte_width} bytes, got {len(data)}")
        v = int.from_bytes(data, "little")
        if v >= field.p:
            raise EncodingError("COMMIT bytes encode a value outside the field")
        return FieldElement(v, field)
    if dtype in _BLOB_TAGS:
        return data
    raise EncodingError(f"unknown dtype tag {dtype!r}")


@dataclasses.dataclass(frozen=True)
class DomainSeparator:
    """32-bit separator packed big-endian as [app][op][counter:2]."""
    app: int
    op: int
    counter: int = 0

    def __post_init__(self):
        for name, hi in (("app", 0xFF), ("op", 0xFF), ("counter", 0xFFFF)):
            if not 0 <= getattr(self, name) <= hi:
                raise ProtocolError(f"domain separator {name}="
                                    f"{getattr(self, name)} out of range")

    @property
    def value(self) -> int:
        return (self.app << 24) | (self.op << 16) | self.counter


RSS_COMMIT_DOMAIN = DomainSeparator(0x00, 0x01)      # 65536
RSS_SIGN_DOMAIN = DomainSeparator(0x00, 0x02)        # 131072
AUDIT_COMMIT_DOMAIN = DomainSeparator(0x01, 0x01)    # 16842752
AUDIT_SIGN_DOMAIN = DomainSeparator(0x01, 0x02)      # 16908288


def nonce_to_field(nonce: bytes, field: PrimeModulus = TEST_FIELD) -> int:
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
    return int.from_bytes(nonce, "little") % field.p
