"""Prime fields, real<->field scaling, the nonce length and the domain
separators.

Every value below the package's wire format is a plain int or bytes:
witness values, scaled reals, sponge digests, commitments and domain
separators are canonical ints mod `PrimeModulus.p`.  `FieldElement` is left
only as the type of a package's commitment, a canonical residue.  The
package's byte format, the commitment's section included, is `protocol`'s.
"""

from __future__ import annotations

import math

__all__ = [
    "PrimeModulus",
    "FieldElement",
    "TEST_FIELD",
    "STANDARD_FIELD",
    "batch_inverse",
    "scale",
    "unscale",
    "EncodingError",
    "ProtocolError",
    "RSS_COMMIT_DOMAIN",
    "RSS_SIGN_DOMAIN",
    "AUDIT_COMMIT_DOMAIN",
    "AUDIT_SIGN_DOMAIN",
    "nonce_to_field",
]


class EncodingError(ValueError):
    """A malformed curve point encoding."""


class ProtocolError(Exception):
    """A malformed protocol value: a package or a certificate."""


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
    """A package's commitment: the canonical residue `value` in [0, p) of
    an int.  It has no arithmetic and no equality of its own; compare
    `value`s."""

    __slots__ = ("value",)

    def __init__(self, value: int, modulus: PrimeModulus):
        self.value = value % modulus.p

    def __repr__(self):
        return f"Fp({self.value})"


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


def scale(x: float, rho: int, field: PrimeModulus = TEST_FIELD) -> int:
    """Quantize a real to F_p: floor(x * rho) mod p.

    Caller must keep |floor(x*rho)| < p/2 or the signed roundtrip breaks.
    Negative reals land in the upper half of the field.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot scale non-finite value {x!r}")
    _check_rho(rho)
    return math.floor(x * rho) % field.p


def unscale(z: int, rho: int) -> float:
    """Inverse of scale over TEST_FIELD: z/rho for the lower half of the
    field, (z-p)/rho above."""
    _check_rho(rho)
    p = TEST_FIELD.p
    signed = z if z <= (p - 1) // 2 else z - p
    return signed / rho


NONCE_BYTES = 16   # a package nonce; `nonce_to_field` reads it as nu


# Domain separators are 32-bit ints packed big-endian as [app][op][counter:2]:
# app 0 is RSS and 1 the audit, op 1 commits and 2 signs, the counter is 0.
RSS_COMMIT_DOMAIN = 0x00010000      # 65536
RSS_SIGN_DOMAIN = 0x00020000        # 131072
AUDIT_COMMIT_DOMAIN = 0x01010000    # 16842752
AUDIT_SIGN_DOMAIN = 0x01020000      # 16908288


def nonce_to_field(nonce: bytes, field: PrimeModulus = TEST_FIELD) -> int:
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
    return int.from_bytes(nonce, "little") % field.p
