"""Algebraic sponge hash (Poseidon-style) and commitments.

One permutation family serves both the native hash and its in-circuit
gadget; the two compute the same function, which the tests pin down.
Parameters (round constants, MDS matrix) are derived deterministically from
a seed string via counter-mode SHA-256 so that no external parameter files
are needed and both field profiles get their own consistent instances.

Commitments are hiding/binding in the random-sponge model:
    c = sponge(domain_sep, payload..., blinder).
Digests and commitments are canonical ints mod the field's p.
"""

from __future__ import annotations

import hashlib

from .field import PrimeModulus, TEST_FIELD

__all__ = [
    "SpongeParameters",
    "sponge_parameters",
    "sponge_permutation",
    "sponge_hash",
    "sponge_gadget",
    "byte_hash",
    "commit",
    "open_commitment",
    "verify_commitment",
    "PARAMETER_SEED",
]

PARAMETER_SEED = b"HERMES-SEAL-POSEIDON-v1"

STATE_WIDTH = 3
RATE = 2
FULL_ROUNDS = 8


def _alpha_for(field: PrimeModulus) -> int:
    """Smallest odd S-box exponent coprime to p-1 (so x^alpha permutes F_p)."""
    from math import gcd
    a = 3
    while gcd(a, field.p - 1) != 1:
        a += 2
    return a


def _partial_rounds_for(field: PrimeModulus, alpha: int) -> int:
    """Enough partial rounds for full degree growth: ceil(log_alpha(p))."""
    import math
    return math.ceil(math.log(field.p) / math.log(alpha))


class SpongeParameters:
    """Round constants and MDS matrix for one field profile."""

    __slots__ = ("field", "alpha", "full_rounds", "partial_rounds",
                 "round_constants", "mds")

    def __init__(self, field, alpha, full_rounds, partial_rounds,
                 round_constants, mds):
        self.field = field
        self.alpha = alpha
        self.full_rounds = full_rounds
        self.partial_rounds = partial_rounds
        self.round_constants = round_constants  # [rounds][STATE_WIDTH] ints
        self.mds = mds                          # [STATE_WIDTH][STATE_WIDTH] ints

    @property
    def n_rounds(self):
        return self.full_rounds + self.partial_rounds


def _field_stream(field: PrimeModulus, label: bytes):
    """Counter-mode SHA-256 stream of uniform field elements (rejection-free
    bias is negligible at 256 bits per draw)."""
    counter = 0
    while True:
        digest = hashlib.sha256(
            PARAMETER_SEED + b"/" + field.name.encode() + b"/" + label
            + counter.to_bytes(4, "big")).digest()
        yield int.from_bytes(digest, "big") % field.p
        counter += 1


def _matrix_invertible(m, p: int) -> bool:
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    return det != 0


_param_cache = {}


def sponge_parameters(field: PrimeModulus = TEST_FIELD) -> SpongeParameters:
    if field.p in _param_cache:
        return _param_cache[field.p]
    alpha = _alpha_for(field)
    partial = _partial_rounds_for(field, alpha)
    rc_stream = _field_stream(field, b"rc")
    rounds = FULL_ROUNDS + partial
    round_constants = [[next(rc_stream) for _ in range(STATE_WIDTH)]
                       for _ in range(rounds)]
    mds_stream = _field_stream(field, b"mds")
    while True:
        mds = [[next(mds_stream) for _ in range(STATE_WIDTH)]
               for _ in range(STATE_WIDTH)]
        if _matrix_invertible(mds, field.p):
            break
    params = SpongeParameters(field, alpha, FULL_ROUNDS, partial,
                              round_constants, mds)
    _param_cache[field.p] = params
    return params


def _sbox_fn(alpha: int, p: int):
    """Short multiply chains beat pow() for the two exponents in use: 3 for
    F_q and 5 for the standard field."""
    if alpha == 3:
        return lambda x: x * x % p * x % p

    def quint(x, p=p):
        x2 = x * x % p
        return x2 * x2 % p * x % p
    return quint


def sponge_permutation(state, params: SpongeParameters):
    """Apply the full permutation to a 3-element int state; returns new state."""
    p = params.field.p
    sbox = _sbox_fn(params.alpha, p)
    half = params.full_rounds // 2
    partial_end = half + params.partial_rounds
    s0, s1, s2 = state
    rcs = params.round_constants
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = params.mds
    for rnd in range(params.n_rounds):
        k0, k1, k2 = rcs[rnd]
        s0, s1, s2 = (s0 + k0) % p, (s1 + k1) % p, (s2 + k2) % p
        if half <= rnd < partial_end:
            s0 = sbox(s0)                       # partial round
        else:
            s0, s1, s2 = sbox(s0), sbox(s1), sbox(s2)
        s0, s1, s2 = ((m00 * s0 + m01 * s1 + m02 * s2) % p,
                      (m10 * s0 + m11 * s1 + m12 * s2) % p,
                      (m20 * s0 + m21 * s1 + m22 * s2) % p)
    return [s0, s1, s2]


def sponge_hash(inputs, field: PrimeModulus = TEST_FIELD) -> int:
    """Variable-length hash of ints to one canonical int mod p.

    The input length is bound into the initial capacity element, so inputs
    of different lengths never collide via zero-padding.
    """
    params = sponge_parameters(field)
    p = field.p
    vals = [int(x) % p for x in inputs]
    state = [0, 0, len(vals) % p]
    for i in range(0, len(vals), RATE):
        chunk = vals[i:i + RATE]
        for j, v in enumerate(chunk):
            state[j] = (state[j] + v) % p
        state = sponge_permutation(state, params)
    if not vals:
        state = sponge_permutation(state, params)
    return state[0]


def sponge_gadget(builder, input_lcs, out, label: str = "sponge"):
    """Constrain `out` (a wire or LC) to equal sponge_hash(input_lcs).

    An S-box x^3 costs two rows (square, then cube) when x is a wire
    combination and none when x is a constant LC: it is folded into the
    constant x^3.  The first permutation's capacity element len + rc is
    such a constant, and so is any input given as a constant.

    There is no output wire and no separate binding row.  The last S-box
    of the final permutation writes its cube row as
        sq * s2 = (out - m00*c0 - m01*c1) / m02,
    where c0, c1 are the other two cubes of that round and m0* the first
    row of the MDS matrix.  It holds iff out equals the squeezed element,
    and it carries `label`, so an unsatisfied digest names that row.  A
    permutation with no constant S-box input therefore costs
        2 * (3 * full_rounds + partial_rounds)
    rows, digest binding included.  Every circuit is over F_q, whose S-box
    is the cube (alpha = 3).
    """
    params = sponge_parameters()
    lcs = [builder._as_lc(x) for x in input_lcs]
    out = builder._as_lc(out)
    state = [builder.lc(0), builder.lc(0), builder.lc(len(lcs))]
    n_chunks = max(1, (len(lcs) + RATE - 1) // RATE)
    for ci in range(n_chunks):
        chunk = lcs[ci * RATE:(ci + 1) * RATE]
        for j, v in enumerate(chunk):
            state[j] = state[j] + v
        last = ci == n_chunks - 1
        state = _permutation_gadget(builder, state, params, f"{label}.p{ci}",
                                    out if last else None, label)


def _cube_gadget(builder, x, label, cube=None, cube_label=None):
    """The LC of x^3, or, given `cube`, the row x^3 = cube (labelled
    `cube_label`).  A constant x costs no square or cube row."""
    if set(x.terms) <= {0}:
        k = x.terms.get(0, 0)
        k3 = builder.lc(k * k % builder.p * k)
        if cube is None:
            return k3
        builder.assert_equal(cube, k3, cube_label)
        return cube
    sq = builder.gadget_mul(x, x, f"{label}.sq")
    if cube is None:
        return builder.lc(builder.gadget_mul(sq, x, f"{label}.cube"))
    builder.enforce(builder.lc(sq), x, cube, cube_label)
    return cube


def _permutation_gadget(builder, state, params, label, out=None,
                        out_label=None):
    """The permutation on a state of three LCs.  With `out`, the final
    round binds out to the squeezed element (see `sponge_gadget`) and the
    state is not returned."""
    half = params.full_rounds // 2
    last = params.n_rounds - 1
    mds = params.mds
    for rnd in range(params.n_rounds):
        rc = params.round_constants[rnd]
        state = [s + builder.lc(k) for s, k in zip(state, rc)]
        tag = f"{label}.r{rnd}s"
        if half <= rnd < half + params.partial_rounds:
            state[0] = _cube_gadget(builder, state[0], f"{tag}0")
        elif rnd == last and out is not None:
            m00, m01, m02 = mds[0]
            c0 = _cube_gadget(builder, state[0], f"{tag}0")
            c1 = _cube_gadget(builder, state[1], f"{tag}1")
            c2 = (out - c0.scaled(m00) - c1.scaled(m01)).scaled(
                pow(m02, -1, builder.p))
            _cube_gadget(builder, state[2], f"{tag}2", c2, out_label)
            return None
        else:
            state = [_cube_gadget(builder, s, f"{tag}{i}")
                     for i, s in enumerate(state)]
        state = [state[0].scaled(mds[r][0]) + state[1].scaled(mds[r][1])
                 + state[2].scaled(mds[r][2]) for r in range(STATE_WIDTH)]
    return state


def byte_hash(data: bytes) -> bytes:
    """The toolkit's byte-level hash (for blobs, transcripts, signatures)."""
    return hashlib.sha256(data).digest()


# -- commitments -------------------------------------------------------------


def commit(domain_sep: int, payload, blinder,
           field: PrimeModulus = TEST_FIELD) -> int:
    """c = sponge(domain_sep, payload..., blinder)."""
    return sponge_hash([domain_sep] + list(payload) + [blinder], field)


def open_commitment(domain_sep: int, payload, blinder):
    """The opening is simply the preimage; bundled for protocol plumbing."""
    return {"domain_sep": domain_sep, "payload": list(payload),
            "blinder": blinder}

def verify_commitment(c: int, opening: dict) -> bool:
    """The opening is the preimage of c over TEST_FIELD."""
    return commit(opening["domain_sep"], opening["payload"],
                  opening["blinder"]) == c
