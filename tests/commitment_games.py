"""Empirical security games for the sponge commitments, and the sponge
gadget's nominal row count, for the commitment tests and criterion 10.

The games give falsifiable checks of collision resistance, binding and
hiding; each takes a `truncate_bits` (or fixed payloads) so that a
deliberately weakened variant *does* break, validating the harness itself.
"""

import random

from hermes_seal.commitment import (STATE_WIDTH, commit, sponge_hash,
                                    sponge_parameters)
from hermes_seal.field import PrimeModulus, TEST_FIELD


def gadget_constraints_per_permutation(field: PrimeModulus = TEST_FIELD) -> int:
    """Rows of one in-circuit permutation with no constant S-box input:
    two per cube."""
    params = sponge_parameters(field)
    return 2 * (STATE_WIDTH * params.full_rounds + params.partial_rounds)


def _truncated(c: int, bits):
    return c & ((1 << bits) - 1) if bits else c


def game_collision(trials: int, rng: random.Random,
                   field: PrimeModulus = TEST_FIELD, truncate_bits: int = 0):
    """Birthday-search for colliding 2-element inputs; returns a colliding
    pair or None.  At full width a collision means the hash is broken; with
    truncate_bits ~16 a collision is expected (harness sanity check)."""
    seen = {}
    p = field.p
    for _ in range(trials):
        x = (rng.randrange(p), rng.randrange(p))
        h = _truncated(sponge_hash(list(x), field), truncate_bits)
        if h in seen and seen[h] != x:
            return seen[h], x
        seen[h] = x
    return None


def game_binding(trials: int, rng: random.Random,
                 field: PrimeModulus = TEST_FIELD, truncate_bits: int = 0):
    """Try to open a fixed commitment to a different payload; returns the
    equivocating opening or None."""
    p = field.p
    payload = [rng.randrange(p)]
    blinder = rng.randrange(p)
    c = _truncated(commit(0, payload, blinder, field), truncate_bits)
    for _ in range(trials):
        payload2 = [rng.randrange(p)]
        blinder2 = rng.randrange(p)
        if payload2 != payload and \
                _truncated(commit(0, payload2, blinder2, field),
                           truncate_bits) == c:
            return payload2, blinder2
    return None


def game_hiding(trials: int, rng: random.Random,
                field: PrimeModulus = TEST_FIELD) -> float:
    """Distinguishing advantage for commitments to two fixed payloads under
    fresh blinders, using a low-bit distinguisher; should be ~0."""
    p = field.p
    payloads = ([1], [2])
    correct = 0
    for _ in range(trials):
        bit = rng.randrange(2)
        c = commit(0, payloads[bit], rng.randrange(p), field)
        guess = c & 1  # any fixed efficient distinguisher
        if guess == bit:
            correct += 1
    return abs(correct / trials - 0.5)
