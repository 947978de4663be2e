"""Sponge hash, circuit gadget equivalence, commitments, and the empirical
security games."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hermes_seal.commitment import (RATE, STATE_WIDTH, commit,
                                    open_commitment, sponge_gadget,
                                    sponge_hash, sponge_parameters,
                                    sponge_permutation, verify_commitment)
from hermes_seal.field import STANDARD_FIELD, TEST_FIELD
from hermes_seal.r1cs import CircuitBuilder, UnsatisfiableError

from commitment_games import (gadget_constraints_per_permutation,
                              game_binding, game_collision, game_hiding)
from schoolbook import rows_of

P = TEST_FIELD.p
elems = st.integers(min_value=0, max_value=P - 1)


# -- parameters ---------------------------------------------------------------


def test_parameters_shape():
    params = sponge_parameters(TEST_FIELD)
    assert params.alpha == 3            # q % 3 == 2, cube is a permutation
    assert params.full_rounds == 8
    assert params.partial_rounds == 39  # ceil(log_3 p) for the 62-bit prime
    assert len(params.round_constants) == 47
    assert all(len(rc) == STATE_WIDTH for rc in params.round_constants)
    std = sponge_parameters(STANDARD_FIELD)
    assert std.alpha == 5               # p % 3 == 1 there, cube not bijective
    assert std.partial_rounds == 110


def test_parameters_deterministic_and_field_separated():
    a = sponge_parameters(TEST_FIELD)
    b = sponge_parameters(TEST_FIELD)
    assert a.round_constants == b.round_constants and a.mds == b.mds
    std = sponge_parameters(STANDARD_FIELD)
    assert std.round_constants[0] != a.round_constants[0]


def test_permutation_is_injective_sample():
    params = sponge_parameters(TEST_FIELD)
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        s = [rng.randrange(P) for _ in range(3)]
        seen.add(tuple(sponge_permutation(s, params)))
    assert len(seen) == 200


# -- hash ---------------------------------------------------------------------

# frozen goldens: any change to parameters, padding, or absorption order
# breaks these values
_GOLDENS_TEST = {
    (): 578392087524675492,
    (0,): 214909475697609994,
    (1,): 1874997876329446801,
    (1, 2): 289369804809992962,
    (1, 2, 3): 2024675572442752068,
    (TEST_FIELD.p - 1,): 32326772891711122,
}


@pytest.mark.parametrize("inputs,expected", sorted(_GOLDENS_TEST.items()))
def test_hash_goldens(inputs, expected):
    assert sponge_hash(list(inputs), TEST_FIELD) == expected


def test_hash_length_binding():
    # zero-padding must not collide: length is bound into the capacity
    assert sponge_hash([1]) != sponge_hash([1, 0])
    assert sponge_hash([]) != sponge_hash([0])
    assert sponge_hash([1, 2]) != sponge_hash([1, 2, 0])


@given(st.lists(elems, max_size=6))
@settings(max_examples=40, deadline=None)
def test_hash_deterministic(xs):
    assert sponge_hash(xs) == sponge_hash(list(xs))


# -- gadget equivalence -------------------------------------------------------


def _sponge_circuit(inputs):
    """A builder holding sponge_gadget over `inputs` (ints become constant
    LCs, None a private input wire) bound to a private `out` wire."""
    bld = CircuitBuilder()
    wires = [bld.alloc_private(f"in{i}") for i, x in enumerate(inputs)
             if x is None]
    out = bld.alloc_private("out")
    it = iter(wires)
    lcs = [next(it) if x is None else bld.lc(x) for x in inputs]
    sponge_gadget(bld, lcs, out, "bind_h")
    return bld.finalize(), wires, out


def _gadget_rows(cs) -> int:
    """The gadget's rows: all but finalize's 0 * 0 = 0 padding rows."""
    return sum(row != ({}, {}, {}) for row in rows_of(cs))


@pytest.mark.parametrize("n_inputs", range(15))
def test_gadget_matches_native(n_inputs):
    """Satisfiable iff out is the native digest; a wrong out fails at the
    binding row, which the gadget emits even when nothing is private."""
    rng = random.Random(n_inputs)
    values = [rng.randrange(P) for _ in range(n_inputs)]
    cs, wires, out = _sponge_circuit([None] * n_inputs)
    digest = sponge_hash(values)
    assignment = dict(zip(wires, values))
    w = cs.generate_witness({**assignment, out: digest})
    assert w[out.index] == digest
    assert cs.row_labels.count("bind_h") == 1
    with pytest.raises(UnsatisfiableError, match=r"\(bind_h\)"):
        cs.generate_witness({**assignment, out: (digest + 1) % P})


def test_gadget_folds_constant_inputs():
    # all-constant input: every S-box folds and only the binding row is left
    cs, _, out = _sponge_circuit([3, 4, 5])
    assert cs.row_labels[:_gadget_rows(cs)] == ["bind_h"]
    cs.generate_witness({out: sponge_hash([3, 4, 5])})
    with pytest.raises(UnsatisfiableError, match=r"\(bind_h\)"):
        cs.generate_witness({out: sponge_hash([3, 4, 6])})
    # a constant beside a wire folds only its own round-0 S-box
    values = [7, 8]
    cs, wires, out = _sponge_circuit([7, None])
    assert _gadget_rows(cs) == gadget_constraints_per_permutation() - 4
    cs.generate_witness({wires[0]: 8, out: sponge_hash(values)})


def test_gadget_constraint_count():
    # 2 constraints per cube: 2 * (3*8 + 39) = 126 per permutation
    assert gadget_constraints_per_permutation() == 126
    # the first permutation's capacity len + rc is constant: its round-0
    # S-box folds (-2), and the digest binding is the last cube row (+0)
    cs, _, _ = _sponge_circuit([None] * RATE)  # one chunk
    assert _gadget_rows(cs) == 124
    # a later permutation has no constant S-box input
    cs, _, _ = _sponge_circuit([None] * (2 * RATE))
    assert _gadget_rows(cs) == 124 + 126


# -- commitments --------------------------------------------------------------


def test_commit_open_verify():
    c = commit(65536, [5, 6, 7], blinder=999)
    opening = open_commitment(65536, [5, 6, 7], 999)
    assert verify_commitment(c, opening)
    assert not verify_commitment(c, open_commitment(65536, [5, 6, 8], 999))
    assert not verify_commitment(c, open_commitment(65536, [5, 6, 7], 998))
    assert not verify_commitment(c, open_commitment(65537, [5, 6, 7], 999))


def test_domain_separation_changes_commitment():
    assert commit(65536, [1], 2) != commit(131072, [1], 2)


# -- security games (full-scale runs live in the acceptance suite) ------------


def test_collision_game_full_width_smoke():
    assert game_collision(2000, random.Random(1)) is None


def test_collision_game_truncated_finds_collision():
    # 16-bit truncation: birthday bound ~300 attempts; the harness works
    found = game_collision(2000, random.Random(2), truncate_bits=16)
    assert found is not None
    (a, b) = found
    assert a != b
    mask = (1 << 16) - 1
    assert sponge_hash(list(a)) & mask == sponge_hash(list(b)) & mask


def test_binding_game_smoke():
    assert game_binding(2000, random.Random(3)) is None


def test_hiding_game_smoke():
    adv = game_hiding(2000, random.Random(4))
    # 3 sigma for n=2000 Bernoulli(1/2): 3 * 0.5 / sqrt(2000) ~ 0.0335
    assert adv <= 0.034
