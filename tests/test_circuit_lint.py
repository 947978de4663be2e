"""A lint over both production circuits: no locally free wire, no unbound
public, no unchecked bit.

* Local rank: fix every input wire except the public outputs (`c` and
  `SAFE`, or `c` and `PASS`).  At a seeded satisfying witness w, the
  Jacobian of the rows <a,w> * <b,w> - <c,w> over the remaining wires has
  entries a_j * <b,w> + b_j * <a,w> - c_j.  It is reduced mod Q by sparse
  elimination, each row pivoting on its largest column; a column left
  without a pivot is a wire that can move, to first order, with every row
  still satisfied.  This is the first-order form of the uniqueness
  question that Picus asks (Pailoor et al., PLDI 2023).  RSS has no free
  wire; the audit circuit's free wires are exactly its zero-operand
  `is_zero` `.inv` hints, each read only by its own `inv_trick` row, where
  x * inv = 1 - out holds for any inv once x = 0.
* Unbound public: every public wire is read by some row.  A public that no
  row reads gets the identity as its IC point, so a proof does not bind it.
* Unchecked bit: every wire `gadget_bit_decompose` allocates (label ending
  `.b<i>`) has its booleanity row b * (b - 1) = 0, stored as
  a = {b: 1}, b = {b: 1, 0: Q - 1}, c = {}.  A missing booleanity row still
  lets honest witnesses pass, so no satisfiability test notices it.

The last two checks are syntactic, and they cover what the rank check
cannot see: a non-boolean bit is a discrete alternative, not a local one,
and a row over fixed inputs only has no unknown to pin.  The mutant tests
delete one row at a time to show that the lint catches what it claims to.

Known gap: no check here proves global uniqueness, such as the audit
circuit's claim that its greedy one-hot hints are the only ones.  That
needs an SMT solver, and none is installed.
"""

import random
import re

import pytest

from hermes_seal.audit_circuit import make_audit_inputs
from hermes_seal.pairing import Q
from hermes_seal.rss_circuit import RssScenario, make_rss_inputs
from schoolbook import rows_of

BIT_LABEL = re.compile(r"\.b\d+$")


def unread_publics(cs, rows):
    read = {w for row in rows for lc in row for w in lc}
    return [cs.labels[w] for w in range(1, 1 + cs.n_public) if w not in read]


def _booleanity_wire(row):
    """The wire a row checks to be a bit, or None."""
    a, b, c = row
    if len(a) != 1 or c:
        return None
    (w, k), = a.items()
    return w if k == 1 and b == {w: 1, 0: Q - 1} else None


def unchecked_bits(cs, rows):
    checked = {_booleanity_wire(row) for row in rows}
    return [label for w, label in enumerate(cs.labels)
            if BIT_LABEL.search(label) and w not in checked]


# circuit -> (fixture, publics, bit wires)
CIRCUITS = {"rss": ("rss_artifacts", 16, 130),
            "audit": ("audit_fixture_artifacts", 17, 17020)}


@pytest.fixture(params=sorted(CIRCUITS))
def cs(request):
    return request.getfixturevalue(CIRCUITS[request.param][0]).circuit.cs


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_every_public_is_read_and_every_bit_checked(name, request):
    fixture, n_public, n_bits = CIRCUITS[name]
    cs = request.getfixturevalue(fixture).circuit.cs
    # pinned counts, so a label change that hides bit wires from the lint
    # fails here
    assert cs.n_public == n_public
    assert sum(1 for label in cs.labels if BIT_LABEL.search(label)) == n_bits
    rows = rows_of(cs)
    assert unread_publics(cs, rows) == []
    assert unchecked_bits(cs, rows) == []
    # labels are debug-only, but each names one wire
    assert len(set(cs.labels)) == len(cs.labels)


def _without(rows, r):
    return rows[:r] + rows[r + 1:]


def test_deleting_a_booleanity_row_is_caught(cs):
    rows = rows_of(cs)
    bool_rows = [r for r, row in enumerate(rows)
                 if _booleanity_wire(row) is not None]
    # every row at RSS size; an even sample of the audit circuit's 17020
    step = max(1, len(bool_rows) // 200)
    for r in bool_rows[::step]:
        label = cs.labels[_booleanity_wire(rows[r])]
        assert unchecked_bits(cs, _without(rows, r)) == [label], \
            cs.row_labels[r]


def test_deleting_the_only_reader_of_a_public_is_caught(cs):
    rows = rows_of(cs)
    readers = {w: [] for w in range(1, 1 + cs.n_public)}
    for r, row in enumerate(rows):
        for w in {w for lc in row for w in lc}:
            if w in readers:
                readers[w].append(r)
    sole = {w: found[0] for w, found in readers.items() if len(found) == 1}
    bind_rows = {cs.row_labels[r] for r in sole.values()
                 if cs.row_labels[r].startswith("bind_")}
    # the circuit's own bind_<public> rows, the safety or pass output and
    # the commitment's digest row are all sole readers
    assert len(bind_rows) >= 10, bind_rows
    for w, r in sole.items():
        assert unread_publics(cs, _without(rows, r)) == [cs.labels[w]], \
            cs.row_labels[r]


# -- local rank ---------------------------------------------------------------

OUTPUTS = {"c", "SAFE", "PASS"}


def unknown_wires(cs):
    """The wires the rank check solves for: every wire but the constant and
    the inputs, plus the public outputs."""
    inputs = {w.index for w in cs._input_wires}
    return {w for w in range(1, cs.n_wires)
            if w not in inputs or cs.labels[w] in OUTPUTS}


def jacobian(cs, witness, unknown):
    """Per row, the sparse Jacobian over `unknown` at the witness:
    a_j * <b,w> + b_j * <a,w> - c_j mod Q, zero entries left out."""
    out = []
    for (a, b, c), aw, bw in zip(rows_of(cs), *witness.evaluations[:2]):
        row = {}
        for lc, k in ((a, bw), (b, aw), (c, Q - 1)):
            for j, v in lc.items():
                if j in unknown:
                    row[j] = (row.get(j, 0) + v * k) % Q
        out.append({j: v for j, v in row.items() if v})
    return out


def pivot_columns(rows) -> set:
    """The pivot columns of `rows` under sparse elimination mod Q, each
    row pivoting on its largest column.  A pivot row's other columns are
    smaller than its pivot, so each step moves a row's largest column
    down and the loop ends."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, Q)
                pivots[col] = {j: v * inv % Q for j, v in row.items()}
                break
            f = row[col]
            for j, v in pivot.items():
                v = (row.get(j, 0) - f * v) % Q
                if v:
                    row[j] = v
                else:
                    del row[j]
    return set(pivots)


def free_wires(cs, witness, rows=None) -> list:
    unknown = unknown_wires(cs)
    pivots = pivot_columns(rows if rows is not None
                           else jacobian(cs, witness, unknown))
    return sorted(unknown - pivots)


def rss_witness(art, seed):
    rng = random.Random(seed)
    publics, witness, _ = make_rss_inputs(
        RssScenario(timestamp=100), nonce=rng.randbytes(16),
        s_sec=rng.randrange(Q), circuit=art.circuit)
    return art.circuit.generate_witness(publics, witness)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rss_has_no_locally_free_wire(rss_artifacts, seed):
    cs = rss_artifacts.circuit.cs
    assert len(unknown_wires(cs)) == 1009
    assert free_wires(cs, rss_witness(rss_artifacts, seed)) == []


def test_audit_free_wires_are_zero_operand_inverse_hints(
        audit_fixture_artifacts):
    art = audit_fixture_artifacts
    cs = art.circuit.cs
    publics, witness, _, _ = make_audit_inputs(
        art.challenge, art.thresholds, art.detections, timestamp=100,
        nonce=random.Random(5).randbytes(16), s_sec=12345)
    w = art.circuit.generate_witness(publics, witness)
    assert len(unknown_wires(cs)) == 26481
    free = free_wires(cs, w)
    hints = [j for j, label in enumerate(cs.labels)
             if label.endswith(".inv") and w[j] == 0]
    assert free == hints and len(free) == 24
    rows = rows_of(cs)
    for j in free:
        readers = [r for r, row in enumerate(rows)
                   if any(j in lc for lc in row)]
        assert [cs.row_labels[r] for r in readers] == \
            [cs.labels[j][:-len("inv")] + "inv_trick"]


def test_every_16th_rss_row_deleted_is_caught(rss_artifacts):
    # the rank check misses a deleted booleanity row and a deleted row over
    # fixed inputs only; the two syntax checks must catch those
    cs = rss_artifacts.circuit.cs
    w = rss_witness(rss_artifacts, 0)
    rows = jacobian(cs, w, unknown_wires(cs))
    system_rows = rows_of(cs)
    missed = []
    for r in range(0, len(system_rows), 16):
        if free_wires(cs, w, _without(rows, r)):
            continue
        missed.append(cs.row_labels[r])
        kept = _without(system_rows, r)
        assert unchecked_bits(cs, kept) or unread_publics(cs, kept), \
            cs.row_labels[r]
    # 9 of the 64: `assert_stop_sign`, the only reader of ID, and 8
    # booleanity rows
    assert len(missed) == 9, missed
