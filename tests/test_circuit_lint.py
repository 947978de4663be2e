"""A syntax lint over both production circuits: no unbound public, no
unchecked bit.

* Unbound public: every public wire is read by some row.  A public that no
  row reads gets the identity as its IC point, so a proof does not bind it.
* Unchecked bit: every wire `gadget_bit_decompose` allocates (label ending
  `.b<i>`) has its booleanity row b * (b - 1) = 0, stored as
  a = {b: 1}, b = {b: 1, 0: Q - 1}, c = {}.  A missing booleanity row still
  lets honest witnesses pass, so no satisfiability test notices it.

Both checks are syntactic: they do not show that the circuits pin their
outputs uniquely, and no check here looks for locally free wires.  The
mutant tests delete one row at a time to show that the lint catches what
it claims to.
"""

import re

import pytest

from hermes_seal.pairing import Q

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
    assert unread_publics(cs, cs.rows) == []
    assert unchecked_bits(cs, cs.rows) == []


def _without(rows, r):
    return rows[:r] + rows[r + 1:]


def test_deleting_a_booleanity_row_is_caught(cs):
    bool_rows = [r for r, row in enumerate(cs.rows)
                 if _booleanity_wire(row) is not None]
    # every row at RSS size; an even sample of the audit circuit's 17020
    step = max(1, len(bool_rows) // 200)
    for r in bool_rows[::step]:
        label = cs.labels[_booleanity_wire(cs.rows[r])]
        assert unchecked_bits(cs, _without(cs.rows, r)) == [label], \
            cs.row_labels[r]


def test_deleting_the_only_reader_of_a_public_is_caught(cs):
    readers = {w: [] for w in range(1, 1 + cs.n_public)}
    for r, row in enumerate(cs.rows):
        for w in {w for lc in row for w in lc}:
            if w in readers:
                readers[w].append(r)
    sole = {w: rows[0] for w, rows in readers.items() if len(rows) == 1}
    bind_rows = {cs.row_labels[r] for r in sole.values()
                 if cs.row_labels[r].startswith("bind_")}
    # the circuit's own bind_<public> rows, the safety or pass output and
    # the commitment's digest row are all sole readers
    assert len(bind_rows) >= 10, bind_rows
    for w, r in sole.items():
        assert unread_publics(cs, _without(cs.rows, r)) == [cs.labels[w]], \
            cs.row_labels[r]
