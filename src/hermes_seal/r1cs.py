"""Rank-1 constraint system builder, gadget library, and witness generation,
over F_q (`TEST_FIELD`, module constant `Q`), the one pairing group's scalar
field: no builder, system or linear combination takes a field.

A circuit is built against a `CircuitBuilder`: allocate input wires, call
gadgets (which add constraints, and solvers for their hint wires), then
`finalize()` into an immutable `ConstraintSystem`, padded to a power of
two.  Every wire gets its final index when it is allocated: the
constant-one wire is index 0, public wires take 1..l in allocation order
(all of them before any private or internal wire), and the rest follow in
allocation order, so Groth16's public-input slice is a witness prefix.

A product row <a,w> * <b,w> = out solves its own c wire, so solvers exist
only for hint wires (inverse trick, bit decompositions, the audit match
hints).  Hints are constraint-verified: every row is checked over the final
values, and the constraint system never trusts a solver.

A system compiles its rows when it is made: each distinct side (one dict
object, however many rows hold it) once, as flat wire-index and
coefficient arrays with per-side bounds, plus each row's a, b and c side
numbers.  The compiled form is the system's only row representation; it
keeps no dicts.  `evaluate` sums every distinct side once with C-level
map/accumulate and gathers the sums per row; a product step sums its a
and b sides from the same arrays when it runs, a square's once;
`to_bytes` packs each distinct side once and joins the packings per row;
and `qap.QapInstance.wire_evals_at` weighs each distinct side once per
position.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import operator
import struct
from array import array

from .field import TEST_FIELD

__all__ = [
    "Wire",
    "LinearCombination",
    "CircuitBuilder",
    "ConstraintSystem",
    "Witness",
    "R1csError",
    "UnsatisfiableError",
    "MissingInputError",
    "R1CS_MAGIC",
    "CircuitDescriptor",
]

R1CS_MAGIC = b"HSR1"
R1CS_VERSION = 1

Q = TEST_FIELD.p  # every coefficient and wire value is mod Q


class R1csError(Exception):
    pass


class MissingInputError(R1csError):
    pass


class UnsatisfiableError(R1csError):
    pass


class Wire:
    """Handle to a circuit wire: its index in the witness and a debug label."""

    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str):
        self.index = index
        self.label = label

    def __repr__(self):
        return f"Wire({self.index}, {self.label!r})"


class LinearCombination:
    """Sparse sum of coefficient*wire terms over wire indices, mod Q."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {i: r for i, c in terms.items() if (r := c % Q)}

    def __add__(self, other: "LinearCombination"):
        merged = dict(self.terms)
        for i, c in other.terms.items():
            merged[i] = merged.get(i, 0) + c
        return LinearCombination(merged)

    def __sub__(self, other: "LinearCombination"):
        merged = dict(self.terms)
        for i, c in other.terms.items():
            merged[i] = merged.get(i, 0) - c
        return LinearCombination(merged)

    def scaled(self, k: int) -> "LinearCombination":
        return LinearCombination({i: c * k for i, c in self.terms.items()})


class Witness:
    """Dense assignment vector; w[0] is always the constant 1.

    `values` is a tuple and read-only.  A witness from `generate_witness`
    also keeps the system `cs` that solved it and the row evaluations
    `(aw, bw, cw)` it was checked with, so the prover's quotient need not
    evaluate the rows again; both are None otherwise.
    """

    __slots__ = ("_values", "cs", "evaluations")

    def __init__(self, values, cs=None, evaluations=None):
        if not values or values[0] != 1:
            raise R1csError("witness must start with the constant-one entry")
        self._values = tuple(values)
        self.cs = cs
        self.evaluations = evaluations

    @property
    def values(self) -> tuple:
        return self._values

    def __getitem__(self, i):
        return self.values[i]


class ConstraintSystem:
    """Finalized immutable R1CS with witness-generation solvers attached."""

    field = TEST_FIELD

    def __init__(self, rows, n_wires, n_public, labels, solvers, input_wires,
                 row_labels):
        self.n_wires = n_wires      # m + 1 including the constant wire
        self.n_public = n_public    # l
        self.labels = labels        # wire index -> label
        self._solvers = solvers     # in order: product row index | (targets, fn)
        self._input_wires = input_wires  # [Wire]
        self.row_labels = row_labels
        self._digest = None         # SHA-256 of to_bytes(), on first use
        self._compile(rows)  # (a, b, c) dicts: wire index -> coeff

    def _compile(self, rows):
        """The rows as flat arrays, each distinct side (one dict object,
        however many rows hold it) once, and every empty side as side 0:
        side k's wire indices and coefficients are `_wires` and `_coeffs`
        at `_bounds[k]:_bounds[k + 1]`, `_sides` holds each row's a, b
        and c side numbers, and `_products`, for each product step in
        order, the bounds of its a and b sides and its output wire.  Two
        sides share their end bound only if they are one side."""
        number = {}  # id(side) -> number; `distinct` keeps each side alive
        distinct = [{}]
        sides = array("I")
        for row in rows:
            for side in row:
                k = number.get(id(side)) if side else 0
                if k is None:
                    k = number[id(side)] = len(distinct)
                    distinct.append(side)
                sides.append(k)
        self._sides = sides[0::3], sides[1::3], sides[2::3]
        self._wires = [*itertools.chain.from_iterable(distinct)]
        self._coeffs = [*itertools.chain.from_iterable(
            map(dict.values, distinct))]
        bounds = self._bounds = array("I", itertools.accumulate(
            map(len, distinct), initial=0))
        self._products = array("q")
        for row in self._solvers:
            if row.__class__ is int:
                a, b = sides[3 * row], sides[3 * row + 1]
                (out,) = rows[row][2]
                self._products.extend((bounds[a], bounds[a + 1], bounds[b],
                                       bounds[b + 1], out))

    @property
    def n_constraints(self) -> int:
        return len(self._sides[0])

    def evaluate(self, witness):
        """(aw, bw, cw): per row, the sparse inner products <a,w>, <b,w>,
        <c,w> mod p.  Each distinct side is summed once, as a difference
        of the running sum of all sides' terms."""
        values = witness.values if isinstance(witness, Witness) else witness
        if len(values) != self.n_wires:
            raise R1csError(f"witness length {len(values)} != wire count {self.n_wires}")
        running = list(itertools.accumulate(
            map(operator.mul, map(values.__getitem__, self._wires),
                self._coeffs), initial=0))
        at = list(map(running.__getitem__, self._bounds))
        sums = list(map(operator.mod, map(operator.sub, at[1:], at),
                        itertools.repeat(self.field.p)))
        return tuple(list(map(sums.__getitem__, rows)) for rows in self._sides)

    def first_violation(self, evaluations):
        """The first row of `evaluate`'s output with aw * bw != cw, or None."""
        aw, bw, cw = evaluations
        products = list(map(operator.mod, map(operator.mul, aw, bw),
                            itertools.repeat(self.field.p)))
        if products == cw:  # one C-level comparison for a satisfied system
            return None
        return next(itertools.compress(itertools.count(),
                                       map(operator.ne, products, cw)), None)

    def generate_witness(self, assignments: dict) -> Witness:
        """Solve all wires from the input assignment; error if unsolvable.

        `assignments` maps input Wire handles to int values.  The
        returned witness always satisfies the system (verified before
        returning) and keeps that check's row evaluations.
        """
        p = self.field.p
        values = [None] * self.n_wires
        values[0] = 1
        assigned = {}
        for wire, value in assignments.items():
            if not isinstance(wire, Wire):
                raise MissingInputError(f"assignment key {wire!r} is not a Wire")
            assigned[wire.index] = int(value) % p
        for wire in self._input_wires:
            if wire.index not in assigned:
                raise MissingInputError(f"missing assignment for input wire {wire.label!r}")
            values[wire.index] = assigned[wire.index]
        wires, coeffs = self._wires, self._coeffs
        mul, get = operator.mul, values.__getitem__
        products = zip(*[iter(self._products)] * 5)
        try:
            for step in self._solvers:
                if step.__class__ is int:  # a product row: c = {out: 1}
                    a0, a1, b0, b1, out = next(products)
                    x = sum(map(mul, map(get, wires[a0:a1]), coeffs[a0:a1]))
                    values[out] = x * (x if b1 == a1 else sum(
                        map(mul, map(get, wires[b0:b1]), coeffs[b0:b1]))) % p
                else:
                    step[1](values)
                    for t in step[0]:
                        if values[t] is None:
                            raise R1csError(f"solver failed to assign wire {t}")
        except TypeError as exc:  # None * int: a product read an unsolved wire
            if step.__class__ is not int:
                raise
            raise R1csError(f"product row {step} ({self.row_labels[step]}) "
                            "reads a wire no earlier step assigns") from exc
        if None in values:
            raise R1csError(
                f"wire {values.index(None)} left unassigned after solving")
        evaluations = self.evaluate(values)
        row = self.first_violation(evaluations)
        if row is not None:
            label = self.row_labels[row] or f"row {row}"
            raise UnsatisfiableError(
                f"generated witness violates constraint {row} ({label})")
        return Witness(values, self, evaluations)

    def public_inputs(self, witness) -> list:
        values = witness.values if isinstance(witness, Witness) else witness
        return list(values[1:1 + self.n_public])

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical binary encoding; its SHA-256 is the circuit hash.  After
        the header, each row's a, b and c side: its term count, then its
        terms sorted by wire index, each a u32 index and a u64 coefficient
        (q < 2^64), little-endian.  Each distinct side is packed once."""
        wires, coeffs, bounds = self._wires, self._coeffs, self._bounds
        encoded = []
        for lo, hi in zip(bounds, bounds[1:]):
            terms = sorted(zip(wires[lo:hi], coeffs[lo:hi]))
            encoded.append(struct.pack("<I" + "IQ" * (hi - lo), hi - lo,
                                       *itertools.chain.from_iterable(terms)))
        return b"".join([
            R1CS_MAGIC, bytes([R1CS_VERSION]),
            struct.pack("<III", self.n_constraints, self.n_wires,
                        self.n_public),
            *map(encoded.__getitem__,
                 itertools.chain.from_iterable(zip(*self._sides)))])

    def digest(self) -> bytes:
        """SHA-256 of `to_bytes()`, hashed once: the system is immutable."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_bytes()).digest()
        return self._digest


class CircuitBuilder:
    """Mutable builder over F_q; single-threaded; frozen by finalize()."""

    field = TEST_FIELD
    p = Q

    def __init__(self):
        self._wires = [Wire(0, "one")]
        self._n_public = 0
        self._rows = []             # (a_terms, b_terms, c_terms)
        self._row_labels = []
        self._solvers = []
        self._input_wires = []
        self._finalized = False

    # -- allocation ---------------------------------------------------------

    def _alloc(self, label: str, is_input: bool) -> Wire:
        if self._finalized:
            raise R1csError("cannot allocate wires after finalize()")
        wire = Wire(len(self._wires), label)
        self._wires.append(wire)
        if is_input:
            self._input_wires.append(wire)
        return wire

    def alloc_public(self, label: str) -> Wire:
        """Public wire 1 + (publics so far); only before any other wire."""
        if len(self._wires) != 1 + self._n_public:
            raise R1csError(f"public wire {label!r} allocated after a "
                            "private or internal wire")
        wire = self._alloc(label, is_input=True)
        self._n_public += 1
        return wire

    def alloc_private(self, label: str) -> Wire:
        return self._alloc(label, is_input=True)

    def alloc_internal(self, label: str) -> Wire:
        """Private wire whose value a gadget solver supplies."""
        return self._alloc(label, is_input=False)

    # -- linear combinations ------------------------------------------------

    def lc(self, *terms) -> LinearCombination:
        """Build an LC from Wire, int, (Wire, coeff) or LinearCombination terms."""
        acc = {}
        for t in terms:
            if isinstance(t, LinearCombination):
                for i, c in t.terms.items():
                    acc[i] = acc.get(i, 0) + c
            elif isinstance(t, Wire):
                acc[t.index] = acc.get(t.index, 0) + 1
            elif isinstance(t, int):
                acc[0] = acc.get(0, 0) + t
            elif isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], Wire):
                acc[t[0].index] = acc.get(t[0].index, 0) + t[1]
            else:
                raise R1csError(f"cannot build linear combination from {t!r}")
        return LinearCombination(acc)

    def _as_lc(self, x) -> LinearCombination:
        return x if isinstance(x, LinearCombination) else self.lc(x)

    # -- constraints --------------------------------------------------------

    def enforce(self, a, b, c, label: str = None):
        """Append the row <a,w> * <b,w> = <c,w>."""
        if self._finalized:
            raise R1csError("cannot add constraints after finalize()")
        a, b, c = self._as_lc(a), self._as_lc(b), self._as_lc(c)
        for lc in (a, b, c):
            for i in lc.terms:
                if i >= len(self._wires):
                    raise R1csError(f"constraint references unallocated wire {i}")
        self._rows.append((a.terms, b.terms, c.terms))
        self._row_labels.append(label)

    def assert_equal(self, a, b, label: str = None):
        self.enforce(self._as_lc(a) - self._as_lc(b), self.lc(1), self.lc(0),
                     label or "assert_equal")

    def assert_bool(self, x, label: str = None):
        lc = self._as_lc(x)
        self.enforce(lc, lc - self.lc(1), self.lc(0), label or "assert_bool")

    def add_solver(self, targets, fn):
        """Register a hint solver; runs in registration order on the dense vector."""
        self._solvers.append(([w.index for w in targets], fn))

    # -- gadgets ------------------------------------------------------------

    def gadget_mul(self, x, y, label: str = "mul") -> Wire:
        xl, yl = self._as_lc(x), self._as_lc(y)
        out = self.alloc_internal(label)
        self.enforce(xl, yl, out, label)
        self._solvers.append(len(self._rows) - 1)  # the row solves `out`
        return out

    def gadget_is_zero(self, x, label: str = "is_zero") -> Wire:
        """Boolean wire: 1 iff <x,w> == 0, via the inverse-or-zero hint."""
        xl = self._as_lc(x)
        out = self.alloc_internal(f"{label}.out")
        inv = self.alloc_internal(f"{label}.inv")
        # x * inv = 1 - out ; x * out = 0
        self.enforce(xl, self.lc(inv), self.lc(1) - self.lc(out), f"{label}.inv_trick")
        self.enforce(xl, self.lc(out), self.lc(0), f"{label}.zero_out")

        def solve(v, xt=xl.terms, oi=out.index, ii=inv.index, p=self.p):
            xv = sum(v[j] * k for j, k in xt.items()) % p
            if xv == 0:
                v[oi], v[ii] = 1, 0
            else:
                v[oi], v[ii] = 0, pow(xv, -1, p)
        self.add_solver([out, inv], solve)
        return out

    def gadget_is_equal(self, x, y, label: str = "is_equal") -> Wire:
        return self.gadget_is_zero(self._as_lc(x) - self._as_lc(y), label)

    def gadget_bit_decompose(self, x, bits: int, label: str = "bits"):
        """Bit wires (low first), each boolean, with the recomposition row.

        Unsatisfiable at witness time if <x,w> >= 2^bits.
        """
        if bits < 1 or bits > self.p.bit_length() - 2:
            raise R1csError(f"bit width {bits} out of range for field")
        xl = self._as_lc(x)
        bit_wires = [self.alloc_internal(f"{label}.b{i}") for i in range(bits)]
        for w in bit_wires:
            self.assert_bool(w, f"{label}.bool{w.label[-2:]}")
        recomposed = LinearCombination(
            {w.index: 1 << i for i, w in enumerate(bit_wires)})
        self.assert_equal(recomposed, xl, f"{label}.recompose")
        idxs = [w.index for w in bit_wires]

        def solve(v, xt=xl.terms, idxs=idxs, p=self.p):
            xv = sum(v[j] * k for j, k in xt.items()) % p
            for i, wi in enumerate(idxs):
                v[wi] = (xv >> i) & 1
        self.add_solver(bit_wires, solve)
        return bit_wires

    def gadget_geq(self, x, y, bits: int, label: str = "geq",
                   range_checked: bool = False) -> Wire:
        """Boolean wire: 1 iff x >= y as integers; operands range-proved.

        Range proofs by bit decomposition are skipped for operands that are
        compile-time constants already known to fit, and for both operands
        when `range_checked` asserts the caller has bounded them elsewhere
        (the difference decomposition below is only sound within 2^bits).
        """
        xl, yl = self._as_lc(x), self._as_lc(y)
        for name, lc in (("x", xl), ("y", yl)):
            const = lc.terms.get(0, 0) if set(lc.terms) <= {0} else None
            if const is None:
                if not range_checked:
                    self.gadget_bit_decompose(lc, bits, f"{label}.range_{name}")
            elif const >= 1 << bits:
                raise R1csError(f"{label}: constant operand {const} exceeds {bits} bits")
        shifted = xl - yl + self.lc(1 << bits)
        z_bits = self.gadget_bit_decompose(shifted, bits + 1, f"{label}.diff")
        return z_bits[bits]  # top bit: 1 iff x - y + 2^bits >= 2^bits

    def gadget_not(self, x) -> LinearCombination:
        return self.lc(1) - self._as_lc(x)

    def gadget_and(self, x, y, label: str = "and") -> Wire:
        return self.gadget_mul(x, y, label)

    # -- finalization -------------------------------------------------------

    def finalize(self) -> ConstraintSystem:
        """The system, padded with 0 * 0 = 0 rows labelled None up to the
        next power of two (at least 2), the size of its NTT domain.  Every
        witness satisfies a padding row, so the solvers, the wire layout
        and the public-input slice are those of the unpadded rows."""
        if self._finalized:
            raise R1csError("builder already finalized")
        if not self._rows:
            raise R1csError("cannot finalize an empty constraint system")
        self._finalized = True
        n = len(self._rows)
        pad = (1 << max(1, (n - 1).bit_length())) - n
        return ConstraintSystem(self._rows + [({}, {}, {})] * pad,
                                len(self._wires), self._n_public,
                                [w.label for w in self._wires], self._solvers,
                                self._input_wires,
                                self._row_labels + [None] * pad)


@dataclasses.dataclass(frozen=True)
class CircuitDescriptor:
    """What the command line and the verifier know of one circuit; each
    circuit module defines one and `protocol.CIRCUITS` collects them.

    opening(publics, witness) -> commitment.open_commitment of `c`
    params(setup args, read(path)) -> (meta, {suffix: text}) written by setup
    load(meta, read(suffix)) -> the circuit those files describe
    inputs(circuit, text of --<input_option>, timestamp, nonce, s_sec)
        -> (publics, witness, nonce); a None nonce or s_sec is drawn fresh
    """
    name: str
    public_order: list        # public inputs in wire order
    commit_domain: int        # domain separator pinned to `delta_commit`
    sign_domain: int          # domain separator packages are signed under
    outcome: str              # the public input that carries the claim
    input_option: str
    opening: object
    params: object
    load: object
    inputs: object
