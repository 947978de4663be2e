"""R1CS -> QAP reduction over a radix-2 evaluation domain.

The domain H = {1, w, ..., w^(n-1)} is the multiplicative subgroup of
power-of-two order n, and constraint row i sits at the point w^i.  Its
vanishing polynomial is t(x) = x^n - 1, interpolation on H is an inverse
NTT, and the Lagrange values at a point x off H have the closed form
L_i(x) = t(x) w^i / (n (x - w^i)).  The wire polynomials A_j, B_j, C_j are
never formed: the setup needs them only at one point tau, which
`QapInstance.wire_evals_at` sums over the system's compiled rows, each
distinct side once per position with the summed Lagrange values of the
rows that hold it there, and the prover only their witness-weighted sums
on H, which are the rows' inner products.

The prover's quotient H(x) = (A(x)B(x) - C(x)) / t(x) is the top half of
one product.  `compute_quotient` first checks A(w^i)B(w^i) = C(w^i) on
every row, so t divides AB - C, whose degree is at most 2n - 2, and
deg H <= n - 2.  Then A(x)B(x) = H(x) x^n + (C(x) - H(x)) with
deg(C - H) < n, so coefficients n .. 2n - 2 of AB are exactly H's, and C
is never needed.  A and B come from one inverse NTT each, and AB is one
integer product by Kronecker substitution: each coefficient list is packed
into a number, one zero-padded decimal slot per coefficient, wide enough
for a coefficient of the unreduced product, at most n (p - 1)^2.  The
product is taken in `decimal`, whose libmpdec multiplies large operands by
a number-theoretic transform where int multiplication is Karatsuba.

Each domain builds its transform tables (bit-reversal permutation,
per-stage twiddles for w^-1) once, on first use.

Every constraint system is over F_q (`TEST_FIELD`), but a domain keeps
its `field`, so a `QapInstance` rejects a domain over another field.
"""

from __future__ import annotations

import decimal

from .field import PrimeModulus, TEST_FIELD, batch_inverse

__all__ = [
    "EvaluationDomain",
    "QapInstance",
    "r1cs_to_qap",
    "compute_quotient",
    "InvalidWitnessError",
]


class InvalidWitnessError(ValueError):
    """Witness does not satisfy the originating R1CS (nonzero remainder)."""


class EvaluationDomain:
    """The multiplicative subgroup {1, w, ..., w^(size-1)} of F_p^*, for a
    power-of-two size."""

    def __init__(self, size: int, field: PrimeModulus = TEST_FIELD):
        self.field = field
        self.points = _powers(1, field.root_of_unity(size), size, field.p)
        self._tables = None  # NTT tables, built on first use

    def __len__(self):
        return len(self.points)

    @classmethod
    def for_size(cls, n: int, field: PrimeModulus = TEST_FIELD):
        """Smallest domain holding n constraints."""
        return cls(1 << max(1, (n - 1).bit_length()), field)

    def eval_vanishing(self, x: int) -> int:
        """t(x) = x^n - 1."""
        p = self.field.p
        return (pow(x, len(self.points), p) - 1) % p

    def lagrange_at(self, x: int):
        """[L_1(x), ..., L_n(x)]: L_i(x) = t(x) w^i / (n (x - w^i)) off the
        domain, the indicator of x on it."""
        p = self.field.p
        x %= p
        t_x = self.eval_vanishing(x)
        if t_x == 0:
            return [1 if pt == x else 0 for pt in self.points]
        k = t_x * pow(len(self.points), -1, p) % p
        invs = batch_inverse([(x - pt) % p for pt in self.points], p)
        return [k * pt % p * inv % p for pt, inv in zip(self.points, invs)]

    # -- NTT -----------------------------------------------------------------

    def _intt_tables(self):
        """(bit-reversal permutation, per-stage twiddles for w^-1); built on
        first use, once per domain.  The stage of half-length h uses the h
        powers of w^-(n/2h)."""
        if self._tables is None:
            n = len(self.points)
            bits = n.bit_length() - 1
            rev = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
                   for i in range(n)]
            inv = [self.points[-k] for k in range(n // 2)]  # w^-k = w^(n-k)
            self._tables = (rev, [inv[::n >> (s + 1)] for s in range(bits)])
        return self._tables

    def _intt(self, values) -> list:
        """Unnormalised inverse DFT over the subgroup: out_i = sum_j values_j
        w^(-ij), which is n times the coefficients of the polynomial through
        (w^j, values_j).

        Iterative radix-2 Cooley-Tukey on a bit-reversed copy.  A stage whose
        half-length is at least its block count butterflies one block per
        slice pair; an earlier stage butterflies one twiddle across every
        block per strided slice pair.  Only products are reduced mod p, so a
        value grows by less than p per stage and one pass at the end
        reduces them all.
        """
        rev, twiddles = self._intt_tables()
        p = self.field.p
        n = len(rev)
        a = [values[r] for r in rev]
        h = 1
        for tw in twiddles:
            step = 2 * h
            if h >= n // step:
                for s in range(0, n, step):
                    lo = a[s:s + h]
                    hi = [x * w % p for x, w in zip(a[s + h:s + step], tw)]
                    a[s:s + h] = [u + v for u, v in zip(lo, hi)]
                    a[s + h:s + step] = [u - v for u, v in zip(lo, hi)]
            else:
                for k, w in enumerate(tw):
                    lo = a[k::step]
                    hi = [x * w % p for x in a[k + h::step]]
                    a[k::step] = [u + v for u, v in zip(lo, hi)]
                    a[k + h::step] = [u - v for u, v in zip(lo, hi)]
            h = step
        return [v % p for v in a]


def _powers(first, ratio, count, p):
    """[first, first*ratio, ..., first*ratio^(count-1)] mod p."""
    out = [first % p] * count
    for j in range(1, count):
        out[j] = out[j - 1] * ratio % p
    return out


class QapInstance:
    """A constraint system bound to the domain its rows are interpolated on:
    one point per row, over the system's field."""

    def __init__(self, cs, domain: EvaluationDomain):
        if domain.field.p != cs.field.p:
            raise ValueError(f"domain is over the {domain.field.name} field, "
                             f"not the constraint system's {cs.field.name}")
        if len(domain) != cs.n_constraints:
            raise ValueError(
                f"domain size {len(domain)} != constraint count {cs.n_constraints}")
        self.cs = cs
        self.domain = domain
        self.field = cs.field

    def wire_evals_at(self, x: int):
        """([A_j(x)], [B_j(x)], [C_j(x)]) for all wires, from the system's
        compiled rows: per position, each distinct side's Lagrange weight
        is the sum of L_i(x) over the rows that hold it there, and each of
        the side's terms adds weight * coefficient to its wire."""
        p = self.field.p
        lagrange = self.domain.lagrange_at(x)
        cs = self.cs
        wires, coeffs, bounds = cs._wires, cs._coeffs, cs._bounds
        out = []
        for sides in cs._sides:
            weight = dict.fromkeys(sides, 0)
            for k, li in zip(sides, lagrange):
                weight[k] += li
            vals = [0] * cs.n_wires
            for k, w in weight.items():
                w %= p
                for i in range(bounds[k], bounds[k + 1]):
                    vals[wires[i]] += w * coeffs[i]
            out.append([v % p for v in vals])
        return tuple(out)


def r1cs_to_qap(cs, domain: EvaluationDomain = None) -> QapInstance:
    """The QAP of `cs` over `EvaluationDomain.for_size(cs.n_constraints)`.

    A `domain` passed in must have exactly one point per row and be over
    the system's field.
    """
    if domain is None:
        domain = EvaluationDomain.for_size(cs.n_constraints, cs.field)
    return QapInstance(cs, domain)


def compute_quotient(qap: QapInstance, witness) -> list:
    """The n - 1 coefficients of H(x), low first, with A(x)B(x) - C(x) =
    H(x) t(x) exactly; errors on a bad witness.

    The row evaluations (aw, bw, cw) are the ones a `Witness` kept from
    `generate_witness` when `qap.cs` itself solved it; any other witness,
    or a plain value list, is evaluated here.  Either way every row's
    aw * bw = cw is checked before the quotient, which makes
    deg(H) <= n - 2.
    """
    evaluations = getattr(witness, "evaluations", None)
    if evaluations is None or witness.cs is not qap.cs:
        evaluations = qap.cs.evaluate(witness)
    row = qap.cs.first_violation(evaluations)
    if row is not None:
        raise InvalidWitnessError(f"witness violates constraint {row}")
    aw, bw, _ = evaluations
    return _quotient(qap.domain, aw, bw)


def _quotient(domain: EvaluationDomain, aw, bw) -> list:
    """Coefficients n .. 2n - 2 of A(x)B(x), which are H's once the rows
    hold (see the module docstring), from A's and B's values on `domain`.

    The iNTTs give n A and n B; packed with the top coefficient first, one
    `width`-digit slot each, they multiply in a context that keeps every
    digit, and slot k of the product is, mod p, n^2 times coefficient k of
    AB.
    """
    p = domain.field.p
    n = len(domain)
    width = len(str(n * (p - 1) ** 2))

    def pack(values):
        coeffs = domain._intt(values)
        return decimal.Decimal("".join(f"{c:0{width}d}"
                                       for c in reversed(coeffs)))

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        product = pack(aw) * pack(bw)
    top = str(product)[:-n * width].zfill((n - 1) * width)
    scale = pow(n, -2, p)
    return [int(top[i:i + width]) * scale % p
            for i in range((n - 2) * width, -1, -width)]
