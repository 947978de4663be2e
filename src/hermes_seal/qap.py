"""R1CS -> QAP reduction over a radix-2 evaluation domain.

The domain H = {1, w, ..., w^(n-1)} is the multiplicative subgroup of
power-of-two order n, and constraint row i sits at the point w^i.  Its
vanishing polynomial is t(x) = x^n - 1, interpolation and evaluation on H
are NTTs, and the Lagrange values at a point x off H have the closed form
L_i(x) = t(x) w^i / (n (x - w^i)).  The wire polynomials A_j, B_j, C_j are
never formed: the setup needs them only at one point tau, which
`QapInstance.wire_evals_at` sums over the sparse rows, and the prover only
their witness-weighted sums on H, which are the rows' inner products.

The prover's quotient H(x) = (A(x)B(x) - C(x)) / t(x) is computed on one
coset gH of H (the witness map of libsnark's reduction): t(x) is the
nonzero constant g^n - 1 on gH, so the division is a single scalar.  n
points determine only a polynomial of degree < n, which is enough because
`compute_quotient` first checks A(w^i)B(w^i) = C(w^i) on every row: t then
divides AB - C, whose degree is at most 2n - 2, so deg H <= n - 2.  The
interpolated coefficient n - 1 must therefore be zero, and a nonzero one
is rejected.

Each domain builds its transform tables (bit-reversal permutation,
per-stage twiddles for w and w^-1, coset scales) once, on first use.
"""

from __future__ import annotations

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

    def _ntt_tables(self):
        """(bit-reversal permutation, per-stage twiddles for w, for w^-1,
        coset scale, coset unscale); built on first use, once per domain.

        The stage of half-length h uses the h powers of w^(n/2h).  The coset
        scale g^j / n turns unnormalised iNTT output into the coefficients
        of P(gx); the unscale g^-j / (n (g^n - 1)) undoes the shift, the
        iNTT's factor n and the division by t on gH.
        """
        if self._tables is None:
            p = self.field.p
            n = len(self.points)
            bits = n.bit_length() - 1
            rev = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
                   for i in range(n)]
            fwd = self.points[:n // 2]
            inv = [self.points[-k] for k in range(n // 2)]  # w^-k = w^(n-k)
            strides = [n >> (s + 1) for s in range(bits)]
            g = self.field._generator  # coset representative off the subgroup
            ninv = pow(n, -1, p)
            t_inv = pow(pow(g, n, p) - 1, -1, p)
            self._tables = (rev, [fwd[::k] for k in strides],
                            [inv[::k] for k in strides],
                            _powers(ninv, g, n, p),
                            _powers(ninv * t_inv % p, pow(g, -1, p), n, p))
        return self._tables

    def _ntt(self, values, inverse: bool = False) -> list:
        """Unnormalised DFT over the subgroup: out_i = sum_j values_j w^(ij),
        with w^-1 in place of w when `inverse` is set.

        Iterative radix-2 Cooley-Tukey on a bit-reversed copy.  A stage whose
        half-length is at least its block count butterflies one block per
        slice pair; an earlier stage butterflies one twiddle across every
        block per strided slice pair.  Only products are reduced mod p, so a
        value grows by less than p per stage and one pass at the end
        reduces them all.
        """
        rev, fwd, inv, _, _ = self._ntt_tables()
        p = self.field.p
        n = len(rev)
        a = [values[r] for r in rev]
        h = 1
        for tw in (inv if inverse else fwd):
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
    """A constraint system bound to the domain its rows are interpolated on."""

    def __init__(self, cs, domain: EvaluationDomain):
        if len(domain) != cs.n_constraints:
            raise ValueError(
                f"domain size {len(domain)} != constraint count {cs.n_constraints}")
        self.cs = cs
        self.domain = domain
        self.field = cs.field

    def wire_evals_at(self, x: int):
        """([A_j(x)], [B_j(x)], [C_j(x)]) for all wires, via sparse accumulation."""
        p = self.field.p
        lagrange = self.domain.lagrange_at(x)
        m1 = self.cs.n_wires
        a_vals = [0] * m1
        b_vals = [0] * m1
        c_vals = [0] * m1
        for li, (a, b, c) in zip(lagrange, self.cs.rows):
            for j, coeff in a.items():
                a_vals[j] = (a_vals[j] + li * coeff) % p
            for j, coeff in b.items():
                b_vals[j] = (b_vals[j] + li * coeff) % p
            for j, coeff in c.items():
                c_vals[j] = (c_vals[j] + li * coeff) % p
        return a_vals, b_vals, c_vals


def r1cs_to_qap(cs, domain: EvaluationDomain = None) -> QapInstance:
    """The QAP of `cs` over `EvaluationDomain.for_size(cs.n_constraints)`.

    A `domain` passed in must have exactly one point per row.
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
    return _quotient_ntt(qap, *evaluations)


def _quotient_ntt(qap: QapInstance, aw, bw, cw) -> list:
    """Quotient on the coset gH of the size-n domain H.

    A, B, C go to coefficients (iNTT) and onto gH (coset scale, NTT).  On gH
    t(x) = x^n - 1 is the one constant g^n - 1, so dividing the pointwise
    A*B - C by t is a scalar, folded with the iNTT's 1/n and the undoing of
    the shift into the domain's unscale table.  Interpolating H from n
    points is exact because the caller's row check makes t divide
    AB - C (degree <= 2n - 2), so deg H <= n - 2; coefficient n - 1 must
    then be zero, and a nonzero one is rejected.  Seven size-n transforms
    in all, on tables cached per domain.
    """
    domain = qap.domain
    p = qap.field.p
    n = len(domain)
    *_, scale, unscale = domain._ntt_tables()
    ntt = domain._ntt

    def on_coset(values):
        coeffs = ntt(values, inverse=True)
        return ntt([c * s % p for c, s in zip(coeffs, scale)])

    av, bv, cv = on_coset(aw), on_coset(bw), on_coset(cw)
    hv = ntt([(a * b - c) % p for a, b, c in zip(av, bv, cv)], inverse=True)
    coeffs = [h * s % p for h, s in zip(hv, unscale)]
    if coeffs[n - 1]:
        raise InvalidWitnessError("quotient degree bound exceeded")
    return coeffs[:n - 1]
