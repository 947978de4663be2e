"""R1CS -> QAP transformation: Lagrange interpolation of constraint columns,
vanishing polynomial, and quotient computation.

Two evaluation paths exist:

* a generic path for arbitrary distinct-point domains (schoolbook Lagrange
  interpolation and exact long division), and
* an NTT path for radix-2 multiplicative-subgroup domains H of size n, used
  by the prover at scale.

The NTT path computes the quotient H(x) = (A(x)B(x) - C(x)) / t(x) on one
coset gH of the size-n domain (the witness map of libsnark's reduction):
t(x) = x^n - 1 is the nonzero constant g^n - 1 on gH, so the division is a
single scalar.  n points determine only a polynomial of degree < n, which
is enough because `compute_quotient` first checks A(w^i)B(w^i) = C(w^i) on
every row: t then divides AB - C, whose degree is at most 2n - 2, so
deg H <= n - 2.  The interpolated coefficient n - 1 must therefore be zero,
and a nonzero one is rejected.  Both paths give the same H, which is unique
given the domain, so the fast path is a pure optimization.

Each radix-2 domain builds its transform tables (bit-reversal permutation,
per-stage twiddles for w and w^-1, coset scales) once, on first use.
"""

from __future__ import annotations

from .field import PrimeModulus, TEST_FIELD

__all__ = [
    "Polynomial",
    "EvaluationDomain",
    "QapInstance",
    "r1cs_to_qap",
    "vanishing_poly",
    "compute_quotient",
    "InvalidWitnessError",
]


class InvalidWitnessError(ValueError):
    """Witness does not satisfy the originating R1CS (nonzero remainder)."""


class Polynomial:
    """Dense polynomial over F_p, low-degree coefficient first."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field: PrimeModulus):
        p = field.p
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c
        self.field = field

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial (the -inf sentinel)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.coeffs == other.coeffs
                and self.field.p == other.field.p)

    def __repr__(self):
        return f"Polynomial({self.coeffs})"

    def __add__(self, other: "Polynomial"):
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % p
        return Polynomial(out, self.field)

    def __sub__(self, other: "Polynomial"):
        return self + other.scaled(-1)

    def scaled(self, k: int):
        p = self.field.p
        return Polynomial([c * k % p for c in self.coeffs], self.field)

    def __mul__(self, other: "Polynomial"):
        if self.is_zero() or other.is_zero():
            return Polynomial([], self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial([v % p for v in out], self.field)

    def divmod(self, divisor: "Polynomial"):
        """Exact long division: (quotient, remainder), deg(rem) < deg(divisor)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        dlen = len(divisor.coeffs)
        lead_inv = pow(divisor.coeffs[-1], -1, p)
        quot = [0] * max(len(rem) - dlen + 1, 0)
        for i in range(len(rem) - dlen, -1, -1):
            factor = rem[i + dlen - 1] * lead_inv % p
            if factor:
                quot[i] = factor
                for j, d in enumerate(divisor.coeffs):
                    rem[i + j] = (rem[i + j] - factor * d) % p
        return Polynomial(quot, self.field), Polynomial(rem[:dlen - 1], self.field)

    def eval(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc


class EvaluationDomain:
    """Distinct interpolation points r_1..r_n; optionally a radix-2 subgroup."""

    def __init__(self, points, field: PrimeModulus):
        points = [x % field.p for x in points]
        if len(set(points)) != len(points):
            raise ValueError("evaluation domain points must be pairwise distinct")
        if not points:
            raise ValueError("empty evaluation domain")
        self.points = points
        self.field = field
        self.omega = None  # set for radix-2 subgroup domains
        self._tables = None  # NTT tables, built on first use

    def __len__(self):
        return len(self.points)

    @classmethod
    def radix2(cls, size: int, field: PrimeModulus = TEST_FIELD):
        """Multiplicative subgroup {1, w, ..., w^(size-1)} of power-of-two size."""
        omega = field.root_of_unity(size)
        p = field.p
        points = [1] * size
        for i in range(1, size):
            points[i] = points[i - 1] * omega % p
        dom = cls(points, field)
        dom.omega = omega
        return dom

    @classmethod
    def for_size(cls, n: int, field: PrimeModulus = TEST_FIELD):
        """Smallest radix-2 subgroup domain holding n constraints."""
        size = 1 << max(1, (n - 1).bit_length())
        return cls.radix2(size, field)

    # -- Lagrange machinery --------------------------------------------------

    def barycentric_weights(self):
        """w_i = 1 / prod_{j != i} (r_i - r_j); O(n) for subgroup domains."""
        p = self.field.p
        n = len(self.points)
        if self.omega is not None:
            # t(x) = x^n - 1, t'(w^i) = n * w^(-i); weight = w^i / n
            ninv = pow(n, -1, p)
            return [pt * ninv % p for pt in self.points]
        weights = []
        for i, ri in enumerate(self.points):
            prod = 1
            for j, rj in enumerate(self.points):
                if i != j:
                    prod = prod * (ri - rj) % p
            weights.append(pow(prod, -1, p))
        return weights

    def lagrange_at(self, x: int):
        """[L_1(x), ..., L_n(x)] for a point x off the domain."""
        p = self.field.p
        x %= p
        if x in set(self.points):
            return [1 if pt == x else 0 for pt in self.points]
        t_x = self.eval_vanishing(x)
        weights = self.barycentric_weights()
        return [t_x * w % p * pow(x - pt, -1, p) % p
                for w, pt in zip(weights, self.points)]

    def eval_vanishing(self, x: int) -> int:
        p = self.field.p
        if self.omega is not None:
            return (pow(x, len(self.points), p) - 1) % p
        acc = 1
        for pt in self.points:
            acc = acc * (x - pt) % p
        return acc

    def interpolate(self, values) -> Polynomial:
        """Unique polynomial of degree < n through (r_i, values_i)."""
        if len(values) != len(self.points):
            raise ValueError("value count must match domain size")
        p = self.field.p
        if self.omega is not None:
            ninv = pow(len(self.points), -1, p)
            return Polynomial(
                [v * ninv % p for v in self._ntt(values, inverse=True)], self.field)
        # Newton-free schoolbook: sum of v_i * w_i * t(x)/(x - r_i)
        t = vanishing_poly(self)
        weights = self.barycentric_weights()
        acc = [0] * len(self.points)
        for ri, vi, wi in zip(self.points, values, weights):
            if vi:
                q, _ = t.divmod(Polynomial([-ri, 1], self.field))
                k = vi * wi % p
                for idx, c in enumerate(q.coeffs):
                    acc[idx] = (acc[idx] + k * c) % p
        return Polynomial(acc, self.field)

    # -- NTT (radix-2 domains only) ------------------------------------------

    def _ntt_tables(self):
        """(bit-reversal permutation, per-stage twiddles for w, for w^-1,
        coset scale, coset unscale); built on first use, once per domain.

        The stage of half-length h uses the h powers of w^(n/2h).  The coset
        scale g^j / n turns unnormalised iNTT output into the coefficients
        of P(gx); the unscale g^-j / (n (g^n - 1)) undoes the shift, the
        iNTT's factor n and the division by t on gH.
        """
        if self._tables is None:
            if self.omega is None:
                raise ValueError("NTT needs a radix-2 subgroup domain")
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


def vanishing_poly(domain: EvaluationDomain) -> Polynomial:
    """Monic degree-n polynomial vanishing exactly on the domain."""
    field = domain.field
    if domain.omega is not None:
        coeffs = [0] * (len(domain.points) + 1)
        coeffs[0] = field.p - 1
        coeffs[-1] = 1
        return Polynomial(coeffs, field)
    acc = Polynomial([1], field)
    for pt in domain.points:
        acc = acc * Polynomial([-pt, 1], field)
    return acc


class QapInstance:
    """Per-wire polynomials {A_j}, {B_j}, {C_j}, vanishing t(x), and domain.

    Wire polynomials are materialized lazily: large circuits only ever need
    their evaluations at single points (trusted setup) or witness-weighted
    sums (proving), both of which have cheaper dedicated paths below.
    """

    def __init__(self, cs, domain: EvaluationDomain):
        if len(domain) != cs.n_constraints:
            raise ValueError(
                f"domain size {len(domain)} != constraint count {cs.n_constraints}")
        self.cs = cs
        self.domain = domain
        self.field = cs.field
        self.t = vanishing_poly(domain)
        self._wire_polys = None

    @property
    def n_constraints(self):
        return self.cs.n_constraints

    @property
    def n_wires(self):
        return self.cs.n_wires

    def _materialize(self):
        if self._wire_polys is not None:
            return self._wire_polys
        field = self.field
        p = field.p
        n = len(self.domain)
        m1 = self.cs.n_wires
        # dense Lagrange basis polynomials L_i(x) via synthetic division of t
        weights = self.domain.barycentric_weights()
        basis = []
        for ri, wi in zip(self.domain.points, weights):
            q, _ = self.t.divmod(Polynomial([-ri, 1], field))
            basis.append([c * wi % p for c in q.coeffs])
        cols = []
        for which in range(3):
            polys = [[0] * n for _ in range(m1)]
            for i, triple in enumerate(self.cs.rows):
                li = basis[i]
                for j, coeff in triple[which].items():
                    target = polys[j]
                    for idx, c in enumerate(li):
                        target[idx] = (target[idx] + coeff * c) % p
            cols.append([Polynomial(col, field) for col in polys])
        self._wire_polys = tuple(cols)
        return self._wire_polys

    @property
    def a_polys(self):
        return self._materialize()[0]

    @property
    def b_polys(self):
        return self._materialize()[1]

    @property
    def c_polys(self):
        return self._materialize()[2]

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

    def constraint_evaluations(self, witness):
        """(Aw, Bw, Cw) values on the domain: the sparse row inner products."""
        values = witness.values if hasattr(witness, "values") else witness
        p = self.field.p
        aw, bw, cw = [], [], []
        for a, b, c in self.cs.rows:
            aw.append(sum(values[j] * k for j, k in a.items()) % p)
            bw.append(sum(values[j] * k for j, k in b.items()) % p)
            cw.append(sum(values[j] * k for j, k in c.items()) % p)
        return aw, bw, cw


def r1cs_to_qap(cs, domain: EvaluationDomain) -> QapInstance:
    return QapInstance(cs, domain)


def compute_quotient(qap: QapInstance, witness) -> Polynomial:
    """H(x) with A(x)B(x) - C(x) = H(x) t(x) exactly; errors on a bad witness.

    deg(H) <= n - 2 whenever the witness satisfies the system.
    """
    p = qap.field.p
    aw, bw, cw = qap.constraint_evaluations(witness)
    for i, (a, b, c) in enumerate(zip(aw, bw, cw)):
        if a * b % p != c:
            raise InvalidWitnessError(f"witness violates constraint {i}")
    domain = qap.domain
    if domain.omega is not None:
        return _quotient_ntt(qap, aw, bw, cw)
    field = qap.field
    A = domain.interpolate(aw)
    B = domain.interpolate(bw)
    C = domain.interpolate(cw)
    numerator = A * B - C
    if numerator.is_zero():
        return Polynomial([], field)
    h, rem = numerator.divmod(qap.t)
    if not rem.is_zero():
        raise InvalidWitnessError("nonzero remainder dividing by the vanishing polynomial")
    return h


def _quotient_ntt(qap: QapInstance, aw, bw, cw) -> Polynomial:
    """Quotient on the coset gH of the size-n domain H; same H as schoolbook.

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
    return Polynomial(coeffs[:n - 1], qap.field)
