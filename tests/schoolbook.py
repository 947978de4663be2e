"""Schoolbook references for differential tests.

For the QAP layer: dense polynomials, Lagrange interpolation over arbitrary
distinct points, the vanishing polynomial as a product of linear factors,
dense wire polynomials A_j, B_j, C_j, and the quotient H = (AB - C) / t by
exact long division.  Nothing here uses the subgroup structure of a radix-2
domain or an NTT, so `hermes_seal.qap` is checked against the textbook
construction on the same points.

For the constraint system: `evaluate`, `first_violation` and
`generate_witness` walk each row's dicts term by term, as
`hermes_seal.r1cs` did before it compiled the rows into flat arrays, the
oracle for the compiled evaluation and product solve.

For the pairing: `affine_lines`, the Miller loop over Q in affine
coordinates with one modular inversion per line, the oracle for
`BilinearGroup.lines`; and `find_generator`, the search that chose the
generator constants `pairing.G1_GENERATOR` and `pairing.G2_GENERATOR`.
"""

from hermes_seal.pairing import COFACTOR, P, _add, _scalar_mul
from hermes_seal.r1cs import (MissingInputError, R1csError,
                              UnsatisfiableError, Wire, Witness)


class Poly:
    """Dense polynomial over F_p, low-degree coefficient first."""

    def __init__(self, coeffs, p: int):
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c
        self.p = p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly(out, self.p)

    def __sub__(self, other):
        return self + Poly([-c for c in other.coeffs], self.p)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly([], self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, self.p)

    def divmod(self, divisor):
        """(quotient, remainder) with deg(remainder) < deg(divisor)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dlen = len(divisor.coeffs)
        lead_inv = pow(divisor.coeffs[-1], -1, p)
        quot = [0] * max(len(rem) - dlen + 1, 0)
        for i in range(len(rem) - dlen, -1, -1):
            factor = rem[i + dlen - 1] * lead_inv % p
            quot[i] = factor
            for j, d in enumerate(divisor.coeffs):
                rem[i + j] = (rem[i + j] - factor * d) % p
        return Poly(quot, p), Poly(rem[:dlen - 1], p)


class Domain:
    """Distinct interpolation points r_1..r_n, with no structure assumed."""

    def __init__(self, points, p: int):
        points = [x % p for x in points]
        if not points:
            raise ValueError("empty evaluation domain")
        if len(set(points)) != len(points):
            raise ValueError("evaluation domain points must be pairwise distinct")
        self.points = points
        self.p = p

    def vanishing(self) -> Poly:
        """t(x) = prod (x - r_i)."""
        acc = Poly([1], self.p)
        for r in self.points:
            acc = acc * Poly([-r, 1], self.p)
        return acc

    def basis(self):
        """Dense Lagrange polynomials L_i = t / ((x - r_i) prod_{j != i}
        (r_i - r_j))."""
        p = self.p
        t = self.vanishing()
        out = []
        for i, ri in enumerate(self.points):
            denom = 1
            for j, rj in enumerate(self.points):
                if i != j:
                    denom = denom * (ri - rj) % p
            q, _ = t.divmod(Poly([-ri, 1], p))
            k = pow(denom, -1, p)
            out.append(Poly([c * k for c in q.coeffs], p))
        return out

    def interpolate(self, values) -> Poly:
        acc = Poly([], self.p)
        for v, li in zip(values, self.basis()):
            acc = acc + Poly([v * c for c in li.coeffs], self.p)
        return acc


def wire_polys(cs, domain: Domain):
    """([A_j], [B_j], [C_j]): the column of every wire, interpolated."""
    p = domain.p
    basis = domain.basis()
    cols = []
    for which in range(3):
        col = [Poly([], p) for _ in range(cs.n_wires)]
        for li, triple in zip(basis, cs.rows):
            for j, coeff in triple[which].items():
                col[j] = col[j] + Poly([coeff * c for c in li.coeffs], p)
        cols.append(col)
    return tuple(cols)


def quotient(cs, domain: Domain, witness) -> Poly:
    """H with A B - C = H t, where A = sum_j w_j A_j (and B, C alike).
    Raises ValueError naming the first row whose point has A B != C."""
    p = domain.p
    values = witness.values if hasattr(witness, "values") else witness
    A, B, C = (sum((Poly([w * c for c in poly.coeffs], p)
                    for w, poly in zip(values, col)), Poly([], p))
               for col in wire_polys(cs, domain))
    for i, r in enumerate(domain.points):
        if A.eval(r) * B.eval(r) % p != C.eval(r):
            raise ValueError(f"witness violates constraint {i}")
    h, rem = (A * B - C).divmod(domain.vanishing())
    assert rem.is_zero()
    return h


def evaluate(cs, values):
    """(aw, bw, cw): <a,w>, <b,w> and <c,w> mod p of every row, each a
    walk over the row's dict."""
    p = cs.field.p
    aw, bw, cw = [], [], []
    for a, b, c in cs.rows:
        aw.append(sum(values[j] * k for j, k in a.items()) % p)
        bw.append(sum(values[j] * k for j, k in b.items()) % p)
        cw.append(sum(values[j] * k for j, k in c.items()) % p)
    return aw, bw, cw


def first_violation(cs, evaluations):
    """The first row with aw * bw != cw, or None."""
    p = cs.field.p
    for i, (a, b, c) in enumerate(zip(*evaluations)):
        if a * b % p != c:
            return i
    return None


def generate_witness(cs, assignments):
    """`ConstraintSystem.generate_witness` with every product step summing
    its row's a and b dicts when it runs."""
    p = cs.field.p
    values = [None] * cs.n_wires
    values[0] = 1
    assigned = {}
    for wire, value in assignments.items():
        if not isinstance(wire, Wire):
            raise MissingInputError(f"assignment key {wire!r} is not a Wire")
        assigned[wire.index] = int(value) % p
    for wire in cs._input_wires:
        if wire.index not in assigned:
            raise MissingInputError(
                f"missing assignment for input wire {wire.label!r}")
        values[wire.index] = assigned[wire.index]
    for step in cs._solvers:
        if step.__class__ is int:
            a, b, (out,) = cs.rows[step]
            try:
                values[out] = (sum(values[j] * k for j, k in a.items())
                               * sum(values[j] * k for j, k in b.items())) % p
            except TypeError as exc:
                raise R1csError(f"product row {step} ({cs.row_labels[step]}) "
                                "reads a wire no earlier step assigns") from exc
        else:
            step[1](values)
            for t in step[0]:
                if values[t] is None:
                    raise R1csError(f"solver failed to assign wire {t}")
    if None in values:
        raise R1csError(
            f"wire {values.index(None)} left unassigned after solving")
    evaluations = evaluate(cs, values)
    row = first_violation(cs, evaluations)
    if row is not None:
        label = cs.row_labels[row] or f"row {row}"
        raise UnsatisfiableError(
            f"generated witness violates constraint {row} ({label})")
    return Witness(values, cs, evaluations)


def affine_lines(group, Q):
    """The lines of the Miller loop f_{q,Q} walked in affine coordinates:
    per bit of q after the leading one, the (lam, c) of the doubling line
    and, for a set bit, of the addition line, y = lam*x - c with c = lam*x_T
    - y_T.  Vertical lines are left out; None for the identity."""
    if Q.point is None:
        return None
    p = group.p
    base = Q.point
    xq, yq = base
    T = base
    out = []
    for bit in bin(group.q)[3:]:
        step = []
        if T is not None:
            xt, yt = T
            if yt == 0:
                T = None  # vertical tangent
            else:
                lam = (3 * xt * xt + 1) * pow(2 * yt, -1, p) % p
                step.append((lam, (lam * xt - yt) % p))
                x3 = (lam * lam - 2 * xt) % p
                T = (x3, (lam * (xt - x3) - yt) % p)
        if bit == "1":
            if T is None:
                T = base
            elif T[0] == xq:
                T = _add(T, base)  # T = +-Q: no line
            else:
                xt, yt = T
                lam = (yq - yt) * pow(xq - xt, -1, p) % p
                step.append((lam, (lam * xt - yt) % p))
                x3 = (lam * lam - xt - xq) % p
                T = (x3, (lam * (xt - x3) - yt) % p)
        out.append(step)
    return out


def find_generator(start_x: int):
    """COFACTOR * (x, y) for the least x >= start_x with x^3 + x a square
    mod P whose multiple is not the identity, y the smaller square root
    (P = 3 mod 4, so a root is a (P + 1)/4-th power)."""
    x = start_x
    while True:
        rhs = (x * x % P * x + x) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P == rhs:
            pt = _scalar_mul(COFACTOR, (x, min(y, P - y)))
            if pt is not None:
                return pt
        x += 1
