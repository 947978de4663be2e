"""The one bilinear group (G1, G2, GT) of the toolkit, a toy instantiation.

The toy curve is the supersingular curve y^2 = x^3 + x over F_p with
p = 36*q - 1 and p = 3 (mod 4), where q is the 62-bit "test" field prime.
E(F_p) has order p + 1 = 36*q, so the order-q subgroup exists with cofactor
36.  The embedding degree is 2: pairings land in F_{p^2} = F_p[i]/(i^2 + 1).
G2 is the image of the order-q subgroup under the distortion map
phi(x, y) = (-x, i*y); G2 elements store the preimage point over F_p and the
map is applied inside the pairing.  The modified Tate pairing
e(P, Q) = f_{q,Q}(phi(P))^((p^2-1)/q) is bilinear and non-degenerate here,
and symmetric, since G1 and G2 are one cyclic subgroup of E(F_p).

There is one such group.  Its parameters are module constants (Q,
COFACTOR, P, G1_GENERATOR, G2_GENERATOR and LAMBDA below), so an import
searches for nothing and runs no pairing.  The curve and F_{p^2}
arithmetic over P are module functions (`_add`, `_jdbl`, `_msm`,
`_fp2_mul`, ...) that take no modulus.  `toy_group()` returns the one
`BilinearGroup`, built at import; points and GT elements hold no
reference to a group.

The Miller loop comes in two parts: `lines(Q)` walks the loop over Q and
records each step's line, and `pairing_product` evaluates the lines of
several terms at their phi(P) into one accumulator, squaring once per bit,
before one final exponentiation.  `pair` is its one-term case; a verifying
key keeps the lines of its fixed G2 points.  The final exponentiation uses
(p^2-1)/q = 36*(p-1) and the Frobenius f^p = conj(f), so it costs one F_p
inversion and a 36th power.

The walk over Q runs in Jacobian coordinates, with no inversion per step:
each line's slope and offset are kept as fractions over an F_p
denominator, and one batch inversion of all the denominators at the end
gives the affine (lam, c).  Scaling a line by any nonzero factor in F_p
would also leave every pairing value unchanged, since the final exponent
is a multiple of p - 1 and so maps every element of F_p* to 1; the batch
inversion is kept so that `lines(Q)` stays exactly the affine lines.  The
walk is exact double-and-add by q, so it ends at q*Q and also tells
whether Q is in the order-q subgroup (`checked_lines`); a verifier checks
the proof's B that way, at no extra cost.

This instantiation is NOT cryptographically secure (64-bit discrete logs,
embedding degree 2); every serialized artifact carries the toy profile byte.

G1Element and G2Element are one point class, `_Point`, tagged with the
group's name; they differ in type only, so a G1 point never adds to or
equals a G2 point.  Each g1/g2 pair of group methods that takes a point
is one body, and a point it returns has its argument's class.

Internally points are affine int pairs; scalar multiplication runs in
Jacobian coordinates.  MSM is Pippenger's bucket method over signed c-bit
digits in [-2^(c-1), 2^(c-1)), so a window has 2^(c-1) buckets and a
negative digit puts the negated point in its bucket.  For n nonzero terms
and b-bit scalars, c minimises (b // c + 1) * (n + 2^c): windows times
about n additions plus two per bucket.  The buckets are summed in affine
form, each round of independent additions sharing one modular inversion
(Montgomery's trick); the fixed-base tables use the same
batched addition, across all the bases built together.  g1 has one such
table, built on first use, which serves the setup and every multiple of g1
or g2 (Schnorr keys, nonces and checks); a verifying key builds one per IC
point (`fixed_base_tables`, `fixed_base_msm`).

g2 = LAMBDA * g1, LAMBDA = log_g1(g2) found offline by Pollard's rho; it is
public, as in any symmetric pairing.  So s * g2 is g1's table at s * LAMBDA,
and psi(P) = LAMBDA * P maps G1 onto G2, s * g1 to s * g2.
"""

from __future__ import annotations

from .field import EncodingError, TEST_FIELD, batch_inverse

__all__ = [
    "BilinearGroup",
    "G1Element",
    "G2Element",
    "GtElement",
    "TOY_CURVE_PROFILE",
    "toy_group",
]

TOY_CURVE_PROFILE = 0x00  # profile byte: toy / insecure curve

Q = TEST_FIELD.p          # prime order of G1, G2 and GT
COFACTOR = 36             # #E(F_p) = p + 1 = COFACTOR * Q
P = COFACTOR * Q - 1      # base field prime, 3 (mod 4)
# the generators, found offline (`tests/schoolbook.find_generator`): g1 is
# COFACTOR * (x, y), y the smaller root, for the least x >= 1 where that is
# not the identity, and g2 the same from x = g1's x + 1; each has order Q
G1_GENERATOR = (38637286455697092128, 7880681149672765308)
G2_GENERATOR = (54826167486496259062, 11349218919608810542)
LAMBDA = 1737290451288304358  # log_g1(g2): g2 = LAMBDA * g1

_INF = None  # affine point at infinity sentinel


# -- the curve y^2 = x^3 + x over F_P (a = 1, b = 0), affine and Jacobian -----


def _on_curve(pt) -> bool:
    if pt is _INF:
        return True
    x, y = pt
    return y * y % P == (x * x % P * x + x) % P


def _neg(pt):
    if pt is _INF:
        return _INF
    x, y = pt
    return (x, (-y) % P)


def _add(a, b):
    if a is _INF:
        return b
    if b is _INF:
        return a
    p = P
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return _INF
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _scalar_mul(k: int, pt):
    """Double-and-add in Jacobian coordinates."""
    if pt is _INF or k == 0:
        return _INF
    if k < 0:
        raise ValueError("negative scalar")
    return _to_affine(_jmul(k, pt))


# Jacobian helpers: points (X, Y, Z) with x = X/Z^2, y = Y/Z^3; Z = 0 at
# infinity.  Curve coefficient a = 1 enters doubling as M = 3X^2 + Z^4.


def _jdbl(pt):
    X, Y, Z = pt
    if Z == 0 or Y == 0:
        return (1, 1, 0)
    p = P
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y * Z % p
    return (X3, Y3, Z3)


def _jadd_mixed(jac, aff):
    """jac (Jacobian) + aff (affine, not infinity)."""
    X1, Y1, Z1 = jac
    if Z1 == 0:
        return (aff[0], aff[1], 1)
    p = P
    x2, y2 = aff
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1 * Z1Z1 % p
    if U2 == X1:
        if S2 == Y1:
            return _jdbl(jac)
        return (1, 1, 0)
    H = (U2 - X1) % p
    HH = H * H % p
    I = 4 * HH % p
    J = H * I % p
    r = 2 * (S2 - Y1) % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * Y1 * J) % p
    Z3 = 2 * Z1 * H % p
    return (X3, Y3, Z3)


def _jmul(k: int, aff):
    acc = (1, 1, 0)
    for bit in bin(k)[2:]:
        acc = _jdbl(acc)
        if bit == "1":
            acc = _jadd_mixed(acc, aff)
    return acc


def _to_affine(jac):
    return _to_affine_many([jac])[0]


def _to_affine_many(jacs):
    """The affine forms of Jacobian points, with one shared inversion."""
    p = P
    invs = batch_inverse([Z or 1 for _, _, Z in jacs], p)
    out = []
    for (X, Y, Z), zinv in zip(jacs, invs):
        if Z == 0:
            out.append(_INF)
        else:
            z2 = zinv * zinv % p
            out.append((X * z2 % p, Y * z2 % p * zinv % p))
    return out


def _add_pairs(lhs, rhs):
    """[a + b for a, b in zip(lhs, rhs)] over finite affine points with one
    shared inversion; a pair with x1 == x2 (a doubling, or a + (-a) =
    infinity) goes through `_add`."""
    p = P
    invs = batch_inverse([(b[0] - a[0]) % p or 1
                          for a, b in zip(lhs, rhs)], p)
    out = []
    for (x1, y1), (x2, y2), inv in zip(lhs, rhs, invs):
        if x1 == x2:
            out.append(_add((x1, y1), (x2, y2)))
        else:
            lam = (y2 - y1) * inv % p
            x3 = (lam * lam - x1 - x2) % p
            out.append((x3, (lam * (x1 - x3) - y1) % p))
    return out


def _add_into(acc, terms):
    """acc[i] += terms[i] for every i, with one batched inversion."""
    todo = []
    for i, t in enumerate(terms):
        if t is not _INF:
            if acc[i] is _INF:
                acc[i] = t
            else:
                todo.append(i)
    if todo:
        sums = _add_pairs([acc[i] for i in todo], [terms[i] for i in todo])
        for i, s in zip(todo, sums):
            acc[i] = s


def _bucket_sums(buckets):
    """Per bucket, the sum of its finite points (infinity if empty), summed
    as a tree one level at a time with one batched inversion per level
    across all the buckets."""
    live = [b for b in buckets if len(b) > 1]
    while live:
        flat = []
        for b in live:
            flat += b[:len(b) & -2]
        sums = _add_pairs(flat[0::2], flat[1::2])
        pos = 0
        for b in live:
            half = len(b) >> 1
            b[:] = sums[pos:pos + half] + b[2 * half:]
            pos += half
        if _INF in sums:  # some bucket held P and -P
            for b in live:
                b[:] = [pt for pt in b if pt is not _INF]
        live = [b for b in live if len(b) > 1]
    return [b[0] if b else _INF for b in buckets]


def _msm(scalars, points):
    """Pippenger multi-scalar multiplication with signed-digit,
    batch-affine buckets.

    Scalars are recoded into c-bit digits in [-2^(c-1), 2^(c-1)), low
    window first, a digit d >= 2^(c-1) becoming d - 2^c with a carry into
    the next window.  For b-bit scalars there are b // c + 1 windows, so
    the top one holds at most c - 1 bits plus the carry and its digit,
    never recoded, is at most 2^(c-1).  The recoding needs no carry loop:
    window w's digit is the c-bit digit w of s + H minus 2^(c-1), where H
    has 2^(c-1) in every window (the top digit unmasked).  A point goes
    into bucket |d| of its window, negated when d < 0, so a window has
    2^(c-1) buckets; c minimises `_msm_window`.

    One window at a time, the buckets are filled and tree-summed in affine
    form (`_bucket_sums`).  The running sums of all windows then advance
    together: step k = 2^(c-1)..0 adds bucket k into each window's running
    sum and the previous running sum into its window sum, one batched
    inversion per step.  The window sums are combined with c Jacobian
    doublings each.
    """
    ts, pts = [], []
    for s, pt in zip(scalars, points):
        if s and pt is not _INF:
            ts.append(s)
            pts.append(pt)
    if not pts:
        return _INF
    bits = max(ts).bit_length()
    c = _msm_window(len(pts), bits)
    windows = bits // c + 1
    half = 1 << (c - 1)
    mask = (1 << c) - 1
    offset = sum(half << (w * c) for w in range(windows))
    ts = [s + offset for s in ts]
    p = P
    sums = []
    for w in range(windows):
        shift = w * c
        digit_mask = mask if w < windows - 1 else -1
        by_digit = [[] for _ in range(2 * half + 1)]  # digit + 2^(c-1)
        for t, pt in zip(ts, pts):
            by_digit[(t >> shift) & digit_mask].append(pt)
        buckets = [[]] + [by_digit[half + k]
                          + [(x, -y % p) for x, y in by_digit[half - k]]
                          for k in range(1, half + 1)]
        sums.append(_bucket_sums(buckets))
    acc = [_INF] * (2 * windows)  # running sums, then window sums
    for k in range(half, -1, -1):
        _add_into(acc, [b[k] for b in sums] + acc[:windows])
    total = (1, 1, 0)
    for ws in reversed(acc[windows:]):
        for _ in range(c):
            total = _jdbl(total)
        if ws is not _INF:
            total = _jadd_mixed(total, ws)
    return _to_affine(total)


def _msm_window(n: int, bits: int) -> int:
    """The signed-digit window c for n nonzero terms whose largest scalar
    has `bits` bits: the c >= 2 that minimises (bits // c + 1) * (n + 2^c),
    about n bucket additions per window plus two per bucket (tree and
    running sums), the smaller c on a tie."""
    return min(range(2, bits + 2),
               key=lambda c: (bits // c + 1) * (n + (1 << c)))


class _FixedBaseTable:
    """Windowed fixed-base exponentiation of one base point P.

    tables[t][k] is [k * 2^(w*t)] * P for every window t and digit k, so
    s * P is one table entry per nonzero w-bit digit of s: ~ceil(bits/w)
    additions and zero doublings.
    """

    def __init__(self, tables, window: int):
        self.window = window
        self.mask = (1 << window) - 1
        self.tables = tables

    @classmethod
    def build(cls, bases, window: int) -> list:
        """One table per affine point of `bases` (which may hold infinity),
        for scalars below q, all built together.  Each base's blocks
        2^(w*t) * P and their doubles come from Jacobian doublings and go
        affine with one shared inversion; then digit k = 3 .. 2^w - 1 of
        every window of every base is one batched affine addition, entry
        k - 1 plus the block."""
        windows = (Q.bit_length() + window - 1) // window
        jac = []  # per base, per window: the block, then its double
        for pt in bases:
            block = (1, 1, 0) if pt is _INF else (pt[0], pt[1], 1)
            for _ in range(windows):
                dbl = _jdbl(block)
                jac += [block, dbl]
                for _ in range(window - 1):
                    dbl = _jdbl(dbl)
                block = dbl
        aff = _to_affine_many(jac)
        blocks = aff[0::2]
        cols = [[_INF] * len(blocks), blocks, aff[1::2]]
        for _ in range(3, 1 << window):
            col = list(cols[-1])
            _add_into(col, blocks)
            cols.append(col)
        return [cls([[col[i * windows + t] for col in cols]
                     for t in range(windows)], window)
                for i in range(len(bases))]

    def exp_many(self, scalars):
        """[s * P for s in scalars] as affine points: per window, one batched
        affine addition of the table entries into all the sums."""
        acc = [_INF] * len(scalars)
        for t, row in enumerate(self.tables):
            shift = t * self.window
            _add_into(acc, [row[(s >> shift) & self.mask] for s in scalars])
        return acc

    def entries(self, s: int) -> list:
        """The finite table entries, one per nonzero digit of s, whose sum
        is s * P."""
        out = []
        for row in self.tables:
            if not s:
                break
            pt = row[s & self.mask]
            if pt is not _INF:
                out.append(pt)
            s >>= self.window
        return out


# -- F_{P^2} = F_P[i]/(i^2 + 1) on (real, imag) int pairs ---------------------


def _fp2_mul(a, b):
    p = P
    a0, a1 = a
    b0, b1 = b
    return ((a0 * b0 - a1 * b1) % p, (a0 * b1 + a1 * b0) % p)


def _fp2_square(a):
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def _fp2_pow(a, e: int):
    result = (1, 0)
    base = a
    while e:
        if e & 1:
            result = _fp2_mul(result, base)
        base = _fp2_square(base)
        e >>= 1
    return result


class _Point:
    """Point in the order-q subgroup of the toy curve (or the identity), as
    an affine int pair.  A subclass names the group by its `tag`; points of
    different groups neither add nor compare equal."""

    __slots__ = ("point",)
    tag = None

    def __init__(self, point):
        self.point = point

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(_add(self.point, other.point))

    def __neg__(self):
        return type(self)(_neg(self.point))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return type(other) is type(self) and self.point == other.point

    def __hash__(self):
        return hash((self.tag, self.point))

    def __repr__(self):
        return f"{self.tag}({self.point})"


class G1Element(_Point):
    __slots__ = ()
    tag = "G1"


class G2Element(_Point):
    __slots__ = ()
    tag = "G2"


class GtElement:
    """Element of the order-q subgroup of F_{p^2}^*."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        if not isinstance(other, GtElement):
            return NotImplemented
        return GtElement(_fp2_mul(self.value, other.value))

    def __pow__(self, e: int):
        return GtElement(_fp2_pow(self.value, e % Q))

    def __eq__(self, other):
        return isinstance(other, GtElement) and self.value == other.value

    def __hash__(self):
        return hash(("GT", self.value))

    def __repr__(self):
        return f"Gt({self.value})"


class BilinearGroup:
    """The toy bilinear group: generators, MSM, and the pairing map."""

    q = Q
    p = P
    coord_bytes = (P.bit_length() + 7) // 8
    point_bytes = 1 + 2 * coord_bytes

    def __init__(self):
        self._table = None  # g1's _FixedBaseTable
        self.g1 = G1Element(G1_GENERATOR)
        self.g2 = G2Element(G2_GENERATOR)

    # -- group operations ---------------------------------------------------

    def generator_table(self) -> _FixedBaseTable:
        """The fixed-base table of g1, built on first use and kept for the
        life of the group."""
        if self._table is None:
            self._table = _FixedBaseTable.build([self.g1.point], 8)[0]
        return self._table

    def _mul(self, s, point):
        """s * point: g1's table for g1 or g2, else double-and-add."""
        k = s % self.q
        if point == self.g2.point:
            point, k = self.g1.point, k * LAMBDA % self.q
        if point == self.g1.point:
            return _bucket_sums([self.generator_table().entries(k)])[0]
        return _scalar_mul(k, point)

    def scalar_mul_g1(self, s, P: _Point) -> _Point:
        """s * P, in P's group."""
        return type(P)(self._mul(s, P.point))

    scalar_mul_g2 = scalar_mul_g1

    def psi(self, P: G1Element) -> G2Element:
        """The isomorphism G1 -> G2, P -> LAMBDA * P: s * g1 goes to s * g2."""
        return self.scalar_mul_g2(LAMBDA, G2Element(P.point))

    def identity_g1(self) -> G1Element:
        return G1Element(_INF)

    def multi_scalar_mul(self, scalars, points):
        """MSM over a homogeneous list of G1 or G2 elements."""
        if len(scalars) != len(points):
            raise ValueError("scalar/point length mismatch")
        if not points:
            return self.identity_g1()
        cls = type(points[0])
        if any(type(pt) is not cls for pt in points):
            raise ValueError("mixed G1/G2 points in MSM")
        raw = _msm([s % self.q for s in scalars], [pt.point for pt in points])
        return cls(raw)

    def fixed_base_tables(self, points, window: int) -> list:
        """One `_FixedBaseTable` of `window` bits per point of `points`, for
        `fixed_base_msm`; built together, with batched additions."""
        return _FixedBaseTable.build([pt.point for pt in points], window)

    def fixed_base_msm(self, scalars, points, tables) -> _Point:
        """multi_scalar_mul(scalars, points) from the points' tables
        (`fixed_base_tables`): one table entry per nonzero digit of each
        scalar, all the entries summed as a tree."""
        if len(scalars) != len(points) or len(points) != len(tables):
            raise ValueError("scalar/point/table length mismatch")
        terms = []
        for s, table in zip(scalars, tables):
            terms += table.entries(s % self.q)
        return type(points[0])(_bucket_sums([terms])[0])

    def in_subgroup_g1(self, P: _Point) -> bool:
        return _on_curve(P.point) and _scalar_mul(self.q, P.point) is _INF

    in_subgroup_g2 = in_subgroup_g1

    # -- pairing ------------------------------------------------------------

    def lines(self, Q: G2Element):
        """The lines of the Miller loop f_{q,Q}, for evaluation at phi(P).

        One entry per bit of q after the leading one: the line of that
        bit's doubling step and, for a set bit, of its addition step, each
        as (lam, c) for the line y = lam*x - c through the running point T
        (c = lam*x_T - y_T).  Vertical lines are F_p factors that the final
        exponentiation removes, so they are left out.  None for the identity.
        """
        return self.checked_lines(Q)[0]

    def checked_lines(self, Q: G2Element):
        """(lines(Q), in_subgroup_g2(Q)) from one walk of the Miller loop.

        T runs in Jacobian coordinates (x = X/Z^2, y = Y/Z^3), so a step
        needs no inversion: each line is kept as (num, num_c) over a
        denominator den, lam = num/den and c = num_c/den, and one batch
        inversion of all the dens at the end gives exactly the affine
        (lam, c).  The walk is double-and-add by q, exact for any point:
        the doubling of a point with y = 0 and the addition of T = -Q go to
        infinity, T = Q doubles (as `_add` does), and neither records
        a line.  So it ends at q*Q, and Q is in the order-q subgroup iff it
        is on the curve and the walk ends at infinity.
        """
        if Q.point is _INF:
            return None, True
        p = self.p
        base = Q.point
        xq, yq = base
        X, Y, Z = xq, yq, 1
        nums, dens, counts = [], [], []  # counts: lines per bit
        for bit in bin(self.q)[3:]:
            count = 0
            if Z:
                if Y == 0:
                    Z = 0  # vertical tangent
                else:
                    YY = Y * Y % p
                    ZZ = Z * Z % p
                    M = (3 * X * X + ZZ * ZZ) % p
                    Z3 = 2 * Y * Z % p
                    nums.append((M * ZZ, M * X - 2 * YY))
                    dens.append(Z3 * ZZ)
                    S = 4 * X * YY
                    X = (M * M - 2 * S) % p
                    Y, Z = (M * (S - X) - 8 * YY * YY) % p, Z3
                    count = 1
            if bit == "1":
                ZZ = Z * Z % p
                H = (xq * ZZ - X) % p
                if Z and H:
                    r = (yq * Z * ZZ - Y) % p
                    nums.append((r * ZZ, r * X - Y * H))
                    dens.append(Z * ZZ * H)
                    HH = H * H % p
                    HHH = H * HH % p
                    V = X * HH % p
                    X = (r * r - HHH - 2 * V) % p
                    Y = (r * (V - X) - Y * HHH) % p
                    Z = Z * H % p
                    count += 1
                else:  # T is infinity or +-Q
                    X, Y, Z = _jadd_mixed((X, Y, Z), base)
            counts.append(count)
        flat = [(num * inv % p, num_c * inv % p) for (num, num_c), inv
                in zip(nums, batch_inverse(dens, p))]
        out = []
        pos = 0
        for count in counts:
            out.append(flat[pos:pos + count])
            pos += count
        return out, Z == 0 and _on_curve(base)

    def pairing_product(self, terms) -> GtElement:
        """prod e(P, Q) over `terms` of (P, lines(Q)): one Miller loop that
        squares the accumulator once per bit and multiplies in every term's
        lines evaluated at phi(P) = (-x_P, i*y_P), then one final
        exponentiation.  A term whose P or Q is the identity contributes 1.

        A line y = lam*x - c evaluates at phi(P) to (lam*x_P + c) + i*y_P.
        """
        p = self.p
        live = [(P.point, ls) for P, ls in terms
                if ls is not None and P.point is not _INF]
        points = [pt for pt, _ in live]
        f0, f1 = 1, 0
        for steps in zip(*[ls for _, ls in live]):
            f0, f1 = (f0 + f1) * (f0 - f1) % p, 2 * f0 * f1 % p
            for (xp, yp), step in zip(points, steps):
                for lam, c in step:
                    a0 = (lam * xp + c) % p
                    f0, f1 = (f0 * a0 - f1 * yp) % p, (f0 * yp + f1 * a0) % p
        return GtElement(self._final_exp((f0, f1)))

    def pair(self, P: G1Element, Q: G2Element) -> GtElement:
        """Modified Tate pairing e(P, Q) = f_{q,Q}(phi(P))^((p^2-1)/q).

        G1 and G2 are the same order-q subgroup of E(F_p), so the pairing
        is symmetric and the loop runs over Q, as for a verifying key's
        precomputed lines.  Vertical-line denominators are F_p values
        removed by the final exponentiation, so the loop drops them.
        """
        return self.pairing_product([(P, self.lines(Q))])

    def _final_exp(self, f):
        """f^((p^2-1)/q) in F_{p^2}.  The exponent is cofactor * (p-1), and
        f^p = conj(f), so f^(p-1) = conj(f)^2 / N(f) with N(f) in F_p: one
        F_p inversion and a short power.  f = 0 maps to 0."""
        p = self.p
        f0, f1 = f
        norm = (f0 * f0 + f1 * f1) % p
        if norm == 0:
            return (0, 0)
        ninv = pow(norm, -1, p)
        g = ((f0 * f0 - f1 * f1) * ninv % p, -2 * f0 * f1 * ninv % p)
        return _fp2_pow(g, COFACTOR)

    # -- serialization ------------------------------------------------------

    def g1_to_bytes(self, P: _Point) -> bytes:
        w = self.coord_bytes
        if P.point is _INF:
            return b"\x00" + b"\x00" * (2 * w)
        x, y = P.point
        return b"\x01" + x.to_bytes(w, "little") + y.to_bytes(w, "little")

    def _point_from_bytes(self, data: bytes):
        w = self.coord_bytes
        if len(data) != 1 + 2 * w:
            raise EncodingError(f"point encoding must be {1 + 2 * w} bytes")
        flag = data[0]
        if flag == 0:
            if any(data[1:]):
                raise EncodingError("nonzero coordinates on infinity encoding")
            return _INF
        if flag != 1:
            raise EncodingError(f"bad point flag byte {flag:#x}")
        x = int.from_bytes(data[1:1 + w], "little")
        y = int.from_bytes(data[1 + w:], "little")
        if x >= self.p or y >= self.p:
            raise EncodingError("point coordinate out of field range")
        pt = (x, y)
        if not _on_curve(pt):
            raise EncodingError("point not on curve")
        return pt

    def g1_from_bytes(self, data: bytes) -> G1Element:
        return G1Element(self._point_from_bytes(data))

    def g2_from_bytes(self, data: bytes) -> G2Element:
        return G2Element(self._point_from_bytes(data))


_GROUP = BilinearGroup()


def toy_group() -> BilinearGroup:
    """The one bilinear group, built when the module is imported."""
    return _GROUP
