"""Free algebras of finite rank presented by structure constants.

An algebra of rank k over a base ring is stored as the k x k table of
basis products, each expanded over the basis again.  The table holds the
ring's canonical raw values (RingSpec.value), and the product kernel
computes on them; RingElements are built only where a caller reads them.
Basis element 0 is required to be the multiplicative identity;
constructors reject tables where it is not.  Everything downstream
(associativity checks, regular representations, characteristic and
minimal polynomials, products of algebras, matrix algebras) works
exactly over Z, Q, or a prime field.
"""

from __future__ import annotations

import itertools

from .errors import InputError, NotAUnit, SpecMismatch, TableError, UnsupportedRing, check_guard
from .poly import Polynomial
from .rings import RingElement, RingSpec, _trusted


def json_list(raw, length, what):
    """Return raw after checking that it is a JSON list of length entries."""
    if not isinstance(raw, list) or len(raw) != length:
        raise InputError(f"{what} must be a list of {length!r} entries")
    return raw


class StructureConstants:
    """Multiplication table of a free algebra with basis element 0 = 1.

    The cells are stored once, as canonical raw values in `_values`;
    `table` wraps them in RingElements on first read and keeps the result.
    The constructor checks every value, the shape and the identity.  The
    private `_canonical` skips those checks; its only caller is
    `cubic.build_algebra`, whose rows are canonical by construction.
    """

    __slots__ = ("spec", "rank", "_values", "_table")

    def __init__(self, spec: RingSpec, table):
        value = spec.value
        rows = tuple(
            tuple(tuple(map(value, cell)) for cell in row) for row in table
        )
        k = len(rows)
        if k == 0:
            raise TableError("empty table")
        for row in rows:
            if len(row) != k or any(len(cell) != k for cell in row):
                raise TableError(f"table must be {k}x{k} cells of {k} coefficients")
        for j in range(k):
            unit = tuple(1 if l == j else 0 for l in range(k))
            if rows[0][j] != unit or rows[j][0] != unit:
                raise TableError(
                    f"basis element 0 is not a two-sided identity at index {j}"
                )
        self.spec = spec
        self.rank = k
        self._values = rows
        self._table = None

    @classmethod
    def _canonical(cls, spec: RingSpec, rows) -> StructureConstants:
        """A table from rows the constructor would store unchanged: tuples
        of tuples of canonical raw values (RingSpec.value), with basis
        element 0 a two-sided identity.  Nothing is checked."""
        out = object.__new__(cls)
        out.spec = spec
        out.rank = len(rows)
        out._values = rows
        out._table = None
        return out

    @property
    def table(self):
        """The cells as tuples of RingElements."""
        if self._table is None:
            spec = self.spec
            self._table = tuple(
                tuple(tuple(_trusted(spec, c) for c in cell) for cell in row)
                for row in self._values
            )
        return self._table

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstants)
            and self.spec == other.spec
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.spec, self._values))

    def __repr__(self):
        return f"StructureConstants(rank={self.rank} over {self.spec!r})"

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> AlgebraElement:
        return AlgebraElement(self, coeffs)

    def basis(self, i: int) -> AlgebraElement:
        if not 0 <= i < self.rank:
            raise IndexError(f"no basis element {i} in rank {self.rank}")
        return AlgebraElement(
            self, [1 if l == i else 0 for l in range(self.rank)]
        )

    def scalar(self, c) -> AlgebraElement:
        return AlgebraElement(self, [c] + [0] * (self.rank - 1))

    def zero(self) -> AlgebraElement:
        return self.scalar(0)

    def one(self) -> AlgebraElement:
        return self.scalar(1)

    def elements(self):
        """Iterate every element over a finite base ring, lexicographically."""
        if self.spec.kind != "Fp":
            raise UnsupportedRing("element enumeration needs a finite base ring")
        for coeffs in itertools.product(range(self.spec.p), repeat=self.rank):
            yield AlgebraElement(self, coeffs)

    def _mul_values(self, u, v):
        """Bilinear product of raw coefficient tuples (ints, or Fractions
        over Q) through the raw table; skips zero coefficients and reduces
        each term mod p over F_p.  The only loop over table cells."""
        p = self.spec.p
        table = self._values
        k = self.rank
        out = [0] * k
        for i in range(k):
            a = u[i]
            if not a:
                continue
            row = table[i]
            for j in range(k):
                b = v[j]
                if not b:
                    continue
                ab = a * b
                cell = row[j]
                for l in range(k):
                    c = cell[l]
                    if c:
                        s = out[l] + ab * c
                        out[l] = s % p if p else s
        return tuple(out)

    def _combine_values(self, coeffs, images):
        """The raw linear combination of the raw vectors `images` with the
        raw scalars `coeffs`; skips zero coefficients and reduces each term
        mod p over F_p.  The only linear-extension loop."""
        p = self.spec.p
        out = [0] * self.rank
        for c, im in zip(coeffs, images):
            if not c:
                continue
            for l, a in enumerate(im):
                if a:
                    s = out[l] + c * a
                    out[l] = s % p if p else s
        return tuple(out)

    def _mul_vec(self, u, v):
        """Bilinear product of RingElement coefficient tuples."""
        prod = self._mul_values([a.value for a in u], [b.value for b in v])
        return tuple(map(self.spec.element, prod))

    # -- global properties -------------------------------------------------

    def verify_associativity(self):
        """Check (e_a e_b) e_c = e_a (e_b e_c) for every basis triple.

        Returns (True, None) or (False, (a, b, c)) with the first failing
        triple in lexicographic order.
        """
        k = self.rank
        t = self._values
        mul = self._mul_values
        e = t[0]  # the basis vectors, since e_0 = 1
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if mul(t[a][b], e[c]) != mul(e[a], t[b][c]):
                        return False, (a, b, c)
        return True, None

    def is_commutative(self) -> bool:
        t = self._values
        for a in range(self.rank):
            for b in range(a + 1, self.rank):
                if t[a][b] != t[b][a]:
                    return False
        return True

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.spec.to_json(),
            "rank": self.rank,
            "table": [
                [[str(c) for c in cell] for cell in row] for row in self._values
            ],
        }

    @staticmethod
    def from_json(obj) -> StructureConstants:
        if not isinstance(obj, dict):
            raise InputError("algebra must be a JSON object")
        missing = {"ring", "rank", "table"} - set(obj)
        if missing:
            raise InputError(f"algebra object lacks keys {sorted(missing)}")
        spec = RingSpec.from_json(obj["ring"])
        rank = obj["rank"]
        table = obj["table"]
        parsed = [
            [
                [spec.parse(s) for s in json_list(cell, rank, "table cell")]
                for cell in json_list(row, rank, "table row")
            ]
            for row in json_list(table, rank, "table")
        ]
        return StructureConstants(spec, parsed)


class AlgebraElement:
    """An element of a structure-constant algebra, as basis coefficients."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StructureConstants, coeffs):
        cs = tuple(map(algebra.spec.element, coeffs))
        if len(cs) != algebra.rank:
            raise ValueError(f"expected {algebra.rank} coefficients, got {len(cs)}")
        self.algebra = algebra
        self.coeffs = cs

    def _peer(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise SpecMismatch("elements of different algebras")
            return other
        return None

    def __add__(self, other):
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.coeffs, peer.coeffs)]
        )

    def __sub__(self, other):
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.coeffs, peer.coeffs)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            peer = self._peer(other)
            return AlgebraElement(
                self.algebra, self.algebra._mul_vec(self.coeffs, peer.coeffs)
            )
        if isinstance(other, (int, RingElement)):
            c = self.algebra.spec.element(other)
            return AlgebraElement(self.algebra, [a * c for a in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, RingElement)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_scalar(self) -> bool:
        """True when the element lies in the image of the base ring."""
        return all(c.is_zero() for c in self.coeffs[1:])

    def scalar_part(self) -> RingElement:
        return self.coeffs[0]


class SquareMatrix:
    """Dense n x n matrix over a RingSpec with exact arithmetic."""

    __slots__ = ("spec", "n", "entries")

    def __init__(self, spec: RingSpec, entries):
        rows = tuple(tuple(map(spec.element, row)) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.spec = spec
        self.n = n
        self.entries = rows

    @staticmethod
    def identity(spec: RingSpec, n: int) -> SquareMatrix:
        return SquareMatrix(
            spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(spec: RingSpec, n: int) -> SquareMatrix:
        return SquareMatrix(spec, [[0] * n for _ in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, SquareMatrix)
            and self.spec == other.spec
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.spec, self.entries))

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if other.spec != self.spec or other.n != self.n:
            raise SpecMismatch("mismatched matrices")
        return SquareMatrix(
            self.spec,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SquareMatrix(self.spec, [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            if other.spec != self.spec or other.n != self.n:
                raise SpecMismatch("mismatched matrices")
            cols = list(zip(*other.entries))
            return SquareMatrix(
                self.spec,
                [
                    [
                        sum(
                            (a * b for a, b in zip(row, col) if a and b),
                            start=self.spec.zero,
                        )
                        for col in cols
                    ]
                    for row in self.entries
                ],
            )
        if isinstance(other, (int, RingElement)):
            c = self.spec.element(other)
            return SquareMatrix(
                self.spec, [[a * c for a in row] for row in self.entries]
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, RingElement)):
            return self * other
        return NotImplemented

    def apply(self, vec):
        """Multiply a coefficient vector on the left: self @ vec."""
        vec = [self.spec.element(v) for v in vec]
        return tuple(
            sum((a * b for a, b in zip(row, vec)), start=self.spec.zero)
            for row in self.entries
        )

    def _values(self):
        """The entries as rows of canonical raw values."""
        return [[e.value for e in row] for row in self.entries]

    def det(self) -> RingElement:
        """(-1)^n times the constant term of the characteristic polynomial."""
        c0 = _char_poly_values(self.spec, self._values())[0]
        return self.spec.element(-c0 if self.n % 2 else c0)

    def char_poly(self) -> Polynomial:
        """Characteristic polynomial det(T*I - M), exactly."""
        return Polynomial(self.spec, _char_poly_values(self.spec, self._values()))

    def is_invertible(self) -> bool:
        return self.det().is_unit()

    def inverse(self) -> SquareMatrix:
        """The inverse from Cayley-Hamilton; needs a unit determinant.

        With chi the characteristic polynomial and q = (chi - chi(0)) / T,
        M q(M) = chi(M) - chi(0) I = -chi(0) I, so M^-1 = q(M) / -chi(0);
        q(M) is (-1)^(n-1) times the adjugate.
        """
        chi = self.char_poly()
        c0 = chi.coefficient(0)  # (-1)^n det(M)
        if not c0.is_unit():
            raise NotAUnit(f"determinant {self.det()} is not a unit")
        q = Polynomial(self.spec, chi.coeffs[1:])
        adj = q.evaluate(self, one=SquareMatrix.identity(self.spec, self.n))
        return adj * (-c0).inverse()

    def __repr__(self):
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self.entries
        ) + "]"

    def to_json(self):
        return [[str(e) for e in row] for row in self.entries]


def _char_poly_values(spec: RingSpec, rows):
    """Coefficients of det(T*I - M), constant term first, for the square
    matrix M given as rows of canonical raw values (ints, or Fractions
    over Q).

    Berkowitz's algorithm (Inf. Process. Lett. 18, 1984) uses only ring
    operations, so it is exact over Z, Q and F_p with no division.  If
    the leading (r+1) x (r+1) block is [[A, C], [R, a]], its polynomial
    is the lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RAC, ..., -RA^(r-1)C) applied to that of A.  Skips
    zero factors and reduces each term mod p over F_p.  The only
    determinant loop.
    """
    p = spec.p
    chi = [1]  # det(T*I - A), leading coefficient first
    for r, row in enumerate(rows):
        a = -row[r]
        col = [1, a % p if p else a]  # the Toeplitz column
        vec = [rows[i][r] for i in range(r)]  # A^k C, from k = 0
        for k in range(r):
            s = 0
            for j in range(r):
                b, c = row[j], vec[j]
                if b and c:
                    s = s - b * c
                    s = s % p if p else s
            col.append(s)
            if k + 1 < r:
                out = [0] * r
                for i in range(r):
                    arow = rows[i]
                    for j in range(r):
                        b, c = arow[j], vec[j]
                        if b and c:
                            s = out[i] + b * c
                            out[i] = s % p if p else s
                vec = out
        nxt = chi + [0]
        for j, c in enumerate(chi):
            if not c:
                continue
            for i in range(j + 1, r + 2):
                b = col[i - j]
                if b:
                    s = nxt[i] + b * c
                    nxt[i] = s % p if p else s
        chi = nxt
    return chi[::-1]


def left_regular_rep(x: AlgebraElement) -> SquareMatrix:
    """Matrix of left multiplication by x in the algebra basis."""
    alg = x.algebra
    k = alg.rank
    xv = [c.value for c in x.coeffs]
    # row 0 of the table holds the basis vectors, since e_0 = 1
    cols = [alg._mul_values(xv, ej) for ej in alg._values[0]]
    return SquareMatrix(
        alg.spec, [[cols[j][i] for j in range(k)] for i in range(k)]
    )


def _row_reduce(p, rows):
    """Gauss-Jordan elimination of raw rows over F_p (ints) or, when p is
    None, over Q (Fractions; an int may stand for 0).

    Returns the reduced rows and the ascending list of pivot columns: row
    r has a 1 in column pivots[r] and every other row a 0 there.  The
    rows are copied first, and each term is reduced mod p over F_p.  The
    only elimination loop.
    """
    rows = [[x % p for x in row] if p else list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        a = rows[r][col]
        inv = pow(a, -1, p) if p else 1 / a
        top = rows[r] = [x * inv % p if p else x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [
                    (x - f * y) % p if p else x - f * y for x, y in zip(row, top)
                ]
        pivots.append(col)
    return rows, pivots


def min_poly(x: AlgebraElement) -> Polynomial:
    """Minimal polynomial over a field: the first monic dependence among
    the powers 1, x, x^2, ..., on raw values.

    For m = 0, 1, ... the columns x^0..x^m are row-reduced.  The first m
    whose last column is not a pivot gives the answer: the lower powers
    are independent, so x^m = sum c_j x^j has one solution, read off the
    last column, and the polynomial is T^m - sum c_j T^j.
    """
    alg = x.algebra
    spec = alg.spec
    if not spec.is_field():
        raise UnsupportedRing("minimal polynomials need a field base ring")
    xv = [c.value for c in x.coeffs]
    powers = [alg._values[0][0]]  # e_0 = 1
    while True:
        m = len(powers) - 1
        rows, pivots = _row_reduce(spec.p, zip(*powers))
        if m not in pivots:
            return Polynomial(spec, [-rows[j][m] for j in range(m)] + [1])
        powers.append(alg._mul_values(powers[-1], xv))


def algebra_degree(alg: StructureConstants) -> int:
    """Largest minimal-polynomial degree over all elements.

    Only available over a prime field, and guarded: p^rank elements are
    enumerated, with a default ceiling of 10^6.
    """
    if alg.spec.kind != "Fp":
        raise UnsupportedRing("degree enumeration needs a prime field")
    count = alg.spec.p ** alg.rank
    check_guard(count, 10**6, "degree enumeration")
    best = 0
    for x in alg.elements():
        d = min_poly(x).degree()
        if d > best:
            best = d
            if best == alg.rank:
                break
    return best


class AlgebraMap:
    """A linear map between algebras, given by the images of the basis.
    Two maps are equal when their source, target and images are."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: StructureConstants, target: StructureConstants, images):
        images = tuple(
            im if isinstance(im, AlgebraElement) else target.element(im)
            for im in images
        )
        if len(images) != source.rank:
            raise ValueError("one image per source basis element")
        for im in images:
            if im.algebra != target:
                raise SpecMismatch("image outside the target algebra")
        if source.spec != target.spec:
            raise SpecMismatch("source and target over different rings")
        self.source = source
        self.target = target
        self.images = images

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.source:
            raise SpecMismatch("argument outside the source algebra")
        # the sum of x's coefficients times the basis images
        return self.target.element(
            self.target._combine_values(
                [c.value for c in x.coeffs],
                [[c.value for c in im.coeffs] for im in self.images],
            )
        )

    def matrix(self) -> SquareMatrix:
        if self.source.rank != self.target.rank:
            raise ValueError("matrix form needs equal ranks")
        k = self.source.rank
        return SquareMatrix(
            self.source.spec,
            [[self.images[j].coeffs[i] for j in range(k)] for i in range(k)],
        )

    def is_unital(self) -> bool:
        return self.images[0] == self.target.one()

    def is_multiplicative(self):
        """Check phi(e_a e_b) = phi(e_a) phi(e_b) on every basis pair.

        Together with linearity this covers all products.  Returns
        (True, None) or (False, (a, b)).
        """
        t = self.source._values
        combine, mul = self.target._combine_values, self.target._mul_values
        images = [tuple(c.value for c in im.coeffs) for im in self.images]
        k = self.source.rank
        for a in range(k):
            for b in range(k):
                if combine(t[a][b], images) != mul(images[a], images[b]):
                    return False, (a, b)
        return True, None

    def is_invertible(self) -> bool:
        return self.matrix().det().is_unit()

    def verify_isomorphism(self) -> bool:
        return (
            self.is_unital()
            and self.is_multiplicative()[0]
            and self.source.rank == self.target.rank
            and self.is_invertible()
        )

    def to_json(self) -> dict:
        return {"images": [[str(c) for c in im.coeffs] for im in self.images]}

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return f"AlgebraMap({list(self.images)!r})"


# -- constructions ----------------------------------------------------------


def rank_one(spec: RingSpec) -> StructureConstants:
    """The base ring as an algebra of rank 1."""
    return StructureConstants(spec, [[[1]]])


def direct_product(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """Componentwise product algebra of rank a.rank + b.rank.

    The natural basis pairs (e_i, 0) and (0, f_j) do not start with the
    identity, so basis element 0 is replaced by (1, 1); the remaining
    basis elements are (e_i, 0) for i >= 1 and all (0, f_j).
    """
    if a.spec != b.spec:
        raise SpecMismatch("factors over different rings")
    spec = a.spec
    ka, kb = a.rank, b.rank

    def to_basis(u, v):
        # (u, v) = u_0*(1,1) + sum_{i>=1} u_i*(e_i,0)
        #        + (v_0 - u_0)*(0,f_0) + sum_{j>=1} v_j*(0,f_j)
        return tuple(u) + (v[0] - u[0],) + tuple(v[1:])

    def split(coeffs):
        u = list(coeffs[:ka])
        v = [coeffs[0] + coeffs[ka]] + list(coeffs[ka + 1:])
        return tuple(u), tuple(v)

    k = ka + kb
    basis_pairs = []
    for g in range(k):
        unit = tuple(spec.one if l == g else spec.zero for l in range(k))
        basis_pairs.append(split(unit))
    table = []
    for ga in range(k):
        row = []
        ua, va = basis_pairs[ga]
        for gb in range(k):
            ub, vb = basis_pairs[gb]
            pu = a._mul_vec(ua, ub)
            pv = b._mul_vec(va, vb)
            row.append(to_basis(pu, pv))
        table.append(row)
    return StructureConstants(spec, table)


def product_element(prod: StructureConstants, a: StructureConstants,
                    b: StructureConstants, xa, xb) -> AlgebraElement:
    """Embed the pair (xa, xb) into a direct product built by direct_product."""
    ua = xa.coeffs if isinstance(xa, AlgebraElement) else tuple(
        a.spec.element(c) for c in xa
    )
    vb = xb.coeffs if isinstance(xb, AlgebraElement) else tuple(
        b.spec.element(c) for c in xb
    )
    coeffs = tuple(ua) + (vb[0] - ua[0],) + tuple(vb[1:])
    return prod.element(coeffs)


def product_components(prod: StructureConstants, a: StructureConstants,
                       b: StructureConstants, x: AlgebraElement):
    """Split an element of a direct product back into its two components."""
    ka = a.rank
    u = x.coeffs[:ka]
    v = (x.coeffs[0] + x.coeffs[ka],) + x.coeffs[ka + 1:]
    return a.element(u), b.element(v)


def matrix_algebra(spec: RingSpec, n: int) -> StructureConstants:
    """Full n x n matrix algebra as structure constants of rank n^2.

    The basis is the identity matrix followed by every matrix unit
    except E_{n-1,n-1}, which the identity replaces to keep the first
    basis element equal to 1.
    """
    units = [(i, j) for i in range(n) for j in range(n) if (i, j) != (n - 1, n - 1)]

    def as_matrix(g):
        m = [[spec.zero] * n for _ in range(n)]
        if g == 0:
            for d in range(n):
                m[d][d] = spec.one
        else:
            i, j = units[g - 1]
            m[i][j] = spec.one
        return m

    def to_coeffs(m):
        # only the identity contributes to the (n-1, n-1) entry
        c0 = m[n - 1][n - 1]
        out = [c0]
        for (i, j) in units:
            if i == j:
                out.append(m[i][j] - c0)
            else:
                out.append(m[i][j])
        return out

    mats = [SquareMatrix(spec, as_matrix(g)) for g in range(n * n)]
    table = [[to_coeffs((ma * mb).entries) for mb in mats] for ma in mats]
    return StructureConstants(spec, table)


def matrix_to_element(alg: StructureConstants, m: SquareMatrix) -> AlgebraElement:
    """Coefficients of a concrete matrix in the matrix-algebra basis."""
    n = m.n
    if alg.rank != n * n or alg.spec != m.spec:
        raise SpecMismatch("matrix does not fit this algebra")
    c0 = m.entries[n - 1][n - 1]
    out = [c0]
    for i in range(n):
        for j in range(n):
            if (i, j) == (n - 1, n - 1):
                continue
            if i == j:
                out.append(m.entries[i][j] - c0)
            else:
                out.append(m.entries[i][j])
    return alg.element(out)


def element_to_matrix(alg: StructureConstants, x: AlgebraElement, n: int) -> SquareMatrix:
    """Inverse of matrix_to_element."""
    if x.algebra != alg or alg.rank != n * n:
        raise SpecMismatch("element does not fit this matrix algebra")
    spec = alg.spec
    m = [[spec.zero] * n for _ in range(n)]
    for d in range(n):
        m[d][d] = x.coeffs[0]
    g = 1
    for i in range(n):
        for j in range(n):
            if (i, j) == (n - 1, n - 1):
                continue
            m[i][j] = m[i][j] + x.coeffs[g]
            g += 1
    return SquareMatrix(spec, m)
