"""Free algebras of finite rank presented by structure constants.

An algebra of rank k over a base ring is stored as the k x k table of
basis products, each expanded over the basis again.  The table and every
SquareMatrix are records of the ring's canonical raw values
(rings._RawValues), like the polynomials and forms, and every
AlgebraElement holds such values too; the product, linear-combination
and determinant kernels compute on them, and RingElements are built only
where a caller reads them (`table`, `coeffs`, `entries`).
Basis element 0 is required to be the multiplicative identity;
constructors reject tables where it is not.  `rebase` writes an
algebra's table in any other basis that starts with the identity, with
the verified map onto it; the normal forms that change basis
(`cubic.GeneralCubicTable.good_basis`, `quadratic.complete_square`)
only choose that basis.  Everything downstream
(associativity checks, regular representations, characteristic and
minimal polynomials, products of algebras, matrix algebras) works
exactly over Z, Q, or a prime field.

Q = Frac(Z), so the table checks and the element-level answers take one
path on every ring and compute on ints.  The lift helpers below are the
only functions outside rings.py that ask whether the ring is Q, with
the Q entry of the determinant loop (_char_poly_values) and the ring's
constants (_basis_values); over Z and F_p each lift helper returns its
input unchanged.  Over Q, _on_ints writes raw rows over one
denominator, _integral_model gives the integral model (the same algebra
in the basis (1, D e_1, ..., D e_{k-1}), whose table has integer
cells), _integral_models and _on_model move a map's images to models,
and _divided turns each int result back into one canonical Fraction.
A table is immutable, so its integral model is kept on the table once
built: every check of one table in a request, and both involution
verifiers, read the cells once, and a model at a multiple of D is
scaled from the kept one on ints.
The table checks (verify_associativity, and through it
cubic.matrix_rep, a unital map's is_multiplicative and the involution
verifiers) run on the model, whose verdicts and failing indices are
those of the table; the determinant loop, the unit-determinant test
(_has_unit_det, behind is_invertible and verify_isomorphism),
SquareMatrix.inverse, left_regular_rep, left_char_poly, rebase and
the cells of cubic tables (cubic._table_values) run on cleared rows and
model products and divide each output entry once.  The lift helpers
read each Fraction once, through as_integer_ratio().  Decoding reads
each value once: over Q the strings "-1", "0" and "1" and the ints
-1, 0 and 1 give shared Fractions (rings._Q_CONSTANTS), which the
basis rows of _basis_values are built of, and from_json stores the
canonical values of read_elements after the shape, emptiness and
identity checks, with no second conversion.  Element arithmetic,
elimination and the constructions compute on the Fractions
themselves; direct_product reads its cells off the factors' tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import InputError, NotAUnit, SpecMismatch, TableError, UnsupportedRing, check_guard
from .poly import Polynomial
from .rings import (
    ZZ,
    RingElement,
    RingSpec,
    _as_elements,
    _Q_CONSTANTS,
    _RawValues,
    _trusted,
    _unit_inverse,
)


def read_elements(spec: RingSpec, raw, *levels):
    """The canonical raw values of raw, a JSON array nested one level per
    (length, what) pair in levels, outermost first, each string read as
    RingSpec.parse reads it; returned as nested lists for a constructor,
    which checks them again.  A level whose length is not an int (a
    bool, a float, a string) fits no list."""
    (length, what), *inner = levels
    if type(length) is not int or not isinstance(raw, list) or len(raw) != length:
        raise InputError(f"{what} must be a list of {length!r} entries")
    if not inner:
        return list(map(spec._parse_value, raw))
    return [read_elements(spec, item, *inner) for item in raw]


class StructureConstants(_RawValues):
    """Multiplication table of a free algebra with basis element 0 = 1.

    The cells are stored once, as rows of cells of canonical raw values
    in `_values` (rings._RawValues, which gives equality and hashing);
    `table` wraps them in RingElements each time it is read.
    The constructor checks every value, the shape and the identity.  The
    private `_canonical` skips those checks for rows that are canonical
    by construction; its callers are listed in its docstring.  Over Q,
    `_model` keeps the integral model once _integral_model has built
    it; it takes no part in equality, hashing or JSON.
    """

    __slots__ = ("rank", "_model")

    def __init__(self, spec: RingSpec, table):
        value = spec.value
        rows = tuple(
            tuple(tuple(map(value, cell)) for cell in row) for row in table
        )
        k = len(rows)
        for row in rows:
            if len(row) != k or any(len(cell) != k for cell in row):
                raise TableError(f"table must be {k}x{k} cells of {k} coefficients")
        _check_unital(spec, rows)
        self.spec = spec
        self.rank = k
        self._values = rows
        self._model = None

    @classmethod
    def _canonical(cls, spec: RingSpec, rows) -> StructureConstants:
        """A table from rows the constructor would store unchanged: tuples
        of tuples of canonical raw values (RingSpec.value), with basis
        element 0 a two-sided identity.  Nothing is checked, so each
        caller builds its rows from values that are canonical already,
        with the constant 0 and 1 from _basis_values.  Every caller is
        named here, and a package test keeps the list complete:
        `cubic.build_algebra` (the table of a validated six-tuple),
        `quadratic.QuadraticAlgebra.structure` (the table of its
        canonical (t, n)), `cubic.exceptional_ring` (the table of
        B(phi) = R + M, with phi checked by RingSpec.value),
        `algebra._model_table` (the integral model of _integral_model:
        the integer table over Z of a table over Q in the basis
        (1, D e_1, ..., D e_{k-1}), with the unit rows of _basis_values)
        and `algebra.StructureConstants.from_json` (the values of
        read_elements, canonical and in shape, once _check_unital has
        passed).  The
        certificate verifiers (verify_associativity, is_multiplicative,
        involutions.verify_involution and verify_standard) skip the
        identities that involve e_0, so they rely on these rows holding
        a two-sided identity; a test rebuilds each caller's table
        through the checking constructor."""
        out = object.__new__(cls)
        out.spec = spec
        out.rank = len(rows)
        out._values = rows
        out._model = None
        return out

    # the cells as tuples of RingElements
    table = property(_RawValues.as_tuple)

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

    # -- global properties -------------------------------------------------

    def verify_associativity(self):
        """Check (e_a e_b) e_c = e_a (e_b e_c) for every basis triple.

        A triple with an index 0 holds because e_0 = 1 is a two-sided
        identity, so only the (k-1)^3 triples off the unit are compared:
        sum_l t[a][b][l] e_l e_c against sum_l t[b][c][l] e_a e_l, two
        linear combinations of a column and a row of the table.
        Returns (True, None) or (False, (a, b, c)) with the first failing
        triple in lexicographic order.  The triples are compared in the
        integral model (_integral_model: the table itself outside Q),
        which has the same failing triples.
        """
        k = self.rank
        model = _integral_model(self)[0]
        t = model._values
        combine = model._combine_values
        cols = tuple(zip(*t))  # cols[c][l] = e_l e_c
        for a in range(1, k):
            for b in range(1, k):
                for c in range(1, k):
                    if combine(t[a][b], cols[c]) != combine(t[b][c], t[a]):
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
        levels = ((rank, "table"), (rank, "table row"), (rank, "table cell"))
        # read_elements gives canonical values in the rank x rank x rank shape
        rows = tuple(
            tuple(map(tuple, row)) for row in read_elements(spec, obj["table"], *levels)
        )
        _check_unital(spec, rows)
        return StructureConstants._canonical(spec, rows)


def _check_unital(spec: RingSpec, rows) -> None:
    """Raise TableError unless the square table of canonical raw rows is
    nonempty with basis element 0 a two-sided identity: the checks that
    the constructor and from_json share.  Row 0 and column 0 are
    compared with the ring's basis vectors (_basis_values), which over
    Q are tuples of the shared constants and compare by identity."""
    k = len(rows)
    if k == 0:
        raise TableError("empty table")
    _, basis = _basis_values(spec, k)
    for j, unit in enumerate(basis):
        if rows[0][j] != unit or rows[j][0] != unit:
            raise TableError(
                f"basis element 0 is not a two-sided identity at index {j}"
            )


class AlgebraElement:
    """An element of a structure-constant algebra, as basis coefficients.

    The coefficients are stored once, as canonical raw values in `_values`
    (RingSpec.value); `coeffs` builds RingElements of the spec each time
    it is read.  The constructor checks every value and the length.  Sums,
    differences, negation and scalar multiples are raw linear combinations
    (`_combine_values`), products go through `_mul_values`, and each result
    passes the constructor again, so over Q every coordinate, zero
    included, is a Fraction.
    """

    __slots__ = ("algebra", "_values")

    def __init__(self, algebra: StructureConstants, coeffs):
        vs = tuple(map(algebra.spec.value, coeffs))
        if len(vs) != algebra.rank:
            raise ValueError(f"expected {algebra.rank} coefficients, got {len(vs)}")
        self.algebra = algebra
        self._values = vs

    @property
    def coeffs(self):
        """The coefficients as a tuple of RingElements."""
        return _as_elements(self.algebra.spec, self._values)

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
        alg = self.algebra
        return AlgebraElement(
            alg, alg._combine_values((1, 1), (self._values, peer._values))
        )

    def __sub__(self, other):
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        alg = self.algebra
        return AlgebraElement(
            alg, alg._combine_values((1, -1), (self._values, peer._values))
        )

    def __neg__(self):
        alg = self.algebra
        return AlgebraElement(alg, alg._combine_values((-1,), (self._values,)))

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, AlgebraElement):
            peer = self._peer(other)
            return AlgebraElement(alg, alg._mul_values(self._values, peer._values))
        if isinstance(other, (int, RingElement)):
            c = alg.spec.value(other)
            return AlgebraElement(alg, alg._combine_values((c,), (self._values,)))
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
        return self.algebra == other.algebra and self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self._values) + ")"

    def is_zero(self) -> bool:
        return not any(self._values)

    def is_scalar(self) -> bool:
        """True when the element lies in the image of the base ring."""
        return not any(self._values[1:])

    def scalar_part(self) -> RingElement:
        return _trusted(self.algebra.spec, self._values[0])


class SquareMatrix(_RawValues):
    """Dense n x n matrix over a RingSpec with exact arithmetic.

    The entries are stored once, as rows of canonical raw values in
    `_values` (rings._RawValues), like the cells of StructureConstants;
    `entries` and `m[i, j]` build RingElements of the spec each time they
    are read.  The constructor checks every value and the shape.  Sums,
    differences, negation and products compute on raw values and each
    result passes the constructor again, so over F_p every entry is
    reduced and over Q every entry, zero included, is a Fraction.  A
    scalar factor may be an int, a Fraction or an element of the spec.
    """

    __slots__ = ("n",)

    def __init__(self, spec: RingSpec, entries):
        value = spec.value
        rows = tuple(tuple(map(value, row)) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.spec = spec
        self.n = n
        self._values = rows

    @staticmethod
    def identity(spec: RingSpec, n: int) -> SquareMatrix:
        return SquareMatrix(
            spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(spec: RingSpec, n: int) -> SquareMatrix:
        return SquareMatrix(spec, [[0] * n for _ in range(n)])

    # the entries as rows of RingElements
    entries = property(_RawValues.as_tuple)

    def __getitem__(self, ij):
        i, j = ij
        return _trusted(self.spec, self._values[i][j])

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if other.spec != self.spec or other.n != self.n:
            raise SpecMismatch("mismatched matrices")
        return SquareMatrix(
            self.spec,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._values, other._values)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SquareMatrix(self.spec, [[-a for a in row] for row in self._values])

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            if other.spec != self.spec or other.n != self.n:
                raise SpecMismatch("mismatched matrices")
            return SquareMatrix(
                self.spec, _matmul_values(self._values, tuple(zip(*other._values)))
            )
        if isinstance(other, (int, Fraction, RingElement)):
            c = self.spec.value(other)
            return SquareMatrix(
                self.spec, [[a * c for a in row] for row in self._values]
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RingElement)):
            return self * other
        return NotImplemented

    def apply(self, vec):
        """Multiply a coefficient vector on the left: self @ vec."""
        spec = self.spec
        vec = [spec.value(v) for v in vec]
        return tuple(
            spec.element(sum(a * b for a, b in zip(row, vec)))
            for row in self._values
        )

    def det(self) -> RingElement:
        """(-1)^n times the constant term of the characteristic polynomial."""
        c0 = _char_poly_values(self.spec, self._values)[0]
        return self.spec.element(-c0 if self.n % 2 else c0)

    def char_poly(self) -> Polynomial:
        """Characteristic polynomial det(T*I - M), exactly."""
        return Polynomial(self.spec, _char_poly_values(self.spec, self._values))

    def is_invertible(self) -> bool:
        """Whether the determinant is a unit (_has_unit_det)."""
        return _has_unit_det(self.spec, self._values)

    def inverse(self) -> SquareMatrix:
        """The inverse from Cayley-Hamilton; needs a unit determinant.

        With chi the characteristic polynomial and q = (chi - chi(0)) / T,
        M q(M) = chi(M) - chi(0) I = -chi(0) I, so M^-1 = q(M) / -chi(0);
        q(M) is (-1)^(n-1) times the adjugate (_adjugate_values).  With
        M = A / d for the integer matrix A of _on_ints (d = 1 outside Q),
        the same identity on A gives M^-1 = d q_A(A) / -chi_A(0): q_A(A)
        is evaluated on ints, with A's integer coefficients, and each
        entry is divided once (_divided).
        """
        spec = self.spec
        ring, rows, d = _on_ints(spec, self._values)
        chi = _char_poly_values(ring, rows)  # chi[0] = (-1)^n det(A)
        out = _divided(spec, _adjugate_values(ring.p, rows, chi), d, -chi[0])
        if out is None:
            raise NotAUnit(f"determinant {self.det()} is not a unit")
        return SquareMatrix(spec, out)

    def __repr__(self):
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self._values
        ) + "]"

    def to_json(self):
        return [[str(e) for e in row] for row in self._values]


def _matmul_values(rows, cols):
    """The raw product of a matrix, given by its rows, and another one,
    given by its columns; zero terms are skipped and nothing is reduced.
    The only matrix-product loop."""
    return [
        [sum(a * b for a, b in zip(row, col) if a and b) for col in cols]
        for row in rows
    ]


def _adjugate_values(p, rows, chi):
    """q(M) for the square matrix M given as raw rows, with chi its raw
    characteristic polynomial (constant term first) and
    q = (chi - chi(0)) / T: (-1)^(n-1) times the adjugate of M.
    Evaluated by Horner's rule, reducing each entry mod p when p is not
    None."""
    n = len(rows)
    cols = tuple(zip(*rows))
    acc = [[chi[n] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(chi[1:n]):
        acc = _matmul_values(acc, cols)
        for i in range(n):
            acc[i][i] += c
        if p:
            acc = [[a % p for a in row] for row in acc]
    return acc


def _on_ints(spec: RingSpec, rows):
    """Raw rows of spec written over one denominator, as the kernels
    take them: (ring, ints, d) with rows[i][j] = ints[i][j] / d and ints
    rows of the ring `ring`.  Over Q, ring is ZZ and d the least common
    multiple of the denominators; over Z and F_p the rows are ints
    already and come back as they are, with d = 1."""
    if spec.kind != "Q":
        return spec, rows, 1
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    d = lcm(*[q for row in ratios for _, q in row])
    return ZZ, [[a * (d // q) for a, q in row] for row in ratios], d


def _divided(spec: RingSpec, rows, d, den):
    """Raw rows of spec equal to rows * d / den, for rows of ints and
    ints d and den, or None when den is not a unit of spec.  Over Q each
    entry is one Fraction(a * d, den), the shared 0 when a is 0; over Z
    and F_p, where d = 1, the rows come back as they are when den = 1,
    and otherwise each entry is multiplied by the unit inverse of den
    (the constructor that takes them reduces mod p)."""
    if spec.kind == "Q":
        if not den:
            return None
        return [[Fraction(a * d, den) if a else _Q_ZERO for a in row] for row in rows]
    if den == 1:
        return rows
    inv = _unit_inverse(spec, spec.value(den))
    return None if inv is None else [[a * inv for a in row] for row in rows]


def _char_poly_values(spec: RingSpec, rows, d=1):
    """Coefficients of det(T*I - M / d), constant term first, for the
    square matrix M given as rows of canonical raw values (ints, or
    Fractions over Q) and an int d, which is 1 outside Q.

    Berkowitz's algorithm (Inf. Process. Lett. 18, 1984) uses only ring
    operations, so it is exact over Z, Q and F_p with no division.  If
    the leading (r+1) x (r+1) block is [[A, C], [R, a]], its polynomial
    is the lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RAC, ..., -RA^(r-1)C) applied to that of A.  Skips
    zero factors and reduces each term mod p over F_p.  The only
    determinant loop.  Its entry over Q lifts it to ints: with M = A / d
    for the integer matrix A of _on_ints, det(T*I - M) =
    d^-n det(dT*I - A), so coefficient i of chi_M is c_i(A) / d^(n-i),
    one division each; rows of ints over Q take that path with the
    given d.
    """
    if spec.kind == "Q":
        _, ints, e = _on_ints(spec, rows)
        n, d = len(ints), d * e
        return [Fraction(c, d ** (n - i)) for i, c in enumerate(_char_poly_values(ZZ, ints))]
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


def _has_unit_det(spec: RingSpec, rows) -> bool:
    """Whether the square matrix given as rows of canonical raw values
    has a unit determinant, read off the raw characteristic polynomial
    of the integer rows A of _on_ints: chi_A(0) = (-1)^n det(A), and -1
    is a unit.  Over Z and F_p, A is the matrix itself; over Q, A = d M
    and det(A) = d^n det(M), which is nonzero exactly when det(M) is, so
    the int chi_A(0) decides as a value of Q."""
    ring, ints, _ = _on_ints(spec, rows)
    chi0 = _char_poly_values(ring, ints)[0]
    return _unit_inverse(spec, spec.value(chi0)) is not None


# Row 0 of a table of rank 2 or 3 over Z or F_p, whose canonical 0 and 1
# are the ints 0 and 1, and over Q, built of the shared constants.
_INT_BASES = {2: ((1, 0), (0, 1)), 3: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
_Q_ZERO, _Q_ONE = _Q_CONSTANTS[0], _Q_CONSTANTS[1]


def _q_basis(basis):
    """The basis rows with each int 0 and 1 the shared Fraction."""
    return tuple(tuple(_Q_ONE if b else _Q_ZERO for b in row) for row in basis)


_Q_BASES = {k: _q_basis(basis) for k, basis in _INT_BASES.items()}


def _basis_values(spec: RingSpec, k: int):
    """The ring's own canonical 0 and the basis vectors of rank k, as
    canonical raw rows: (zero, basis), where basis is row 0 of a rank-k
    table.  The tables stored through StructureConstants._canonical
    take their constants from here.  Over Z and F_p the rows are ints,
    at rank 2 and 3 the shared _INT_BASES[k]; over Q they are built of
    the shared Fractions 0 and 1 (rings._Q_CONSTANTS), at rank 2 and 3
    the prebuilt _Q_BASES[k]."""
    if spec.kind != "Q":
        return 0, _INT_BASES.get(k) or _int_basis(k)
    return _Q_ZERO, _Q_BASES.get(k) or _q_basis(_int_basis(k))


def _int_basis(k: int):
    """The basis vectors of rank k as rows of the ints 0 and 1."""
    return tuple(tuple(int(i == l) for l in range(k)) for i in range(k))


def _integral_model(alg: StructureConstants, d=None):
    """The integral model of a table: (model, D), with D the least
    common multiple of the denominators of its cells off the unit, or,
    when given, d, a multiple of it; over Z and F_p, (alg, 1).

    Over Q the model is the table of the same algebra in the basis
    f_0 = 1, f_a = D e_a, stored over Z.  Since f_a f_b = D^2 t_ab^0 +
    sum_{l >= 1} D t_ab^l f_l, its cells off the unit are
    (D^2 t_ab^0, D t_ab^1, ..., D t_ab^{k-1}), integers by the choice
    of D, written down in closed form: the table equals
    rebase(alg, [1, D e_1, ..., D e_{k-1}]).  The change of basis is
    diagonal, so an identity among basis products holds in alg exactly
    when it holds in the model, with the same indices, and a witness
    with 0/1 coordinates keeps its support; the table checks run on
    the model, through the same kernel, on ints.  A table is
    immutable, so the model at its own D is built on first use, from
    the cells read once (_on_ints), and kept on the table (_model);
    every later call reads no Fraction.  The scalings compose, so the
    model at d = jD is the kept model's own model at j: built from its
    int cells M as (j^2 M^0, j M^1, ..., j M^{k-1}), and not kept."""
    if alg.spec.kind != "Q":
        return alg, 1
    if alg._model is None:
        # D t = N for the int rows N of the cells off the unit
        _, cells, D = _on_ints(alg.spec, [cell for row in alg._values[1:] for cell in row[1:]])
        alg._model = _model_table(alg.rank, cells, D), D
    model, D = alg._model
    if d is None or d == D:
        return alg._model
    j = d // D
    cells = [[j * c for c in cell] for row in model._values[1:] for cell in row[1:]]
    return _model_table(alg.rank, cells, j), d


def _model_table(k: int, cells, D):
    """The integral model at D of the table of rank k whose cells off
    the unit are c / D for the int cells c, given row by row: the
    table over Z with e_0 = 1 whose cells off the unit are the tuples
    _model_coords(c, D)."""
    _, basis = _basis_values(ZZ, k)
    cells = [tuple(_model_coords(c, D)) for c in cells]
    rows = [basis] + [(basis[a], *cells[(a - 1) * (k - 1):a * (k - 1)]) for a in range(1, k)]
    return StructureConstants._canonical(ZZ, tuple(rows))


def _model_coords(u, D):
    """The coordinates in the integral model at D (basis 1, D e_1, ...)
    of D times the element with coordinates u in the table's basis:
    (D u_0, u_1, ..., u_{k-1}), and u itself at D = 1."""
    return u if D == 1 else (D * u[0], *u[1:])


def _model_images(images, ds, dt):
    """The raw images of a map between two tables over Q, read between
    their integral models at ds (source) and dt (target), or None when
    a coordinate is not an integer there.  With f_a = ds e_a and
    g_l = dt e_l for a, l >= 1, phi(f_0) = phi_0^0 + sum_{l >= 1}
    (phi_0^l / dt) g_l and phi(f_a) = ds phi_a^0 + sum_{l >= 1}
    (ds / dt) phi_a^l g_l."""
    scaled = []
    for a, im in enumerate(images):
        row = []
        for l, c in enumerate(im):
            num, den = c.as_integer_ratio()
            if a:
                num *= ds
            if l:
                den *= dt
            if num % den:
                return None
            row.append(num // den)
        scaled.append(tuple(row))
    return scaled


def _integral_models(source, target, images):
    """A unital map with raw images between two tables, moved to
    integral models of both: (source model, target model, model
    images), all ints; over Z and F_p, the inputs as they are.  Over Q
    the target's model is its kept one, at dt, and the source's is at
    ds, the least common multiple of the source model's D, of the
    denominators of the images' unit coordinates and of dt times those
    of their other coordinates, so that every image is integral between
    them (_model_images).  A map of a table to itself at ds = dt gets
    one model."""
    if source.spec.kind != "Q":
        return source, target, images
    other, dt = _integral_model(target)
    rest = lcm(*(c.as_integer_ratio()[1] for im in images[1:] for c in im[1:]))
    units = (im[0].as_integer_ratio()[1] for im in images[1:])
    ds = lcm(_integral_model(source)[1], dt * rest, *units)
    return _integral_model(source, ds)[0], other, _model_images(images, ds, dt)


def _on_model(alg: StructureConstants, images):
    """The table and raw images that the involution checks read for the
    raw images of a map of the table alg to itself; over Z and F_p, alg
    and images as they are.  Over Q: its integral model at one D, the
    least common multiple of the kept model's D and of the images' unit
    coordinates, and the images in that model's basis (_model_images),
    or alg and images themselves when an image is not integral there."""
    if alg.spec.kind != "Q":
        return alg, images
    D = lcm(_integral_model(alg)[1], *(im[0].as_integer_ratio()[1] for im in images[1:]))
    scaled = _model_images(images, D, D)
    return (alg, images) if scaled is None else (_integral_model(alg, D)[0], scaled)


def _left_model(x: AlgebraElement):
    """Left multiplication by x in the integral model at D
    (_integral_model), basis f_0 = 1, f_a = D e_a, on ints: (cols, D,
    s), with cols[j] the model coordinates of Xm f_j.  Here x = X / s
    for the integer vector X of _on_ints, and Xm = (D X_0, X_1, ...,
    X_{k-1}) (_model_coords) are the model coordinates of D s x, so
    cols is the matrix of left multiplication by D s x in the model
    basis, by columns.  Over Z and F_p, D = s = 1 and column j is the
    product of x and e_j."""
    alg = x.algebra
    model, D = _integral_model(alg)
    _, (X,), s = _on_ints(alg.spec, (x._values,))
    Xm = _model_coords(X, D)
    # row 0 of the table holds the basis vectors, since e_0 = 1
    return [model._mul_values(Xm, fj) for fj in model._values[0]], D, s


def left_regular_rep(x: AlgebraElement) -> SquareMatrix:
    """Matrix of left multiplication by x in the algebra basis: column j
    is x e_j.

    Computed on ints from _left_model's columns Y_j: the product Y_j
    is D^[j >= 1] D s x e_j, with alg coordinates (Y_j^0, D Y_j^1,
    ...).  So once the column Y_0 is multiplied by D, row 0 of the
    matrix is row 0 of the columns Y_j over D^2 s and row l >= 1 is
    their row l over D s, one division per entry (_divided).  Over Z
    and F_p, D = s = 1, with nothing to divide.
    """
    spec = x.algebra.spec
    cols, D, s = _left_model(x)
    if D * s == 1:
        return SquareMatrix(spec, zip(*cols))
    cols[0] = [D * a for a in cols[0]]
    rows = list(zip(*cols))
    return SquareMatrix(
        spec, _divided(spec, rows[:1], 1, D * D * s) + _divided(spec, rows[1:], 1, D * s)
    )


def left_char_poly(x: AlgebraElement) -> Polynomial:
    """Characteristic polynomial of left multiplication by x, equal to
    left_regular_rep(x).char_poly(), read off the integer model matrix.

    _left_model gives the matrix L of left multiplication by D s x in
    the basis (1, D e_1, ..., D e_{k-1}); the change of basis is
    diagonal, so left_regular_rep(x) is similar to L / (D s), and its
    coefficient i is c_i(L) / (D s)^(n-i): the Q entry of
    _char_poly_values with d = D s.  The characteristic polynomial of
    a matrix is that of its transpose, so the columns go in as rows.
    No Fraction matrix is built."""
    spec = x.algebra.spec
    cols, D, s = _left_model(x)
    return Polynomial(spec, _char_poly_values(spec, cols, D * s))


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

    The k + 1 columns x^0..x^k (k the rank, powers multiplied on the
    right) are row-reduced once.  Once x^m depends on the lower powers,
    x^(m+1) = x^m x does too, since right multiplication by x is linear
    and sends each x^j to x^(j+1); so the pivots are the columns
    0..m-1 and the first non-pivot column is m = len(pivots).  The
    lower powers are independent, so x^m = sum c_j x^j has one
    solution, read off column m, and the polynomial is
    T^m - sum c_j T^j.
    """
    alg = x.algebra
    spec = alg.spec
    if not spec.is_field():
        raise UnsupportedRing("minimal polynomials need a field base ring")
    rows, pivots = _row_reduce(spec.p, zip(*_krylov(alg, x._values)))
    m = len(pivots)
    return Polynomial(spec, [-rows[j][m] for j in range(m)] + [1])


def _krylov(alg: StructureConstants, x):
    """The raw powers 1, x, ..., x^k of the raw vector x in alg of rank
    k, each the one before multiplied by x on the right."""
    powers = [alg._values[0][0]]  # e_0 = 1
    for _ in range(alg.rank):
        powers.append(alg._mul_values(powers[-1], x))
    return powers


def algebra_degree(alg: StructureConstants) -> int:
    """Largest minimal-polynomial degree over all elements.

    Only available over a prime field.  A scalar has degree 1.  For a
    scalar a and a unit b, the powers of y = a + b x satisfy y^(n+1) =
    a y^n + b y^n x, so each y^n is b^n x^n plus lower powers of x
    (right multiplication by x sends x^j to x^(j+1)): 1, y, ..., y^m
    span the same space as 1, x, ..., x^m, for any unital table, and
    y has the degree of x.  Every non-scalar element is such a y for
    exactly one x with coordinate 0 on e_0 and coordinate 1 on its
    first nonzero e_j, j >= 1, so those (p^(k-1) - 1)/(p - 1)
    representatives are scanned instead of the p^k elements.  The
    degree of x is the dimension of the span of its powers, the pivot
    count of one _row_reduce of the columns 1, x, ..., x^k (min_poly).
    The scan stops at the rank, the largest degree possible.  Guarded:
    the count of representatives is checked before the scan, with a
    default ceiling of 10^6.
    """
    spec = alg.spec
    if spec.kind != "Fp":
        raise UnsupportedRing("degree enumeration needs a prime field")
    p, k = spec.p, alg.rank
    check_guard((p ** (k - 1) - 1) // (p - 1), 10**6, "degree enumeration")
    best = 1
    for j in range(1, k):
        for tail in itertools.product(range(p), repeat=k - 1 - j):
            x = (0,) * j + (1,) + tail
            d = len(_row_reduce(p, zip(*_krylov(alg, x)))[1])
            if d > best:
                best = d
                if best == k:
                    return best
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
                x._values, [im._values for im in self.images]
            )
        )

    def matrix(self) -> SquareMatrix:
        if self.source.rank != self.target.rank:
            raise ValueError("matrix form needs equal ranks")
        # column j holds the coefficients of the image of e_j
        return SquareMatrix(
            self.source.spec, zip(*(im._values for im in self.images))
        )

    def is_unital(self) -> bool:
        """Whether the unit e_0 goes to the target's unit, compared as raw
        values with the target's cell e_0 e_0, which holds the unit."""
        return self.images[0]._values == self.target._values[0][0]

    def is_multiplicative(self):
        """Check phi(e_a e_b) = phi(e_a) phi(e_b) on every basis pair.

        Together with linearity this covers all products.  When the map
        is unital, a pair with an index 0 holds because e_0 = 1 on both
        sides, so only the (k-1)^2 pairs off the unit are checked.
        Returns (True, None) or (False, (a, b)) with the first failing
        pair in lexicographic order.  A unital map is checked between
        integral models of source and target (_integral_models, the
        tables themselves outside Q), on ints: each change of basis is
        diagonal, so the failing pairs are the same.
        """
        source, target = self.source, self.target
        images = [im._values for im in self.images]
        k = source.rank
        start = 1 if self.is_unital() else 0
        if start:
            source, target, images = _integral_models(source, target, images)
        t = source._values
        combine, mul = target._combine_values, target._mul_values
        for a in range(start, k):
            for b in range(start, k):
                if combine(t[a][b], images) != mul(images[a], images[b]):
                    return False, (a, b)
        return True, None

    def is_invertible(self) -> bool:
        """Whether matrix() has a unit determinant.  The raw image vectors
        are the rows of its transpose, which has the same determinant, so
        they go to the determinant kernel as they are, and no SquareMatrix
        is built.  Unequal ranks raise ValueError, as matrix() does."""
        if self.source.rank != self.target.rank:
            raise ValueError("matrix form needs equal ranks")
        return _has_unit_det(self.source.spec, [im._values for im in self.images])

    def verify_isomorphism(self) -> bool:
        """Whether the map is an isomorphism of algebras, checked in full
        on raw values: the unit goes to the unit (is_unital), the (k-1)^2
        basis products off the unit are preserved (is_multiplicative;
        with the unit, that covers all k^2), the ranks are equal and the
        determinant is a unit (is_invertible).  Builds no element, table
        or matrix."""
        return (
            self.is_unital()
            and self.is_multiplicative()[0]
            and self.source.rank == self.target.rank
            and self.is_invertible()
        )

    def to_json(self) -> dict:
        return {"images": [[str(c) for c in im._values] for im in self.images]}

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


def rebase(alg: StructureConstants, images):
    """The table of alg in a new basis, with the map onto it: (table, phi).

    images[k] is the coordinate vector, in alg's basis, of new basis
    element k, one vector of rank entries for each basis element
    (ValueError otherwise).  images[0] must be the unit, or the
    StructureConstants constructor raises TableError.  The change of
    basis needs a unit determinant (over Z, +-1), or
    SquareMatrix.inverse raises NotAUnit.
    Each product of new basis elements is taken by _mul_values and read
    back in new coordinates through the inverse, on ints
    (_rebased_cells).  phi sends each basis element of alg to its new
    coordinates, the columns of the inverse; the map back is
    AlgebraMap(table, alg, images).  phi is re-checked by
    verify_isomorphism before it is returned.
    """
    if len(images) != alg.rank:
        raise ValueError(f"rank {alg.rank} needs {alg.rank} images")
    spec = alg.spec
    change = SquareMatrix(spec, images)  # row k is new basis element k
    # the rows of the inverse of the transpose are the columns of the
    # inverse: the new coordinates of each old basis element
    cols = change.inverse()._values
    table = StructureConstants(spec, _rebased_cells(alg, change._values, cols))
    phi = AlgebraMap(alg, table, cols)
    if not phi.verify_isomorphism():
        raise AssertionError("basis-change map failed verification")
    return table, phi


def _rebased_cells(alg: StructureConstants, new, cols):
    """rebase's cells, computed on ints: the products of the new basis
    vectors `new` (raw rows in alg's basis) read back through `cols`,
    the raw rows of the inverse.  With new = U / d and cols = C / c
    (_on_ints), the model coordinates of D d u are (D U_0, U_1, ...)
    (_model_coords), their product P in the integral model at D
    (_integral_model) has alg coordinates (P_0, D P_1, ...) = D^2 d^2 uv,
    and reading those through C, or P through C with its rows off the
    unit times D, gives D^2 d^2 c times the new cell, which is divided
    once per entry (_divided).  Over Z and F_p, D = d = c = 1: the
    products read back through cols."""
    spec = alg.spec
    model, D = _integral_model(alg)
    _, rows, d = _on_ints(spec, new)
    _, back, c = _on_ints(spec, cols)
    scaled = [_model_coords(u, D) for u in rows]
    if D != 1:
        back = [back[0]] + [[D * a for a in row] for row in back[1:]]
    combine, mul = model._combine_values, model._mul_values
    den = D * D * d * d * c
    return [_divided(spec, [combine(mul(u, v), back) for v in scaled], 1, den) for u in scaled]


# -- constructions ----------------------------------------------------------


def rank_one(spec: RingSpec) -> StructureConstants:
    """The base ring as an algebra of rank 1."""
    return StructureConstants(spec, [[[1]]])


def _product_coords(u, v):
    """Coordinates in the direct_product basis of the pair (u, v), given
    by the coordinates u and v of its components in their own bases:

        (u, v) = u_0*(1,1) + sum_{i>=1} u_i*(e_i,0)
               + (v_0 - u_0)*(0,f_0) + sum_{j>=1} v_j*(0,f_j).
    """
    return tuple(u) + (v[0] - u[0],) + tuple(v[1:])


def _product_split(coeffs, ka):
    """The component coordinates (u, v) of the direct_product coordinates
    `coeffs` whose first factor has rank ka; inverse of _product_coords."""
    return tuple(coeffs[:ka]), (coeffs[0] + coeffs[ka],) + tuple(coeffs[ka + 1:])


def direct_product(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """Componentwise product algebra of rank a.rank + b.rank.

    The natural basis pairs (e_i, 0) and (0, f_j) do not start with the
    identity, so basis element 0 is replaced by (1, 1); the remaining
    basis elements are (e_i, 0) for i >= 1 and all (0, f_j).  Each
    component of a basis element is a basis vector of its factor or
    zero, so each component of a product of two is a cell of that
    factor's table or zero, read off with no product taken.
    """
    if a.spec != b.spec:
        raise SpecMismatch("factors over different rings")
    ka, kb = a.rank, b.rank
    # the index of each basis element's component in each factor, or None
    # where that component is zero: (1, 1), the (e_i, 0), then the (0, f_j)
    parts = [(0, 0)] + [(i, None) for i in range(1, ka)] + [(None, j) for j in range(kb)]
    zero = a.spec.value(0)
    ta, tb = a._values, b._values
    table = [
        [
            _product_coords(
                (zero,) * ka if i is None or i2 is None else ta[i][i2],
                (zero,) * kb if j is None or j2 is None else tb[j][j2],
            )
            for i2, j2 in parts
        ]
        for i, j in parts
    ]
    return StructureConstants(a.spec, table)


def product_element(prod: StructureConstants, a: StructureConstants,
                    b: StructureConstants, xa, xb) -> AlgebraElement:
    """Embed the pair (xa, xb) into a direct product built by direct_product."""
    ua = xa._values if isinstance(xa, AlgebraElement) else tuple(map(a.spec.value, xa))
    vb = xb._values if isinstance(xb, AlgebraElement) else tuple(map(b.spec.value, xb))
    return prod.element(_product_coords(ua, vb))


def product_components(prod: StructureConstants, a: StructureConstants,
                       b: StructureConstants, x: AlgebraElement):
    """Split an element of a direct product back into its two components."""
    u, v = _product_split(x._values, a.rank)
    return a.element(u), b.element(v)


def _matrix_coords(rows, n):
    """Coordinates of the n x n matrix `rows` in the matrix_algebra basis:
    the identity, then every matrix unit E_ij in row-major order except
    E_{n-1,n-1}.  Only the identity contributes to entry (n-1, n-1)."""
    c0 = rows[n - 1][n - 1]
    return [c0] + [
        rows[i][j] - c0 if i == j else rows[i][j]
        for i in range(n)
        for j in range(n)
        if (i, j) != (n - 1, n - 1)
    ]


def _matrix_rows(coeffs, n):
    """The n x n matrix with matrix_algebra coordinates `coeffs`, as rows;
    inverse of _matrix_coords."""
    c0, rest = coeffs[0], iter(coeffs[1:])
    return [
        [
            c0 if (i, j) == (n - 1, n - 1) else next(rest) + (c0 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def matrix_algebra(spec: RingSpec, n: int) -> StructureConstants:
    """Full n x n matrix algebra as structure constants of rank n^2.

    The basis is the identity matrix followed by every matrix unit
    except E_{n-1,n-1}, which the identity replaces to keep the first
    basis element equal to 1.
    """
    k = n * n
    mats = [
        SquareMatrix(spec, _matrix_rows([1 if l == g else 0 for l in range(k)], n))
        for g in range(k)
    ]
    table = [[_matrix_coords((ma * mb)._values, n) for mb in mats] for ma in mats]
    return StructureConstants(spec, table)


def matrix_to_element(alg: StructureConstants, m: SquareMatrix) -> AlgebraElement:
    """Coefficients of a concrete matrix in the matrix-algebra basis."""
    n = m.n
    if alg.rank != n * n or alg.spec != m.spec:
        raise SpecMismatch("matrix does not fit this algebra")
    return alg.element(_matrix_coords(m._values, n))


def element_to_matrix(alg: StructureConstants, x: AlgebraElement, n: int) -> SquareMatrix:
    """Inverse of matrix_to_element."""
    if x.algebra != alg or alg.rank != n * n:
        raise SpecMismatch("element does not fit this matrix algebra")
    return SquareMatrix(alg.spec, _matrix_rows(x._values, n))
