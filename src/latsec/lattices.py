"""Construction-A nested lattice pairs with exact rational geometry.

The fine lattice lifts a length-n linear code over GF(p) given by the
columns of an n x k matrix G, then applies a unimodular integer transform T
and a positive rational scale:

    fine   = scale * T * (code_span / p + Z^n)
    coarse = scale * T * Z^n

Because T is unimodular, the coarse lattice is scale * Z^n and the fine
lattice is (scale / p) * (C' + p Z^n), with C' the code spanned by T G mod p.
Both are integer grids over the unit scale / p, so exact arithmetic stays in
Fractions end to end. The coarse quantiser rounds each coordinate; the fine
quantiser rounds inside each coset of p Z^n (one per codeword of C') and
keeps the nearest (Conway & Sloane, SPLAG ch. 20). Ties go to the
lexicographically smallest residual, which makes the induced fundamental
cell half-open.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import gfp
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonPositiveScale,
    NotPrime,
    NotUnimodular,
    RankDeficientG,
)
from .exactlin import det_int

Point = tuple  # tuple of Fractions; alias for readability in signatures

GRID_LIMIT = 1 << 62
"""Bound on the magnitude of an int64 grid coordinate: below it, the sum of
two coordinates cannot overflow. on_grid raises BudgetExceeded past it."""


def exact_vector(x) -> tuple:
    """Coerce a vector of ints, floats, Fractions or strings to exact Fractions.

    Floats convert exactly (every float is a rational), so the result always
    represents the argument bit for bit.
    """
    if isinstance(x, np.ndarray):
        x = x.tolist()
    out = []
    for v in x:
        if isinstance(v, Fraction):
            out.append(v)
        elif isinstance(v, (int, np.integer)):
            out.append(Fraction(int(v)))
        elif isinstance(v, (float, np.floating)):
            out.append(Fraction(float(v)))
        else:
            out.append(Fraction(v))
    return tuple(out)


class PointGrid:
    """Exact points unit * coords[i]: a positive rational unit times rows of
    int64 coordinates, the one exact format for point sets.

    The Fraction points and their floats are derived on demand, once each;
    every float is the correctly rounded value of its exact coordinate.
    """

    def __init__(self, unit, coords):
        self.unit = Fraction(unit)
        self.coords = np.asarray(coords, dtype=np.int64)
        self._float = None

    def __len__(self):
        return len(self.coords)

    def _per_value(self, convert):
        """convert(v) for every coordinate v, evaluated once per distinct value."""
        values, inverse = np.unique(self.coords.ravel(), return_inverse=True)
        return [convert(int(v)) for v in values], inverse.ravel()

    @cached_property
    def points(self) -> tuple:
        table, inverse = self._per_value(lambda v: self.unit * v)
        flat = [table[i] for i in inverse.tolist()]
        n = self.coords.shape[1]
        return tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))

    def float_matrix(self) -> np.ndarray:
        if self._float is None:
            num, den = self.unit.numerator, self.unit.denominator
            # int / int is correctly rounded, as float(Fraction) is
            table, inverse = self._per_value(lambda v: v * num / den)
            self._float = np.array(table, dtype=np.float64)[inverse].reshape(self.coords.shape)
        return self._float


def _common_unit(values) -> Fraction:
    """The largest rational dividing every value (1 when all are zero)."""
    values = list(values)
    return Fraction(
        math.gcd(*(v.numerator for v in values)) or 1,
        math.lcm(1, *(v.denominator for v in values)),
    )


def on_grid(*sets):
    """Express exact point sets as int64 coordinates over one common unit.

    Each set is a PointGrid (a codebook, a sum structure) or a sequence of
    exact points. The unit is the largest rational dividing every set's
    unit, so set i is unit * coords[i] exactly, row for row. Returns
    (unit, [coords, ...]); raises BudgetExceeded when a coordinate reaches
    GRID_LIMIT in magnitude.
    """
    grids = []
    for s in sets:
        if isinstance(s, PointGrid):
            grids.append((s.unit, s.coords))
            continue
        rows = [exact_vector(pt) for pt in s]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise DimensionMismatch("points of one set differ in length")
        own = _common_unit(v for row in rows for v in row)
        ints = [[int(v / own) for v in row] for row in rows]
        grids.append((own, np.array(ints, dtype=object).reshape(len(rows), width)))
    unit = _common_unit(own for own, _ in grids)
    out = []
    for own, coords in grids:
        factor = int(own / unit)
        peak = int(abs(coords).max()) * factor if coords.size else 0
        if peak >= GRID_LIMIT:
            raise BudgetExceeded(f"exact coordinate {peak} on a common grid reaches 2^62")
        out.append(coords.astype(np.int64) * factor)
    return unit, out


def _round_half_up(num: int, den: int) -> int:
    """floor(num / den + 1/2) for den > 0: the nearest integer, halves
    rounded up, which leaves the smaller residual -1/2."""
    return (2 * num + den) // (2 * den)


def _has_float(x) -> bool:
    if isinstance(x, np.ndarray):
        return np.issubdtype(x.dtype, np.floating)
    return any(isinstance(v, (float, np.floating)) for v in x)


class ConstructionALattice:
    """A nested (fine, coarse) lattice pair from a mod-p code.

    Args:
        p: prime modulus of the base field.
        code_matrix: n x k integer matrix whose columns generate the code;
            entries are reduced mod p, and the matrix must have full column
            rank over GF(p).
        transform: n x n integer matrix with determinant +-1 (defaults to
            the identity).
        scale: positive rational overall scale (int, Fraction or "a/b").

    The quotient fine/coarse has exactly p**k cosets.
    """

    def __init__(self, p, code_matrix, transform=None, scale=1):
        if not isinstance(p, (int, np.integer)) or not gfp.is_prime(int(p)):
            raise NotPrime(f"modulus must be a prime integer, got {p!r}")
        p = int(p)

        rows = [list(map(int, r)) for r in code_matrix]
        n = len(rows)
        if n == 0 or len(rows[0]) == 0:
            raise RankDeficientG("code matrix must have at least one row and one column")
        k = len(rows[0])
        if any(len(r) != k for r in rows):
            raise RankDeficientG("code matrix rows have inconsistent lengths")
        if k > n:
            raise RankDeficientG(f"code matrix has k={k} > n={n}, cannot have full column rank")
        rows = [[v % p for v in r] for r in rows]
        if gfp.rank_modp(rows, p) != k:
            raise RankDeficientG(f"code matrix rank over GF({p}) is below k={k}")

        if transform is None:
            trows = [[int(i == j) for j in range(n)] for i in range(n)]
        else:
            trows = [list(map(int, r)) for r in transform]
            if len(trows) != n or any(len(r) != n for r in trows):
                raise NotUnimodular(f"transform must be {n}x{n}")
        d = det_int(trows)
        if d not in (1, -1):
            raise NotUnimodular(f"transform determinant is {d}, need +-1")

        try:
            scale = Fraction(scale)
        except (TypeError, ValueError) as exc:
            raise NonPositiveScale(f"scale {scale!r} is not a rational") from exc
        if scale <= 0:
            raise NonPositiveScale(f"scale must be positive, got {scale}")

        self.p = p
        self.k = k
        self.n = n
        self.code_matrix = tuple(tuple(r) for r in rows)
        self.transform = tuple(tuple(r) for r in trows)
        self.scale = scale

        # generator of C' = T G mod p, the code the fine lattice lifts
        self._code_t = tuple(
            tuple(sum(t * rows[l][j] for l, t in enumerate(trow)) % p for j in range(k))
            for trow in trows
        )
        self._words = None
        self._coarse_float = None

    # ------------------------------------------------------------------
    # basic structure

    @property
    def num_cosets(self) -> int:
        return self.p ** self.k

    def coarse_basis_float(self) -> np.ndarray:
        """Coarse basis as a float matrix whose columns are basis vectors."""
        if self._coarse_float is None:
            # Built as rows of basis vectors, then transposed: the
            # column-major layout fixes how products with it round.
            s, t = self.scale, self.transform
            cols = [[float(s * t[i][j]) for i in range(self.n)] for j in range(self.n)]
            self._coarse_float = np.array(cols).T
        return self._coarse_float

    def _exact(self, x) -> tuple:
        xv = exact_vector(x)
        if len(xv) != self.n:
            raise ValueError("dimension mismatch")
        return xv

    def _unit_coords(self, x) -> list:
        """x in units of scale / p: integers exactly on the fine grid."""
        unit = self.scale / self.p
        return [v / unit for v in self._exact(x)]

    def _codewords(self) -> tuple:
        """Every codeword of C', one per coset of the fine lattice mod p Z^n."""
        if self._words is None:
            words = self.message_coords(np.arange(self.num_cosets)) % self.p
            self._words = tuple(map(tuple, words.tolist()))
        return self._words

    # ------------------------------------------------------------------
    # quantisation

    def quantize_coarse(self, x) -> Point:
        """Closest coarse-lattice point to x, ties broken deterministically.

        Exact for exact inputs; float inputs are rationalised bit for bit
        first, so the decision is still exact for the given float vector.
        """
        s = self.scale
        return tuple(
            s * _round_half_up(v.numerator * s.denominator, v.denominator * s.numerator)
            for v in self._exact(x)
        )

    def mod_coarse(self, x):
        """Reduce x into the half-open fundamental cell of the coarse lattice.

        Returns Fractions for exact inputs and a float ndarray for float
        inputs. Idempotent: mod(mod(x)) == mod(x).
        """
        if _has_float(x):
            point = self.quantize_coarse(x)
            return np.asarray(x, dtype=float) - np.array([float(v) for v in point])
        xv = exact_vector(x)
        point = self.quantize_coarse(xv)
        return tuple(a - b for a, b in zip(xv, point))

    def quantize_fine(self, x) -> Point:
        """Closest fine-lattice point to x (same tie rule as the coarse cell).

        Rounds x into each coset of p Z^n in the fine grid, one per codeword
        of C', and keeps the coset point with the least (distance, residual).
        """
        y = self._unit_coords(x)
        p = self.p
        den = math.lcm(*(v.denominator for v in y))
        big = [v.numerator * (den // v.denominator) for v in y]  # y * den
        # near[i][r]: nearest integer to y_i that is r mod p, halves up
        near = [
            [r + p * _round_half_up(b - r * den, p * den) for r in range(p)] for b in big
        ]
        resid = [[b - z * den for z in row] for b, row in zip(big, near)]
        sq = [[e * e for e in row] for row in resid]
        words = self._codewords()
        dist = [sum(row[c] for row, c in zip(sq, w)) for w in words]
        least = min(dist)
        _, word = min(
            (tuple(row[c] for row, c in zip(resid, w)), w)
            for w, d in zip(words, dist)
            if d == least
        )
        unit = self.scale / p
        return tuple(unit * row[c] for row, c in zip(near, word))

    # ------------------------------------------------------------------
    # membership and coset labels

    def is_coarse_point(self, x) -> bool:
        return all(v.denominator == 1 and v.numerator % self.p == 0
                   for v in self._unit_coords(x))

    def is_fine_point(self, x) -> bool:
        """Exact membership test for the fine lattice."""
        t = self._unit_coords(x)
        if any(v.denominator != 1 for v in t):
            return False
        residue = [v.numerator % self.p for v in t]
        return gfp.in_column_space(self._code_t, residue, self.p)

    def coset_label(self, point) -> tuple:
        """Label of a fine point's coset mod coarse, as a vector in [0, p)^n.

        The label is in the frame of the code matrix G: the l with
        T l = point * p / scale (mod p).
        """
        t = self._unit_coords(point)
        if any(v.denominator != 1 for v in t):
            raise ValueError("point is not in the fine lattice")
        residue = [v.numerator % self.p for v in t]
        return tuple(gfp.solve_column_comb(self.transform, residue, self.p))

    def message_of_point(self, point) -> int:
        """Index in [0, p**k) of the coset containing the given fine point."""
        label = self.coset_label(point)
        z = gfp.solve_column_comb(self.code_matrix, list(label), self.p)
        if z is None:
            raise ValueError("point label is outside the code span")
        return sum(int(zi) * self.p ** i for i, zi in enumerate(z))

    def message_digits(self, m: int) -> tuple:
        if not 0 <= m < self.num_cosets:
            raise ValueError(f"message index {m} out of range")
        return tuple((m // self.p ** i) % self.p for i in range(self.k))

    def message_coords(self, messages) -> np.ndarray:
        """Codebook coordinates, in units of scale / p, of message indices.

        The codeword c = T G z mod p of the message digits z, folded into
        the cell as c - p [2c >= p], so every entry lies in [-p/2, p/2).
        Folding T (G z mod p) instead gives the same point, since the two
        differ by a coarse vector. Shape messages.shape + (n,), int64.
        """
        if self.num_cosets > GRID_LIMIT or self.k * self.p**2 > GRID_LIMIT:
            raise BudgetExceeded(f"p={self.p}, k={self.k} overflow int64 codeword arithmetic")
        m = np.asarray(messages, dtype=np.int64)
        digits = (m[..., None] // self.p ** np.arange(self.k, dtype=np.int64)) % self.p
        c = digits @ np.array(self._code_t, dtype=np.int64).T % self.p
        return c - self.p * (2 * c >= self.p)

    def point_for_message(self, m: int) -> Point:
        """Canonical codebook representative of message m (reduced mod coarse):
        scale / p times message_coords(m)."""
        self.message_digits(m)  # range check
        unit = self.scale / self.p
        return tuple(unit * int(v) for v in self.message_coords(m))


# ----------------------------------------------------------------------
# seeded generators used by configs and sweeps


def random_code_matrix(p, k, n, seed):
    """Rejection-sample an n x k matrix with full column rank over GF(p)."""
    if k > n:
        raise RankDeficientG(f"k={k} > n={n}: no n x k matrix has full column rank")
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, p, size=(n, k)).tolist()
        if gfp.rank_modp(rows, p) == k:
            return tuple(tuple(int(v) for v in r) for r in rows)


def random_unimodular(n, seed, entry_cap=6):
    """Random unimodular integer matrix via elementary row operations.

    Draws with an entry above entry_cap in absolute value are redrawn. The
    cap is part of the draw: changing it changes the matrix a seed yields.
    """
    rng = np.random.default_rng(seed)
    while True:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n + 2):
            kind = int(rng.integers(0, 3)) if n > 1 else 1
            if kind == 0:
                i, j = rng.choice(n, size=2, replace=False)
                m[i], m[j] = m[j], m[i]
            elif kind == 1:
                i = int(rng.integers(0, n))
                m[i] = [-v for v in m[i]]
            else:
                i, j = rng.choice(n, size=2, replace=False)
                c = int(rng.choice([-2, -1, 1, 2]))
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if max(abs(v) for row in m for v in row) <= entry_cap:
            return tuple(tuple(r) for r in m)
