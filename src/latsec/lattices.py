"""Construction-A nested lattice pairs with exact rational geometry.

The fine lattice lifts a length-n linear code over GF(p) given by the
columns of an n x k matrix G, then applies a unimodular integer transform T
and a positive rational scale:

    fine   = scale * T * (code_span / p + Z^n)
    coarse = scale * T * Z^n

Because T is unimodular, the coarse lattice is scale * Z^n and the fine
lattice is (scale / p) * (C' + p Z^n), with C' the code spanned by T G mod p.
Both are integer grids over the unit scale / p. The quantisers work on rows:
a float array of shape (rows, n) or a PointGrid. The coarse quantiser rounds
each coordinate; the fine quantiser rounds inside each coset of p Z^n (one
per codeword of C'), takes every codeword's distance at once and keeps the
nearest (Conway & Sloane, SPLAG ch. 20): float and exact rows alike, as n
column adds into one (codewords, rows) block. Ties go to the
lexicographically smallest residual, which makes the induced fundamental
cell half-open. Rows are taken in chunks whose temporaries hold at most
_GATHER_LIMIT entries, cut by _row_chunks: the one bound and the one helper
for every row-chunked temporary of the package, channel's and infotheory's
included.

Every decision is the exact one for the row's rational value. Float rows are
decided in float64 first, and a row is kept only when each of its decisions
is farther from its boundary than a derived rounding-error bound (the filter
of Shewchuk's adaptive predicates, with Higham's gamma_n bounds); such a row
never has a tie. Both quantisers round by one certified rule,
_round_to_coset: the fine quantiser's rounding inside the coset r + p Z,
which with r = 0 and p = 1 is the coarse index. The float searches for a
nearest candidate, the fine quantiser's codeword and channel's successive
decoder, both decide by one rule, _marks: a row is kept when one candidate
alone lies within the stated margin of its least computed distance or
score. Only the rows left uncertified are written exactly. Exact rows are
integer numerators over one denominator that all the rows of a call share,
in units of scale / p, decided on those integers: int64 when a bound proves
that nothing overflows, Python ints otherwise.
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
    ValidationError,
)

GRID_LIMIT = 1 << 62
"""Bound on the magnitude of an int64 grid coordinate: below it, the sum of
two coordinates cannot overflow. on_grid raises BudgetExceeded past it."""

_GATHER_LIMIT = 1 << 14
"""Entries of any row-chunked temporary in the package, the one bound for
all of them. Each takes its rows in chunks of this many entries at its
width per row (_row_chunks, or one row where a row alone holds more), so
its memory stays small whatever the batch: the fine quantiser's (p, n,
rows) residue arrays and (codewords, rows) distance block, at max(p n,
|C|) entries per row, the (points, rows) score block of channel's
successive decoder and the (rows, points, n) gather of the rows it leaves
uncertified, and infotheory's groups of binned pair-table rows. Pair keys
are counted in steps of at most this many keys (or one key space), because
np.bincount casts its input to intp, 8 bytes an entry whatever the keys'
own dtype. At 2^14 entries a float64 temporary takes 128 KiB; halving the
bound made the 343- and 729-codeword fine quantisers slower, so chunks
this long keep numpy's per-call cost out of sight."""

_ROUNDOFF = 2.0**-53
"""u, the unit roundoff of float64: a correctly rounded operation whose
result is a normal float returns its exact value times 1 + d, |d| <= u."""

_FLOAT_REACH = 2.0**50
"""Float rows are decided in float64 only while every |x / scale| and
|x p / scale| stays below this. Coarse indices and coset points then lie
well below 2^53, so they are exact integer floats and cast to int64 as they
are; rows past it take the exact path, which raises BudgetExceeded for
them as before."""


class PointGrid:
    """Exact points unit * coords[i]: a positive rational unit times rows of
    int64 coordinates, the one exact format for point sets.

    peak is a proven upper bound on |coords|. Inside the package, a
    constructor whose range follows from the construction gives it as
    _bound (a Codebook, an exact fold), with no scan; any other grid scans
    its coords, once, on first read. A bound may overestimate, so readers
    take it only to accept: where it would trip a guard, a scan of the
    coords decides, as before.

    The Fraction points and their floats are derived on demand, once each;
    every float is the correctly rounded value of its exact coordinate. So
    that none of these goes stale, the grid makes its coords read-only (an
    int64 array is kept as it is, and is read-only from then on), and its
    float array read-only too. A unit that is not positive raises
    ValidationError, and coords that are not one 2-D array of rows raise
    DimensionMismatch.
    """

    def __init__(self, unit, coords, *, _bound=None):
        self.unit = unit if type(unit) is Fraction else Fraction(unit)
        # a Fraction keeps its sign in the numerator
        if self.unit.numerator <= 0:
            raise ValidationError("unit", f"a grid's unit must be positive, got {self.unit}")
        self.coords = _int64_coords(coords)
        if self.coords.ndim != 2:
            raise DimensionMismatch(f"expected a batch of rows, got shape {self.coords.shape}")
        self.coords.setflags(write=False)
        self._bound = _bound
        self._float = None

    def __len__(self):
        return len(self.coords)

    @cached_property
    def peak(self) -> int:
        return _peak(self.coords) if self._bound is None else self._bound

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
        """The float64 array of float(unit * v) for every coordinate v,
        formed once and read-only.

        With unit = num / den, while max(peak, 1) num <= 2^53 and den <=
        2^53 every v num and den is an exact float, and one correctly
        rounded division of the two gives float(unit * v) bit for bit: it is
        coords * float(num) / float(den). Past that bound each distinct
        value is converted once by int / int, which is correctly rounded,
        as float(Fraction) is. Neither yields -0.0.
        """
        if self._float is None:
            num, den = self.unit.numerator, self.unit.denominator
            if max(self.peak, 1) * num <= 2**53 and den <= 2**53:
                floats = self.coords * float(num)
                floats /= float(den)
            else:
                table, inverse = self._per_value(lambda v: v * num / den)
                floats = np.array(table, dtype=np.float64)[inverse].reshape(self.coords.shape)
            floats.setflags(write=False)
            self._float = floats
        return self._float


def _int64_coords(coords) -> np.ndarray:
    """coords as an int64 array. An integer array only has its dtype
    checked; anything else must hold integers within int64's range, or
    ValidationError is raised instead of truncating."""
    raw = np.asarray(coords)
    if np.can_cast(raw.dtype, np.int64):
        return raw.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            ints = raw.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("coords", f"coordinates must be integers: {exc}") from exc
    if not (ints == raw).all():
        raise ValidationError("coords", "coordinates must be integers within int64's range")
    return ints


def _float_rows(x) -> np.ndarray:
    """x as a float64 array of shape (rows, n). Exact rows come as a
    PointGrid: an object array (a list of Fractions, say) raises TypeError
    instead of being rounded to floats."""
    rows = np.asarray(x)
    if rows.dtype == object:
        raise TypeError(f"exact rows must be a PointGrid, not {type(x).__name__}")
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected a batch of rows, got shape {rows.shape}")
    return rows.astype(np.float64, copy=False)


def _peak(a) -> int:
    """The largest magnitude in an integer array, as a Python int (0 when
    empty). Taken from max() and -min(): abs() wraps int64's -2^63 to itself."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _int64_grid(coords, factor=1, peak=None) -> np.ndarray:
    """Integer coords * factor as int64; BudgetExceeded when an entry
    reaches GRID_LIMIT in magnitude. peak, when given, is a proven bound on
    |coords| that only accepts: where it would refuse, a scan decides.
    int64 coords with factor 1 come back as they are, uncopied."""
    if peak is None or peak * factor >= GRID_LIMIT:
        peak = _peak(coords)
    if peak * factor >= GRID_LIMIT:
        raise BudgetExceeded(f"exact coordinate {peak * factor} on a common grid reaches 2^62")
    if factor == 1 and coords.dtype == np.int64:
        return coords
    return coords.astype(np.int64, copy=False) * factor


def _on_grid(grids):
    """on_grid's unit and coordinates, and a proven bound on each grid's
    |coordinates| over that unit: its peak times its factor, the integer
    g.unit / unit. Equal units take neither a gcd nor a division, and their
    coords come back as they are."""
    for g in grids:
        if not isinstance(g, PointGrid):
            raise TypeError(f"exact point sets must be PointGrids, not {type(g).__name__}")
    unit = grids[0].unit if grids else Fraction(1)
    if all(g.unit == unit for g in grids):
        factors = [1] * len(grids)
    else:
        # the largest rational dividing every unit
        top = math.gcd(*(g.unit.numerator for g in grids))
        bottom = math.lcm(*(g.unit.denominator for g in grids))
        unit = Fraction(top, bottom)
        factors = [g.unit.numerator // top * (bottom // g.unit.denominator) for g in grids]
    peaks = [g.peak * f for g, f in zip(grids, factors)]
    coords = [_int64_grid(g.coords, f, g.peak) for g, f in zip(grids, factors)]
    return unit, coords, peaks


def on_grid(*grids):
    """Express PointGrids as int64 coordinates over one common unit: the
    largest rational dividing every grid's unit, so grid i is
    unit * coords[i] exactly, row for row. Returns (unit, [coords, ...]);
    a grid already over that unit gives its own read-only coords, not a
    copy. Raises BudgetExceeded when a coordinate reaches GRID_LIMIT in
    magnitude.
    """
    unit, coords, _ = _on_grid(grids)
    return unit, coords


def _round_half_up(num: int, den: int) -> int:
    """floor(num / den + 1/2) for den > 0: the nearest integer, halves
    rounded up, which leaves the smaller residual -1/2. Elementwise on
    integer arrays, int64 or Python ints."""
    return (2 * num + den) // (2 * den)


def _round_to_coset(t, r, p):
    """The certified rounding of both float quantisers: for floats t and
    each residue r (an array that broadcasts against t, or 0), the candidate
    c = r + p floor((t - r) / p + 1/2), an integer float = r (mod p), its
    computed residual rho = fl(t - c), a mask of the candidates certified
    and their bound e = 3u (|t| + p), of t's shape. mod_coarse calls it with
    r = 0 and p = 1, where c is the coarse index floor(t + 1/2); _float_fine
    with every residue r < p.

    Proof. Let t = fl(x * w) or fl(x / w) for a normal float step w within
    a factor 1 + u of its exact value W, and T = x W or x / W. Then
    t = T (1 + theta) + eta with |theta| <= gamma_2 = 2u / (1 - 2u) (Higham,
    Lemma 3.3) and |eta| <= 2^-1075 should the result underflow, hence
    |t - T| <= 2.01 u |t| + 3 eta. While |t| < _FLOAT_REACH, c is an exact
    integer float, and rho = (t - c)(1 + d) with |d| <= u; so while
    |rho| <= p / 2 the exact residual R = T - c lies within
    E = 2.01 u |t| + 0.51 u p + 3 eta of rho. A candidate is certified when
    |t| < _FLOAT_REACH and p / 2 - |rho| > e: both sides are evaluated
    within a factor 1 +- 2u, which leaves at least 2.99 u (|t| + p) > E of
    margin. Then |R| < p / 2, so c is the integer = r (mod p) nearest T,
    with no tie, and |R - rho| <= e. How c was computed does not matter:
    only its residual is tested. A t on a half step has margin 0 and never
    is certified; a NaN or infinite t never is.
    """
    near = r + p * np.floor((t - r) / p + 0.5)
    resid = t - near
    size = np.abs(t)
    e = 3 * _ROUNDOFF * (size + p)
    sure = (size < _FLOAT_REACH) & (p / 2 - np.abs(resid) > e)
    return near, resid, sure, e


def _distances(sq, words) -> np.ndarray:
    """The (codewords, rows) block of squared distances. sq holds, for each
    residue r mod p, coordinate and row, the square of the residual that
    r's coset point leaves: shape (p, n, rows). A codeword's distance is
    its n column entries sq[words[:, i], i], added left to right in sq's
    own dtype: float64, int64, or Python ints in an object array."""
    dist = sq[words[:, 0], 0]
    for i in range(1, words.shape[1]):
        dist += sq[words[:, i], i]
    return dist


def _row_chunks(count, width) -> list:
    """Slices that cover count rows in order, each of at most _GATHER_LIMIT
    entries at width entries per row (or one row)."""
    step = max(1, _GATHER_LIMIT // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def _marks(block, margin, tally) -> np.ndarray:
    """The certificate of both float nearest-candidate searches (_float_fine
    and channel._nearest). block is a float (candidates, rows) array of
    computed distances or scores, margin a bound per row, and tally the rows
    (1, ..., 1) and (0, 1, ...). A candidate is marked when it lies within
    margin of its row's least d_1, fl(d - d_1) <= margin; the block is
    overwritten by the marks, and tally @ marks gives each row's count of
    marks and the sum of their indices.

    A row is decided when it counts one mark, and the sum is then the index
    of its least candidate. That is the rule of the two least values: as
    fl(d - d_1) is monotone in d and 0 only at d = d_1, one mark holds
    exactly when d_1 is unique and the next least d_2 has fl(d_2 - d_1) >
    margin. A NaN least or margin marks nothing, so such a row counts 0.
    """
    block -= block.min(axis=0)
    return tally @ np.less_equal(block, margin, out=block)


def det_int(rows) -> int:
    """Determinant of a square integer matrix: fraction-free (Bareiss)
    elimination on Python ints, no floating point."""
    n = len(rows)
    m = [[int(v) for v in row] for row in rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            pivot = next((i for i in range(t + 1, n) if m[i][t] != 0), None)
            if pivot is None:
                return 0
            m[t], m[pivot] = m[pivot], m[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]


def _integer_rows(field, matrix) -> list[list[int]]:
    """matrix as lists of Python ints; ValidationError for an entry that is
    not an integer value (1.5, nan, "1") instead of truncating it."""
    matrix = [list(row) for row in matrix]
    try:
        rows = [[int(v) for v in row] for row in matrix]
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows != matrix:
        raise ValidationError(field, f"{field} entries must be integers, got {matrix!r}")
    return rows


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

    The quotient fine/coarse has exactly p**k cosets. A non-integral entry
    of either matrix raises ValidationError instead of being truncated.
    """

    def __init__(self, p, code_matrix, transform=None, scale=1):
        if not isinstance(p, (int, np.integer)) or not gfp.is_prime(int(p)):
            raise NotPrime(f"modulus must be a prime integer, got {p!r}")
        p = int(p)

        rows = _integer_rows("code_matrix", code_matrix)
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
            trows = _integer_rows("transform", transform)
            if len(trows) != n or any(len(r) != n for r in trows):
                raise NotUnimodular(f"transform must be {n}x{n}")
        d = det_int(trows)
        if d not in (1, -1):
            raise NotUnimodular(f"transform determinant is {d}, need +-1")

        try:
            scale = Fraction(scale)
        except (TypeError, ValueError, OverflowError) as exc:
            raise NonPositiveScale(f"scale {scale!r} is not a rational") from exc
        if scale <= 0:
            raise NonPositiveScale(f"scale must be positive, got {scale}")

        self.p = p
        self.k = k
        self.n = n
        self.code_matrix = tuple(tuple(r) for r in rows)
        self.transform = tuple(tuple(r) for r in trows)
        self.scale = scale
        # the fine unit: both lattices are integer grids over it
        self.unit = scale / p

        # generator of C' = T G mod p, the code the fine lattice lifts
        cols = tuple(zip(*rows))
        self._code_t = tuple(
            tuple(sum(t * g for t, g in zip(trow, col)) % p for col in cols) for trow in trows
        )

    # ------------------------------------------------------------------
    # basic structure

    @property
    def num_cosets(self) -> int:
        return self.p ** self.k

    @cached_property
    def message_table(self) -> np.ndarray:
        """message_coords of every message, in message order: formed once per
        lattice, for its Codebook and its codewords, and read-only, as both
        share it."""
        table = self.message_coords(np.arange(self.num_cosets))
        table.flags.writeable = False
        return table

    @cached_property
    def _codewords(self) -> np.ndarray:
        """Every codeword of C', one per coset of the fine lattice mod p Z^n."""
        return self.message_table % self.p

    @cached_property
    def _float_steps(self) -> tuple:
        """(float(scale), float(p / scale)), which the float filters divide
        and multiply by: each within a factor 1 + u of its exact value when
        both are normal floats. Otherwise both are NaN, which certifies no
        row, and every float row takes the exact path."""
        try:
            steps = (float(self.scale), float(self.p / self.scale))
        except OverflowError:
            return (math.nan, math.nan)
        return steps if min(steps) >= np.finfo(np.float64).tiny else (math.nan, math.nan)

    def _checked_rows(self, x) -> np.ndarray:
        """Float rows x as a float64 array of shape (rows, n): ValidationError
        for a non-finite entry, then DimensionMismatch for another width."""
        rows = _float_rows(x)
        if not np.isfinite(rows).all():
            raise ValidationError("rows", "rows must be finite")
        if rows.shape[1] != self.n:
            raise DimensionMismatch(f"expected rows of width {self.n}, got shape {rows.shape}")
        return rows

    def _unit_rows(self, x):
        """Rows of x exactly, in units of the fine unit scale / p (formed once,
        in __init__): integer numerators of shape (rows, n) over one positive
        denominator that all the rows share, of shape (1, 1).

        x is a PointGrid, or checked float rows that the float filters could
        not certify. Those convert bit for bit, to object arrays of Python
        ints over the lcm of all their dyadic denominators: scaling a row's
        numerators and denominator by one positive integer moves no
        distance order, no residual order and no rounding. A PointGrid's
        rows are coords * a over b, with a / b = x.unit / (scale / p) in
        lowest terms: b is their shared denominator, and mod_coarse names
        its result's unit by it. They come as int64 when no intermediate of
        mod_coarse or quantize_fine can overflow, else as object arrays.
        With N the largest |numerator| (taken as at least a, so that a
        itself fits) and P = p b, every linear intermediate of either
        (2 num + 3P at most, in quantize_fine's rounding) is below 4 (N + P),
        every residual is at most P / 2 in magnitude and every squared
        distance at most n P^2 / 4; so 2 (N + P) < GRID_LIMIT and
        n P^2 < GRID_LIMIT keep all of them below 2^63. N is taken from
        x.peak a, and from a scan of x's coords where that bound fails.
        """
        if not isinstance(x, PointGrid):
            ratios = [v.as_integer_ratio() for v in x.ravel().tolist()]
            den = math.lcm(*(b for _, b in ratios))
            num = np.array([a * (den // b) for a, b in ratios], dtype=object).reshape(x.shape)
            return num * self.unit.denominator, np.full((1, 1), den * self.unit.numerator, object)
        a, b = self._unit_ratio(x)
        step = self.p * b
        fits = 2 * (max(x.peak, 1) * a + step) < GRID_LIMIT
        if not fits:
            fits = 2 * (max(_peak(x.coords), 1) * a + step) < GRID_LIMIT
        dtype = np.int64 if fits and self.n * step * step < GRID_LIMIT else object
        num = x.coords.astype(dtype, copy=False) * a
        if num.shape[1] != self.n:
            raise DimensionMismatch(f"expected rows of width {self.n}, got shape {num.shape}")
        return num, np.array([[b]], dtype=dtype)

    def _unit_ratio(self, x):
        """(a, b) with a / b = x.unit / unit in lowest terms, for a PointGrid
        x, from the two units' coprime integer pairs, without a Fraction
        division."""
        (xn, xd), (un, ud) = x.unit.as_integer_ratio(), self.unit.as_integer_ratio()
        g, h = math.gcd(xn, un), math.gcd(xd, ud)
        return (xn // g) * (ud // h), (un // g) * (xd // h)

    def _fine_peak(self, x) -> int:
        """A proven bound on the fine points' coords of a PointGrid x, in
        units of scale / p: with a / b from _unit_ratio, every numerator of
        x's rows is at most N = x.peak a in magnitude, and its fine point
        leaves a residual of at most p b / 2 over the denominator b, so no
        coordinate passes N / b + p / 2."""
        a, b = self._unit_ratio(x)
        return (2 * x.peak * a + self.p * b) // (2 * b)

    def _float_fine(self, rows):
        """Each float row's fine point in units of scale / p, decided in
        float64, and a mask of the rows whose every decision is certified.

        Residues. With t = fl(x float(p / scale)), _round_to_coset gives
        each residue r's candidate c_r, its computed residual rho_r and its
        bound e = 3u (|t| + p): where it certifies, c_r is the integer = r
        (mod p) nearest T = x p / scale, and |R_r - rho_r| <= e for the
        exact residual R_r = T - c_r.

        Distances. A codeword's distance D = sum_i R_i^2 over its residues
        is computed as d = fl(sum_i fl(rho_i^2)). With |R_i|, |rho_i| < p / 2,
        |R_i^2 - rho_i^2| <= e_i |R_i + rho_i| < p e_i, squaring adds at most
        u p^2 / 4 + eta, and summing n terms in any order at most
        gamma_{n-1} n (p^2 / 4)(1 + u), as each term meets at most n - 1
        roundings (Higham, Lemma 3.1). So |d - D| < beta
        = p sum_i e_i + n^2 u p^2 / 2, which keeps room for the rounding of
        beta and of the test below.

        Codeword. Every other codeword's exact distance exceeds that of the
        least computed one, at d_1, once every other d lies more than 2 beta
        above d_1: the least exact distance is then unique, so a certified
        row never has a tie, and its point is that codeword's coset points
        c_r. A row is certified when every residue of every coordinate is,
        and one codeword alone lies within 2 beta of d_1: _marks with margin
        2 beta, whose docstring shows that this is the rule of the two least
        distances.

        Layout. The arrays are point-major: t is (n, rows) and the
        candidates c_r and residuals rho_r are (p, n, rows), so the residue
        tests and beta reduce over leading axes. Rows are taken in chunks
        of at most _GATHER_LIMIT entries at max(p n, |C|) per row
        (_row_chunks, or one row), so both a chunk's residue arrays and its
        (codewords, rows) distance block stay within the bound. A chunk's
        distances are n column adds, sq[words[:, i], i], into that block
        (_distances, which _exact_fine shares), each d summed left to right,
        one of the orders the bound above covers. _marks marks the block's
        codewords within 2 beta of each row's least and counts them: a row
        that counts one mark gets the marked index as its codeword.
        Uncertified rows get the point 0.
        """
        p, n, words = self.p, self.n, self._codewords
        r = np.arange(p, dtype=np.float64).reshape(p, 1, 1)
        # each row's count of marks and the sum of their indices
        tally = np.array([np.ones(len(words)), np.arange(len(words))])
        coords = np.empty(rows.shape, dtype=np.int64)
        certain = np.empty(len(rows), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for part in _row_chunks(len(rows), max(p * n, len(words))):
                t = np.multiply(rows[part].T, self._float_steps[1], order="C")
                near, resid, sure, e = _round_to_coset(t, r, p)
                sure = sure.all(axis=(0, 1))
                beta = p * e.sum(axis=0) + n * n * _ROUNDOFF * p * p / 2
                marked, index = _marks(_distances(resid * resid, words), 2 * beta, tally)
                sure &= marked == 1
                best = np.where(sure, index, 0).astype(np.intp)
                point = near[words[best].T, np.arange(n)[:, None], np.arange(len(sure))]
                coords[part] = np.where(sure, point, 0).T
                certain[part] = sure
        return coords, certain

    # ------------------------------------------------------------------
    # quantisation

    def mod_coarse(self, x):
        """Reduce each row into the half-open fundamental cell of the coarse
        lattice: subtract the nearest coarse point scale * q, halves rounded up.

        x is a float array of shape (rows, n) or a PointGrid. The decision is
        exact either way: float rows are decided in float64 by
        _round_to_coset on z = fl(x / float(scale)) with r = 0 and p = 1,
        whose candidate is q = floor(z + 1/2), and only the rows it cannot
        certify in every coordinate are written exactly. Float rows come
        back as the float array x - float(scale * q), each float(scale * q)
        correctly rounded; a PointGrid comes back as one over scale / (p b),
        with b the denominator of x.unit / (scale / p), which _unit_rows has
        already formed: it is their shared denominator. Its peak is
        p b // 2, the residual's bound. Idempotent.
        Raises BudgetExceeded when q reaches GRID_LIMIT and ValidationError
        on a non-finite float.
        """
        if isinstance(x, PointGrid):
            num, den = self._unit_rows(x)
            step = self.p * den
            b = int(den[0, 0])
            # the residual lies in [-p b / 2, p b / 2)
            bound = self.p * b // 2
            resid = _int64_grid(num - step * _round_half_up(num, step), peak=bound)
            unit = self.unit if b == 1 else Fraction(self.unit.numerator, self.unit.denominator * b)
            return PointGrid(unit, resid, _bound=bound)
        rows = self._checked_rows(x)
        with np.errstate(over="ignore", invalid="ignore"):
            q, _, sure, _ = _round_to_coset(rows / self._float_steps[0], 0, 1)
        certain = sure.all(axis=1)
        q = np.where(certain[:, None], q, 0).astype(np.int64)
        if not certain.all():
            num, den = self._unit_rows(rows[~certain])
            q[~certain] = _int64_grid(_round_half_up(num, self.p * den))
        return rows - PointGrid(self.scale, q).float_matrix()

    def quantize_fine(self, x) -> PointGrid:
        """Closest fine-lattice point to each row (same tie rule as the coarse
        cell), as a PointGrid over scale / p. Takes rows as mod_coarse does:
        float rows are decided in float64 by _float_fine, and only the rows
        it cannot certify take the exact path, _exact_fine.
        """
        if isinstance(x, PointGrid):
            bound = self._fine_peak(x)
            return PointGrid(self.unit, self._exact_fine(x, bound), _bound=bound)
        rows = self._checked_rows(x)
        coords, certain = self._float_fine(rows)
        if not certain.all():
            coords[~certain] = self._exact_fine(rows[~certain])
        return PointGrid(self.unit, coords)

    def _exact_fine(self, x, peak=None) -> np.ndarray:
        """Fine points of exact rows (see _unit_rows), as int64 coordinates
        in units of scale / p; peak, when given, is a proven bound on them
        (_fine_peak), which spares their scan for int64.

        For each residue r, finds the integer near = r (mod p) nearest each
        coordinate, and the residual num - near den it leaves; a row's fine
        point is the coset point of its least codeword by (distance,
        lexicographic residual), read from near. The layout and the chunks
        of rows are _float_fine's, and so are the distances, from
        _distances. It keeps its own marks, of the exact least distance,
        because it narrows ties instead of refusing them: each chunk marks
        the least distance over the codeword axis, and rows with more than
        one mark are narrowed column by column on their residuals, n passes
        at most, until one mark is left: two codewords differ in some
        coordinate, where their residuals differ, so one always is.
        Every residual is at most p den / 2 in magnitude, so p den, one
        integer for all the rows, is a sentinel above all of a row's.

        When k = n, C' = GF(p)^n and every residue vector is a codeword, so
        the least distance sum_i R_i^2 is least in each coordinate alone:
        its residual there is the one of least magnitude, unique except on
        a half step, where R = -den / 2 and R = den / 2 tie. Narrowing then
        keeps the least residual, -den / 2, in each tied coordinate: the
        fine point is floor(num / den + 1/2) in every coordinate, the
        nearest integer with halves rounded up.
        """
        num, den = self._unit_rows(x)
        p, n, words = self.p, self.n, self._codewords
        count = len(num)
        num, step = num.T, p * den
        sentinel = step[0, 0]
        r = np.arange(p).reshape(p, 1, 1)
        points = np.empty((count, n), dtype=num.dtype)
        for part in _row_chunks(count, max(p * n, len(words))):
            part_num = num[:, part]
            near = r + p * _round_half_up(part_num - r * den, step)
            resid = part_num - near * den
            dist = _distances(resid * resid, words)
            alive = dist == dist.min(axis=0)
            tied = np.flatnonzero(alive.sum(axis=0) > 1)
            for i in range(n):
                if not tied.size:
                    break
                col = np.where(alive[:, tied], resid[words[:, i, None], i, tied], sentinel)
                alive[:, tied] &= col == col.min(axis=0)
                tied = tied[alive[:, tied].sum(axis=0) > 1]
            best = alive.argmax(axis=0)
            points[part] = near[words[best], np.arange(n), np.arange(len(best))[:, None]]
        return _int64_grid(points, peak=peak)

    # ------------------------------------------------------------------
    # codewords

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


# ----------------------------------------------------------------------
# seeded generators used by configs and sweeps

_MAX_DRAWS = 1000
"""Draws a rejection sampler makes before it raises BudgetExceeded. A square
matrix over GF(2), the likeliest code draw to be rejected, has full rank
with probability above 0.28, so a sampler that can succeed almost surely
does so within this many draws; one that cannot (an entry cap below 1, say)
raises instead of drawing forever."""


def random_code_matrix(p, k, n, seed):
    """Rejection-sample an n x k matrix with full column rank over GF(p)."""
    if not isinstance(p, (int, np.integer)) or not gfp.is_prime(int(p)):
        raise NotPrime(f"modulus must be a prime integer, got {p!r}")
    if k > n:
        raise RankDeficientG(f"k={k} > n={n}: no n x k matrix has full column rank")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        rows = rng.integers(0, p, size=(n, k)).tolist()
        if gfp.rank_modp(rows, p) == k:
            return tuple(tuple(int(v) for v in r) for r in rows)
    raise BudgetExceeded(f"no full-rank {n} x {k} matrix over GF({p}) in {_MAX_DRAWS} draws")


def random_unimodular(n, seed, entry_cap=6):
    """Random unimodular integer matrix via elementary row operations.

    Draws with an entry above entry_cap in absolute value are redrawn, at
    most _MAX_DRAWS times. The cap is part of the draw: changing it changes
    the matrix a seed yields.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
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
                # the draw of rng.choice([-2, -1, 1, 2]), without its overhead
                c = (-2, -1, 1, 2)[int(rng.integers(0, 4))]
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if max(abs(v) for row in m for v in row) <= entry_cap:
            return tuple(tuple(r) for r in m)
    raise BudgetExceeded(
        f"no {n} x {n} unimodular draw with entries within {entry_cap} in {_MAX_DRAWS} draws"
    )
