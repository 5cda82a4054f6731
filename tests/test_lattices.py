"""Nested lattice pairs: closest-point search, folding, coset structure."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latsec import (
    BudgetExceeded,
    ChannelParams,
    ConstructionALattice,
    DimensionMismatch,
    GridPoint,
    NonPositiveScale,
    NotPrime,
    NotUnimodular,
    PointGrid,
    RankDeficientG,
    ValidationError,
    decode_very_strong_batch,
    decode_weak,
    enumerate_codebook,
    random_code_matrix,
    random_unimodular,
    scale_to_power,
    sum_structure,
)
from latsec import lattices
from latsec.gfp import rank_modp
from latsec.lattices import det_int

import oracles
from exact_rows import grid, record_exact_rows, record_row_dtypes


def lat_1d():
    return ConstructionALattice(2, ((1,),), None, 1)


def unit_coords(lat, pt):
    """pt in units of the fine grid scale / p, as Fractions."""
    return [Fraction(v) / (lat.scale / lat.p) for v in pt]


def is_coarse(lat, pt):
    """Coarse membership: integer fine-grid coordinates, each divisible by p."""
    t = unit_coords(lat, pt)
    return all(v.denominator == 1 and v.numerator % lat.p == 0 for v in t)


def is_fine(lat, pts):
    """Fine membership of exact points: each is its own nearest fine point."""
    return lat.quantize_fine(grid(pts)).points == tuple(tuple(Fraction(v) for v in pt) for pt in pts)


def minus(xs, ys):
    return [tuple(a - b for a, b in zip(x, y)) for x, y in zip(xs, ys)]


class TestQuantizeTieRule:
    def test_half_integer_rounds_up(self):
        lat = lat_1d()
        x = [(Fraction(1, 2),)]
        assert lat.mod_coarse(grid(x)).points == ((Fraction(-1, 2),),)
        assert minus(x, lat.mod_coarse(grid(x)).points) == [(1,)]

    def test_negative_half_integer(self):
        lat = lat_1d()
        x = [(Fraction(-1, 2),)]
        assert lat.mod_coarse(grid(x)).points == ((Fraction(-1, 2),),)
        assert minus(x, lat.mod_coarse(grid(x)).points) == [(0,)]

    def test_cell_is_half_open(self):
        lat = lat_1d()
        xs = PointGrid(Fraction(1, 2), [[1], [3], [-1], [7]])
        assert lat.mod_coarse(xs).points == ((Fraction(-1, 2),),) * 4

    def test_fold_is_idempotent(self):
        lat = ConstructionALattice(3, ((1,), (2,)), ((1, 1), (0, 1)), Fraction(3, 2))
        rng = np.random.default_rng(7)
        xs = PointGrid(Fraction(1, 8), rng.integers(-40, 40, size=(20, 2)))
        once = lat.mod_coarse(xs)
        assert lat.mod_coarse(once).points == once.points
        assert lat.mod_coarse(grid(once.points)).points == once.points

    def test_single_vector_rejected(self):
        lat = ConstructionALattice(3, ((1,), (2,)), None, 1)
        # a PointGrid holds rows, so a single vector fails as it is formed
        with pytest.raises(DimensionMismatch):
            PointGrid(Fraction(1, 6), [3, 2])
        x = np.array([0.5, 0.25])
        with pytest.raises(DimensionMismatch):
            lat.mod_coarse(x)
        with pytest.raises(DimensionMismatch):
            lat.quantize_fine(x)
        with pytest.raises(DimensionMismatch):
            lat.mod_coarse(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            lat.quantize_fine(PointGrid(Fraction(1, 2), [[1]]))


class TestAgainstExhaustiveSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_matches_brute_force(self, seed):
        rng = np.random.default_rng([seed, 101])
        n = int(rng.integers(1, 4))
        t = random_unimodular(n, [seed, 55], entry_cap=2)
        scale = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        lat = ConstructionALattice(2, tuple((1,) for _ in range(n)), t, scale)
        basis = [tuple(scale * t[i][j] for i in range(n)) for j in range(n)]
        xs = [tuple(Fraction(int(v), 4) for v in rng.integers(-4, 5, size=n)) for _ in range(6)]
        got = lat.mod_coarse(grid(xs)).points
        assert list(got) == [oracles.fold_brute(x, basis, box=10) for x in xs]

    def test_residual_on_multiway_tie(self):
        # Z^2 sees a four-way tie at the cell corner; the lexicographically
        # smallest residual is (-1/2, -1/2).
        lat = ConstructionALattice(2, ((1,), (1,)), None, 1)
        x = (Fraction(1, 2), Fraction(1, 2))
        winners, _ = oracles.exhaustive_nearest(x, [(1, 0), (0, 1)], box=2)
        assert len(winners) == 4
        expected = oracles.tie_break_residual(x, winners)
        assert lat.mod_coarse(grid([x])).points[0] == expected == (Fraction(-1, 2), Fraction(-1, 2))


class TestCosetStructure:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 2, 3), (3, 2, 2), (5, 1, 2)])
    def test_representatives_match_brute_force(self, p, k, n):
        g = random_code_matrix(p, k, n, seed=[p, k, n, 3])
        t = random_unimodular(n, seed=[p, k, n, 4], entry_cap=2)
        scale = Fraction(3, 2) if p == 2 else 1
        lat = ConstructionALattice(p, g, t, scale)
        mine = set(enumerate_codebook(lat).points)
        assert len(mine) == p**k
        assert mine == oracles.coset_reps_brute(p, g, t, scale, box=10)

    def test_message_roundtrip(self):
        # Recover each message from its codeword's coset: solve T l = c mod p
        # for the label l, then G z = l for the message digits z.
        t = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        lat = ConstructionALattice(3, ((1, 0), (0, 1), (1, 2)), t, 1)
        assert lat.num_cosets == 9
        coords = lat.message_coords(np.arange(9))
        for m in range(9):
            residue = [int(v) % 3 for v in coords[m]]
            label = oracles.solve_mod_p(lat.transform, residue, 3)
            z = oracles.solve_mod_p(lat.code_matrix, label, 3)
            assert sum(int(d) * 3**i for i, d in enumerate(z)) == m

    def test_membership_hierarchy(self):
        lat = ConstructionALattice(2, ((1,), (0,)), ((1, 1), (0, 1)), 1)
        cb = enumerate_codebook(lat)
        assert is_fine(lat, cb.points)
        assert cb.points[0] == (0, 0)
        assert (cb.coords[0] % lat.p == 0).all()
        assert not (cb.coords[1] % lat.p == 0).all()

    def test_coarse_points_are_fine(self):
        lat = ConstructionALattice(3, ((1,), (1,)), ((2, 1), (1, 1)), Fraction(1, 2))
        rng = np.random.default_rng(11)
        pts = []
        for _ in range(10):
            z = rng.integers(-3, 4, size=2)
            pts.append(tuple(
                lat.scale * sum(lat.transform[i][j] * int(z[j]) for j in range(2))
                for i in range(2)
            ))
            assert is_coarse(lat, pts[-1])
        assert is_fine(lat, pts)
        assert lat.mod_coarse(grid(pts)).points == ((0, 0),) * 10
        # a half step of the fine grid is off the fine lattice
        assert not is_fine(lat, [(lat.scale / 6, 0)])

    def test_scaling_scales_points(self):
        g = ((1,), (2,))
        small = enumerate_codebook(ConstructionALattice(3, g, None, 1))
        big = enumerate_codebook(ConstructionALattice(3, g, None, 2))
        for a, b in zip(small.points, big.points):
            assert tuple(2 * c for c in a) == b

    def test_coset_labels_distinct(self):
        lat = ConstructionALattice(2, ((1, 0), (1, 1), (0, 1)), None, 1)
        coords = lat.message_coords(np.arange(4))
        labels = {
            tuple(oracles.solve_mod_p(lat.transform, [int(v) % 2 for v in row], 2))
            for row in coords
        }
        assert len(labels) == 4


class TestSeededGenerators:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 3, 4), (5, 2, 3), (7, 1, 6)])
    def test_code_matrix_full_rank(self, p, k, n):
        g = random_code_matrix(p, k, n, seed=[p, k, n, 9])
        assert len(g) == n and len(g[0]) == k
        assert rank_modp([list(r) for r in g], p) == k
        assert g == random_code_matrix(p, k, n, seed=[p, k, n, 9])

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_unimodular_determinant(self, n):
        t = random_unimodular(n, seed=[n, 21])
        assert det_int([list(r) for r in t]) in (1, -1)
        assert max(abs(v) for row in t for v in row) <= 6
        assert t == random_unimodular(n, seed=[n, 21])

    def test_code_rank_above_dimension_raises_at_once(self):
        # No n x k matrix with k > n has full column rank; the sampler must
        # say so instead of drawing forever.
        with pytest.raises(RankDeficientG):
            random_code_matrix(2, 3, 2, seed=[0])

    @pytest.mark.parametrize("p", [1, 4, 0, -3, 2.0])
    def test_non_prime_modulus_raises_before_sampling(self, p):
        # GF(1) has no rank-k matrix and GF(4) is not Z/4: the sampler must
        # refuse at once instead of drawing forever or failing in rank_modp.
        with pytest.raises(NotPrime):
            random_code_matrix(p, 1, 2, seed=[0])

    def test_forced_shape_is_deterministic(self):
        # (2,1,1) admits exactly one full-rank matrix; every draw returns it.
        for d in range(5):
            assert random_code_matrix(2, 1, 1, seed=[d]) == ((1,),)

    def test_code_matrix_draws_are_bounded(self, monkeypatch):
        # seed [0] draws (1) first, seed [1] draws the rank-deficient (0)
        monkeypatch.setattr(lattices, "_MAX_DRAWS", 1)
        assert random_code_matrix(2, 1, 1, seed=[0]) == ((1,),)
        with pytest.raises(BudgetExceeded, match="1 draws"):
            random_code_matrix(2, 1, 1, seed=[1])

    @pytest.mark.parametrize("n", [1, 3])
    def test_unimodular_draws_are_bounded(self, n):
        # every unimodular matrix has an entry of magnitude at least 1
        with pytest.raises(BudgetExceeded, match="unimodular"):
            random_unimodular(n, seed=[n], entry_cap=0)


@st.composite
def modp_matrices(draw):
    """(rows, p): an n x k integer matrix, n and k from 0 to 4, with
    entries of either sign. Half of the draws are products A B of an n x r
    and an r x k matrix with r < min(n, k), so rank deficient mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-2 * p, 2 * p)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if min(n, k) > 1 and draw(st.booleans()):
        r = draw(st.integers(1, min(n, k) - 1))
        a, b = matrix(n, r), matrix(r, k)
        return [[sum(a[i][l] * b[l][j] for l in range(r)) for j in range(k)] for i in range(n)], p
    return matrix(n, k), p


class TestRankModp:
    """gfp.rank_modp against the size of the column space, counted by brute
    force."""

    @settings(max_examples=300)
    @given(modp_matrices())
    def test_matches_the_span_oracle(self, drawn):
        rows, p = drawn
        assert rank_modp(rows, p) == oracles.rank_brute(rows, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize(
        "rows",
        [
            [],  # no rows
            [[], [], []],  # no columns
            [[0, 0, 0], [0, 0, 0]],
            [[0, 1], [1, 0]],  # the first pivot is below the first row
            [[0, 0, 1], [0, 1, 1], [1, 1, 1]],
            [[0, 2, 4], [0, 1, 2], [3, 1, 0]],
            [[1, 2], [2, 4], [3, 6]],  # rank 1 over every field
            [[7, 0], [0, 5], [35, 35]],  # each a multiple of some p
            [[-1, 1], [1, -1]],
        ],
    )
    def test_fixed_matrices(self, rows, p):
        assert rank_modp(rows, p) == oracles.rank_brute(rows, p)


class TestConstructionErrors:
    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ConstructionALattice(4, ((1,),), None, 1)
        with pytest.raises(NotPrime):
            ConstructionALattice(1, ((1,),), None, 1)
        # an odd composite: is_prime finds its divisor 3
        with pytest.raises(NotPrime):
            ConstructionALattice(9, ((1,),), None, 1)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((0,), (0,)), None, 1)
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 1), (1, 1)), None, 1)
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 0, 1),), None, 1)
        for empty in ((), ((),)):
            with pytest.raises(RankDeficientG, match="at least one row and one column"):
                ConstructionALattice(2, empty, None, 1)
        with pytest.raises(RankDeficientG, match="inconsistent lengths"):
            ConstructionALattice(2, ((1, 0), (1,)), None, 1)

    def test_rank_over_the_field_not_the_rationals(self):
        # Full rank over Q but rank 1 over GF(2): columns differ by 2.
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 3), (1, 1)), None, 1)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            ConstructionALattice(2, ((1,), (0,)), ((2, 0), (0, 1)), 1)
        with pytest.raises(NotUnimodular):
            ConstructionALattice(2, ((1,),), ((1, 0), (0, 1)), 1)
        # singular: det_int finds no pivot in the first column
        with pytest.raises(NotUnimodular, match="determinant is 0"):
            ConstructionALattice(2, ((1,), (0,)), ((0, 1), (0, 1)), 1)

    def test_bad_scale(self):
        with pytest.raises(NonPositiveScale):
            ConstructionALattice(2, ((1,),), None, 0)
        with pytest.raises(NonPositiveScale):
            ConstructionALattice(2, ((1,),), None, Fraction(-1, 2))
        with pytest.raises(NonPositiveScale):
            ConstructionALattice(2, ((1,),), None, math.inf)

    @pytest.mark.parametrize(
        "g,t",
        [
            ([[1.5], [2]], None),
            ([[1], [2]], [[1.5, 0], [0, 1]]),
            ([[1], [math.nan]], None),
            ([[1], [2]], [[1, 0], [0, math.inf]]),
            ([["1"], [2]], None),
        ],
    )
    def test_non_integral_matrix_entries_raise(self, g, t):
        # [[1.5], [2]] used to build as ((1,), (2,)), and the 1.5 transform as the identity
        field = "code_matrix" if t is None else "transform"
        with pytest.raises(ValidationError) as err:
            ConstructionALattice(3, g, t, 1)
        assert err.value.field == field

    def test_integral_matrix_entries_of_any_type_are_kept(self):
        lat = ConstructionALattice(3, np.array([[1.0], [2.0]]), [[Fraction(1), 0], [0, 1]], 1)
        assert lat.code_matrix == ((1,), (2,))
        assert lat.transform == ((1, 0), (0, 1))
        assert all(type(v) is int for row in lat.code_matrix + lat.transform for v in row)


class TestQuantizeFine:
    def test_fine_lattice_contains_cosets(self):
        lat = ConstructionALattice(2, ((1,), (1,)), None, 1)
        # Fine points are (c/2, c/2) + Z^2; quantizing a nearby target
        # recovers the exact fine point.
        fine_pt = (Fraction(1, 2), Fraction(1, 2))
        assert is_fine(lat, [fine_pt])
        got = lat.quantize_fine(np.array([[0.55, 0.52]]))
        assert got.unit == lat.scale / lat.p
        assert got.points == (fine_pt,)

    def test_quantize_fine_exhaustive(self):
        lat = ConstructionALattice(3, ((1,), (2,)), None, Fraction(1, 2))
        # Enumerate fine points near the origin as code/3 + integers, scaled.
        fine = []
        for c in range(3):
            base = (Fraction(c, 3), Fraction(2 * c % 3, 3))
            for z1 in range(-2, 3):
                for z2 in range(-2, 3):
                    fine.append(
                        (
                            Fraction(1, 2) * (base[0] + z1),
                            Fraction(1, 2) * (base[1] + z2),
                        )
                    )
        rng = np.random.default_rng(3)
        xs = PointGrid(Fraction(1, 16), rng.integers(-8, 9, size=(12, 2)))
        for x, got in zip(xs.points, lat.quantize_fine(xs).points):
            best = min(
                ((sum((a - b) ** 2 for a, b in zip(x, f)), f) for f in fine),
                key=lambda item: (item[0], tuple(x_i - f_i for x_i, f_i in zip(x, item[1]))),
            )
            assert sum((a - b) ** 2 for a, b in zip(x, got)) == best[0]


class TestIntegerCoreAgainstOracle:
    """Fold and fine quantiser for non-identity transforms on half-grid
    targets, where multiway ties are common, against exhaustive search."""

    # (p, code matrix [I_k; A], unimodular transform, scale)
    CASES = [
        (2, ((1,), (1,)), ((1, 1), (0, 1)), Fraction(3, 2)),
        (3, ((1,), (2,)), ((2, 1), (1, 1)), Fraction(1)),
        (3, ((1, 0), (0, 1), (2, 1)), ((1, 0, 1), (0, 1, 0), (1, 1, 2)), Fraction(1, 2)),
        (5, ((1,), (3,), (4,)), ((1, -1, 0), (0, 1, 0), (0, 1, -1)), Fraction(5, 3)),
    ]

    @staticmethod
    def half_grid_targets(step, n, seed, count=8):
        rng = np.random.default_rng(seed)
        return [
            tuple(step * Fraction(int(h), 2) for h in rng.integers(-4, 5, size=n))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_fold_matches_oracle(self, case):
        p, g, t, scale = self.CASES[case]
        lat = ConstructionALattice(p, g, t, scale)
        n = lat.n
        basis = [tuple(scale * t[i][j] for i in range(n)) for j in range(n)]
        xs = self.half_grid_targets(scale, n, [case, 1])
        got = lat.mod_coarse(grid(xs)).points
        for x, folded in zip(xs, got):
            winners, _ = oracles.exhaustive_nearest(x, basis, box=7)
            expected = oracles.tie_break_residual(x, winners)
            assert folded == expected
            assert minus([x], [folded])[0] in winners

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_quantize_fine_matches_oracle(self, case):
        p, g, t, scale = self.CASES[case]
        lat = ConstructionALattice(p, g, t, scale)
        n, k = lat.n, lat.k
        unit = scale / p
        # fine basis: unit * T * [G | p e_k .. p e_{n-1}], valid as G = [I_k; A]
        gens = [tuple(g[i][j] for i in range(n)) for j in range(k)]
        gens += [tuple(p * int(i == j) for i in range(n)) for j in range(k, n)]
        basis = [
            tuple(unit * sum(t[i][l] * c[l] for l in range(n)) for i in range(n))
            for c in gens
        ]
        xs = self.half_grid_targets(unit, n, [case, 2])
        got = lat.quantize_fine(grid(xs))
        assert got.unit == unit
        assert is_fine(lat, got.points)
        for x, pt in zip(xs, got.points):
            winners, _ = oracles.exhaustive_nearest(x, basis, box=9)
            assert minus([x], [pt])[0] == oracles.tie_break_residual(x, winners)


# (p, code matrix [I_k; A], unimodular transform, scale): every scale / p is
# dyadic, so the half steps of both grids are floats and a float row can sit
# exactly on a cell boundary.
DYADIC_CASES = [
    (2, ((1,), (1,)), ((1, 1), (0, 1)), Fraction(3, 2)),
    (3, ((1,), (2,)), ((2, 1), (1, 1)), Fraction(3, 2)),
    (5, ((1,), (3,)), ((1, -1), (0, 1)), Fraction(5, 4)),
]


@st.composite
def dyadic_float_rows(draw):
    """(case, float rows): entries anywhere in [-2, 2], on half steps, or
    one float away from a half step."""
    case = draw(st.integers(0, len(DYADIC_CASES) - 1))
    p, g, _, scale = DYADIC_CASES[case]
    half = scale / p / 2
    on_step = st.integers(-8, 8).map(lambda h: float(half * h))
    entry = st.one_of(
        st.floats(-2, 2),
        on_step,
        st.tuples(on_step, st.sampled_from([-math.inf, math.inf])).map(
            lambda pair: math.nextafter(*pair)
        ),
    )
    rows = draw(st.lists(st.lists(entry, min_size=len(g), max_size=len(g)), min_size=1, max_size=4))
    return case, np.array(rows, dtype=np.float64)


class TestFloatRowsAgainstOracle:
    """Float rows get the exact decisions of their rationalised values."""

    @staticmethod
    def lattice_and_bases(case):
        p, g, t, scale = DYADIC_CASES[case]
        lat = ConstructionALattice(p, g, t, scale)
        n, unit = lat.n, scale / p
        coarse = [tuple(scale * t[i][j] for i in range(n)) for j in range(n)]
        gens = [tuple(g[i][j] for i in range(n)) for j in range(lat.k)]
        gens += [tuple(p * int(i == j) for i in range(n)) for j in range(lat.k, n)]
        fine = [tuple(unit * sum(t[i][l] * c[l] for l in range(n)) for i in range(n)) for c in gens]
        return lat, coarse, fine

    @settings(max_examples=40)
    @given(dyadic_float_rows())
    def test_fold(self, drawn):
        case, x = drawn
        lat, coarse, _ = self.lattice_and_bases(case)
        folded = lat.mod_coarse(x)
        assert folded.dtype == np.float64 and folded.shape == x.shape
        half = lat.scale / 2
        for row, out in zip(x.tolist(), folded.tolist()):
            exact = tuple(Fraction(v) for v in row)
            assert tuple(Fraction(v) for v in out) == oracles.fold_brute(exact, coarse, box=6)
            assert all(-half <= Fraction(v) < half for v in out)
        assert np.array_equal(lat.mod_coarse(folded), folded)

    @settings(max_examples=40)
    @given(dyadic_float_rows())
    def test_quantize_fine(self, drawn):
        case, x = drawn
        lat, _, fine = self.lattice_and_bases(case)
        got = lat.quantize_fine(x)
        assert got.unit == lat.scale / lat.p
        for row, pt in zip(x.tolist(), got.points):
            exact = tuple(Fraction(v) for v in row)
            winners, _ = oracles.exhaustive_nearest(exact, fine, box=12)
            assert minus([exact], [pt])[0] == oracles.tie_break_residual(exact, winners)
        assert lat.quantize_fine(got).points == got.points
        assert lat.quantize_fine(got.float_matrix()).points == got.points


# (p, code matrix [I_k; A], unimodular transform, scale): float(scale) and
# float(p / scale) are both rounded, so no half step of either grid is a
# float and every float decision meets the rounding of the steps themselves.
NON_DYADIC_CASES = [
    (3, ((1,), (2,)), ((2, 1), (1, 1)), Fraction(2, 3)),
    (2, ((1,), (1,)), ((1, 1), (0, 1)), Fraction(1, 3)),
    (5, ((1,), (3,)), ((1, -1), (0, 1)), Fraction(7, 5)),
]


def ulps(v: float, k: int) -> float:
    """The float k steps above v (below it for k < 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def boundary_rows(lat, seed) -> np.ndarray:
    """Two-dimensional float rows at and within two floats of each kind of
    decision boundary of lat's quantisers:

    - one entry on a half step of the coarse grid (scale) or of the fine
      grid (scale / p), the other anywhere;
    - a point on the bisector of two fine points, where their distances tie;
    - an entry 2^50 +- 2 coarse or fine steps out, either side of the reach
      of the float filters.

    Each exact point is rounded to floats, and its first entry is moved by
    -2 to 2 floats; the half-step rows come again with their entries
    swapped."""
    rng = np.random.default_rng(seed)
    scale, unit = lat.scale, lat.scale / lat.p
    anywhere = lambda: unit * Fraction(int(rng.integers(-20, 21)), 7)
    points = [
        (step * (j + Fraction(1, 2)), anywhere())
        for step in (scale, unit)
        for j in (-1, 0)
    ]
    words = lat.message_coords(np.arange(lat.num_cosets)).tolist()
    fine = [(unit * c0 + scale * a, unit * c1 + scale * b)
            for c0, c1 in words for a in (-1, 0) for b in (0, 1)]
    for _ in range(8):
        f, g = (fine[int(i)] for i in rng.choice(len(fine), size=2, replace=False))
        lam = Fraction(int(rng.integers(-3, 4)), 5)
        points.append(((f[0] + g[0]) / 2 - lam * (g[1] - f[1]), (f[1] + g[1]) / 2 + lam * (g[0] - f[0])))
    for step in (scale, unit):
        for j in (-6, 6):
            points.append((step * (2**50 + Fraction(j, 3)), anywhere()))
    rows = [[ulps(float(a), k), float(b)] for a, b in points for k in range(-2, 3)]
    rows += [row[::-1] for row in rows[: 4 * 5]]
    return np.array(rows, dtype=np.float64)


def check_float_rows(lat, x):
    """mod_coarse and quantize_fine of float rows x against the oracles.

    Each row is exactly v + x0 with v = scale round(x / scale) on the coarse
    lattice, so the oracles search around x0 alone: the fold must be the
    float x - float(x - fold_brute(x0)), and the fine point must leave the
    residual tie_break_residual picks among exhaustive_nearest(x0)."""
    n, scale = lat.n, lat.scale
    coarse = [tuple(scale * lat.transform[i][j] for i in range(n)) for j in range(n)]
    fine = TestRowDtypeBound.fine_basis(lat)
    folded = lat.mod_coarse(x)
    points = lat.quantize_fine(x).points
    for row, fold, pt in zip(x.tolist(), folded.tolist(), points):
        exact = [Fraction(v) for v in row]
        x0 = [c - scale * math.floor(c / scale + Fraction(1, 2)) for c in exact]
        coarse_point = minus([exact], [oracles.fold_brute(x0, coarse, box=3)])[0]
        assert fold == [a - float(c) for a, c in zip(row, coarse_point)]
        winners, _ = oracles.exhaustive_nearest(x0, fine, box=5)
        assert minus([exact], [pt])[0] == oracles.tie_break_residual(x0, winners)


class TestFloatFilters:
    """Float rows are decided in float64, and a row is left to the exact
    path when a decision lies within the rounding-error bound of its
    boundary. Rows at and beside every kind of boundary get the oracle's
    answers, at dyadic scales (boundaries are floats) and at non-dyadic ones
    (the steps themselves are rounded)."""

    CASES = DYADIC_CASES + NON_DYADIC_CASES

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_boundary_rows_match_oracle(self, monkeypatch, case):
        lat = ConstructionALattice(*self.CASES[case])
        x = boundary_rows(lat, [case, 3])
        seen = record_exact_rows(monkeypatch)
        check_float_rows(lat, x)
        fallback = [row for dtype, rows in seen for row in rows]
        assert all(dtype == np.dtype(object) for dtype, _ in seen)
        assert 0 < len(fallback) < 2 * len(x)
        # a row more than 2^50 fine steps out is past the filters' reach
        past = [row for row in x.tolist() if max(map(abs, row)) * lat.p > (2**50 + 1) * lat.scale]
        assert past and all(row in fallback for row in past)

    @pytest.mark.parametrize("kind", ["coarse", "residue", "gap"])
    def test_rows_within_the_bounds_take_the_exact_path(self, monkeypatch, kind):
        # float(scale) and float(p / scale) are exact here, and so is each
        # row's float margin: j u past a coarse half step, where the bound
        # 3u (1 + |z|) is 4.5u; 4 j u inside a half step of residue 1's
        # coset, where 3u (|t| + p) is 16.5u; or a gap of 2 j u between two
        # codewords' distances, where 2 beta = 2 (p e + n^2 u p^2 / 2) is
        # 34u. Rows within a bound take the exact path, rows beyond it do
        # not, and all get the oracle's answers.
        u = 2.0**-53
        if kind == "coarse":
            lat, call, row, last = lat_1d(), "mod_coarse", lambda j: [0.5 + j * u], 4
        elif kind == "residue":
            lat = ConstructionALattice(3, ((1,), (2,)), None, 3)
            call, row, last = "quantize_fine", lambda j: [2.5 - 4 * j * u, 1.0], 4
        else:
            lat = ConstructionALattice(2, ((1,),), None, 2)
            call, row, last = "quantize_fine", lambda j: [0.5 - j * u], 16
        js = [1, last // 2 + 1, last, last + 2, 2 * last]
        x = np.array([row(j) for j in js])
        seen = record_exact_rows(monkeypatch)
        getattr(lat, call)(x)
        assert seen == [(np.dtype(object), [row(j) for j in js if j <= last])]
        check_float_rows(lat, x)

    def test_empty_float_batch(self):
        lat = ConstructionALattice(*NON_DYADIC_CASES[0])
        empty = np.zeros((0, 2))
        folded = lat.mod_coarse(empty)
        assert folded.dtype == np.float64 and folded.shape == (0, 2)
        fine = lat.quantize_fine(empty)
        assert fine.unit == lat.scale / lat.p and fine.coords.shape == (0, 2)
        weak = ChannelParams(cross_gain=0.1, power=1.0, noise_var=0.01)
        assert decode_weak(empty, np.zeros(2), weak, lat).coords.shape == (0, 2)

    @pytest.mark.parametrize("width", [1, 3])
    def test_float_rows_of_another_width_rejected(self, width):
        lat = ConstructionALattice(*NON_DYADIC_CASES[0])
        for rows in (np.full((2, width), 0.25), np.zeros((0, width))):
            with pytest.raises(DimensionMismatch):
                lat.mod_coarse(rows)
            with pytest.raises(DimensionMismatch):
                lat.quantize_fine(rows)

    @pytest.mark.parametrize("scale", [Fraction(10**400), Fraction(1, 10**400), Fraction(1, 2**1070)])
    def test_steps_outside_normal_floats_take_the_exact_path(self, monkeypatch, scale):
        # float(scale) overflows, underflows to 0 or is subnormal: no float
        # row is certified, and each gets the exact answer
        lat = ConstructionALattice(3, ((1,), (2,)), None, scale)
        x = np.array([[0.25, -1e300], [0.0, 0.0]]) if scale > 1 else np.zeros((2, 2))
        seen = record_exact_rows(monkeypatch)
        assert np.array_equal(lat.mod_coarse(x), x)
        assert lat.quantize_fine(x).coords.tolist() == [[0, 0], [0, 0]]
        assert seen == [(np.dtype(object), x.tolist())] * 2
        if scale < 1:
            with pytest.raises(BudgetExceeded):
                lat.mod_coarse(np.array([[0.25, 0.0]]))


class TestFloatFineBlocks:
    """_float_fine takes its distances in (codewords, rows) blocks of at most
    _GATHER_LIMIT entries: any block size decides as one block does, a
    certified row gets the exact answer, and ties and residue half steps
    are left to the exact path."""

    # (p, k, n, scale): 2, 9, 25, 27 and 49 codewords
    CASES = [(2, 1, 2, 1), (3, 2, 4, 4), (5, 2, 3, Fraction(7, 5)), (3, 3, 3, Fraction(2, 3)),
             (7, 2, 3, 2)]

    @staticmethod
    def rows(lat, seed) -> np.ndarray:
        """Rows anywhere, rows near codewords, and the float midpoints of
        random pairs of fine points."""
        rng = np.random.default_rng(seed)
        unit = float(lat.unit)
        words = lat.message_table
        near = words[rng.integers(len(words), size=60)] * unit + rng.normal(0, 0.3 * unit, (60, lat.n))
        pairs = words[rng.integers(len(words), size=(2, 40))]
        shift = lat.p * rng.integers(-1, 2, size=(40, lat.n))
        mid = (pairs[0] + pairs[1] + shift) * (unit / 2)
        anywhere = rng.normal(0, 2 * float(lat.scale), (60, lat.n))
        return np.concatenate([anywhere, near, mid])

    @pytest.mark.parametrize("case", CASES)
    def test_block_sizes_decide_as_one_block(self, monkeypatch, case):
        p, k, n, scale = case
        lat = GridPoint(p, k, n, 0).build_lattice(scale)
        x = self.rows(lat, list(case[:3]))
        monkeypatch.setattr(lattices, "_GATHER_LIMIT", 10**9)
        coords, certain = lat._float_fine(x)
        assert coords.flags.c_contiguous and coords.dtype == np.int64
        exact = lat._exact_fine(x)
        assert 100 <= certain.sum() < len(x)
        assert np.array_equal(coords[certain], exact[certain])
        assert not coords[~certain].any()
        for limit in (1, 7, 64):
            monkeypatch.setattr(lattices, "_GATHER_LIMIT", limit)
            got, sure = lat._float_fine(x)
            assert np.array_equal(sure, certain) and np.array_equal(got, coords)
            assert np.array_equal(lat.quantize_fine(x).coords, exact)

    @pytest.mark.parametrize("limit", [1, 7, 8192])
    def test_ties_and_residue_half_steps_fall_back(self, monkeypatch, limit):
        # over unit 1: the midpoint (1/2, 1/2) of the codewords (0, 0) and
        # (1, 1) of a p = 2 code, and two points on the bisector of (0, 0)
        # and (1, -1) of a p = 3 code (the midpoint (1/2, -1/2) lies on a
        # half step of residue 2), tie; an integer coordinate is on a half
        # step of one residue for p = 2, and a half-integer one for p = 3.
        # Those rows take the exact path, the others beside them do not,
        # and each gets the oracle's point.
        monkeypatch.setattr(lattices, "_GATHER_LIMIT", limit)
        seen = record_exact_rows(monkeypatch)
        for p, g, fall, stay in [
            (2, ((1,), (1,)), [(0.5, 0.5), (-1.5, 0.5), (1.0, 0.25), (0.3, -2.0)],
             [(0.45, 0.5), (0.9, 0.25), (0.3, -1.9)]),
            (3, ((1,), (2,)), [(0.75, -0.25), (-0.25, 0.75), (0.5, -0.5), (2.5, 1.0), (0.2, -1.5)],
             [(0.7, -0.25), (2.4, 1.0), (0.2, -1.4)]),
        ]:
            lat = ConstructionALattice(p, g, None, p)
            del seen[:]
            x = np.array(fall + stay)
            points = lat.quantize_fine(x).points
            assert seen == [(np.dtype(object), [list(row) for row in fall])]
            fine = TestRowDtypeBound.fine_basis(lat)
            for row, pt in zip(x.tolist(), points):
                exact = [Fraction(v) for v in row]
                winners, _ = oracles.exhaustive_nearest(exact, fine, box=5)
                assert minus([exact], [pt])[0] == oracles.tie_break_residual(exact, winners)

    def test_a_gap_at_the_stated_bound_is_not_certified(self, monkeypatch):
        # with the unit roundoff taken as 2^-11, a looser bound that still
        # certifies only exact answers, beta's arithmetic is exact on these
        # rows. p = 2, code (1, 0) over unit 1: row (1/2 - d, 15.5625) has
        # the gap 2 d between the codewords (0, 0) and (1, 0), and
        # beta = 2 * 3 u (2.5 - d + 17.5625) + 8 u. At d = 1/16 the gap is
        # 1/8 = 2 beta exactly, and the row must fall back; at d = 1/8 the
        # gap is 1/4 > 2 beta, at d = 1/32 it is 1/16 < 2 beta.
        monkeypatch.setattr(lattices, "_ROUNDOFF", 2.0**-11)
        lat = ConstructionALattice(2, ((1,), (0,)), None, 2)
        rows = [(0.5 - d, 15.5625) for d in (1 / 8, 1 / 16, 1 / 32)]
        _, certain = lat._float_fine(np.array(rows))
        assert certain.tolist() == [True, False, False]
        seen = record_exact_rows(monkeypatch)
        assert lat.quantize_fine(np.array(rows)).coords.tolist() == [[0, 16]] * 3
        assert seen == [(np.dtype(object), [list(row) for row in rows[1:]])]

    @pytest.mark.parametrize("count, width, inner", [
        (1024, 42, 343), (1024, 18, 729), (1024, 12, 9), (700, 6, 4), (5, 4099, 4099), (0, 10, 10),
    ])
    def test_row_blocks_hold_whole_chunks(self, count, width, inner):
        # blocks of residue rows (width p n) cover the rows in order within
        # the limit, and each but the last holds whole distance chunks
        # (inner codewords per row) when it holds more than one
        limit, chunk = lattices._GATHER_LIMIT, max(1, lattices._GATHER_LIMIT // inner)
        sizes = [len(range(count)[block]) for block in lattices._row_chunks(count, width, inner)]
        assert sum(sizes) == count
        assert all(size * width <= limit or size == 1 for size in sizes)
        assert all(size % chunk == 0 or size < chunk for size in sizes[:-1])

    @pytest.mark.parametrize("exact", [False, True])
    def test_residue_arrays_are_formed_in_blocks(self, exact):
        # k = n = 1 at p = 4099: every residue is a codeword, so each fine
        # point is the nearest multiple of the unit, halves rounded up. The
        # (p, n, rows) residue arrays of all 1 024 rows at once would take
        # about 3 p n rows 8 B, 96 MiB; in blocks of rows they stay small.
        p = 4099
        lat = ConstructionALattice(p, ((1,),))
        rng = np.random.default_rng(11)
        if exact:
            coords = rng.integers(-3 * p, 3 * p, size=(1024, 1))
            x = PointGrid(lat.unit / 3, coords)
            expected = ((2 * coords + 3) // 6).tolist()
        else:
            x = rng.uniform(-2, 2, size=(1024, 1))
            expected = [[math.floor(Fraction(v) / lat.unit + Fraction(1, 2))] for v in x[:, 0].tolist()]
        lat.quantize_fine(x)  # forms the lattice's codewords, once
        tracemalloc.start()
        try:
            got = lat.quantize_fine(x).coords
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert got.tolist() == expected


@st.composite
def gap_rule_rows(draw):
    """(lattice, float rows) for the marks rule against the gap rule: a
    drawn lattice with p in {2, 3, 5, 7} and at most 343 codewords, and rows
    anywhere, on multiples of half the fine unit (where residues sit on half
    steps), or on the midpoints of pairs of fine points (where codewords
    tie), each midpoint coordinate moved by up to 40 ulps so that gaps land
    on both sides of 2 beta."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, int(math.log(343, p) + 1e-9))))
    scale = draw(st.sampled_from([1, 2, Fraction(2, 3), Fraction(7, 5)]))
    lat = GridPoint(p, k, n, draw(st.integers(0, 7))).build_lattice(scale)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 60))
    unit = float(lat.unit)
    kind = draw(st.sampled_from(["anywhere", "half", "tie"]))
    if kind == "anywhere":
        return lat, rng.normal(0, 2 * float(scale), (count, n))
    if kind == "half":
        return lat, rng.integers(-4 * p, 4 * p, (count, n)) * (unit / 2)
    words = lat.message_table[rng.integers(lat.num_cosets, size=(2, count))]
    mid = (words[0] + words[1] + p * rng.integers(-1, 2, size=(count, n))) * (unit / 2)
    moved = rng.integers(-40, 41, size=(count, n)) * rng.integers(0, 2, size=(count, n))
    return lat, mid + moved * np.spacing(mid)


class TestMarksCertificate:
    """_float_fine certifies a row when one codeword alone lies within
    2 beta of the least computed distance (_marks). That is the rule of the
    two least distances, which oracles.float_fine_gap_rule keeps: the two
    certify the same rows and give them the same points."""

    @settings(max_examples=150, deadline=None)
    @given(gap_rule_rows())
    def test_marks_rule_certifies_as_the_gap_rule(self, drawn):
        lat, x = drawn
        coords, certain = lat._float_fine(x)
        ref_coords, ref_certain = oracles.float_fine_gap_rule(
            x, lat.p, lat._codewords, lat._float_steps[1], lattices._ROUNDOFF
        )
        assert np.array_equal(certain, ref_certain)
        assert np.array_equal(coords, ref_coords)


@st.composite
def grid_rows(draw):
    """(case, PointGrid) for a two-dimensional case of
    TestIntegerCoreAgainstOracle: unit a * scale / (p d) and integer
    coordinates in [-2d, 2d], so every row lies within a few fine steps of
    the origin and many sit on half steps of both grids."""
    case = draw(st.integers(0, 1))
    p, _, _, scale = TestIntegerCoreAgainstOracle.CASES[case]
    d = draw(st.integers(1, 8))
    unit = scale / p * Fraction(draw(st.integers(1, 2)), d)
    coords = draw(st.lists(st.lists(st.integers(-2 * d, 2 * d), min_size=2, max_size=2),
                           min_size=1, max_size=3))
    return case, PointGrid(unit, coords)


class TestPointGridRowsAgainstOracle:
    """PointGrid rows fold and quantise exactly, over the unit they share."""

    @settings(max_examples=25)
    @given(grid_rows())
    def test_fold(self, drawn):
        case, x = drawn
        p, _, t, scale = TestIntegerCoreAgainstOracle.CASES[case]
        lat = ConstructionALattice(*TestIntegerCoreAgainstOracle.CASES[case])
        folded = lat.mod_coarse(x)
        assert folded.unit == scale / (p * (x.unit * p / scale).denominator)
        basis = [tuple(scale * t[i][j] for i in range(2)) for j in range(2)]
        for row, out in zip(x.points, folded.points):
            assert out == oracles.fold_brute(row, basis, box=12)
        assert lat.mod_coarse(folded).points == folded.points

    @settings(max_examples=25)
    @given(grid_rows())
    def test_quantize_fine(self, drawn):
        case, x = drawn
        p, g, t, scale = TestIntegerCoreAgainstOracle.CASES[case]
        lat = ConstructionALattice(p, g, t, scale)
        unit = scale / p
        gens = [(g[0][0], g[1][0]), (0, p)]
        fine = [tuple(unit * sum(t[i][l] * c[l] for l in range(2)) for i in range(2)) for c in gens]
        got = lat.quantize_fine(x)
        assert got.unit == unit
        for row, pt in zip(x.points, got.points):
            winners, _ = oracles.exhaustive_nearest(row, fine, box=12)
            assert minus([row], [pt])[0] == oracles.tie_break_residual(row, winners)


class TestFineUnit:
    """The fine unit scale / p is formed once per lattice; every exact
    result over it, and every fold over a finer unit, must be what the
    Fraction arithmetic and the oracles give."""

    @pytest.mark.parametrize("case", TestIntegerCoreAgainstOracle.CASES)
    def test_unit_is_scale_over_p(self, case):
        p, g, t, scale = case
        lat = ConstructionALattice(p, g, t, scale)
        assert lat.unit == Fraction(scale) / p
        cb = enumerate_codebook(lat)
        assert cb.unit == lat.unit
        for power in (1e-3, 0.5, math.inf):
            scaled = scale_to_power(cb, power)
            assert scaled.lattice.unit == scaled.lattice.scale / p
            assert scaled.unit == scaled.lattice.unit
            assert scaled.lattice.quantize_fine(np.zeros((1, len(g)))).unit == scaled.lattice.unit
        assert scale_to_power(cb, 1e-3).lattice.scale < lat.scale

    @pytest.mark.parametrize("case", TestIntegerCoreAgainstOracle.CASES)
    def test_fold_over_mixed_units(self, case):
        # units finer than, equal to and coarser than scale / p, whose
        # ratios to it have denominators 1 to 6; every row a few steps out. T is
        # unimodular, so scale T Z^n = scale Z^n: the oracle searches the
        # basis scale I, which keeps its box small in three dimensions
        p, g, t, scale = case
        lat = ConstructionALattice(p, g, t, scale)
        n = len(g)
        basis = [tuple(scale * (i == j) for i in range(n)) for j in range(n)]
        rng = np.random.default_rng(len(g) * p)
        for ratio in (Fraction(1, 3), Fraction(3, 4), Fraction(1), Fraction(5, 2), Fraction(7, 6)):
            x = PointGrid(Fraction(scale) / p * ratio, rng.integers(-4, 5, size=(3, n)))
            folded = lat.mod_coarse(x)
            assert folded.unit == Fraction(scale) / (p * (x.unit * p / Fraction(scale)).denominator)
            box = int(max(abs(v) for row in x.points for v in row) / scale) + 2
            assert list(folded.points) == [oracles.fold_brute(row, basis, box) for row in x.points]
            assert lat.mod_coarse(folded).points == folded.points
            empty = lat.mod_coarse(PointGrid(x.unit, np.zeros((0, n), dtype=np.int64)))
            assert empty.unit == folded.unit and empty.coords.shape == (0, n)

    @settings(max_examples=200)
    @given(st.sampled_from((2, 3, 5, 7)), *[st.integers(1, 360)] * 4)
    def test_unit_ratio_is_in_lowest_terms(self, p, scale_num, scale_den, num, den):
        # small integers share factors often, so both gcds are exercised
        lat = ConstructionALattice(p, ((1,),), None, Fraction(scale_num, scale_den))
        x = PointGrid(Fraction(num, den), [[1]])
        ratio = x.unit / lat.unit
        a, b = lat._unit_rows(x)
        assert (int(a[0, 0]), int(b[0, 0])) == (ratio.numerator, ratio.denominator)
        folded = lat.mod_coarse(x)
        assert folded.unit == lat.unit / ratio.denominator
        q = math.floor(x.unit / lat.scale + Fraction(1, 2))
        assert folded.unit * int(folded.coords[0, 0]) == x.unit - lat.scale * q


@st.composite
def mixed_unit_grids(draw):
    """One to four PointGrids of width 2, each over its own positive unit
    (numerator and denominator from 1 to 12, or a shared one), with
    coordinates up to 2^20 in magnitude."""
    units = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    shared = draw(units)
    grids = []
    for _ in range(draw(st.integers(1, 4))):
        unit = draw(st.one_of(st.just(shared), units))
        coords = draw(st.lists(st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=2),
                               min_size=0, max_size=4))
        grids.append(PointGrid(unit, np.array(coords, dtype=np.int64).reshape(-1, 2)))
    return grids


class TestPeak:
    """PointGrid.peak is a proven bound on |coords|: the scan itself for a
    grid built from arbitrary coordinates, read once; the construction's
    bound for an exact fold, never below the scan, and taken only to
    accept; and on_grid's arrays are exactly the Fraction points over the
    unit it names."""

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_a_grid_without_a_bound_scans_once(self, coords):
        x = PointGrid(1, coords)
        assert x.peak == max(abs(v) for row in coords for v in row)
        x.coords = None  # a second read must not scan again
        assert x.peak == max(abs(v) for row in coords for v in row)

    def test_an_empty_grid_has_peak_zero(self):
        assert PointGrid(1, np.zeros((0, 3), dtype=np.int64)).peak == 0

    @settings(max_examples=50)
    @given(grid_rows())
    def test_fold_bound(self, drawn):
        # the fold's residual lies in [-p b / 2, p b / 2), over scale / (p b)
        case, x = drawn
        p, _, _, scale = TestIntegerCoreAgainstOracle.CASES[case]
        lat = ConstructionALattice(*TestIntegerCoreAgainstOracle.CASES[case])
        folded = lat.mod_coarse(x)
        ratio = x.unit * p / scale
        a, b = ratio.numerator, ratio.denominator
        assert folded._bound == folded.peak == p * b // 2
        assert folded.peak >= lattices._peak(folded.coords)
        # each fine point is within p / 2 of its row's x.peak a / b, over
        # scale / p
        fine = lat.quantize_fine(x)
        assert fine._bound == fine.peak == (2 * x.peak * a + p * b) // (2 * b)
        assert fine.peak >= lattices._peak(fine.coords)

    @pytest.mark.parametrize("case", TestIntegerCoreAgainstOracle.CASES)
    def test_fold_bound_is_reached(self, case):
        # rows over unit scale / (p d) that run through a whole coarse cell,
        # d = 1 to 6: some residual is -P / 2 or -(P - 1) / 2, P = p d, so the
        # bound P // 2 is the scan
        p, g, t, scale = case
        lat = ConstructionALattice(p, g, t, scale)
        for d in range(1, 7):
            ramp = np.arange(-p * d, p * d + 1)
            x = PointGrid(Fraction(scale) / (p * d), np.repeat(ramp[:, None], len(g), axis=1))
            folded = lat.mod_coarse(x)
            assert folded.peak == lattices._peak(folded.coords) == p * d // 2

    def test_a_bound_past_a_guard_is_rescanned(self):
        # over 1 / 2^62, b = 2^61 and the fold's bound P // 2 = 2^61 times
        # the factor 2 onto 1 / 2^63 reaches GRID_LIMIT; the residuals are
        # small, so the scans accept, as they did before bounds were kept
        lat = lat_1d()
        folded = lat.mod_coarse(PointGrid(Fraction(1, 2**62), [[3], [-5]]))
        assert folded.unit == Fraction(1, 2**62) and folded.coords.tolist() == [[3], [-5]]
        assert folded.peak == 2**61
        unit, (a, c) = lattices.on_grid(folded, PointGrid(Fraction(1, 2**63), [[1]]))
        assert unit == Fraction(1, 2**63) and a.tolist() == [[6], [-10]] and c.tolist() == [[1]]
        assert lat.mod_coarse(folded).coords.tolist() == [[3], [-5]]
        assert lat.quantize_fine(folded).coords.tolist() == [[0], [0]]
        # a bound that overestimates past GRID_LIMIT refuses nothing a scan
        # accepts, and costs no int64 row the scan would give
        loose = PointGrid(1, [[2**62 - 1]], _bound=2**63)
        assert lattices.on_grid(loose)[1][0].tolist() == [[2**62 - 1]]
        num, den = lat._unit_rows(PointGrid(lat.unit, [[3], [-5]], _bound=2**61))
        assert num.dtype == den.dtype == np.int64 and num.tolist() == [[3], [-5]]

    def test_grid_limit_is_checked_on_the_coords(self):
        # a grid built from outside the package has no bound but its scan
        x = PointGrid(1, [[2**62 - 1]])
        assert lattices.on_grid(x)[1][0] is x.coords
        for coords in ([[2**62]], [[-(2**62)]], [[0], [2**62]]):
            with pytest.raises(BudgetExceeded):
                lattices.on_grid(PointGrid(1, coords))
        with pytest.raises(BudgetExceeded):
            lattices.on_grid(x, PointGrid(Fraction(1, 2), [[1]]))
        with pytest.raises(TypeError):
            PointGrid(1, [[2**62]], 1)

    @settings(max_examples=100)
    @given(mixed_unit_grids())
    def test_on_grid_matches_the_fraction_points(self, grids):
        unit, arrays, peaks = lattices._on_grid(grids)
        multiples = [g.unit / unit for g in grids]
        assert all(m.denominator == 1 for m in multiples)
        assert math.gcd(*(m.numerator for m in multiples)) == 1
        for g, a, b in zip(grids, arrays, peaks):
            assert a.dtype == np.int64 and a.shape == g.coords.shape
            assert [tuple(unit * int(v) for v in row) for row in a] == list(g.points)
            assert b >= lattices._peak(a)
            if g.unit == unit:
                assert a is g.coords
        again, public = lattices.on_grid(*grids)
        assert again == unit and all(np.array_equal(a, b) for a, b in zip(public, arrays))

    def test_equal_units_hand_back_the_coords(self):
        a = PointGrid(Fraction(2, 3), [[1, -2], [3, 4]])
        b = PointGrid(Fraction(4, 6), np.array([[5, 6]]))
        unit, (ca, cb) = lattices.on_grid(a, b)
        assert unit == Fraction(2, 3) and ca is a.coords and cb is b.coords
        unit, (ca, cb) = lattices.on_grid(a, PointGrid(Fraction(1, 3), [[5, 6]]))
        assert unit == Fraction(1, 3) and ca.tolist() == [[2, -4], [6, 8]] and cb.tolist() == [[5, 6]]


class TestOutOfRangeFloatRows:
    """Float rows the exact kernel cannot hold fail with the package's errors."""

    @pytest.mark.parametrize("big", [1e19, -1e19, 1e300])
    def test_coarse_index_past_the_grid_limit(self, big):
        lat = ConstructionALattice(3, ((1,), (2,)), None, 1)
        x = np.array([[0.25, 0.5], [big, 0.5]])
        with pytest.raises(BudgetExceeded):
            lat.mod_coarse(x)
        with pytest.raises(BudgetExceeded):
            lat.quantize_fine(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows(self, bad):
        lat = ConstructionALattice(3, ((1,), (2,)), None, 1)
        x = np.array([[0.25, 0.5], [0.0, bad]])
        with pytest.raises(ValidationError):
            lat.mod_coarse(x)
        with pytest.raises(ValidationError):
            lat.quantize_fine(x)


class TestPointGridCoords:
    @pytest.mark.parametrize(
        "coords",
        [
            [[Fraction(1, 2)]],
            [[0.75]],
            [[0], [math.nan]],
            [[math.inf]],
            [[2**63]],
            [[2**64]],
            np.array([[2**63]], dtype=np.uint64),
            [[None]],
        ],
    )
    def test_non_integral_or_out_of_range_coordinates_raise(self, coords):
        with pytest.raises(ValidationError):
            PointGrid(1, coords)

    def test_integral_values_of_any_type_are_kept(self):
        got = PointGrid(1, [[2.0, Fraction(-6, 3)], [2**62, -(2**63)]]).coords
        assert got.dtype == np.int64
        assert got.tolist() == [[2, -2], [2**62, -(2**63)]]

    def test_int64_arrays_are_taken_as_they_are(self):
        coords = np.arange(6, dtype=np.int64).reshape(3, 2)
        assert PointGrid(1, coords).coords is coords
        assert PointGrid(1, coords.astype(np.int32)).coords.dtype == np.int64

    def test_a_unit_that_is_not_positive_raises(self):
        # at unit 0 the rows below were two copies of the origin, which
        # mutual_info_sum counted as two distinct points (0.5 bits, not 0)
        for unit in (0, -1, Fraction(-2, 3)):
            with pytest.raises(ValidationError):
                PointGrid(unit, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("coords", [[1, 2, 3], [[[1, 2]], [[3, 4]]], 5, []])
    def test_coords_that_are_not_2d_raise(self, coords):
        # mutual_info_sum of such a grid raised a bare IndexError for 1-D
        # coords and a TypeError for 3-D ones
        with pytest.raises(DimensionMismatch):
            PointGrid(1, coords)

    def test_coords_are_read_only(self):
        # the points, floats and peak derived from them cannot go stale
        coords = np.arange(6, dtype=np.int64).reshape(3, 2)
        x = PointGrid(1, coords)
        assert x.peak == 5
        for target in (x.coords, coords, lattices.on_grid(x)[1][0]):
            with pytest.raises(ValueError):
                target[0, 0] = 7
        assert x.peak == 5 and x.coords.tolist() == [[0, 1], [2, 3], [4, 5]]


def exact_floats(x) -> np.ndarray:
    """float(unit * v) for every coordinate v of the PointGrid x."""
    values = [[float(x.unit * v) for v in row] for row in x.coords.tolist()]
    return np.array(values, dtype=np.float64).reshape(x.coords.shape)


@st.composite
def guard_grids(draw):
    """PointGrids over unit num / den with max(peak, 1) num within two num of
    2^53, on either side; den small, near 2^53 on either side, or large;
    coordinates that reach the peak, with zero and negative ones; and
    sometimes a _bound that overestimates the peak."""
    peak = draw(st.integers(1, 2**24))
    num = max(1, 2**53 // peak + draw(st.integers(-2, 2)))
    den = draw(st.one_of(st.integers(1, 2**12), st.integers(2**53 - 8, 2**53 + 8),
                         st.integers(1, 2**60)))
    assume(math.gcd(num, den) == 1)
    values = draw(st.lists(st.integers(-peak, peak), max_size=5)) + [peak, -peak, 0]
    values += [0] * (-len(values) % 2)
    over = draw(st.sampled_from([None, 0, 1, 2**30]))
    bound = None if over is None else peak + over
    return PointGrid(Fraction(num, den), np.array(values).reshape(-1, 2), _bound=bound)


class TestFloatMatrix:
    """float_matrix holds float(unit * v) bit for bit, from one division of
    exact floats under 2^53 and from the per-value table past it, and it is
    read-only."""

    @settings(max_examples=200)
    @given(guard_grids())
    @example(PointGrid(Fraction(2**53 + 1, 7), [[1, 0], [-1, 0]]))
    def test_floats_are_correctly_rounded(self, x):
        assert x.float_matrix().tobytes() == exact_floats(x).tobytes()

    @pytest.mark.parametrize(
        "unit, coords, bound, table",
        [
            (Fraction(2**53, 3), [[1, 0, -1]], None, False),
            (Fraction(3, 2**53), [[2**51, -7, 0]], None, False),
            (Fraction(7, 2**53 - 1), [[2**50, -(2**50), 3]], None, False),
            # num peak = 2^53 + 1: 2^53 + 1 rounds to 2^53 as a float
            (Fraction(2**53 + 1, 7), [[1, 0, -1]], None, True),
            (Fraction(1, 2**53 + 1), [[5, -5, 0]], None, True),
            (Fraction(1, 3), [[5, -5, 0]], 2**53 + 1, True),
            (Fraction(10**300), [[1, -2, 0]], None, True),
            (Fraction(1, 2**60 + 1), [[1, -5, 2**40]], None, True),
        ],
    )
    def test_the_table_is_taken_only_past_the_guard(self, monkeypatch, unit, coords, bound, table):
        calls = []
        per_value = PointGrid._per_value

        def spy(self, convert):
            calls.append(len(self.coords))
            return per_value(self, convert)

        monkeypatch.setattr(PointGrid, "_per_value", spy)
        x = PointGrid(unit, coords, _bound=bound)
        assert x.float_matrix().tobytes() == exact_floats(x).tobytes()
        assert bool(calls) == table

    @pytest.mark.parametrize("unit", [Fraction(1, 2), Fraction(1, 2**60 + 1)])
    def test_the_floats_are_read_only(self, unit):
        # a write into the floats would leave them stale against the coords
        x = PointGrid(unit, [[0, 0, 0, 0], [1, -2, 3, -4]])
        with pytest.raises(ValueError):
            x.float_matrix()[0, 0] = 9.0
        assert x.float_matrix().tobytes() == exact_floats(x).tobytes()
        cb = enumerate_codebook(ConstructionALattice(3, ((1,), (2,)), None, 1))
        with pytest.raises(ValueError):
            cb.float_matrix()[0, 0] = 9.0
        assert cb.float_matrix().tobytes() == exact_floats(cb).tobytes()


def _guarded_calls():
    """name -> call(rows): every entry point that takes exact rows."""
    cb = enumerate_codebook(ConstructionALattice(3, ((1,), (2,)), None, 1))
    lat = cb.lattice
    quiet = ChannelParams(cross_gain=0.0, power=1.0, noise_var=0.0)
    strong = ChannelParams(cross_gain=4.0, power=1.0, noise_var=0.0)
    return {
        "mod_coarse": lat.mod_coarse,
        "quantize_fine": lat.quantize_fine,
        "decode_weak": lambda rows: decode_weak(
            rows, PointGrid(1, [[0, 0]]) if isinstance(rows, PointGrid) else np.zeros(2), quiet, lat
        ),
        "decode_very_strong_batch": lambda rows: decode_very_strong_batch(rows, cb, strong),
        "sum_structure": lambda rows: sum_structure(rows, cb),
    }


class TestExactRowsArePointGrids:
    @pytest.mark.parametrize("name", list(_guarded_calls()))
    def test_fraction_lists_rejected(self, name):
        # np.asarray(..., float64) would round these silently
        rows = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 11), Fraction(0))]
        call = _guarded_calls()[name]
        with pytest.raises(TypeError, match="PointGrid"):
            call(rows)
        call(grid(rows))

    @pytest.mark.parametrize("name", list(_guarded_calls()))
    def test_rows_of_another_width_rejected(self, name):
        # rows of width 3 for a width-2 lattice: the decoders raised numpy's
        # ValueError from matmul or broadcasting
        call = _guarded_calls()[name]
        rows = PointGrid(1, [[0, 0, 0]])
        # sum_structure takes exact point sets only
        for bad in (rows,) if name == "sum_structure" else (rows, rows.float_matrix()):
            with pytest.raises(DimensionMismatch):
                call(bad)


class TestInt64Magnitudes:
    """int64's minimum has no int64 magnitude: abs(-2^63) wraps to itself."""

    def test_on_grid_rejects_int64_minimum(self):
        with pytest.raises(BudgetExceeded):
            lattices.on_grid(PointGrid(1, [[-(2**63)]]), PointGrid(Fraction(1, 2), [[1]]))
        with pytest.raises(BudgetExceeded):
            lattices.on_grid(PointGrid(1, [[5, -(2**63)]]))

    def test_fold_of_int64_minimum_takes_python_ints(self, monkeypatch):
        # -2^63 halves is a coarse point of Z: the fold is 0, and int64
        # arithmetic would have wrapped 2 * num to 0 on the way
        seen = record_row_dtypes(monkeypatch)
        folded = lat_1d().mod_coarse(PointGrid(Fraction(1, 2), [[-(2**63)], [3]]))
        assert folded.coords.tolist() == [[0], [-1]]
        assert seen == [np.dtype(object)]

    def test_message_coords_reject_a_prime_past_the_int64_square(self):
        # k p^2 must stay within GRID_LIMIT = 2^62 for the codeword products:
        # the least prime past 2^31 squares past it at k = 1, while its p^1
        # messages alone would fit
        p = 2**31 + 11
        assert all(p % d for d in range(2, math.isqrt(p) + 1, 1))
        lat = ConstructionALattice(p, ((1,),))
        assert lat.num_cosets == p < lattices.GRID_LIMIT < p * p
        with pytest.raises(BudgetExceeded, match="overflow int64 codeword arithmetic"):
            lat.message_coords([0])

    @pytest.mark.parametrize("call", ["decode_very_strong_batch"])
    def test_exact_decoders_reject_int64_minimum(self, call):
        with pytest.raises(BudgetExceeded):
            _guarded_calls()[call](PointGrid(Fraction(1, 3), [[0, -(2**63)]]))


class TestRowDtypeBound:
    """A PointGrid's rows are folded and quantised in int64 exactly when
    2 (N + P) < GRID_LIMIT and n P^2 < GRID_LIMIT, with N the largest
    |numerator| and P = p b, b the denominator of x.unit / (scale / p).
    Rows just inside and just past the bound give the oracle's answers."""

    @staticmethod
    def check_against_oracle(lat, x, fine_basis):
        """x is a PointGrid over a multiple of the fine unit's divisors: each
        row is x0 + v with v coarse and x0 small, and fold(x) = fold(x0),
        quantize_fine(x) = v + quantize_fine(x0) hold for the oracle's x0."""
        n, scale = lat.n, lat.scale
        coarse = [tuple(scale * lat.transform[i][j] for i in range(n)) for j in range(n)]
        folded = lat.mod_coarse(x).points
        fine = lat.quantize_fine(x).points
        for row, fold, pt in zip(x.points, folded, fine):
            v = tuple(scale * math.floor(c / scale + Fraction(1, 2)) for c in row)
            x0 = minus([row], [v])[0]
            assert fold == oracles.fold_brute(x0, coarse, box=6)
            winners, _ = oracles.exhaustive_nearest(x0, fine_basis, box=9)
            assert minus([row], [pt])[0] == oracles.tie_break_residual(x0, winners)

    @staticmethod
    def fine_basis(lat):
        p, n, unit = lat.p, lat.n, lat.scale / lat.p
        g, t = lat.code_matrix, lat.transform
        gens = [tuple(g[i][j] for i in range(n)) for j in range(lat.k)]
        gens += [tuple(p * int(i == j) for i in range(n)) for j in range(lat.k, n)]
        return [tuple(unit * sum(t[i][l] * c[l] for l in range(n)) for i in range(n)) for c in gens]

    @pytest.mark.parametrize("past", [False, True])
    def test_largest_numerator(self, monkeypatch, past):
        # TestIntegerCoreAgainstOracle.CASES[0], rows over half the fine
        # unit: a = 1, b = 2, P = 4, so 2 (N + 4) < 2^62 reads N <= 2^61 - 5
        lat = ConstructionALattice(*TestIntegerCoreAgainstOracle.CASES[0])
        top = 2**61 - 5 + past
        coords = [[top, -top + 3], [-top, 7], [1 - top, top - 2], [2, -3], [0, 0], [-2, 2]]
        x = PointGrid(lat.scale / lat.p / 2, coords)
        seen = record_row_dtypes(monkeypatch)
        self.check_against_oracle(lat, x, self.fine_basis(lat))
        assert seen == [np.dtype(object) if past else np.dtype(np.int64)] * 2

    @pytest.mark.parametrize("past", [False, True])
    def test_squared_step(self, monkeypatch, past):
        # p = 2, n = 1, rows over unit 1 / (2 b): P = 2 b, and n P^2 < 2^62
        # reads b < 2^30
        lat = lat_1d()
        b = 2**30 - 1 + past
        coords = [[c] for c in (0, 1, -1, b // 2, -(b // 2), b, -b, 2 * b - 1, 3 * b + 1)]
        x = PointGrid(Fraction(1, 2 * b), coords)
        seen = record_row_dtypes(monkeypatch)
        self.check_against_oracle(lat, x, self.fine_basis(lat))
        assert seen == [np.dtype(object) if past else np.dtype(np.int64)] * 2

    def test_only_uncertified_float_rows_take_python_ints(self, monkeypatch):
        # Z in units of 1 / 2: 0.5 lies on a half step of the coarse grid,
        # 0.25 ties two fine points, and 0.0 and -0.5 each sit on a half
        # step of one residue's coset (the odd one, the even one); the float
        # filters certify every other row, and those never reach the exact
        # path, within a mixed batch or in a batch of their own
        seen = record_exact_rows(monkeypatch)
        lat = lat_1d()
        folded = lat.mod_coarse(np.array([[0.1], [0.25], [-3.0], [0.5], [0.8]]))
        assert folded.tolist() == [[0.1], [0.25], [0.0], [-0.5], [0.8 - 1.0]]
        assert lat.quantize_fine(folded).coords.tolist() == [[0], [1], [0], [-1], [0]]
        assert seen == [(np.dtype(object), [[0.5]]), (np.dtype(object), [[0.25], [0.0], [-0.5]])]
        lat.quantize_fine(lat.mod_coarse(np.array([[0.1], [0.8], [-2.9]])))
        assert len(seen) == 2

    def test_chunked_rows_match_one_block(self, monkeypatch):
        # more rows than one block takes, on half steps, where the least
        # distance is often tied, in int64 and past the int64 bound (the
        # same rows moved by the coarse vector 2^59 (1, 1), N > 2^61): every
        # chunk size decides as one block does, and as the oracle does
        lat = ConstructionALattice(*TestIntegerCoreAgainstOracle.CASES[1])
        unit, basis = lat.scale / lat.p / 2, self.fine_basis(lat)
        default = lattices._GATHER_LIMIT
        small = np.random.default_rng(5).integers(-6, 7, size=(700, lat.n))
        seen = record_row_dtypes(monkeypatch)
        for shift in (0, 2**59):
            x = PointGrid(unit, small + int(lat.scale / unit) * shift)
            monkeypatch.setattr(lattices, "_GATHER_LIMIT", 10**9)
            whole = lat.quantize_fine(x)
            for limit in (1, 7, default):
                monkeypatch.setattr(lattices, "_GATHER_LIMIT", limit)
                assert np.array_equal(lat.quantize_fine(x).coords, whole.coords)
            ties = 0
            for row, pt in zip(x.points[:24], whole.points[:24]):
                x0 = tuple(c - lat.scale * shift for c in row)
                winners, _ = oracles.exhaustive_nearest(x0, basis, box=12)
                assert minus([row], [pt])[0] == oracles.tie_break_residual(x0, winners)
                ties += len(winners) > 1
            assert ties >= 4
        assert seen == [np.dtype(np.int64)] * 4 + [np.dtype(object)] * 4
