"""Nested lattice pairs: closest-point search, folding, coset structure."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from latsec import (
    ConstructionALattice,
    NonPositiveScale,
    NotPrime,
    NotUnimodular,
    RankDeficientG,
    enumerate_codebook,
    random_code_matrix,
    random_unimodular,
)
from latsec.gfp import solve_column_comb
from latsec.lattices import det_int

import oracles


def lat_1d():
    return ConstructionALattice(2, ((1,),), None, 1)


def unit_coords(lat, pt):
    """pt in units of the fine grid scale / p, as Fractions."""
    return [Fraction(v) / (lat.scale / lat.p) for v in pt]


def is_coarse(lat, pt):
    """Coarse membership: integer fine-grid coordinates, each divisible by p."""
    t = unit_coords(lat, pt)
    return all(v.denominator == 1 and v.numerator % lat.p == 0 for v in t)


class TestQuantizeTieRule:
    def test_half_integer_rounds_up(self):
        lat = lat_1d()
        assert lat.quantize_coarse((Fraction(1, 2),)) == (1,)
        assert lat.mod_coarse((Fraction(1, 2),)) == (Fraction(-1, 2),)

    def test_negative_half_integer(self):
        lat = lat_1d()
        assert lat.quantize_coarse((Fraction(-1, 2),)) == (0,)
        assert lat.mod_coarse((Fraction(-1, 2),)) == (Fraction(-1, 2),)

    def test_cell_is_half_open(self):
        lat = lat_1d()
        for x in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(7, 2)):
            assert lat.mod_coarse((x,)) == (Fraction(-1, 2),)

    def test_fold_is_idempotent(self):
        lat = ConstructionALattice(3, ((1,), (2,)), ((1, 1), (0, 1)), Fraction(3, 2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = tuple(Fraction(int(v), 8) for v in rng.integers(-40, 40, size=2))
            once = lat.mod_coarse(x)
            assert lat.mod_coarse(once) == once


class TestAgainstExhaustiveSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_matches_brute_force(self, seed):
        rng = np.random.default_rng([seed, 101])
        n = int(rng.integers(1, 4))
        t = random_unimodular(n, [seed, 55], entry_cap=2)
        scale = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        lat = ConstructionALattice(2, tuple((1,) for _ in range(n)), t, scale)
        basis = [tuple(scale * t[i][j] for i in range(n)) for j in range(n)]
        for _ in range(6):
            x = tuple(Fraction(int(v), 4) for v in rng.integers(-4, 5, size=n))
            assert lat.mod_coarse(x) == oracles.fold_brute(x, basis, box=10)

    def test_residual_on_multiway_tie(self):
        # Z^2 sees a four-way tie at the cell corner; the lexicographically
        # smallest residual is (-1/2, -1/2).
        lat = ConstructionALattice(2, ((1,), (1,)), None, 1)
        x = (Fraction(1, 2), Fraction(1, 2))
        winners, _ = oracles.exhaustive_nearest(x, [(1, 0), (0, 1)], box=2)
        assert len(winners) == 4
        expected = oracles.tie_break_residual(x, winners)
        assert lat.mod_coarse(x) == expected == (Fraction(-1, 2), Fraction(-1, 2))


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
            label = solve_column_comb(lat.transform, residue, 3)
            z = solve_column_comb(lat.code_matrix, label, 3)
            assert sum(int(d) * 3**i for i, d in enumerate(z)) == m

    def test_membership_hierarchy(self):
        lat = ConstructionALattice(2, ((1,), (0,)), ((1, 1), (0, 1)), 1)
        cb = enumerate_codebook(lat)
        for pt in cb.points:
            assert lat.is_fine_point(pt)
        assert cb.points[0] == (0, 0)
        assert (cb.coords[0] % lat.p == 0).all()
        assert not (cb.coords[1] % lat.p == 0).all()

    def test_coarse_points_are_fine(self):
        lat = ConstructionALattice(3, ((1,), (1,)), ((2, 1), (1, 1)), Fraction(1, 2))
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = rng.integers(-3, 4, size=2)
            pt = tuple(
                lat.scale * sum(lat.transform[i][j] * int(z[j]) for j in range(2))
                for i in range(2)
            )
            assert is_coarse(lat, pt)
            assert lat.is_fine_point(pt)
            assert lat.mod_coarse(pt) == (0, 0)

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
            tuple(solve_column_comb(lat.transform, [int(v) % 2 for v in row], 2))
            for row in coords
        }
        assert len(labels) == 4


class TestSeededGenerators:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 3, 4), (5, 2, 3), (7, 1, 6)])
    def test_code_matrix_full_rank(self, p, k, n):
        from latsec.gfp import rank_modp

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

    def test_forced_shape_is_deterministic(self):
        # (2,1,1) admits exactly one full-rank matrix; every draw returns it.
        for d in range(5):
            assert random_code_matrix(2, 1, 1, seed=[d]) == ((1,),)


class TestConstructionErrors:
    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ConstructionALattice(4, ((1,),), None, 1)
        with pytest.raises(NotPrime):
            ConstructionALattice(1, ((1,),), None, 1)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((0,), (0,)), None, 1)
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 1), (1, 1)), None, 1)
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 0, 1),), None, 1)

    def test_rank_over_the_field_not_the_rationals(self):
        # Full rank over Q but rank 1 over GF(2): columns differ by 2.
        with pytest.raises(RankDeficientG):
            ConstructionALattice(2, ((1, 3), (1, 1)), None, 1)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            ConstructionALattice(2, ((1,), (0,)), ((2, 0), (0, 1)), 1)
        with pytest.raises(NotUnimodular):
            ConstructionALattice(2, ((1,),), ((1, 0), (0, 1)), 1)

    def test_bad_scale(self):
        with pytest.raises(NonPositiveScale):
            ConstructionALattice(2, ((1,),), None, 0)
        with pytest.raises(NonPositiveScale):
            ConstructionALattice(2, ((1,),), None, Fraction(-1, 2))


class TestQuantizeFine:
    def test_fine_lattice_contains_cosets(self):
        lat = ConstructionALattice(2, ((1,), (1,)), None, 1)
        # Fine points are (c/2, c/2) + Z^2; quantizing a nearby target
        # recovers the exact fine point.
        fine_pt = (Fraction(1, 2), Fraction(1, 2))
        assert lat.is_fine_point(fine_pt)
        got = lat.quantize_fine((0.55, 0.52))
        assert got == fine_pt

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
        for _ in range(12):
            x = tuple(Fraction(int(v), 16) for v in rng.integers(-8, 9, size=2))
            got = lat.quantize_fine(x)
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
        for x in self.half_grid_targets(scale, n, [case, 1]):
            winners, _ = oracles.exhaustive_nearest(x, basis, box=7)
            expected = oracles.tie_break_residual(x, winners)
            assert lat.mod_coarse(x) == expected
            assert lat.quantize_coarse(x) == tuple(a - b for a, b in zip(x, expected))

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
        for x in self.half_grid_targets(unit, n, [case, 2]):
            winners, _ = oracles.exhaustive_nearest(x, basis, box=9)
            expected = oracles.tie_break_residual(x, winners)
            got = lat.quantize_fine(x)
            assert lat.is_fine_point(got)
            assert tuple(a - b for a, b in zip(x, got)) == expected
