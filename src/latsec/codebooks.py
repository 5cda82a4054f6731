"""Codebooks carved out of nested lattices: enumeration, power scaling,
binning, and layered (superposition) construction.

A codebook is a PointGrid over the fine unit scale / p: codeword m is
unit * coords[m] with int64 coordinates in [-p/2, p/2), computed for all
messages at once by ConstructionALattice.message_coords. Power scaling
holds the dither power, the coarse cell's exact second moment scale^2 / 12
per dimension, at the budget by rescaling the unit only; the exact points
and their floats are derived on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateCodebook,
    DimensionMismatch,
    EmptyCodebook,
    LayerNotNested,
    NonDivisibleBins,
    ValidationError,
)
from .lattices import ConstructionALattice, PointGrid, exact_vector, on_grid


class Codebook(PointGrid):
    """Coset representatives of a nested lattice pair, in message order.

    Codeword m is unit * coords[m] with unit = scale / p; every point lies
    in the half-open fundamental cell of the coarse lattice, so every
    coordinate lies in [-p/2, p/2). Build one from exact points, or from
    their integer coordinates with coords=.
    """

    def __init__(self, lattice: ConstructionALattice, points=None, *, coords=None):
        unit = lattice.scale / lattice.p
        if coords is None:
            pts = [exact_vector(pt) for pt in points]
            if not pts:
                raise EmptyCodebook("a codebook needs at least one point")
            for pt in pts:
                if len(pt) != lattice.n:
                    raise DimensionMismatch(
                        f"point of length {len(pt)} in dimension-{lattice.n} lattice"
                    )
            empty = PointGrid(unit, np.zeros((0, lattice.n), dtype=np.int64))
            common, (_, coords) = on_grid(empty, pts)
            if common != unit:
                raise ValidationError("points", "codebook points must be multiples of scale / p")
        super().__init__(unit, coords)
        p = lattice.p
        if (2 * self.coords >= p).any() or (2 * self.coords < -p).any():
            raise ValidationError("points", "codebook points must lie in the coarse cell")
        self.lattice = lattice
        self.n = lattice.n

    @property
    def size_log2(self) -> float:
        return math.log2(len(self))

    @property
    def rate_per_dim(self) -> float:
        return self.size_log2 / self.n

    @property
    def average_power(self) -> Fraction:
        """Mean squared coordinate over the codebook, exact."""
        values, counts = np.unique(self.coords, return_counts=True)
        acc = sum(int(v) * int(v) * int(c) for v, c in zip(values, counts))
        return self.unit**2 * acc / self.coords.size


def enumerate_codebook(lattice: ConstructionALattice, budget: int = 10**6) -> Codebook:
    """All coset representatives, ordered by message index."""
    if lattice.num_cosets > budget:
        raise BudgetExceeded(
            f"{lattice.num_cosets} cosets exceed enumeration budget {budget}"
        )
    return Codebook(lattice, coords=lattice.message_coords(np.arange(lattice.num_cosets)))


def scale_to_power(codebook: Codebook, power) -> Codebook:
    """Shrink a codebook so its dither's per-dimension power meets a budget.

    T is unimodular, so the coarse cell is the cube scale * [-1/2, 1/2)^n
    and a dither uniform on it has per-dimension power exactly scale^2 / 12
    (the normalised second moment of Z^n). If that fits, the codebook is
    returned unchanged. Otherwise the whole nested pair is rescaled by the
    largest dyadic rational r with r^2 * scale^2 / 12 <= power, so the
    constraint holds with certainty. Only the unit changes; the integer
    coordinates are shared.
    """
    power = float(power)
    if math.isnan(power) or power <= 0:
        raise ValidationError("power", "power must be positive")
    if math.isinf(power):
        return codebook
    if not codebook.coords.any():
        raise DegenerateCodebook("all-zero codebook cannot be power scaled")
    old = codebook.lattice
    moment = old.scale**2 / 12
    target = Fraction(power)
    if moment <= target:
        return codebook
    ratio = _floor_sqrt_fraction(target / moment)
    scaled = ConstructionALattice(
        old.p, old.code_matrix, old.transform, old.scale * ratio
    )
    return Codebook(scaled, coords=codebook.coords)


def _floor_sqrt_fraction(value: Fraction, bits: int = 80) -> Fraction:
    """Largest dyadic-denominator rational r with r*r <= value."""
    root = math.isqrt((value.numerator << bits) // value.denominator)
    return Fraction(root, 1 << (bits // 2))


class BinnedCodebook:
    """A codebook partitioned into equal-size bins by a seeded shuffle.

    bins[w] is a sorted tuple of codeword indices and bin_index[i] the bin
    of codeword i; the bin index is the secret message, the position inside
    the bin is the random padding.
    """

    def __init__(self, codebook: Codebook, num_bins: int, seed: int = 0):
        size = len(codebook)
        if num_bins < 1 or num_bins > size:
            raise ValidationError("num_bins", f"need 1 <= num_bins <= {size}")
        if size % num_bins != 0:
            raise NonDivisibleBins(f"{num_bins} bins do not divide {size} codewords")
        perm = np.random.default_rng(int(seed)).permutation(size)
        per = size // num_bins
        self.codebook = codebook
        self.num_bins = num_bins
        self.seed = int(seed)
        self.bins = tuple(
            tuple(sorted(int(v) for v in perm[w * per : (w + 1) * per]))
            for w in range(num_bins)
        )
        self.bin_index = np.empty(size, dtype=np.int64)
        self.bin_index[perm] = np.arange(size) // per

    @property
    def rate_per_dim(self) -> float:
        return self.codebook.rate_per_dim

    @property
    def bin_rate_per_dim(self) -> float:
        return math.log2(self.num_bins) / self.codebook.n


class LayeredCodebook:
    """Independent per-layer codebooks whose points all live in one fine lattice."""

    def __init__(self, fine_lattice: ConstructionALattice, layers, powers):
        self.fine_lattice = fine_lattice
        self.layers = tuple(layers)
        self.powers = tuple(float(p) for p in powers)
        self.n = fine_lattice.n

    def __len__(self):
        return len(self.layers)


def build_layered(
    fine_lattice: ConstructionALattice,
    layer_specs,
    powers,
    budget: int = 10**6,
) -> LayeredCodebook:
    """Build layer codebooks from prefixes of the base code.

    layer_specs is a sequence of (k_i, scale_i): layer i keeps the first
    k_i generator columns and uses coarse scale scale_i. Each layer is
    power scaled to powers[i] and every resulting point must still be a
    point of the shared fine lattice; a layer that escapes it is rejected.
    """
    specs = list(layer_specs)
    pows = list(powers)
    if not specs:
        raise ValidationError("layers", "need at least one layer")
    if len(specs) != len(pows):
        raise ValidationError("powers", "one power per layer required")
    layers = []
    for i, ((k_i, scale_i), p_i) in enumerate(zip(specs, pows), start=1):
        k_i = int(k_i)
        if not 1 <= k_i <= fine_lattice.k:
            raise LayerNotNested(i, f"layer code dimension {k_i} not within base code")
        sub = tuple(row[:k_i] for row in fine_lattice.code_matrix)
        lat = ConstructionALattice(
            fine_lattice.p, sub, fine_lattice.transform, Fraction(scale_i)
        )
        cb = enumerate_codebook(lat, budget)
        cb = scale_to_power(cb, p_i)
        for pt in cb.points:
            if not fine_lattice.is_fine_point(pt):
                raise LayerNotNested(i, "scaled layer leaves the shared fine lattice")
        layers.append(cb)
    return LayeredCodebook(fine_lattice, layers, pows)
