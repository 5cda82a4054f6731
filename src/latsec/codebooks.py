"""Codebooks carved out of nested lattices: enumeration, power scaling,
binning, and layered (superposition) construction.

A codebook is its lattice's coset code: a PointGrid over the fine unit
scale / p whose row m is message m's codeword, int64 coordinates in
[-p/2, p/2), computed for all messages at once by
ConstructionALattice.message_coords. Power scaling holds the dither power,
the coarse cell's exact second moment scale^2 / 12 per dimension, at the
budget by rescaling the unit only; the exact points and their floats are
derived on demand.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, LayerNotNested, NonDivisibleBins, ValidationError
from .lattices import ConstructionALattice, PointGrid, on_grid


class Codebook(PointGrid):
    """The coset code of a nested lattice pair, in message order.

    Codeword m is unit * coords[m] with unit = scale / p and coords[m] the
    lattice's message_coords(m): every point lies in the half-open
    fundamental cell of the coarse lattice, so every coordinate lies in
    [-p/2, p/2): the codebook's peak is p // 2, with no scan.
    """

    def __init__(self, lattice: ConstructionALattice):
        super().__init__(lattice.unit, lattice.message_table, _bound=lattice.p // 2)
        self.lattice = lattice
        self.n = lattice.n

    @property
    def rate_per_dim(self) -> float:
        return math.log2(len(self)) / self.n

    @property
    def average_power(self) -> Fraction:
        """Mean squared coordinate over the codebook, exact."""
        values, counts = np.unique(self.coords, return_counts=True)
        acc = sum(int(v) * int(v) * int(c) for v, c in zip(values, counts))
        return self.unit**2 * acc / self.coords.size


def check_coset_budget(lattice: ConstructionALattice, budget) -> None:
    """Raise BudgetExceeded when the lattice's p^k cosets exceed the budget."""
    if lattice.num_cosets > budget:
        raise BudgetExceeded(
            f"{lattice.num_cosets} cosets exceed enumeration budget {budget}"
        )


def enumerate_codebook(lattice: ConstructionALattice, budget: int = 10**6) -> Codebook:
    """The lattice's codebook, once its p^k cosets fit the budget."""
    check_coset_budget(lattice, budget)
    return Codebook(lattice)


def scale_to_power(codebook: Codebook, power) -> Codebook:
    """Shrink a codebook so its dither's per-dimension power meets a budget.

    T is unimodular, so the coarse cell is the cube scale * [-1/2, 1/2)^n
    and a dither uniform on it has per-dimension power exactly scale^2 / 12
    (the normalised second moment of Z^n). If that fits, the codebook is
    returned unchanged. Otherwise the whole nested pair is rescaled by the
    largest dyadic rational r with r^2 * scale^2 / 12 <= power, so the
    constraint holds with certainty. Only the unit changes: the integer
    coordinates do not depend on the scale.
    """
    power = float(power)
    if math.isnan(power) or power <= 0:
        raise ValidationError("power", "power must be positive")
    if math.isinf(power):
        return codebook
    old = codebook.lattice
    moment = old.scale**2 / 12
    target = Fraction(power)
    if moment <= target:
        return codebook
    ratio = _floor_sqrt_fraction(target / moment)
    if ratio == 0:
        raise ValidationError(
            "power",
            f"power {power!r} is below {_sig3(moment / 2**80)}, the least "
            f"reachable at scale {_sig3(old.scale)}: the scale ratio resolves to 2^-40",
        )
    scaled = ConstructionALattice(
        old.p, old.code_matrix, old.transform, old.scale * ratio
    )
    return Codebook(scaled)


def _sig3(value: Fraction) -> str:
    """A positive rational to three significant digits, at any magnitude:
    decimal arithmetic with an unbounded exponent, so no float overflows."""
    ctx = decimal.Context(prec=3, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(decimal.Decimal(value.numerator), value.denominator):g}"


def _floor_sqrt_fraction(value: Fraction) -> Fraction:
    """Largest rational r = m / 2^40 with r*r <= value."""
    root = math.isqrt((value.numerator << 80) // value.denominator)
    return Fraction(root, 1 << 40)


class BinnedCodebook:
    """A codebook partitioned into equal-size bins by a seeded shuffle.

    bin_index[i] is the bin of codeword i; the bin index is the secret
    message, the position inside the bin is the random padding. The
    shuffle, default_rng(seed).permutation(|C|), is drawn when bin_index is
    first read, so a binning that is never read, such as the closed forms
    of joint_bin_sum, draws nothing. Binnings of one codebook with one seed
    share that shuffle: a caller that has drawn it may pass it as the
    private keyword _shuffle, and it is used as drawn.
    """

    def __init__(self, codebook: Codebook, num_bins: int, seed: int = 0, *, _shuffle=None):
        size = len(codebook)
        if num_bins < 1 or num_bins > size:
            raise ValidationError("num_bins", f"need 1 <= num_bins <= {size}")
        if size % num_bins != 0:
            raise NonDivisibleBins(f"{num_bins} bins do not divide {size} codewords")
        self.codebook = codebook
        self.num_bins = num_bins
        self.seed = int(seed)
        # default_rng(seed) seeds from this; making it here raises a bad
        # seed's error from the constructor
        self._seed_sequence = np.random.SeedSequence(self.seed)
        self._shuffle = _shuffle

    @cached_property
    def bin_index(self) -> np.ndarray:
        size = len(self.codebook)
        perm = self._shuffle
        if perm is None:
            perm = np.random.default_rng(self._seed_sequence).permutation(size)
        bin_index = np.empty(size, dtype=np.int64)
        bin_index[perm] = np.arange(size) // (size // self.num_bins)
        return bin_index

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
        _, (nearest, own) = on_grid(fine_lattice.quantize_fine(cb), cb)
        if not np.array_equal(nearest, own):
            raise LayerNotNested(i, "scaled layer leaves the shared fine lattice")
        layers.append(cb)
    return LayeredCodebook(fine_lattice, layers, pows)
