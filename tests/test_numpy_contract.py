"""numpy's Generator contract, pinned where latsec relies on it.

Every Monte Carlo report, every seeded lattice and every binning encodes
numpy's SeedSequence, PCG64 and Generator algorithms. These tests pin a few
outputs of each Generator call latsec makes, with the arguments it makes
them with, so that a numpy release that changes one of them fails here by
name instead of as scattered golden diffs. The values were taken on
numpy 2.4.6.
"""

import numpy as np

from latsec.channel import _ZIG_KI, _ZIG_WI
from latsec.experiments import GRID_HALF_STEPS

import oracles


def test_trial_stream_seeding_and_draws():
    # channel.trial_rng: default_rng([root_seed, trial_index]); the trial
    # draws messages with integers, dithers with random, noise with
    # standard_normal, in that order
    rng = np.random.default_rng([7, 3])
    assert rng.bit_generator.state["state"] == {
        "state": 32432357684061543701087222144349624191,
        "inc": 150795630292607300648757720611875732857,
    }
    assert [int(rng.integers(9)) for _ in range(4)] == [6, 8, 4, 7]
    assert rng.random(2).tolist() == [0.23197043322658195, 0.7312624263827884]
    assert rng.standard_normal(3).tolist() == [
        -0.41154969128643465, 0.40432197965195565, -1.5239942546930803,
    ]


def test_trial_stream_raw_words():
    # channel._trial_blocks computes these 64-bit outputs from the start
    # state pinned above and turns them into the integers and random draws
    bit_gen = np.random.default_rng([7, 3]).bit_generator
    assert bit_gen.random_raw(3).tolist() == [
        17986194428743177670, 16317385439118320161, 4279099214398288542,
    ]


def test_ziggurat_tables():
    # channel._fast_normals draws standard_normal's fast path from these
    # tables: an output r = rabs 2^9 + sign 2^8 + idx gives +-rabs wi[idx],
    # accepted when rabs < ki[idx]. Both are re-derived here from numpy's
    # own draws. wi[idx] is the normal at rabs = 1 (layer 1 rejects it, but
    # so small a normal passes the wedge test); ki[idx] is the least rabs
    # that takes more than the one output.
    wi, ki = [], []
    for idx in range(256):
        wi.append(oracles.normal_from_output(1 << 9 | idx)[0])
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            if oracles.normal_from_output(mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    assert ki[1] == 0
    assert ki == _ZIG_KI.tolist()
    assert [float.hex(w) for w in wi] == [float.hex(w) for w in _ZIG_WI.tolist()]


def test_binning_permutation():
    # codebooks.BinnedCodebook: default_rng(seed).permutation(size)
    assert np.random.default_rng(5).permutation(12).tolist() == [
        9, 11, 1, 3, 2, 4, 6, 7, 0, 10, 5, 8,
    ]


def test_code_matrix_draw():
    # lattices.random_code_matrix: integers(0, p, size=(n, k)) on a list seed
    rng = np.random.default_rng([3, 2, 4, 0, 11])
    assert rng.integers(0, 3, size=(4, 2)).tolist() == [[1, 0], [2, 2], [1, 2], [0, 1]]


def test_unimodular_draw():
    # lattices.random_unimodular: integers and choice, one row operation
    rng = np.random.default_rng([4, 0, 13])
    assert int(rng.integers(0, 3)) == 2
    assert rng.choice(4, size=2, replace=False).tolist() == [0, 2]
    assert int(rng.integers(0, 4)) == 3
    assert int(rng.choice([-2, -1, 1, 2])) == 2


def test_baseline_grid_draw():
    # experiments.random_codebook_baseline: points on the step grid
    assert GRID_HALF_STEPS == 1773
    rng = np.random.default_rng([0, 0xBA5E])
    assert rng.integers(-1773, 1774, size=(3, 2)).tolist() == [
        [-224, -1068], [495, -1607], [-1250, 464],
    ]
