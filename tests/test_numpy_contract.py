"""numpy's Generator and np.unique contracts, pinned where latsec relies on them.

Every Monte Carlo report, every seeded lattice and every binning encodes
numpy's SeedSequence, PCG64 and Generator algorithms. These tests pin a few
outputs of each Generator call latsec makes, with the arguments it makes
them with, so that a numpy release that changes one of them fails here by
name instead of as scattered golden diffs. The values were taken on
numpy 2.4.6. The sorted pair-sum build orders int64 sums with np.lexsort,
and mutual_info_sum and the tests' reference count rows with
np.unique(axis=0); the order each of them gives is pinned here too, on
numpy 1.x and 2.x alike.
"""

import numpy as np

from latsec.channel import TRIAL_BLOCK
from latsec.experiments import GRID_HALF_STEPS


def test_trial_stream_seeding_and_draws():
    # channel._trial_blocks: block b draws from default_rng([root_seed, b])
    # its messages with one scalar-bound integers(0, size, size=B) per
    # layer's size, for user 1 then user 2, the weak scheme's dither
    # uniforms with random((2, B, n)) and receiver 1's normals with
    # standard_normal((B, n)), each for a whole block, in that order
    rng = np.random.default_rng([7, 3])
    assert rng.bit_generator.state["state"] == {
        "state": 32432357684061543701087222144349624191,
        "inc": 150795630292607300648757720611875732857,
    }
    messages = [rng.integers(0, size, size=TRIAL_BLOCK) for size in (9, 3, 9, 3)]
    assert all(column.dtype == np.int64 for column in messages)
    assert [column[:4].tolist() for column in messages] == [
        [6, 8, 4, 7], [1, 1, 2, 2], [3, 2, 3, 5], [1, 0, 1, 2],
    ]
    assert [int(column[-1]) for column in messages] == [6, 0, 5, 1]
    uniforms = rng.random((2, TRIAL_BLOCK, 2))
    assert uniforms[0, 0].tolist() == [0.14998653114091165, 0.5965506249981121]
    assert uniforms[1, -1].tolist() == [0.6715465383561541, 0.20658555438132664]
    normals = rng.standard_normal((TRIAL_BLOCK, 2))
    assert normals[0].tolist() == [1.259375914453058, 1.1015645871892144]
    assert normals[-1].tolist() == [0.36009838931337895, 0.30592838413372975]


def test_trial_stream_wide_and_unit_bounds():
    # a size above 2^32 takes integers' 64-bit path; a size of 1 draws 0,
    # and the column after it shows what it left of the stream
    rng = np.random.default_rng([7, 3])
    messages = [rng.integers(0, size, size=TRIAL_BLOCK) for size in (2**32 + 1, 1, 2**32 + 1, 1)]
    assert [column[:2].tolist() for column in messages] == [
        [4187737226, 3799187355], [0, 0], [1237938396, 2840897525], [0, 0],
    ]
    assert not messages[1].any() and not messages[3].any()


def test_binning_permutation():
    # codebooks.BinnedCodebook, and experiments._theorem1_reports for the
    # binnings it shares one shuffle among: default_rng(seed).permutation(size)
    assert np.random.default_rng(5).permutation(12).tolist() == [
        9, 11, 1, 3, 2, 4, 6, 7, 0, 10, 5, 8,
    ]


def test_code_matrix_draw():
    # lattices.random_code_matrix: integers(0, p, size=(n, k)) on a list seed
    rng = np.random.default_rng([3, 2, 4, 0, 11])
    assert rng.integers(0, 3, size=(4, 2)).tolist() == [[1, 0], [2, 2], [1, 2], [0, 1]]


def test_unimodular_draw():
    # lattices.random_unimodular: integers and choice, one row operation;
    # the shear factor is (-2, -1, 1, 2)[integers(0, 4)]
    rng = np.random.default_rng([4, 0, 13])
    assert int(rng.integers(0, 3)) == 2
    assert rng.choice(4, size=2, replace=False).tolist() == [0, 2]
    assert int(rng.integers(0, 4)) == 3
    assert (-2, -1, 1, 2)[int(rng.integers(0, 4))] == 2


def test_shear_draw_is_the_choice_draw():
    # The shear factor was drawn as choice([-2, -1, 1, 2]); with replacement
    # and no weights, choice draws integers(0, 4), so the same seeds still
    # give the same matrices: the value and the generator state agree
    for seed in range(200):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        assert int(old.choice([-2, -1, 1, 2])) == (-2, -1, 1, 2)[int(new.integers(0, 4))]
        assert old.bit_generator.state == new.bit_generator.state


def test_baseline_grid_draw():
    # experiments.random_codebook_baseline: points on the step grid
    assert GRID_HALF_STEPS == 1773
    rng = np.random.default_rng([0, 0xBA5E])
    assert rng.integers(-1773, 1774, size=(3, 2)).tolist() == [
        [-224, -1068], [495, -1607], [-1250, 464],
    ]


def test_row_unique_orders_int64_rows_by_signed_value():
    # infotheory.mutual_info_sum counts the copies of each row with
    # np.unique(axis=0), and test_infotheory.py's reference structure ranks
    # int64 sum rows with it: the distinct rows come in lexicographic order
    # of their signed values, magnitudes near 2^62 and negative values
    # included; the inverse, read flat, maps each row to its distinct row,
    # and the counts count the copies
    big = 2**62
    rows = np.array([
        [big - 1, -3], [-big, 5], [0, -1], [-big, 5], [big - 1, -big],
        [0, -1], [-1, big - 1], [-big, -big], [0, -1],
    ], dtype=np.int64)
    distinct, inverse, counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    assert distinct.tolist() == [
        [-big, -big], [-big, 5], [-1, big - 1], [0, -1], [big - 1, -big], [big - 1, -3],
    ]
    assert counts.tolist() == [1, 2, 1, 3, 1, 1]
    assert inverse.size == len(rows)
    assert np.array_equal(distinct[inverse.reshape(-1)], rows)


def test_lexsort_orders_int64_columns_by_the_last_key_first():
    # infotheory._sorted_structure orders the pair sums past 2^63 keys with
    # np.lexsort of each column's int64 sums, given last column first: the
    # last key passed is the primary one, and each key orders by signed
    # value, magnitudes near 2^62 and negative values included
    big = 2**62
    first = np.array([big - 1, -big, 0, -big, big - 1, 0, -1, -big, 0], dtype=np.int64)
    second = np.array([-3, 5, -1, 5, -big, -1, big - 1, -big, -2], dtype=np.int64)
    order = np.lexsort([second, first])
    assert [(int(first[i]), int(second[i])) for i in order] == [
        (-big, -big), (-big, 5), (-big, 5), (-1, big - 1), (0, -2), (0, -1), (0, -1),
        (big - 1, -big), (big - 1, -3),
    ]
    assert sorted(order[1:3].tolist()) == [1, 3] and sorted(order[5:7].tolist()) == [2, 5]
