"""The pinned seeded generator: reference vectors and derived draws."""
from __future__ import annotations

import pytest

from tristar.rng import SplitMix64

# First outputs of the reference splitmix64 implementation for seed 0;
# published widely as the standard cross-check vector.
SEED0_VECTOR = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                0x06C45D188009454F, 0xF88BB8A8724C81EC)


def test_reference_vector_seed_zero():
    g = SplitMix64(0)
    assert tuple(g.next64() for _ in range(4)) == SEED0_VECTOR


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next64() == SplitMix64(0).next64()
    assert SplitMix64(-1).next64() == SplitMix64((1 << 64) - 1).next64()


def test_streams_are_deterministic_and_seed_dependent():
    a = [SplitMix64(42).next64() for _ in range(10)]
    b = [SplitMix64(42).next64() for _ in range(10)]
    c = [SplitMix64(43).next64() for _ in range(10)]
    assert a == b
    assert a != c


def test_below_range_and_determinism():
    g = SplitMix64(7)
    draws = [g.below(6) for _ in range(2000)]
    assert all(0 <= d < 6 for d in draws)
    assert set(draws) == set(range(6))  # all faces show up over 2000 rolls
    replay = SplitMix64(7)
    assert draws == [replay.below(6) for _ in range(2000)]


def test_below_one_is_always_zero():
    g = SplitMix64(3)
    assert [g.below(1) for _ in range(5)] == [0] * 5


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(1).below(0)


def test_chance_edges():
    g = SplitMix64(11)
    assert all(not g.chance(0, 5) for _ in range(20))
    assert all(g.chance(5, 5) for _ in range(20))


def test_unit_in_half_open_interval():
    g = SplitMix64(13)
    values = [g.unit() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 990  # 53-bit draws almost never collide


def test_shuffle_is_a_permutation():
    g = SplitMix64(17)
    items = list(range(30))
    g.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))  # astronomically unlikely to be identity
    again = list(range(30))
    SplitMix64(17).shuffle(again)
    assert again == items


def test_sample_sorted_distinct():
    g = SplitMix64(19)
    picked = g.sample(50, 10)
    assert picked == sorted(set(picked))
    assert len(picked) == 10
    assert all(0 <= v < 50 for v in picked)
    assert g.sample(5, 5) == list(range(5))
    assert g.sample(5, 0) == []


def test_sample_rejects_bad_k():
    with pytest.raises(ValueError, match="cannot draw"):
        SplitMix64(1).sample(3, 4)
    with pytest.raises(ValueError, match="cannot draw"):
        SplitMix64(1).sample(3, -1)


def test_below_rejects_bounds_above_two_to_the_64_without_drawing():
    # the rejection limit would be negative there, so no draw could ever be kept
    g = SplitMix64(1)
    for bound in (2**64 + 1, 10**20):
        with pytest.raises(ValueError, match=r"bound must be at most 2\*\*64"):
            g.below(bound)
    assert g.next64() == SplitMix64(1).next64()


def test_below_draws_at_large_bounds_are_pinned():
    # recorded before bounds above 2**64 were rejected
    g = SplitMix64(11)
    assert [g.below(b) for b in (2**64, 2**63 + 1, 3, 10**18, 2**64 - 1)] == \
        [5833679380957638813, 4839782808629744545, 0, 308485889748266480, 3047264704176347588]
    assert SplitMix64(9).below(2**64) == SplitMix64(9).next64()
