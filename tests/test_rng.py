import math

from ikm.rng import SplitMix64

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Independent step-by-step transcription of the documented recurrence."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_documented_recurrence():
    gen = SplitMix64(42)
    assert [gen.next_raw() for _ in range(5)] == reference_stream(42, 5)


def test_streams_are_deterministic_per_seed():
    a = SplitMix64(7)
    b = SplitMix64(7)
    assert [a.next_raw() for _ in range(100)] == [b.next_raw() for _ in range(100)]
    assert SplitMix64(7).next_raw() != SplitMix64(8).next_raw()


def test_uniform_range_and_mean():
    gen = SplitMix64(3)
    us = [gen.uniform() for _ in range(20000)]
    assert all(0.0 <= u < 1.0 for u in us)
    mean = sum(us) / len(us)
    assert abs(mean - 0.5) < 0.01


def test_normal_moments_are_sane():
    gen = SplitMix64(11)
    zs = [gen.normal() for _ in range(20000)]
    mean = sum(zs) / len(zs)
    var = sum((z - mean) ** 2 for z in zs) / len(zs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(z) for z in zs)


def test_below_bounds_and_shuffle_determinism():
    gen = SplitMix64(5)
    vals = [gen.below(10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 9
    items1 = list(range(20))
    SplitMix64(9).shuffle(items1)
    items2 = list(range(20))
    SplitMix64(9).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(20))


def test_normals_batch_matches_documented_box_muller():
    # the batch reproduces scalar Box-Muller over the documented raw stream,
    # with math's functions, and leaves the stream where scalar draws would
    seed, count = 2**64 - 3, 5000  # more than one vectorized batch
    raw = reference_stream(seed, 2 * count + 1)
    u = [(r >> 11) * 2.0 ** -53 for r in raw]
    expected = [math.sqrt(-2.0 * math.log(1.0 - u[2 * i])) * math.cos(2.0 * math.pi * u[2 * i + 1])
                for i in range(count)]
    gen = SplitMix64(seed)
    assert gen.normals(count).tolist() == expected
    assert gen.next_raw() == raw[-1]
    gen = SplitMix64(seed)
    assert gen.normals(0).tolist() == []
    assert [gen.normal() for _ in range(3)] == expected[:3]
