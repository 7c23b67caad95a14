"""RawIntegers replays ``Generator.integers(0, k)`` draw for draw.

Each case draws a bound sequence once through numpy and once through
:class:`repro.utils.seed.RawIntegers` on a twin stream, after 0, 1 or 2
prior 32-bit draws (so the generator enters with no buffered half, a
buffered half, or a spent one).  Values, the bit generator's full state
afterwards, and the draws that follow must all be identical.
"""

import numpy as np
import pytest

from repro.utils.seed import RawIntegers

BOUNDS = {
    "one": [1, 1, 1],
    "small": [2, 3, 7, 10, 255, 1, 6],
    # Near 2**32 Lemire's rejection fires often: (2**32 - k) % k is about
    # 2**31 for k = 2**31 + 1.
    "near-2**32": [2 ** 32 - 1, 2 ** 31 + 1, 3 * 2 ** 30 + 7, 2 ** 32 - 3,
                   2 ** 32],
    "long": [k % 37 + 1 for k in range(300)],        # crosses pull blocks
    "past-32-bit": [5, 2 ** 33, 9, 2 ** 40 + 3, 4],  # handed to numpy
    "empty": [],
}


def _primed(seed, prior, bit_generator=np.random.PCG64):
    rng = np.random.Generator(bit_generator(seed))
    for _ in range(prior):
        rng.integers(0, 2 ** 31)          # one 32-bit half each
    return rng


def _same_state(x, y):
    """Bit-generator states are nested dicts (MT19937's holds an array)."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_state(x[k], y[k])
                                            for k in x)
    return np.array_equal(x, y)


def _assert_same_stream(a, b):
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.integers(0, 1000, size=5).tolist() == \
        b.integers(0, 1000, size=5).tolist()
    assert a.integers(0, 7) == b.integers(0, 7)
    assert a.random() == b.random()


@pytest.mark.parametrize("prior", [0, 1, 2])
@pytest.mark.parametrize("bounds", sorted(BOUNDS))
def test_matches_numpy_integers(bounds, prior):
    for seed in range(40):
        expected_rng, raw_rng = _primed(seed, prior), _primed(seed, prior)
        expected = [int(expected_rng.integers(0, k)) for k in BOUNDS[bounds]]
        with RawIntegers(raw_rng) as draw:
            got = [draw(k) for k in BOUNDS[bounds]]
        assert got == expected
        _assert_same_stream(expected_rng, raw_rng)


def test_rejection_path_is_exercised():
    # With k = 2**31 + 1 about half the halves are rejected: 200 draws take
    # more than the 100 words (200 halves) a rejection-free run would.
    rng = _primed(0, 0)
    with RawIntegers(rng) as draw:
        for _ in range(200):
            draw(2 ** 31 + 1)
    rejection_free = _primed(0, 0)
    rejection_free.bit_generator.advance(100)
    assert (rng.bit_generator.state["state"]
            != rejection_free.bit_generator.state["state"])


def test_invalid_bound_raises_like_numpy():
    expected_rng, raw_rng = _primed(3, 1), _primed(3, 1)
    expected_rng.integers(0, 9)
    with pytest.raises(ValueError):
        expected_rng.integers(0, 0)
    with pytest.raises(ValueError):
        with RawIntegers(raw_rng) as draw:
            draw(9)
            draw(0)
    _assert_same_stream(expected_rng, raw_rng)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.Philox,
                                           np.random.PCG64DXSM])
@pytest.mark.parametrize("prior", [0, 1])
def test_other_bit_generators_fall_back(bit_generator, prior):
    bounds = BOUNDS["small"] + BOUNDS["near-2**32"]
    expected_rng = _primed(11, prior, bit_generator)
    raw_rng = _primed(11, prior, bit_generator)
    expected = [int(expected_rng.integers(0, k)) for k in bounds]
    with RawIntegers(raw_rng) as draw:
        got = [draw(k) for k in bounds]
    assert got == expected
    _assert_same_stream(expected_rng, raw_rng)
