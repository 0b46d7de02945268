"""Tests for the splitmix64 stream."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcd.rng import SplitMix64, derive_seed
from blockcd.solvers import BlockOrder
from oracles import ReplaySplitMix64, normal, splitmix64_unmix, uniform


def test_known_stream_values():
    # Reference values for seed 0 of the splitmix64 sequence.
    gen = SplitMix64(0)
    first = [gen.next_uint64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_determinism_and_seed_sensitivity():
    a = [SplitMix64(42).next_uint64() for _ in range(5)]
    b = [SplitMix64(42).next_uint64() for _ in range(5)]
    c = [SplitMix64(43).next_uint64() for _ in range(5)]
    assert a == b
    assert a != c


def test_uniform_range():
    gen = SplitMix64(7)
    draws = [uniform(gen) for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_below_bounds_and_rejection():
    gen = SplitMix64(3)
    draws = [gen.below(10) for _ in range(1000)]
    assert set(draws) == set(range(10))
    with pytest.raises(ValueError):
        gen.below(0)


def test_permutation_is_a_permutation():
    gen = SplitMix64(11)
    for n in (1, 2, 5, 20):
        perm = gen.permutation(n)
        assert sorted(perm) == list(range(n))


def test_permutations_vary_across_stream():
    gen = SplitMix64(11)
    perms = {tuple(gen.permutation(6)) for _ in range(50)}
    assert len(perms) > 30


def test_normal_moments():
    gen = SplitMix64(5)
    sample = gen.normal_vector(20_000)
    assert abs(sample.mean()) < 0.03
    assert abs(sample.std() - 1.0) < 0.03


def test_normal_matrix_shape_and_determinism():
    a = SplitMix64(9).normal_matrix(4, 3)
    b = SplitMix64(9).normal_matrix(4, 3)
    assert a.shape == (4, 3)
    np.testing.assert_array_equal(a, b)


def test_derive_seed_changes_with_labels():
    assert derive_seed(1) == derive_seed(1)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2)


# ---------------------------------------------------------------------------
# Golden stream: SHA-256 digests of fixed call scripts.  The digests pin
# every output bit, the result types and the generator's final state and
# pending spare normal, so any change to the stream shows up here.

GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
GOLDEN_SEEDS = (0, 20150701, 0xD1B54A32D192ED03)  # the last is >= 2**63


def _digest(values, gen=None):
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(repr(value.shape).encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        elif isinstance(value, float):
            h.update(struct.pack("<d", value))
        else:
            h.update(repr(value).encode())
    if gen is not None:
        h.update(repr((gen._state, gen._spare_normal)).encode())
    return h.hexdigest()


def _normals(seed):
    gen = SplitMix64(seed)
    # odd and even lengths, each with and without a pending spare
    values = [gen.normal_vector(0), gen.normal_vector(7), gen.normal_vector(8),
              normal(gen), gen.normal_vector(6), gen.normal_vector(9),
              gen.normal_vector(9), normal(gen), normal(gen),
              gen.normal_vector(20_001), gen.normal_vector(1), gen.normal_vector(1)]
    return _digest(values, gen)


def _matrices(seed):
    gen = SplitMix64(seed)
    values = [gen.normal_matrix(r, c) for r, c in ((3, 5), (1, 1), (0, 4), (64, 64), (2, 3))]
    return _digest(values, gen)


def _permutation(seed):
    gen = SplitMix64(seed)
    return _digest([gen.permutation(n) for n in (0, 1, 2, 3, 5, 20, 100, 257)], gen)


def _permutations(seed):
    gen = SplitMix64(seed)
    shapes = ((5, 3), (20, 64), (100, 7), (1, 4), (0, 2), (2, 5), (3, 0))
    return _digest([gen.permutations(n, count) for n, count in shapes], gen)


def _stream(kind):
    def script(seed):
        stream = BlockOrder(kind, seed=seed).stream(20)
        return _digest([next(stream) for _ in range(64)])
    return script


GOLDEN_SCRIPTS = {
    "normals": _normals,
    "normal_matrix": _matrices,
    "permutation": _permutation,
    "permutations": _permutations,
    "stream_random_permutation": _stream("random_permutation"),
}

GOLDEN = {
    "normals": (
        "eab69d84098ca08aa4a4abdb3bf311fee4fedfeac34c3b9d5af8363845199e5d",
        "e3b641a4ffa7097c3d467bea83da4a0387945ad6554f31e8f687b97c36aeeec7",
        "1a85a4186cc56b77e4c20f7637c622ae6b2242805c66a2fe1a4164eb611fde63",
    ),
    "normal_matrix": (
        "3aa9a51fdb1a17eddc596f4d767554c0ab148b0d440227b0bff5ddd10ed5d993",
        "e5a3aaee20a66cf408b4a996326c18ae81387ceb9437ae052e7524e19d9bbae7",
        "ba2777c92a6afb56705c6fdb47703f3149178860a383529040954f7fc8548519",
    ),
    "permutation": (
        "5fd6284e5f50a61cdab790acd192ed6b8e47bf2377f36e389d0ce18efe301dba",
        "202a0cb102b780f985ff0dd345f27ee3afb95c91275b1604b46b96e8c5dd3032",
        "8ec78d326b28496e5377177ad4df94064b4767c4ab9cd1bdc78281ecb4434744",
    ),
    "permutations": (
        "564ed08a35c5d0c2f456fed0d892684740431a49efeb8bf8e18f94c9f1a610ac",
        "6219031b6ffbfcf9d053e6c29ddc5fcbea5c96efd658ab0ca7dd382fc25eb6e4",
        "8c8bd31b8df51f9689aeba3f6771fb5debeb444bd752dd70e00dba12f33bc6df",
    ),
    "stream_random_permutation": (
        "d8d4b0d874c0eb001548e04a2e930296e148fd83e23d740e09dfaffd5c4be1c6",
        "6e8cfc52847afeedba432a63bd02c282170068e6a741631a20c34a41f1ec849c",
        "3ba186e7c8dae4279067c43c43a9bde8b8473691746fee5e374075f1055dd4af",
    ),
}


@pytest.mark.parametrize("seed_index", range(len(GOLDEN_SEEDS)))
@pytest.mark.parametrize("script", sorted(GOLDEN_SCRIPTS))
def test_golden_stream(script, seed_index):
    digest = GOLDEN_SCRIPTS[script](GOLDEN_SEEDS[seed_index])
    assert digest == GOLDEN[script][seed_index]


# ---------------------------------------------------------------------------
# Block draws against the per-draw replay

def _assert_same_draw(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want
        assert repr(got) == repr(want)  # plain Python ints, not numpy scalars


def _assert_same_generator(gen, ref):
    assert gen._state == ref._state
    if ref._spare_normal is None:
        assert gen._spare_normal is None
    else:
        _assert_same_draw(gen._spare_normal, ref._spare_normal)


DRAWS = st.one_of(
    st.tuples(st.just("normal")),
    st.tuples(st.just("normal_vector"), st.integers(0, 64)),
    st.tuples(st.just("normal_matrix"), st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.just("permutation"), st.integers(0, 64)),
    st.tuples(st.just("permutations"), st.integers(0, 64), st.integers(0, 8)),
    st.tuples(st.just("below"), st.integers(1, 64)),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("next_uint64")),
)


# Single normals and uniforms are drawn through the generator by oracles.py.
TEST_SIDE_DRAWS = {"normal": normal, "uniform": uniform}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, MASK64), calls=st.lists(DRAWS, max_size=12))
def test_block_draws_match_replay(seed, calls):
    gen, ref = SplitMix64(seed), ReplaySplitMix64(seed)
    for name, *args in calls:
        draw = (TEST_SIDE_DRAWS[name](gen) if name in TEST_SIDE_DRAWS
                else getattr(gen, name)(*args))
        _assert_same_draw(draw, getattr(ref, name)(*args))
        _assert_same_generator(gen, ref)


@pytest.mark.parametrize("kind, method", [("random_permutation", "permutation")])
@pytest.mark.parametrize("block_count", [1, 2, 7, 20])
def test_block_order_stream_matches_replay(kind, method, block_count):
    # 150 cycles cross several batches of drawn-ahead orders
    stream = BlockOrder(kind, seed=99).stream(block_count)
    ref = ReplaySplitMix64(99)
    for _ in range(150):
        _assert_same_draw(next(stream), getattr(ref, method)(block_count))


# ---------------------------------------------------------------------------
# Rejection path: a state whose draw number ``index`` (0-based) is 2^64 - 1.
# That draw is rejected by below(n) for every n that is not a power of two.

def _state_with_top_draw(index):
    return (splitmix64_unmix(MASK64) - (index + 1) * GAMMA) & MASK64


@pytest.fixture
def below_calls(monkeypatch):
    calls = []
    below = SplitMix64.below

    def counting_below(self, n):
        calls.append(n)
        return below(self, n)

    monkeypatch.setattr(SplitMix64, "below", counting_below)
    return calls


def test_unmix_builds_the_top_draw():
    for index in (0, 1, 5):
        gen = SplitMix64(_state_with_top_draw(index))
        assert [gen.next_uint64() for _ in range(index + 1)][-1] == MASK64


@pytest.mark.parametrize("n, draws", [(3, 2), (6, 2), (100, 2), (8, 1), (1 << 20, 1)])
def test_below_rejects_the_top_draw(n, draws):
    start = _state_with_top_draw(0)
    gen, ref = SplitMix64(start), ReplaySplitMix64(start)
    assert gen.below(n) == ref.below(n)
    # a rejected draw costs one extra output; powers of two never reject
    assert gen._state == ref._state == (start + draws * GAMMA) & MASK64


@pytest.mark.parametrize("index", [0, 3, 9])
def test_permutation_rejection_matches_replay(index, below_calls):
    n = 12  # moduli 12, 11, ..., 2: draw ``index`` has modulus 12 - index
    start = _state_with_top_draw(index)
    gen, ref = SplitMix64(start), ReplaySplitMix64(start)
    _assert_same_draw(gen.permutation(n), ref.permutation(n))
    _assert_same_generator(gen, ref)
    assert gen._state == (start + n * GAMMA) & MASK64  # n - 1 draws plus one rejected
    assert below_calls  # the batch was redone through below()


@pytest.mark.parametrize("index", [0, 30, 46])
def test_permutations_rejection_matches_replay(index, below_calls):
    n, count = 13, 4  # draw 30 has modulus 7 and draw 46 modulus 3
    start = _state_with_top_draw(index)
    gen, ref = SplitMix64(start), ReplaySplitMix64(start)
    _assert_same_draw(gen.permutations(n, count), ref.permutations(n, count))
    _assert_same_generator(gen, ref)
    assert gen._state == (start + (count * (n - 1) + 1) * GAMMA) & MASK64
    assert len(below_calls) == count * (n - 1)


def test_no_rejection_without_below():
    # the batched paths call below() only to redo a batch that hit rejection
    gen = SplitMix64(5)
    calls = []
    gen.below = lambda n: calls.append(n)
    gen.permutations(30, 10)
    assert calls == []
