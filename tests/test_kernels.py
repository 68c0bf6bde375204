"""The kernels: the bit-parallel edit distance and LCS against the
cell-by-cell DP oracles, the public kernels on plain tokens, the aligner's edge
shapes, and the bit-parallel aligner against its full-table DP."""

import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedit import kernels
from oracles import OP_MASK, OP_MATCH, align_oracle, dsa_full_table, lcs_dp, levenshtein_dp


def test_facade_interning_handles_arbitrary_tokens():
    assert kernels.backend() == "python"
    assert kernels.edit_distance(("a", "b"), ("b", "a")) == 2
    assert kernels.lcs_length(("a", "b", "c"), ("b", "c", "d")) == 2
    assert kernels.dsa_ops(("a", None, "b"), ("a", "x", "b")) == (0, ((0, 0), (2, 2)), ((1, 2),))


@pytest.mark.parametrize(
    "ref, hyp",
    [
        ([], []),
        ([], ["a", "b"]),
        (["a", "b"], []),
        ([None], []),
        ([None], ["a", "b", "c"]),
        ([None, None], ["a"]),
        (["a", None, "a"], ["a", "a"]),
    ],
)
def test_dsa_edge_shapes_match_oracle(ref, hyp):
    cost, pairs, spans = kernels.dsa_ops(ref, hyp)
    assert (cost, spans, pairs) == align_oracle(ref, hyp)


def _tokens(rng, n, alphabet):
    return [f"t{rng.randrange(alphabet)}" for _ in range(n)]


def _check_pair(a, b):
    """Both kernels equal their DP oracle in both argument orders."""
    dist, lcs = levenshtein_dp(a, b), lcs_dp(a, b)
    assert kernels.edit_distance(a, b) == kernels.edit_distance(b, a) == dist
    assert kernels.lcs_length(a, b) == kernels.lcs_length(b, a) == lcs


# lengths around the 30-bit int digit and the 64/128-bit word boundaries
_LENGTHS = (0, 1, 2, 29, 30, 31, 62, 63, 64, 65, 66, 127, 128, 129)


@pytest.mark.parametrize("alphabet", [1, 2, 5, 300])
def test_bit_parallel_kernels_match_dp_across_lengths(alphabet):
    rng = random.Random(alphabet)
    for n in _LENGTHS:
        for m in _LENGTHS:
            _check_pair(_tokens(rng, n, alphabet), _tokens(rng, m, alphabet))


def test_bit_parallel_kernels_match_dp_on_random_pairs():
    rng = random.Random(7)
    for _ in range(300):
        alphabet = rng.choice((1, 2, 3, 8, 40, 1000))
        a = _tokens(rng, rng.randint(0, 140), alphabet)
        b = _tokens(rng, rng.randint(0, 140), alphabet)
        _check_pair(a, b)
        # a lightly edited copy: long common runs, like hypothesis vs truth
        c = list(a)
        for _ in range(rng.randint(0, 6)):
            if c and rng.random() < 0.5:
                del c[rng.randrange(len(c))]
            else:
                c.insert(rng.randint(0, len(c)), f"t{rng.randrange(alphabet)}")
        _check_pair(a, c)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129])
def test_bit_parallel_kernels_on_identical_disjoint_and_reversed_inputs(n):
    a = [f"t{i}" for i in range(n)]
    assert kernels.edit_distance(a, a) == 0
    assert kernels.lcs_length(a, a) == n
    disjoint = [f"u{i}" for i in range(n)]
    assert kernels.edit_distance(a, disjoint) == n
    assert kernels.lcs_length(a, disjoint) == 0
    _check_pair(a, a[::-1])
    _check_pair(a, disjoint[: n // 2])
    rng = random.Random(n)
    b = _tokens(rng, n, 3)
    _check_pair(b, b[::-1])


def test_bit_parallel_kernels_match_dp_beyond_a_thousand_tokens():
    rng = random.Random(11)
    a = _tokens(rng, 1100, 20)
    b = list(a)
    for _ in range(80):
        b[rng.randrange(len(b))] = f"t{rng.randrange(20)}"
    del b[500:540]
    _check_pair(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from("abcd"), max_size=80),
    st.lists(st.sampled_from("abcd"), max_size=80),
)
def test_bit_parallel_kernels_are_symmetric_and_match_dp(a, b):
    _check_pair(a, b)


def test_bit_parallel_kernels_on_ten_thousand_tokens_within_budget():
    # a fall-back to a cell-by-cell DP would take minutes here
    rng = random.Random(3)
    a = _tokens(rng, 10_000, 50)
    b = _tokens(rng, 10_000, 50)
    start = time.perf_counter()
    dist = kernels.edit_distance(a, b)
    lcs = kernels.lcs_length(a, b)
    assert time.perf_counter() - start < 2.0
    assert 0 < lcs < 10_000 and 10_000 - lcs <= dist <= 10_000
    assert kernels.edit_distance(a, a) == 0 and kernels.lcs_length(a, a) == 10_000


def _check_dsa(ref, hyp):
    """dsa_ops equals the full-table DP's cost, matched pairs and mask
    spans, each in order."""
    cost, ops = dsa_full_table(ref, hyp)
    pairs = tuple((op[1], op[2]) for op in ops if op[0] == OP_MATCH)
    spans = tuple((op[2], op[3]) for op in ops if op[0] == OP_MASK)
    assert kernels.dsa_ops(ref, hyp) == (cost, pairs, spans)


def test_dsa_matches_full_table_exhaustively():
    # every reference over {a, b, MASK} against every hypothesis over
    # {a, b, c}, each up to length 4
    for n in range(5):
        for ref in product(("a", "b", None), repeat=n):
            for m in range(5):
                for hyp in product("abc", repeat=m):
                    _check_dsa(ref, hyp)


def _masked(rng, n, alphabet, mask_share):
    return [None if rng.random() < mask_share else f"t{rng.randrange(alphabet)}" for _ in range(n)]


def test_dsa_matches_full_table_on_random_pairs():
    rng = random.Random(17)
    for _ in range(150):
        alphabet = rng.choice((1, 2, 3, 8, 40))
        share = rng.choice((0.0, 0.05, 0.2, 0.5))
        long = rng.random() < 0.3
        n = rng.randint(60, 200) if long else rng.randint(0, 14)
        m = rng.randint(60, 200) if long else rng.randint(0, 14)
        ref = _masked(rng, n, alphabet, share)
        _check_dsa(ref, _tokens(rng, m, alphabet + 1))
        # the hypothesis an add command asks for: the reference with a
        # run at each mask and a few edits elsewhere
        hyp = []
        for t in ref:
            hyp.extend(_tokens(rng, rng.randint(0, 3), alphabet + 1) if t is None else [t])
        for _ in range(rng.randint(0, 3)):
            if hyp:
                hyp[rng.randrange(len(hyp))] = f"t{rng.randrange(alphabet + 1)}"
        _check_dsa(ref, hyp)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_dsa_matches_full_table_across_word_boundaries(n):
    rng = random.Random(n)
    for m in (0, 1, 63, 64, 65, 127, 128, 129):
        _check_dsa(_masked(rng, n, 3, 0.1), _tokens(rng, m, 3))
        _check_dsa(_masked(rng, m, 3, 0.1), _tokens(rng, n, 3))


def test_dsa_on_three_thousand_tokens_within_budget():
    # a full-table DP fills and keeps 9 million cells here
    rng = random.Random(19)
    ref = [None if i % 250 == 100 else f"t{rng.randrange(50)}" for i in range(3000)]
    hyp = _tokens(rng, 3000, 50)
    start = time.perf_counter()
    _, pairs, spans = kernels.dsa_ops(ref, hyp)
    assert time.perf_counter() - start < 1.0
    assert len(spans) == ref.count(None)
    assert all(ref[i] == hyp[j] for i, j in pairs)
