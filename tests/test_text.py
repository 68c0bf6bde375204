import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from capedit.text import (
    PUNCT_CHARS,
    LanguageMode,
    TokenSeq,
    detokenize,
    edit_distance,
    lcs_length,
    normalized_tokens,
    splice,
    tokenize,
)

from helpers import ATTR_WORDS, CAPTION_WORDS
from oracles import edit_distance_recursive, lcs_enumeration, tokenize_words_split

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR


def toks(text, mode=WORD):
    return tokenize(text, mode).tokens


def test_splice_fills_gaps_and_replaces_spans():
    tokens = ("a", "b", "c", "d")
    assert splice(tokens, [], []) == tokens
    assert splice(tokens, [(0, 0), (1, 3), (4, 4)], [("x",), (), ("y", "z")]) == (
        "x", "a", "d", "y", "z",
    )
    # a gap and the span it touches: the fill at the gap comes first
    assert splice(tokens, [(2, 2), (2, 4)], [("x",), ("y",)]) == ("a", "b", "x", "y")


def test_word_tokenize_basic():
    assert toks("A group of girls is playing a game.") == (
        "A", "group", "of", "girls", "is", "playing", "a", "game", ".",
    )
    seq = tokenize("A dog runs.", WORD)
    assert list(seq) == ["A", "dog", "runs", "."] and len(seq) == 4


def test_word_tokenize_detaches_edge_punctuation():
    assert toks('"Hello," she said.') == ('"', "Hello", ",", '"', "she", "said", ".")
    assert toks("(a red ball)") == ("(", "a", "red", "ball", ")")
    assert toks("wait...") == ("wait", ".", ".", ".")


def test_word_tokenize_keeps_internal_marks():
    assert toks("the girl's dog") == ("the", "girl's", "dog")
    assert toks("a well-known act") == ("a", "well-known", "act")


def test_char_tokenize():
    assert toks("一只 狗。", CHAR) == ("一", "只", "狗", "。")


def test_detokenize_joins_by_mode():
    assert detokenize(tokenize("a red ball .", WORD)) == "a red ball ."
    assert detokenize(tokenize("一 只 狗", CHAR)) == "一只狗"


@given(
    st.lists(
        st.sampled_from(CAPTION_WORDS + ATTR_WORDS + (".", ",", "girl's")),
        min_size=1,
        max_size=15,
    )
)
def test_word_round_trip(tokens):
    seq = TokenSeq(tuple(tokens), WORD)
    assert tokenize(detokenize(seq), WORD) == seq


def test_token_seq_rejects_bad_tokens():
    with pytest.raises(ValueError):
        TokenSeq(("a", ""), WORD)
    with pytest.raises(ValueError):
        TokenSeq(("a b",), WORD)


SPACE_CHARS = tuple(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


def test_str_split_and_isspace_agree():
    # tokenize skips TokenSeq's whitespace check on this agreement
    assert len(SPACE_CHARS) == 29
    assert ("x" + "x".join(SPACE_CHARS) + "x").split() == ["x"] * 30
    non_space = "".join(
        ch for ch in map(chr, range(sys.maxunicode + 1)) if not ch.isspace()
    )
    assert non_space.split() == [non_space]


def test_regex_whitespace_is_isspace():
    # the word tokenizer's regex splits on \s, and its tokens skip
    # TokenSeq's isspace() check on this agreement
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert tuple(re.findall(r"\s", every)) == SPACE_CHARS


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.text(
        alphabet=st.sampled_from(
            tuple(sorted(PUNCT_CHARS)) * 3
            + (" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
               "\u2028", "\u3000")
            + ("a", "B", "狗", "-", "é", "\x00", "\u200b", "[", "]", "\\")
        ),
        max_size=40,
    )
)
def test_word_tokenize_matches_the_split_oracle(text):
    # punctuation-heavy text with Unicode whitespace; \u200b and \x00
    # are not whitespace
    assert tokenize(text, WORD).tokens == tokenize_words_split(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.text(
        alphabet=st.sampled_from(
            SPACE_CHARS + tuple(sorted(PUNCT_CHARS)) + ("a", "B", "狗", "-", "é")
        ),
        max_size=40,
    ),
    st.sampled_from(list(LanguageMode)),
)
def test_tokenize_output_passes_the_public_check(text, mode):
    seq = tokenize(text, mode)
    assert TokenSeq(seq.tokens, mode) == seq


def test_normalized_tokens():
    assert normalized_tokens(tokenize("A Big DOG", WORD)) == ("a", "big", "dog")
    assert normalized_tokens(tokenize("一 只", CHAR)) == ("一", "只")


def test_edit_distance_known_values():
    a = tokenize("a b c", WORD)
    assert edit_distance(a, a) == 0
    assert edit_distance(a, tokenize("a x c", WORD)) == 1
    assert edit_distance(a, tokenize("a b c d e", WORD)) == 2
    assert edit_distance(tokenize("a", WORD), tokenize("b c d", WORD)) == 3


def test_edit_distance_is_case_sensitive_on_raw_tokens():
    assert edit_distance(tokenize("A dog", WORD), tokenize("a dog", WORD)) == 1


def _seq(tokens):
    return TokenSeq(tuple(tokens), WORD)


def test_edit_distance_matches_recursive_oracle():
    rng = random.Random(11)
    alphabet = ("a", "b", "c")
    for _ in range(300):
        x = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        y = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        assert edit_distance(_seq(x), _seq(y)) == edit_distance_recursive(x, y)


def test_edit_distance_metric_axioms():
    rng = random.Random(13)
    alphabet = ("a", "b", "c", "d")
    for _ in range(1000):
        x = _seq([rng.choice(alphabet) for _ in range(rng.randint(0, 12))])
        y = _seq([rng.choice(alphabet) for _ in range(rng.randint(0, 12))])
        z = _seq([rng.choice(alphabet) for _ in range(rng.randint(0, 12))])
        dxy = edit_distance(x, y)
        assert dxy == edit_distance(y, x)
        assert (dxy == 0) == (x.tokens == y.tokens)
        assert dxy <= edit_distance(x, z) + edit_distance(z, y)


def test_lcs_known_values():
    assert lcs_length(_seq("a b c d".split()), _seq("a b c d".split())) == 4
    assert lcs_length(_seq("a b c".split()), _seq("x y".split())) == 0
    assert lcs_length(_seq(list("abcbdab")), _seq(list("bdcaba"))) == 4


def test_lcs_matches_enumeration_oracle():
    rng = random.Random(17)
    alphabet = ("a", "b", "c")
    for _ in range(300):
        x = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        y = [rng.choice(alphabet) for _ in range(rng.randint(0, 10))]
        assert lcs_length(_seq(x), _seq(y)) == lcs_enumeration(x, y)


def test_mode_mismatch_raises():
    with pytest.raises(ValueError):
        edit_distance(tokenize("a", WORD), tokenize("a", CHAR))
    with pytest.raises(ValueError):
        lcs_length(tokenize("a", WORD), tokenize("a", CHAR))
