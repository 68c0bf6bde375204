"""Language-aware tokenization and sequence primitives.

Two language modes: word-level (whitespace split with punctuation
detachment, for English-style captions) and character-level (one token
per non-space character, for Chinese-style captions).  Tokenization
preserves case; the metrics lowercase word-level tokens themselves via
normalized_tokens().
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable
from dataclasses import dataclass

from capedit import kernels

# characters detached from chunk edges as single-char tokens
PUNCT_CHARS = frozenset('.,!?;:"()\'')

# A word-mode token: one punctuation character, or a run of
# non-whitespace that starts and ends with a non-punctuation character,
# so edge punctuation comes off as single-char tokens while internal
# hyphens/apostrophes stay attached ("girl's" is one token).  \s is
# the whitespace of str.split() and str.isspace().  re compiles the
# pattern on the first call and caches it, so importing costs nothing.
_PUNCT = "".join(re.escape(c) for c in sorted(PUNCT_CHARS))
_WORD_TOKEN = rf"[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?"


class LanguageMode(enum.Enum):
    WORD = "en-word"
    CHAR = "zh-char"

    @classmethod
    def from_wire(cls, value: str) -> "LanguageMode":
        for mode in cls:
            if mode.value == value:
                return mode
        raise ValueError(f"unknown language mode {value!r}")


@dataclass(frozen=True, slots=True)
class TokenSeq:
    """An immutable token sequence tagged with its language mode."""

    tokens: tuple[str, ...]
    mode: LanguageMode

    def __post_init__(self) -> None:
        for tok in self.tokens:
            if not tok:
                raise ValueError("empty token")
            if any(ch.isspace() for ch in tok):
                raise ValueError(f"token contains whitespace: {tok!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _trusted_seq(tokens: tuple[str, ...], mode: LanguageMode) -> TokenSeq:
    """A TokenSeq without the token check, for tokens that cannot fail it:
    the matches of _WORD_TOKEN, which are non-empty runs of
    non-whitespace, or the characters of str.split()'s output (str.split(),
    the regex whitespace class and the check's isspace() agree on every
    code point), or a slice of an existing sequence's tokens."""
    seq = object.__new__(TokenSeq)
    object.__setattr__(seq, "tokens", tokens)
    object.__setattr__(seq, "mode", mode)
    return seq


def tokenize(text: str, mode: LanguageMode) -> TokenSeq:
    if mode is LanguageMode.WORD:
        return _trusted_seq(tuple(re.findall(_WORD_TOKEN, text)), mode)
    return _trusted_seq(tuple("".join(text.split())), mode)


def join(tokens: Iterable[str], mode: LanguageMode) -> str:
    """Tokens as text: space-separated in word mode, concatenated in char mode."""
    return (" " if mode is LanguageMode.WORD else "").join(tokens)


def detokenize(seq: TokenSeq) -> str:
    return join(seq.tokens, seq.mode)


def normalize(tokens: Iterable[str], mode: LanguageMode) -> tuple[str, ...]:
    """Raw tokens as compared by the metrics: lowercased in word mode."""
    if mode is LanguageMode.WORD:
        return tuple(t.lower() for t in tokens)
    return tuple(tokens)


def normalized_tokens(seq: TokenSeq) -> tuple[str, ...]:
    """A sequence's tokens as compared by the metrics; see normalize."""
    return normalize(seq.tokens, seq.mode)


def splice(tokens: tuple[str, ...], spans, fills) -> tuple[str, ...]:
    """tokens with each [s, e) span of spans replaced by the token run
    at the same place in fills, the spans sorted and pairwise disjoint;
    a gap g is the empty span (g, g)."""
    out: list[str] = []
    prev = 0
    for (s, e), fill in zip(spans, fills):
        out += tokens[prev:s]
        out += fill
        prev = e
    out += tokens[prev:]
    return tuple(out)


def find_phrase(hay: tuple[str, ...], phrase: tuple[str, ...]) -> int:
    """Index of the first occurrence of phrase in hay, or -1."""
    n = len(phrase)
    for i in range(len(hay) - n + 1):
        if hay[i : i + n] == phrase:
            return i
    return -1


def _check_modes(a, b) -> None:
    """Raise ValueError unless a and b, token or positioned-reference
    sequences, share a language mode."""
    if a.mode is not b.mode:
        raise ValueError(
            f"language mode mismatch: {a.mode.value} vs {b.mode.value}"
        )


def edit_distance(a: TokenSeq, b: TokenSeq) -> int:
    """Token-level Levenshtein distance with unit costs, raw tokens."""
    _check_modes(a, b)
    return kernels.edit_distance(a.tokens, b.tokens)


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Length of the longest common token subsequence, raw tokens."""
    _check_modes(a, b)
    return kernels.lcs_length(a.tokens, b.tokens)
