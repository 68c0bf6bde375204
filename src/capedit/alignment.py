"""Aligning a positioned reference against an edited caption.

The aligner runs a Levenshtein-style dynamic program in which every
[MASK] slot is a zero-cost wildcard absorbing a contiguous, possibly
empty run of hypothesis tokens.  Costs: match 0, substitution 1,
reference-token deletion 1, hypothesis-token insertion 1, mask
absorption 0.

Among minimum-cost alignments, ties are broken greedily from the left
by preferring, in order: absorbing a longer run into the current mask,
matching, substitution, deletion, insertion.  The tie-break is total,
so identical inputs always yield identical alignments; positional
accuracy depends on it and it is treated as part of the contract.

Word-mode tokens are compared lowercased; character-mode tokens are
compared as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

from capedit import kernels
from capedit.commands import MASK_TOKEN, PositionedReference
from capedit.text import TokenSeq, _check_modes, normalize, normalized_tokens


@dataclass(frozen=True)
class AlignmentResult:
    """pairs: matched (ref_index, hyp_index) pairs over the positioned
    reference, strictly increasing in both coordinates; mask_spans: one
    half-open hypothesis span per [MASK], in reference order; cost: the
    minimum edit cost."""

    pairs: tuple[tuple[int, int], ...]
    mask_spans: tuple[tuple[int, int], ...]
    cost: int


def dsa_align(posref: PositionedReference, hyp: TokenSeq) -> AlignmentResult:
    _check_modes(posref, hyp)
    ref: list[str | None] = [
        None if raw == MASK_TOKEN else t
        for raw, t in zip(posref.tokens, normalize(posref.tokens, posref.mode))
    ]
    cost, pairs, spans = kernels.dsa_ops(ref, normalized_tokens(hyp))
    return AlignmentResult(pairs, spans, cost)


def mask_span_lengths(result: AlignmentResult) -> list[int]:
    return [e - s for s, e in result.mask_spans]


def mask_span_tokens(result: AlignmentResult, hyp: TokenSeq) -> list[tuple[str, ...]]:
    return [hyp.tokens[s:e] for s, e in result.mask_spans]
