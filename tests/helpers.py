"""Shared test utilities: deterministic synthetic edit corpora.

The caption vocabulary and the attribute/payload vocabulary are
disjoint on purpose: inserted content then never collides with
reference tokens, so the minimum-cost alignment is unambiguous and the
positional check can be driven to 100% by construction.
"""

from __future__ import annotations

import random
from dataclasses import replace

from capedit.commands import Command, CommandKind, Operation
from capedit.construction import CaptionGroup, EditSample, Provenance
from capedit.editing import oracle_apply
from capedit.metrics import EvalUnit
from capedit.text import LanguageMode, TokenSeq

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR

CAPTION_WORDS = (
    "man", "woman", "girl", "boy", "dog", "cat", "group", "team", "person",
    "walks", "runs", "jumps", "plays", "rides", "holds", "throws", "watches",
    "a", "the", "is", "on", "in", "near", "with", "over", "around",
    "street", "park", "field", "water", "table", "room", "stage", "road",
    "ball", "bike", "game", "song",
)

ATTR_WORDS = (
    "red", "blue", "green", "yellow", "purple", "wooden", "metal", "plastic",
    "shiny", "striped", "tiny", "huge", "foggy", "noisy", "gentle", "rusty",
    "velvet", "marble", "neon", "crimson",
)

assert not set(CAPTION_WORDS) & set(ATTR_WORDS)


def random_caption(rng: random.Random, lo: int = 6, hi: int = 11) -> TokenSeq:
    toks = [rng.choice(CAPTION_WORDS) for _ in range(rng.randint(lo, hi))]
    toks.append(".")
    return TokenSeq(tuple(toks), WORD)


def _gaps(rng: random.Random, length: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(length + 1), count)))


def _del_spans(rng: random.Random, length: int, count: int) -> tuple[tuple[int, int], ...]:
    while True:
        bounds = sorted(rng.sample(range(length + 1), 2 * count))
        spans = tuple(
            (bounds[2 * i], bounds[2 * i + 1]) for i in range(count)
        )
        if sum(e - s for s, e in spans) < length:
            return spans


def _attr_phrases(rng: random.Random, count: int, max_words: int = 2):
    words = rng.sample(ATTR_WORDS, count * max_words)
    out = []
    for i in range(count):
        n = rng.randint(1, max_words)
        out.append(tuple(words[i * max_words : i * max_words + n]))
    return tuple(out)


def make_sample(
    rng: random.Random, kind: CommandKind, video_id: str, delta: int = 1
) -> EditSample:
    """One synthetic sample whose ground truth is the rule-based edit."""
    common = dict(id="", video_id=video_id, mode=WORD)

    if kind is CommandKind.ADD_LEN:
        ref = random_caption(rng)
        payload = (tuple(rng.choice(ATTR_WORDS) for _ in range(rng.randint(2, 5))),)
        cmd = Command(Operation.ADD)
        gt = oracle_apply(cmd, ref, payload, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.LENGTH_PAIR, **common,
        )

    if kind is CommandKind.ADD_POS:
        ref = random_caption(rng)
        gaps = _gaps(rng, len(ref), rng.randint(1, 2))
        payload = tuple(
            tuple(rng.choice(ATTR_WORDS) for _ in range(rng.randint(1, 3)))
            for _ in gaps
        )
        cmd = Command(Operation.ADD, gaps)
        gt = oracle_apply(cmd, ref, payload, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.REVERSAL, payload=payload, **common,
        )

    if kind is CommandKind.ADD_ATTR:
        ref = random_caption(rng)
        cmd = Command(Operation.ADD, None, _attr_phrases(rng, rng.randint(1, 2)))
        gt = oracle_apply(cmd, ref, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.RELAXATION, **common,
        )

    if kind is CommandKind.ADD_POS_ATTR:
        ref = random_caption(rng)
        gaps = _gaps(rng, len(ref), rng.randint(1, 2))
        cmd = Command(Operation.ADD, gaps, _attr_phrases(rng, rng.randint(1, 3)))
        gt = oracle_apply(cmd, ref, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.REVERSAL, **common,
        )

    if kind is CommandKind.DEL_LEN:
        ref = random_caption(rng, lo=9, hi=14)
        cmd = Command(Operation.DEL)
        gt = oracle_apply(cmd, ref, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.NEGATIVE_RETRIEVAL, **common,
        )

    if kind is CommandKind.DEL_POS:
        ref = random_caption(rng, lo=8, hi=12)
        spans = _del_spans(rng, len(ref), rng.randint(1, 2))
        payload = tuple(ref.tokens[s:e] for s, e in spans)
        cmd = Command(Operation.DEL, spans)
        gt = oracle_apply(cmd, ref, payload, delta=delta)
        return EditSample(
            command=cmd, reference=ref, ground_truth=gt,
            provenance=Provenance.DEGRADATION, payload=payload, **common,
        )

    assert kind is CommandKind.DEL_ATTR
    base = random_caption(rng, lo=6, hi=9)
    attrs = _attr_phrases(rng, rng.randint(1, 2), max_words=1)
    toks = list(base.tokens)
    for phrase in attrs:
        at = rng.randint(0, len(toks) - 1)
        toks[at:at] = list(phrase)
    ref = TokenSeq(tuple(toks), WORD)
    cmd = Command(Operation.DEL, None, attrs)
    gt = oracle_apply(cmd, ref, delta=delta)
    return EditSample(
        command=cmd, reference=ref, ground_truth=gt,
        provenance=Provenance.RELAXATION, **common,
    )


def make_samples(
    rng: random.Random,
    per_kind: int,
    kinds=tuple(CommandKind),
    delta: int = 1,
) -> list[EditSample]:
    out = []
    for kind in kinds:
        for i in range(per_kind):
            vid = f"v{i % max(per_kind // 3, 1):04d}"
            out.append(make_sample(rng, kind, vid, delta))
    return [replace(s, id=f"t{i:06d}") for i, s in enumerate(out)]


def _zipf_word(rank: int) -> str:
    """The vocabulary's rank-th word: "q" and rank in base-26 letters,
    alphabetic and never a stopword, so always a content token."""
    letters = ""
    while True:
        rank, digit = divmod(rank, 26)
        letters += chr(ord("a") + digit)
        if not rank:
            return "q" + letters


def zipf_pools(
    rng: random.Random, videos: int, vocabulary: int, cluster: int = 0
) -> list[CaptionGroup]:
    """Caption pools of ten captions over one shared content vocabulary
    whose word frequencies follow Zipf's law (rank r has weight 1/r), as
    real captions share frequent words such as "man" and "playing".  Each
    caption is "a", 3-8 content words and ".".  With cluster > 0 the
    videos come in topic clusters of that many, and half of a caption's
    content words are drawn from its cluster's dozen topic words, picked
    uniformly from the vocabulary, so similar videos share rarer words."""
    words = [_zipf_word(r) for r in range(vocabulary)]
    cum, total = [], 0.0
    for r in range(1, vocabulary + 1):
        total += 1 / r
        cum.append(total)
    topic: list[str] = []
    groups = []
    for v in range(videos):
        if cluster and v % cluster == 0:
            topic = rng.sample(words, 12)
        caps = []
        for _ in range(10):
            n = rng.randint(3, 8)
            own = rng.choices(topic, k=n // 2) if cluster else []
            content = own + rng.choices(words, cum_weights=cum, k=n - len(own))
            caps.append(TokenSeq(("a", *content, "."), WORD))
        groups.append(CaptionGroup(f"z{v:05d}", tuple(caps)))
    return groups


def make_units(
    rng: random.Random, per_kind: int, kinds=tuple(CommandKind), delta: int = 1
) -> list[EvalUnit]:
    """Units whose hypothesis is exactly the ground truth."""
    return [
        EvalUnit(s, s.ground_truth)
        for s in make_samples(rng, per_kind, kinds, delta)
    ]
