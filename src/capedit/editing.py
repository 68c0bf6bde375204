"""Deterministic rule-based command satisfier and editing sessions.

oracle_apply realizes a command with minimal mutilation of the
reference.  It witnesses that every command kind is mechanically
satisfiable (the controllability ceiling: 100% on the length /
attribute / positional checks); it makes no fluency or semantic
claims, and its outputs are not gold captions.

Sessions chain edits: round t edits the output of round t-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from capedit.commands import Command, CommandKind, check_reference, kind
from capedit.errors import OracleError
from capedit.text import PUNCT_CHARS, TokenSeq, find_phrase, normalize, splice

# sentence-final punctuation preserved by append/truncate rules
_TRAILING_PUNCT = PUNCT_CHARS | {"。", "！", "？"}

Payload = tuple[tuple[str, ...], ...]


def _has_trailing_punct(tokens: tuple[str, ...]) -> bool:
    return bool(tokens) and len(tokens[-1]) == 1 and tokens[-1] in _TRAILING_PUNCT


def _attr_blocks(cmd: Command, gap_count: int) -> list[list[str]]:
    """Distribute attribute phrases over gaps.

    With at least as many phrases as gaps the phrases are split into
    contiguous blocks (earlier gaps take the extras); with fewer
    phrases, gap i receives phrase min(i, last).  Either way every gap
    gets content and every phrase appears somewhere.
    """
    phrases = [list(p) for p in cmd.attributes]
    if len(phrases) >= gap_count:
        blocks: list[list[str]] = []
        base, extra = divmod(len(phrases), gap_count)
        start = 0
        for g in range(gap_count):
            size = base + (1 if g < extra else 0)
            block: list[str] = []
            for p in phrases[start : start + size]:
                block.extend(p)
            blocks.append(block)
            start += size
        return blocks
    return [phrases[min(g, len(phrases) - 1)] for g in range(gap_count)]


def oracle_apply(
    cmd: Command,
    ref: TokenSeq,
    payload: Payload | None = None,
    delta: int = 1,
) -> TokenSeq:
    """Apply cmd to ref mechanically; see the module docstring.

    payload supplies insertion content (one token span per position for
    positional adds, concatenated for length-only adds) and, for del
    with positions, optionally the expected removed content, which is
    then verified against the reference.
    """
    check_reference(ref, cmd)
    k = kind(cmd)
    toks = list(ref.tokens)

    if k in (CommandKind.ADD_POS, CommandKind.ADD_POS_ATTR):
        if payload is None:
            if k is CommandKind.ADD_POS:
                raise OracleError("add with positions requires an insertion payload")
            blocks = _attr_blocks(cmd, len(cmd.positions))
        else:
            if len(payload) != len(cmd.positions):
                raise OracleError(
                    f"payload has {len(payload)} spans for {len(cmd.positions)} positions"
                )
            blocks = payload
        if any(not b for b in blocks):
            raise OracleError("empty insertion span")
        return TokenSeq(splice(ref.tokens, [(g, g) for g in cmd.positions], blocks), ref.mode)

    if k is CommandKind.ADD_ATTR:
        block: list[str] = []
        for phrase in cmd.attributes:
            block.extend(phrase)
        at = len(toks) - 1 if _has_trailing_punct(tuple(toks)) else len(toks)
        toks[at:at] = block
        return TokenSeq(tuple(toks), ref.mode)

    if k is CommandKind.ADD_LEN:
        if payload is None:
            raise OracleError("length-only add requires an insertion payload")
        block = [t for span in payload for t in span]
        if not block:
            raise OracleError("empty insertion payload")
        toks.extend(block)
        return TokenSeq(tuple(toks), ref.mode)

    if k is CommandKind.DEL_POS:
        if payload is not None:
            if len(payload) != len(cmd.positions):
                raise OracleError(
                    f"payload has {len(payload)} spans for {len(cmd.positions)} positions"
                )
            for (s, e), span in zip(cmd.positions, payload):
                if ref.tokens[s:e] != tuple(span):
                    raise OracleError(
                        f"payload span {span!r} does not match reference span ({s}, {e})"
                    )
        return TokenSeq(splice(ref.tokens, cmd.positions, [()] * len(cmd.positions)), ref.mode)

    if k is CommandKind.DEL_ATTR:
        phrases = [normalize(p, ref.mode) for p in cmd.attributes]
        changed = True
        while changed:
            changed = False
            for phrase in phrases:
                idx = find_phrase(normalize(toks, ref.mode), phrase)
                if idx >= 0:
                    del toks[idx : idx + len(phrase)]
                    changed = True
        if not toks:
            raise OracleError("attribute removal consumed the whole caption")
        return TokenSeq(tuple(toks), ref.mode)

    # DEL_LEN: drop tokens before the final punctuation until the length
    # drops below len(ref) - delta
    keep_tail = 1 if _has_trailing_punct(ref.tokens) else 0
    target = len(ref) - delta
    while len(toks) >= target:
        if len(toks) - keep_tail <= 0:
            raise OracleError(
                f"cannot shorten a {len(ref)}-token caption below {target} tokens"
            )
        del toks[len(toks) - 1 - keep_tail]
    return TokenSeq(tuple(toks), ref.mode)


def payload_from_truth(cmd: Command, ref: TokenSeq, truth: TokenSeq) -> Payload:
    """Insertion payload for a length-only add, read off the ground truth.

    Used when a dataset record carries no payload (its ground truth is a
    real caption): the truth's surplus tail becomes the inserted
    content.  Only meaningful for add commands whose truth is longer
    than the reference.
    """
    if kind(cmd) is not CommandKind.ADD_LEN:
        raise OracleError("payload derivation is only defined for length-only adds")
    if len(truth) <= len(ref):
        raise OracleError("ground truth is not longer than the reference")
    return (tuple(truth.tokens[len(ref) :]),)


class RoundSource(enum.Enum):
    ORACLE = "oracle"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Round:
    command: Command
    reference: TokenSeq
    edited: TokenSeq
    source: RoundSource


@dataclass(frozen=True)
class Session:
    """A multi-round editing session over one video's caption."""

    video_id: str
    initial: TokenSeq
    rounds: tuple[Round, ...] = ()

    @property
    def current(self) -> TokenSeq:
        return self.rounds[-1].edited if self.rounds else self.initial


def session_step(
    session: Session,
    cmd: Command,
    hypothesis: TokenSeq | None = None,
    payload: Payload | None = None,
    delta: int = 1,
) -> Session:
    """Append one round; the edit comes from the oracle unless a
    hypothesis (e.g. a model output) is supplied."""
    ref = session.current
    if hypothesis is None:
        edited = oracle_apply(cmd, ref, payload, delta=delta)
        source = RoundSource.ORACLE
    else:
        check_reference(ref, cmd)  # positions must be valid for this round
        if hypothesis.mode is not ref.mode:
            raise ValueError("hypothesis language mode differs from the session")
        edited = hypothesis
        source = RoundSource.EXTERNAL
    new_round = Round(cmd, ref, edited, source)
    return Session(session.video_id, session.initial, session.rounds + (new_round,))
