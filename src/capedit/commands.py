"""Triplet edit commands, positioned references, and the control codec.

A command is an (operation, positions, attributes) triplet.  Positions
and attributes are each optional, giving seven command kinds; the
(del, positions, attributes) combination is rejected.  Add positions
are gap indexes g in [0, L] (g tokens precede the insertion point);
del positions are half-open token spans [start, end), pairwise
disjoint.

Commands render to flat control strings with exactly one space between
tokens:

    [o] [ADD] [/o] [a] field , hockey [/a] [r] A group of girls is [MASK] playing a game . [/r]

Attribute phrases are separated by a standalone "," token; an empty
attribute block renders as "[a] [/a]".  Inside [r]..[/r] each [MASK]
marks an insertion gap (add) or a removed span (del).  The codec is
bit-exact: parse(serialize(c, r)) reproduces the command kind, the
operation, the attributes, and the mask indexes.  Parsing a del
control against its original caption recovers each removed span with
the kernels' token match table (kernels._match_masks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from capedit import kernels
from capedit.errors import CommandError, ControlFormatError
from capedit.text import LanguageMode, TokenSeq, find_phrase, splice

MASK_TOKEN = "[MASK]"
_OPERATION_TOKENS = {"add": "[ADD]", "del": "[DEL]"}
_BRACKETS = frozenset({"[o]", "[/o]", "[a]", "[/a]", "[r]", "[/r]"})
RESERVED_TOKENS = frozenset(_BRACKETS | {"[ADD]", "[DEL]", MASK_TOKEN})


class Operation(enum.Enum):
    ADD = "add"
    DEL = "del"


class CommandKind(enum.Enum):
    """The seven command kinds.  A value names the operation and the
    fields the command gives ("add_pos_attr"); op, has_pos, has_attr and
    the report label ("<add, pos, attr>") are read from it."""

    ADD_LEN = "add_len"
    ADD_POS = "add_pos"
    ADD_ATTR = "add_attr"
    ADD_POS_ATTR = "add_pos_attr"
    DEL_LEN = "del_len"
    DEL_POS = "del_pos"
    DEL_ATTR = "del_attr"

    def __init__(self, value: str) -> None:
        op, *given = value.split("_")
        self.op = Operation(op)
        self.has_pos = "pos" in given
        self.has_attr = "attr" in given
        self.label = f"<{op}, {'pos' if self.has_pos else '-'}, {'attr' if self.has_attr else '-'}>"


def _check_attr_token(tok: str) -> None:
    if not tok or any(ch.isspace() for ch in tok):
        raise CommandError(f"bad attribute token {tok!r}")
    if tok in RESERVED_TOKENS or tok == ",":
        raise CommandError(f"attribute token {tok!r} collides with the control grammar")


def _positions(op: Operation, positions) -> tuple:
    """positions as a tuple of JSON-style ints (not bools): gap indexes
    for add, (start, end) pairs for del."""
    try:
        # list comprehensions: a generator costs more per short tuple
        if op is Operation.ADD:
            pos = tuple(positions)
            ok = all([type(p) is int for p in pos])
        else:
            pos = tuple([(s, e) for s, e in positions])
            ok = all([type(s) is int and type(e) is int for s, e in pos])
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise CommandError(f"bad command positions {positions!r}")
    return pos


@dataclass(frozen=True, slots=True)
class Command:
    """Edit command triplet; positions/attributes None when unspecified."""

    op: Operation
    positions: tuple | None = None
    attributes: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        pos = self.positions
        if pos is not None:
            pos = _positions(self.op, pos)
            object.__setattr__(self, "positions", pos)
            if not pos:
                raise CommandError("positions, when given, must be non-empty")
            if self.op is Operation.ADD:
                if any(p < 0 for p in pos):
                    raise CommandError("add positions are non-negative gap indexes")
                if list(pos) != sorted(set(pos)):
                    raise CommandError("add positions must be strictly increasing")
            else:
                for s, e in pos:
                    if not 0 <= s < e:
                        raise CommandError(f"bad span ({s}, {e})")
                for (_, e1), (s2, _) in zip(pos, pos[1:]):
                    if e1 > s2:
                        raise CommandError("del spans must be sorted and disjoint")
        attrs = self.attributes
        if attrs is not None:
            attrs = tuple(
                tuple(a.split()) if isinstance(a, str) else tuple(a) for a in attrs
            )
            object.__setattr__(self, "attributes", attrs)
            if not attrs:
                raise CommandError("attributes, when given, must be non-empty")
            for phrase in attrs:
                if not phrase:
                    raise CommandError("empty attribute phrase")
                for tok in phrase:
                    _check_attr_token(tok)
        if self.op is Operation.DEL and pos is not None and attrs is not None:
            raise CommandError("the (del, positions, attributes) combination is not supported")


# keyed by bools, not by Operation: an Enum's hash runs in Python code
_KIND_OF = {(k.op is Operation.ADD, k.has_pos, k.has_attr): k for k in CommandKind}


def kind(cmd: Command) -> CommandKind:
    return _KIND_OF[cmd.op is Operation.ADD, cmd.positions is not None, cmd.attributes is not None]


@dataclass(frozen=True)
class PositionedReference:
    """Reference token stream with [MASK] slots marking edit locations.

    original is the mask-free reference when known; parsing a del
    control without the original caption leaves it None because the
    removed span contents are not recoverable from the control string.
    """

    tokens: tuple[str, ...]
    mode: LanguageMode
    original: TokenSeq | None
    mask_count: int

    def mask_indexes(self) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tokens) if t == MASK_TOKEN)


def check_reference(ref: TokenSeq, cmd: Command) -> None:
    """Raise CommandError unless cmd's positions can be woven into ref:
    no token of ref belongs to the control grammar, and the last gap or
    span lies inside it.  make_positioned_reference, EditSample,
    editing.oracle_apply and editing.session_step all run this one
    check; it builds nothing."""
    tokens = ref.tokens
    if not RESERVED_TOKENS.isdisjoint(tokens):
        tok = next(t for t in tokens if t in RESERVED_TOKENS)
        raise CommandError(f"reference token {tok!r} collides with the control grammar")
    pos = cmd.positions
    if pos is None:
        return
    L = len(tokens)
    if cmd.op is Operation.ADD:
        if pos[-1] > L:
            raise CommandError(f"gap {pos[-1]} out of range for length {L}")
    elif pos[-1][1] > L:
        raise CommandError(f"span {pos[-1]} out of range for length {L}")


def make_positioned_reference(ref: TokenSeq, cmd: Command) -> PositionedReference:
    """Weave [MASK] slots into ref according to the command positions,
    after check_reference: one at each add gap, one in place of each del
    span."""
    check_reference(ref, cmd)
    pos = cmd.positions
    if pos is None:
        return PositionedReference(ref.tokens, ref.mode, ref, 0)
    spans = [(g, g) for g in pos] if cmd.op is Operation.ADD else pos
    tokens = splice(ref.tokens, spans, [(MASK_TOKEN,)] * len(pos))
    return PositionedReference(tokens, ref.mode, ref, len(pos))


def attributes_hold(op: Operation, phrases, hay: tuple[str, ...]) -> bool:
    """Whether hay, normalized tokens, satisfies the attribute phrases,
    normalized alike: an add needs every phrase in hay as a contiguous
    run, a del needs none of them."""
    if op is Operation.ADD:
        return all(find_phrase(hay, p) >= 0 for p in phrases)
    return not any(find_phrase(hay, p) >= 0 for p in phrases)


def serialize(cmd: Command, ref: TokenSeq) -> str:
    """Render the command and reference as a flat control string."""
    posref = make_positioned_reference(ref, cmd)
    parts = ["[o]", _OPERATION_TOKENS[cmd.op.value], "[/o]", "[a]"]
    if cmd.attributes:
        for idx, phrase in enumerate(cmd.attributes):
            if idx:
                parts.append(",")
            parts.extend(phrase)
    parts.extend(("[/a]", "[r]"))
    parts.extend(posref.tokens)
    parts.append("[/r]")
    return " ".join(parts)


def _split_attr_phrases(toks: list[str]) -> tuple[tuple[str, ...], ...] | None:
    if not toks:
        return None
    phrases: list[tuple[str, ...]] = []
    cur: list[str] = []
    for t in toks:
        if t == ",":
            if not cur:
                raise ControlFormatError("empty attribute phrase in control string")
            phrases.append(tuple(cur))
            cur = []
        else:
            cur.append(t)
    if not cur:
        raise ControlFormatError("empty attribute phrase in control string")
    phrases.append(tuple(cur))
    return tuple(phrases)


def _recover_del_spans(
    original: tuple[str, ...], posref: tuple[str, ...]
) -> list[tuple[int, int]]:
    """Map each [MASK] in posref to a removed span of the original.

    Bit i of at[t], the kernels' match table of the original, is set
    when original[i] == t.  Bit i of reach[p] is set when posref[p:]
    matches original[i:], each mask covering at least one token.
    Reading forward, each mask takes the shortest span after which the
    rest can still match, so the spans are the leftmost-shortest ones;
    raises when the positioned reference is inconsistent with the
    original caption.
    """
    at = kernels._match_masks(original)
    reach = [0] * len(posref) + [1 << len(original)]
    for p in range(len(posref) - 1, -1, -1):
        rest = reach[p + 1]
        if posref[p] == MASK_TOKEN:
            # every i below the last index the rest can start from
            reach[p] = (1 << (rest.bit_length() - 1)) - 1 if rest else 0
        else:
            reach[p] = (rest >> 1) & at.get(posref[p], 0)
    if not reach[0] & 1:
        raise ControlFormatError("positioned reference is inconsistent with the original caption")
    spans = []
    i = 0
    for p, tok in enumerate(posref):
        if tok == MASK_TOKEN:
            ends = reach[p + 1] >> (i + 1)
            end = i + (ends & -ends).bit_length()
            spans.append((i, end))
            i = end
        else:
            i += 1
    return spans


def parse(
    ctrl: str,
    original_ref: TokenSeq | None = None,
    mode: LanguageMode = LanguageMode.WORD,
) -> tuple[Command, PositionedReference]:
    """Parse a control string back into a command and positioned reference.

    For del controls the span contents are recoverable only when
    original_ref is supplied; without it each mask is assumed to cover
    exactly one original token and PositionedReference.original is None.
    """
    toks = ctrl.split()
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(toks) or toks[pos] != tok:
            got = toks[pos] if pos < len(toks) else "<end of string>"
            raise ControlFormatError(f"expected {tok} at token {pos}, got {got}")
        pos += 1

    expect("[o]")
    if pos >= len(toks):
        raise ControlFormatError("missing operation token")
    op_tok = toks[pos]
    pos += 1
    if op_tok == "[ADD]":
        op = Operation.ADD
    elif op_tok == "[DEL]":
        op = Operation.DEL
    else:
        raise ControlFormatError(f"unknown operation token {op_tok}")
    expect("[/o]")
    expect("[a]")
    attr_toks: list[str] = []
    while pos < len(toks) and toks[pos] != "[/a]":
        if toks[pos] in _BRACKETS:
            raise ControlFormatError(f"unexpected {toks[pos]} inside attribute block")
        if toks[pos] == MASK_TOKEN:
            raise ControlFormatError("stray [MASK] outside the reference block")
        attr_toks.append(toks[pos])
        pos += 1
    expect("[/a]")
    expect("[r]")
    ref_toks: list[str] = []
    while pos < len(toks) and toks[pos] != "[/r]":
        if toks[pos] in _BRACKETS:
            raise ControlFormatError(f"unexpected {toks[pos]} inside reference block")
        ref_toks.append(toks[pos])
        pos += 1
    expect("[/r]")
    if pos != len(toks):
        raise ControlFormatError("trailing tokens after [/r]")

    attributes = _split_attr_phrases(attr_toks)
    mask_idx = [i for i, t in enumerate(ref_toks) if t == MASK_TOKEN]
    plain = tuple(t for t in ref_toks if t != MASK_TOKEN)

    if op is Operation.DEL and mask_idx:
        if original_ref is None:
            # original unknown: single-token spans keep the mask arithmetic valid
            positions = tuple((i, i + 1) for i in mask_idx)
        else:
            positions = tuple(_recover_del_spans(original_ref.tokens, tuple(ref_toks)))
        original = original_ref
    else:
        if original_ref is not None and original_ref.tokens != plain:
            raise ControlFormatError("reference block does not match the supplied original")
        positions = tuple(idx - rank for rank, idx in enumerate(mask_idx)) or None
        if op is Operation.DEL or original_ref is None:
            original = TokenSeq(plain, mode)
        else:
            original = original_ref
    cmd = Command(op, positions, attributes)
    return cmd, PositionedReference(tuple(ref_toks), mode, original, len(mask_idx))
