import itertools
import json
import random
import time

import pytest

from capedit.commands import (
    _recover_del_spans,
    MASK_TOKEN,
    Command,
    CommandKind,
    RESERVED_TOKENS,
    Operation,
    attributes_hold,
    check_reference,
    kind,
    make_positioned_reference,
    parse,
    serialize,
)
from capedit.errors import CommandError, ControlFormatError
from capedit.text import LanguageMode, TokenSeq, tokenize

from helpers import ATTR_WORDS, CAPTION_WORDS, random_caption
from oracles import recover_del_spans_backtracking

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR


def test_kind_covers_all_seven_combinations():
    assert kind(Command(Operation.ADD)) is CommandKind.ADD_LEN
    assert kind(Command(Operation.ADD, (1,))) is CommandKind.ADD_POS
    assert kind(Command(Operation.ADD, None, (("red",),))) is CommandKind.ADD_ATTR
    assert kind(Command(Operation.ADD, (1,), (("red",),))) is CommandKind.ADD_POS_ATTR
    assert kind(Command(Operation.DEL)) is CommandKind.DEL_LEN
    assert kind(Command(Operation.DEL, ((0, 1),))) is CommandKind.DEL_POS
    assert kind(Command(Operation.DEL, None, (("red",),))) is CommandKind.DEL_ATTR


def test_del_with_positions_and_attributes_is_rejected():
    with pytest.raises(CommandError):
        Command(Operation.DEL, ((0, 1),), (("red",),))


def test_position_validation():
    with pytest.raises(CommandError):
        Command(Operation.ADD, ())
    with pytest.raises(CommandError):
        Command(Operation.ADD, (-1,))
    with pytest.raises(CommandError):
        Command(Operation.ADD, (3, 1))
    with pytest.raises(CommandError):
        Command(Operation.ADD, (2, 2))
    with pytest.raises(CommandError):
        Command(Operation.DEL, ((2, 2),))
    with pytest.raises(CommandError):
        Command(Operation.DEL, ((0, 3), (2, 4)))
    # adjacent spans stay disjoint
    assert Command(Operation.DEL, ((0, 2), (2, 4))).positions == ((0, 2), (2, 4))
    # JSON-style ints only, each del position a pair; nothing is coerced
    for op, positions in (
        (Operation.ADD, (1.7,)),
        (Operation.ADD, (True,)),
        (Operation.ADD, ("1",)),
        (Operation.DEL, [3]),
        (Operation.ADD, 5),
        (Operation.DEL, 5),
        (Operation.DEL, ((0, 1.7),)),
        (Operation.DEL, ((True, 1),)),
        (Operation.DEL, (("0", "2"),)),
        (Operation.DEL, ((0, 1, 2),)),
    ):
        with pytest.raises(CommandError, match="bad command positions"):
            Command(op, positions)


def test_attribute_validation():
    # string phrases split on spaces
    assert Command(Operation.ADD, None, ("light blue",)).attributes == (("light", "blue"),)
    with pytest.raises(CommandError):
        Command(Operation.ADD, None, ())
    with pytest.raises(CommandError):
        Command(Operation.ADD, None, ((),))
    with pytest.raises(CommandError):
        Command(Operation.ADD, None, (("[MASK]",),))
    with pytest.raises(CommandError):
        Command(Operation.ADD, None, ((",",),))
    with pytest.raises(CommandError):
        Command(Operation.ADD, None, (("[r]",),))
    with pytest.raises(CommandError, match="bad attribute token"):
        Command(Operation.ADD, None, (("light blue",),))
    with pytest.raises(CommandError, match="bad attribute token"):
        Command(Operation.ADD, None, (("",),))


def test_attributes_hold_needs_all_phrases_for_add_and_none_for_del():
    hay = ("a", "red", "wooden", "table", ".")
    for phrases, add, del_ in [
        ((("red",), ("wooden", "table")), True, False),
        ((("red",), ("blue",)), False, False),
        ((("blue",), ("table", "wooden")), False, True),
    ]:
        assert attributes_hold(Operation.ADD, phrases, hay) is add
        assert attributes_hold(Operation.DEL, phrases, hay) is del_


def test_positioned_reference_weaves_gaps():
    ref = tokenize("A group of girls is playing a game .", WORD)
    posref = make_positioned_reference(ref, Command(Operation.ADD, (5,)))
    assert posref.tokens == (
        "A", "group", "of", "girls", "is", MASK_TOKEN, "playing", "a", "game", ".",
    )
    assert posref.mask_indexes() == (5,)
    assert posref.mask_count == 1
    assert posref.original == ref


def test_positioned_reference_gap_bounds():
    ref = tokenize("a b c", WORD)
    # gap L inserts after the last token
    posref = make_positioned_reference(ref, Command(Operation.ADD, (3,)))
    assert posref.tokens == ("a", "b", "c", MASK_TOKEN)
    with pytest.raises(CommandError):
        make_positioned_reference(ref, Command(Operation.ADD, (4,)))


def test_positioned_reference_collapses_spans():
    ref = tokenize("A group of girls is on the field playing a game .", WORD)
    posref = make_positioned_reference(ref, Command(Operation.DEL, ((6, 8),)))
    assert posref.tokens == (
        "A", "group", "of", "girls", "is", "on", MASK_TOKEN, "playing", "a", "game", ".",
    )
    with pytest.raises(CommandError):
        make_positioned_reference(ref, Command(Operation.DEL, ((6, 20),)))


def test_positioned_reference_length_identities():
    rng = random.Random(3)
    for _ in range(200):
        ref = random_caption(rng)
        L = len(ref)
        gaps = tuple(sorted(rng.sample(range(L + 1), rng.randint(1, 3))))
        posref = make_positioned_reference(ref, Command(Operation.ADD, gaps))
        assert len(posref.tokens) == L + len(gaps)
        bounds = sorted(rng.sample(range(L + 1), 2))
        span = (bounds[0], bounds[1])
        posref = make_positioned_reference(ref, Command(Operation.DEL, (span,)))
        assert len(posref.tokens) == L - (span[1] - span[0]) + 1


def test_reference_must_not_contain_reserved_tokens():
    bad = TokenSeq(("a", MASK_TOKEN, "b"), WORD)
    with pytest.raises(CommandError):
        serialize(Command(Operation.ADD), bad)
    with pytest.raises(CommandError):
        make_positioned_reference(TokenSeq(("[r]",), WORD), Command(Operation.ADD))


def test_check_reference_raises_what_make_positioned_reference_raises():
    rng = random.Random(19)
    words = CAPTION_WORDS[:6] + tuple(sorted(RESERVED_TOKENS))

    def outcome(check, ref, cmd):
        try:
            check(ref, cmd)
        except CommandError as exc:
            return str(exc)
        return None

    seen = set()
    for _ in range(2000):
        ref = TokenSeq(tuple(rng.choice(words) for _ in range(rng.randint(0, 6))), WORD)
        bound = len(ref) + 3
        op = rng.choice((Operation.ADD, Operation.DEL))
        if rng.random() < 0.2:
            positions = None
        elif op is Operation.ADD:
            positions = tuple(sorted(rng.sample(range(bound + 1), rng.randint(1, 2))))
        else:
            bounds = sorted(rng.sample(range(bound + 1), 4))
            positions = ((bounds[0], bounds[1]), (bounds[2], bounds[3]))[: rng.randint(1, 2)]
        cmd = Command(op, positions)
        expected = outcome(make_positioned_reference, ref, cmd)
        assert outcome(check_reference, ref, cmd) == expected, (ref, cmd)
        seen.add(expected.split()[0] if expected else None)
    assert seen == {None, "reference", "gap", "span"}


def test_golden_control_strings(data_dir):
    records = [
        json.loads(line)
        for line in (data_dir / "golden_controls.jsonl").read_text().splitlines()
    ]
    assert [r["kind"] for r in records] == [k.value for k in CommandKind]
    for rec in records:
        positions = rec["positions"]
        if positions is not None and rec["op"] == "del":
            positions = tuple((s, e) for s, e in positions)
        elif positions is not None:
            positions = tuple(positions)
        attributes = tuple(rec["attributes"]) if rec["attributes"] else None
        cmd = Command(Operation(rec["op"]), positions, attributes)
        assert kind(cmd).value == rec["kind"]
        ref = tokenize(rec["reference"], WORD)
        assert serialize(cmd, ref) == rec["control"]

        parsed, posref = parse(rec["control"], original_ref=ref)
        assert parsed.op is cmd.op
        assert parsed.attributes == cmd.attributes
        assert kind(parsed) is kind(cmd)
        assert posref.mask_count == (len(cmd.positions) if cmd.positions else 0)
        if cmd.positions is not None:
            assert parsed.positions == cmd.positions
        # re-rendering the parsed command reproduces the exact string
        assert serialize(parsed, ref) == rec["control"]


def test_parse_add_without_original():
    ctrl = "[o] [ADD] [/o] [a] field , hockey [/a] [r] A group of girls is [MASK] playing a game . [/r]"
    cmd, posref = parse(ctrl)
    assert kind(cmd) is CommandKind.ADD_POS_ATTR
    assert cmd.positions == (5,)
    assert cmd.attributes == (("field",), ("hockey",))
    assert posref.mask_indexes() == (5,)
    assert posref.original is not None
    assert posref.original.tokens == tuple("A group of girls is playing a game .".split())


def test_parse_del_without_original_assumes_single_token_spans():
    ctrl = "[o] [DEL] [/o] [a] [/a] [r] A group of girls is on [MASK] playing a game . [/r]"
    cmd, posref = parse(ctrl)
    assert kind(cmd) is CommandKind.DEL_POS
    assert cmd.positions == ((6, 7),)
    assert posref.original is None
    assert posref.mask_indexes() == (6,)


def test_parse_del_with_original_recovers_span_contents():
    ref = tokenize("A group of girls is on the field playing a game .", WORD)
    ctrl = serialize(Command(Operation.DEL, ((6, 8),)), ref)
    cmd, posref = parse(ctrl, original_ref=ref)
    assert cmd.positions == ((6, 8),)
    assert posref.original == ref


def test_parse_del_inconsistent_original_raises():
    ref = tokenize("a b", WORD)
    ctrl = "[o] [DEL] [/o] [a] [/a] [r] x [MASK] [/r]"
    with pytest.raises(ControlFormatError):
        parse(ctrl, original_ref=ref)


def _recovered_or_none(original, posref):
    try:
        return _recover_del_spans(original, posref)
    except ControlFormatError:
        return None


def test_recover_del_spans_matches_backtracking_exhaustively():
    # every positioned reference over {a, b, MASK} up to 5 tokens against
    # every original over {a, b, c} up to 5 tokens: 44,044 pairs
    def words(alphabet, max_len):
        for n in range(max_len + 1):
            yield from itertools.product(alphabet, repeat=n)

    originals = list(words("abc", 5))
    for posref in words(("a", "b", MASK_TOKEN), 5):
        for original in originals:
            assert _recovered_or_none(original, posref) == recover_del_spans_backtracking(
                original, posref
            ), (original, posref)


def test_recover_del_spans_matches_backtracking_on_random_shapes():
    rng = random.Random(11)
    for _ in range(300):
        original = tuple(rng.choice("ab") for _ in range(rng.randint(1, 14)))
        posref = list(original)
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(len(posref))
            end = rng.randint(start + 1, min(len(posref), start + 3))
            if MASK_TOKEN not in posref[start:end]:
                posref[start:end] = [MASK_TOKEN]
        if rng.random() < 0.3:
            posref[rng.randrange(len(posref))] = rng.choice("ab")
        posref = tuple(posref)
        assert _recovered_or_none(original, posref) == recover_del_spans_backtracking(
            original, posref
        ), (original, posref)


def test_parse_del_many_masks_with_mismatched_tail_within_budget():
    # every placement of the 8 masks fits until the last token, so the
    # backtracking search tries them all (about 45 s); the DP is linear
    ref = TokenSeq(("a",) * 40 + ("end",), WORD)
    ctrl = "[o] [DEL] [/o] [a] [/a] [r] " + "[MASK] a " * 8 + "other [/r]"
    start = time.perf_counter()
    with pytest.raises(ControlFormatError):
        parse(ctrl, original_ref=ref)
    assert time.perf_counter() - start < 1.0


def test_parse_del_on_ten_thousand_tokens_within_budget():
    # the recursive search raised RecursionError from about 3,000 tokens
    rng = random.Random(5)
    ref = TokenSeq(tuple(rng.choice(CAPTION_WORDS) for _ in range(10_000)), WORD)
    cmd = Command(Operation.DEL, ((10, 12), (5_000, 5_003), (9_990, 10_000)))
    ctrl = serialize(cmd, ref)
    start = time.perf_counter()
    parsed, posref = parse(ctrl, original_ref=ref)
    assert time.perf_counter() - start < 2.0
    assert make_positioned_reference(ref, parsed).tokens == posref.tokens
    assert parsed.positions[2] == (9_990, 10_000)
    with pytest.raises(ControlFormatError):
        parse(ctrl.replace(" [/r]", " extra [/r]"), original_ref=ref)


def test_parse_rejections():
    good = "[o] [ADD] [/o] [a] [/a] [r] a b [/r]"
    parse(good)
    with pytest.raises(ControlFormatError):
        parse("[o] [FLIP] [/o] [a] [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [a] [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [/o] [a] [MASK] [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [/o] [a] [r] x [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse(good + " extra")
    with pytest.raises(ControlFormatError, match="missing operation token"):
        parse("[o]")
    with pytest.raises(ControlFormatError, match="unexpected \\[a\\] inside reference block"):
        parse("[o] [ADD] [/o] [a] [/a] [r] a [a] [/r]")
    for ctrl in (good, "[o] [ADD] [/o] [a] [/a] [r] a [MASK] b [/r]", "[o] [DEL] [/o] [a] [/a] [r] a b [/r]"):
        with pytest.raises(ControlFormatError, match="reference block does not match"):
            parse(ctrl, original_ref=tokenize("a c", WORD))
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [/o] [a] red , , blue [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [/o] [a] red , [/a] [r] a [/r]")
    with pytest.raises(ControlFormatError):
        parse("[o] [ADD] [/o] [a] [/a] [r] a b")


def _random_command(rng: random.Random, k: CommandKind, L: int) -> Command:
    gaps = lambda n: tuple(sorted(rng.sample(range(L + 1), n)))
    attrs = lambda: tuple(
        tuple(rng.choice(ATTR_WORDS) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3))
    )
    if k is CommandKind.ADD_LEN:
        return Command(Operation.ADD)
    if k is CommandKind.ADD_POS:
        return Command(Operation.ADD, gaps(rng.randint(1, 3)))
    if k is CommandKind.ADD_ATTR:
        return Command(Operation.ADD, None, attrs())
    if k is CommandKind.ADD_POS_ATTR:
        return Command(Operation.ADD, gaps(rng.randint(1, 2)), attrs())
    if k is CommandKind.DEL_LEN:
        return Command(Operation.DEL)
    if k is CommandKind.DEL_POS:
        while True:
            bounds = sorted(rng.sample(range(L + 1), 2 * rng.randint(1, 2)))
            spans = tuple(
                (bounds[2 * i], bounds[2 * i + 1]) for i in range(len(bounds) // 2)
            )
            if sum(e - s for s, e in spans) < L:
                return Command(Operation.DEL, spans)
    return Command(Operation.DEL, None, attrs())


def test_codec_round_trip_randomized():
    rng = random.Random(23)
    for _ in range(400):
        k = rng.choice(tuple(CommandKind))
        ref = random_caption(rng)
        cmd = _random_command(rng, k, len(ref))
        ctrl = serialize(cmd, ref)
        parsed, posref = parse(ctrl, original_ref=ref)
        assert parsed.op is cmd.op
        assert kind(parsed) is k
        assert parsed.attributes == cmd.attributes
        expected_posref = make_positioned_reference(ref, cmd)
        assert posref.tokens == expected_posref.tokens
        assert posref.mask_indexes() == expected_posref.mask_indexes()
        if cmd.op is Operation.ADD and cmd.positions is not None:
            assert parsed.positions == cmd.positions
        # for del spans, recovery may legally pick a different cover of an
        # ambiguous string; re-rendering must still be byte-identical
        assert serialize(parsed, ref) == ctrl


def test_codec_round_trip_char_mode():
    ref = tokenize("一只狗在草地上跑。", CHAR)
    cmd = Command(Operation.ADD, (3,), (("棕", "色"),))
    ctrl = serialize(cmd, ref)
    assert ctrl == "[o] [ADD] [/o] [a] 棕 色 [/a] [r] 一 只 狗 [MASK] 在 草 地 上 跑 。 [/r]"
    parsed, posref = parse(ctrl, original_ref=ref, mode=CHAR)
    assert parsed.positions == (3,)
    assert parsed.attributes == (("棕", "色"),)
    assert posref.mode is CHAR
