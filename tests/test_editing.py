import random

import pytest

from capedit.commands import Command, CommandKind, Operation, kind
from capedit.editing import (
    Round,
    RoundSource,
    Session,
    oracle_apply,
    payload_from_truth,
    session_step,
)
from capedit.errors import CommandError, OracleError
from capedit.metrics import EvalUnit, attr_acc, len_acc, pos_acc
from capedit.text import LanguageMode, TokenSeq, detokenize, tokenize

from helpers import make_sample

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR

REF = "A group of girls is playing a game ."


def _apply(cmd, text, payload=None, delta=1, mode=WORD):
    return detokenize(oracle_apply(cmd, tokenize(text, mode), payload, delta=delta))


def test_add_with_positions_and_attributes():
    cmd = Command(Operation.ADD, (5,), (("field",), ("hockey",)))
    assert _apply(cmd, REF) == "A group of girls is field hockey playing a game ."


def test_add_with_positions_uses_payload():
    cmd = Command(Operation.ADD, (0, 5), (("field",),))
    out = _apply(cmd, REF, payload=(("Today",), ("outside",)))
    assert out == "Today A group of girls is outside playing a game ."


def test_add_positions_payload_validation():
    cmd = Command(Operation.ADD, (0, 5))
    with pytest.raises(OracleError):
        _apply(cmd, REF)  # no attributes to fall back on
    with pytest.raises(OracleError):
        _apply(cmd, REF, payload=(("x",),))  # span count mismatch
    with pytest.raises(OracleError):
        _apply(cmd, REF, payload=(("x",), ()))  # empty span


def test_add_attribute_distribution_more_gaps_than_phrases():
    cmd = Command(Operation.ADD, (0, 5), (("field",),))
    assert _apply(cmd, REF) == "field A group of girls is field playing a game ."


def test_add_attribute_distribution_more_phrases_than_gaps():
    cmd = Command(Operation.ADD, (0, 5), (("a1",), ("a2",), ("a3",)))
    # earlier gaps take the extra phrases
    assert _apply(cmd, REF) == "a1 a2 A group of girls is a3 playing a game ."


def test_add_attributes_appends_before_trailing_punctuation():
    cmd = Command(Operation.ADD, None, (("field",), ("hockey",)))
    assert _apply(cmd, REF) == "A group of girls is playing a game field hockey ."
    no_punct = "A group of girls is playing a game"
    assert _apply(cmd, no_punct) == "A group of girls is playing a game field hockey"


def test_add_length_extends_with_payload():
    cmd = Command(Operation.ADD)
    out = _apply(cmd, REF, payload=(("in", "the"), ("park",)))
    assert out == "A group of girls is playing a game . in the park"
    with pytest.raises(OracleError):
        _apply(cmd, REF)
    with pytest.raises(OracleError):
        _apply(cmd, REF, payload=((),))


def test_del_with_positions():
    ref = "A group of girls is on the field playing a game ."
    cmd = Command(Operation.DEL, ((5, 8),))
    assert _apply(cmd, ref) == REF
    two = Command(Operation.DEL, ((0, 1), (5, 8)))
    assert _apply(two, ref) == "group of girls is playing a game ."


def test_del_positions_payload_is_verified():
    ref = "A group of girls is on the field playing a game ."
    cmd = Command(Operation.DEL, ((5, 8),))
    assert _apply(cmd, ref, payload=(("on", "the", "field"),)) == REF
    with pytest.raises(OracleError):
        _apply(cmd, ref, payload=(("in", "the", "field"),))
    with pytest.raises(OracleError):
        _apply(cmd, ref, payload=(("on",), ("the",)))


def test_del_attributes_removes_every_occurrence():
    cmd = Command(Operation.DEL, None, (("red",),))
    assert _apply(cmd, "a red car hits a red wall .") == "a car hits a wall ."
    # matching is case-insensitive in word mode
    assert _apply(cmd, "a Red car .") == "a car ."


def test_del_attributes_multiword_and_cascade():
    cmd = Command(Operation.DEL, None, (("red", "ball"),))
    assert _apply(cmd, "a red ball rolls .") == "a rolls ."
    # removing one occurrence may splice a new one together
    cascade = _apply(cmd, "a red red ball ball rolls .")
    assert cascade == "a rolls ."


def test_del_attributes_cannot_consume_everything():
    cmd = Command(Operation.DEL, None, (("red",), (".",)))
    with pytest.raises(OracleError):
        _apply(cmd, "red .")


def test_del_length_truncates_before_final_punctuation():
    ref = "A group of girls is on the field playing a game ."
    out = _apply(Command(Operation.DEL), ref)
    assert out == "A group of girls is on the field playing ."
    assert len(out.split()) == len(ref.split()) - 2
    deeper = _apply(Command(Operation.DEL), ref, delta=4)
    assert deeper == "A group of girls is on ."


def test_del_length_without_trailing_punctuation():
    assert _apply(Command(Operation.DEL), "a b c d e") == "a b c"


def test_del_length_too_short_raises():
    with pytest.raises(OracleError):
        _apply(Command(Operation.DEL), "a b .", delta=3)


def test_char_mode_editing():
    cmd = Command(Operation.ADD, (3,), (("棕", "色"),))
    ref = tokenize("一只狗在跑。", CHAR)
    out = oracle_apply(cmd, ref)
    assert detokenize(out) == "一只狗棕色在跑。"


def test_oracle_satisfies_its_own_commands():
    rng = random.Random(101)
    for k in CommandKind:
        for _ in range(25):
            sample = make_sample(rng, k, "v0")
            unit = EvalUnit(sample, sample.ground_truth)
            assert len_acc(unit), (k, sample)
            assert attr_acc(unit) in (True, None), (k, sample)
            assert pos_acc(unit) in (True, None), (k, sample)


def test_payload_from_truth_round_trip():
    cmd = Command(Operation.ADD)
    ref = tokenize("a b c .", WORD)
    truth = tokenize("a b c . near the park", WORD)
    payload = payload_from_truth(cmd, ref, truth)
    assert payload == (("near", "the", "park"),)
    assert oracle_apply(cmd, ref, payload) == truth


def test_payload_from_truth_validation():
    ref = tokenize("a b c .", WORD)
    truth = tokenize("a b c . d", WORD)
    with pytest.raises(OracleError):
        payload_from_truth(Command(Operation.ADD, (0,)), ref, truth)
    with pytest.raises(OracleError):
        payload_from_truth(Command(Operation.ADD), ref, ref)


def test_session_chains_rounds():
    session = Session("v1", tokenize(REF, WORD))
    assert session.current == session.initial

    session = session_step(
        session, Command(Operation.ADD, (5,), (("field",), ("hockey",)))
    )
    assert detokenize(session.current) == (
        "A group of girls is field hockey playing a game ."
    )
    session = session_step(session, Command(Operation.DEL, None, (("hockey",),)))
    assert detokenize(session.current) == "A group of girls is field playing a game ."
    session = session_step(session, Command(Operation.DEL))
    assert detokenize(session.current) == "A group of girls is field playing ."

    assert len(session.rounds) == 3
    assert session.rounds[0].reference == session.initial
    assert session.rounds[1].reference == session.rounds[0].edited
    assert session.rounds[2].reference == session.rounds[1].edited
    assert all(r.source is RoundSource.ORACLE for r in session.rounds)


def test_session_validates_positions_against_current_round():
    session = Session("v1", tokenize("a b .", WORD))
    session = session_step(session, Command(Operation.DEL, ((0, 2),)))
    assert detokenize(session.current) == "."
    with pytest.raises(CommandError):
        session_step(session, Command(Operation.ADD, (2,)), payload=(("x",),))


def test_session_accepts_external_hypotheses():
    session = Session("v1", tokenize("a b .", WORD))
    hyp = tokenize("a b c d .", WORD)
    session = session_step(session, Command(Operation.ADD), hypothesis=hyp)
    assert session.current == hyp
    assert session.rounds[-1].source is RoundSource.EXTERNAL
    with pytest.raises(ValueError):
        session_step(session, Command(Operation.ADD), hypothesis=tokenize("一", CHAR))
