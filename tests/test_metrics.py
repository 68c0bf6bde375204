import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedit import kernels, metrics
from capedit.commands import Command, CommandKind, Operation, kind
from capedit.construction import EditSample, Provenance
from capedit.metrics import (
    EvalUnit,
    _overlap_counts,
    attr_acc,
    evaluate_corpus,
    format_report_table,
    len_acc,
    pos_acc,
    rouge_l_score,
    sari_score,
)
from capedit.text import LanguageMode, TokenSeq, normalized_tokens, tokenize

from helpers import ATTR_WORDS, CAPTION_WORDS, make_samples, make_units, random_caption
from oracles import evaluate_corpus_two_pass, overlap_counts_dicts, sari_independent

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR


def _sample(cmd, ref_text, gt_text, **kw):
    return EditSample(
        id="x0",
        video_id="v0",
        mode=WORD,
        command=cmd,
        reference=tokenize(ref_text, WORD),
        ground_truth=tokenize(gt_text, WORD),
        provenance=Provenance.LENGTH_PAIR,
        **kw,
    )


def _unit(cmd, ref_text, gt_text, hyp_text):
    return EvalUnit(_sample(cmd, ref_text, gt_text), tokenize(hyp_text, WORD))


def test_len_acc_add_boundary():
    unit = _unit(Command(Operation.ADD), "a b c .", "a b c d e .", "a b c d .")
    assert len_acc(unit)  # 5 >= 4 + 1
    short = _unit(Command(Operation.ADD), "a b c .", "a b c d e .", "a b c .")
    assert not len_acc(short)
    assert not len_acc(unit, delta=2)


def test_len_acc_del_boundary():
    unit = _unit(Command(Operation.DEL), "a b c d .", "a b .", "a b c .")
    assert len_acc(unit)  # 4 <= 5 - 1
    same = _unit(Command(Operation.DEL), "a b c d .", "a b .", "a b c d .")
    assert not len_acc(same)


def test_attr_acc_add():
    cmd = Command(Operation.ADD, None, (("red",), ("wooden", "table")))
    hit = _unit(cmd, "a b .", "a Red wooden table b .", "a Red wooden table b .")
    assert attr_acc(hit) is True  # case-insensitive, phrase contiguous
    split = _unit(cmd, "a b .", "a red wooden table b .", "a red b wooden table .")
    assert attr_acc(split) is True
    missing = _unit(cmd, "a b .", "a red wooden table b .", "a red table b .")
    assert attr_acc(missing) is False  # "wooden table" not contiguous


def test_attr_acc_del():
    cmd = Command(Operation.DEL, None, (("red",),))
    gone = _unit(cmd, "a red b .", "a b .", "a b .")
    assert attr_acc(gone) is True
    still = _unit(cmd, "a red b .", "a b .", "a Red b .")
    assert attr_acc(still) is False


def test_attr_acc_not_applicable():
    assert attr_acc(_unit(Command(Operation.ADD), "a .", "a b .", "a b .")) is None
    assert attr_acc(_unit(Command(Operation.ADD, (1,)), "a .", "a b .", "a b .")) is None
    assert attr_acc(_unit(Command(Operation.DEL, ((0, 1),)), "a b .", "b .", "b .")) is None
    assert attr_acc(_unit(Command(Operation.DEL), "a b c .", "a .", "a .")) is None


def test_pos_acc_applicability():
    assert pos_acc(_unit(Command(Operation.ADD), "a .", "a b .", "a b .")) is None
    assert pos_acc(_unit(Command(Operation.DEL, ((0, 1),)), "a b .", "b .", "b .")) is None
    attr_only = Command(Operation.ADD, None, (("red",),))
    assert pos_acc(_unit(attr_only, "a .", "red a .", "red a .")) is None


def test_pos_acc_judges_mask_fill():
    cmd = Command(Operation.ADD, (1,))
    filled = _unit(cmd, "a b c d .", "a red b c d .", "a red b c d .")
    assert pos_acc(filled) is True
    unfilled = _unit(cmd, "a b c d .", "a red b c d .", "a b c d .")
    assert pos_acc(unfilled) is False
    far_away = _unit(cmd, "a b c d .", "a red b c d .", "a b c red d .")
    assert pos_acc(far_away) is False


def test_pos_acc_absorbs_adjacent_spillover():
    # inserting right after the gap ties in cost with inserting at the
    # gap; the longest-absorption tie-break then credits the mask
    cmd = Command(Operation.ADD, (1,))
    adjacent = _unit(cmd, "a b .", "a red b .", "a b red .")
    assert pos_acc(adjacent) is True


def test_sari_frozen_hand_case():
    src = ("a", "b", "c", "d")
    gt = ("a", "b", "e", "d")
    value = sari_score(src, src, gt)
    assert abs(value - 19 / 168) < 1e-12
    assert abs(value - 0.11309523809523809) < 1e-9


def test_sari_identity_is_exactly_one():
    rng = random.Random(41)
    for _ in range(50):
        toks = tuple(random_caption(rng).tokens)
        gt = toks[: len(toks) - 1] + ("extra", ".")
        assert sari_score(toks, gt, gt) == 1.0


def test_sari_identity_with_duplicate_ngrams():
    src = ("a", "a", "b")
    gt = ("a", "b")
    assert sari_score(src, gt, gt) == 1.0


def test_sari_matches_independent_calculator():
    rng = random.Random(43)
    vocab = ("a", "b", "c", "d", "e")
    for _ in range(300):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        gt = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        got = sari_score(tuple(src), tuple(hyp), tuple(gt))
        want = sari_independent(src, hyp, gt)
        assert abs(got - want) < 1e-9


_SEQ = st.lists(st.sampled_from(("a", "b", "c", "dd")), max_size=14).map(tuple)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_SEQ, _SEQ, _SEQ)
def test_overlap_counts_match_dict_oracle(source, hypothesis, truth):
    # a four-token alphabet repeats n-grams often, and any side may be empty
    assert _overlap_counts(source, hypothesis, truth) == overlap_counts_dicts(
        source, hypothesis, truth
    )


def test_overlap_counts_hand_case():
    # S = a a b, C = a b b, G = a a; unigrams: S&C = {a, b}, S&G = {a, a}
    o = _overlap_counts(("a", "a", "b"), ("a", "b", "b"), ("a", "a"))
    assert o[0] == (3, 3, 2, 2, 2, 1, 0, 0, 1)
    assert o[1] == (2, 2, 1, 1, 1, 0, 0, 0, 0)
    assert o[3] == (0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_rouge_l_hand_case():
    value = rouge_l_score(("a", "b", "c"), ("a", "c"))
    assert abs(value - 0.8299) < 1e-4
    assert abs(value - 0.8299319727891157) < 1e-12


def test_rouge_l_edges():
    assert rouge_l_score((), ("a",)) == 0.0
    assert rouge_l_score(("a",), ()) == 0.0
    assert rouge_l_score(("a", "b"), ("a", "b")) == 1.0
    assert rouge_l_score(("a", "b"), ("x", "y")) == 0.0


def bleu4(units):
    return evaluate_corpus(units).overall.bleu4


def test_bleu_identity():
    units = make_units(random.Random(47), 5)
    assert bleu4(units) == 1.0


def test_bleu_brevity_penalty_hand_case():
    unit = _unit(Command(Operation.ADD), "a b c d", "a b c d e", "a b c d")
    want = math.exp(1.0 - 5.0 / 4.0)
    assert abs(bleu4([unit]) - want) < 1e-12


def test_bleu_clipping_zeroes_higher_orders():
    unit = _unit(Command(Operation.ADD), "x", "the cat", "the the the")
    assert bleu4([unit]) == 0.0  # no bigram matches at all


def test_bleu_skips_orders_with_no_ngrams():
    unit = _unit(Command(Operation.ADD), "x", "a", "a")
    assert bleu4([unit]) == 1.0  # only unigrams exist, all matched


def test_bleu_is_corpus_level():
    units = [
        _unit(Command(Operation.ADD), "x", "a b c d e", "a b c d"),
        _unit(Command(Operation.ADD), "x", "p q r", "p q r s t"),
    ]
    # pooled counts, not a mean of per-sentence scores
    assert bleu4(units) == bleu4(units + units)
    assert bleu4(units) != (bleu4(units[:1]) + bleu4(units[1:])) / 2.0
    with pytest.raises(ValueError, match="empty corpus"):
        bleu4([])


def test_evaluate_corpus_rows_and_applicability():
    units = make_units(random.Random(53), 4)
    report = evaluate_corpus(units)
    kinds = [r.kind for r in report.rows]
    assert kinds == [k.value for k in (
        CommandKind.ADD_LEN, CommandKind.ADD_POS, CommandKind.ADD_ATTR,
        CommandKind.ADD_POS_ATTR, CommandKind.DEL_LEN, CommandKind.DEL_POS,
        CommandKind.DEL_ATTR,
    )]
    by_kind = {r.kind: r for r in report.rows}
    assert by_kind["add_len"].attr_acc is None
    assert by_kind["add_len"].pos_acc is None
    assert by_kind["add_pos"].pos_acc == 100.0
    assert by_kind["add_pos"].attr_acc is None
    assert by_kind["add_attr"].attr_acc == 100.0
    assert by_kind["add_attr"].pos_acc is None
    assert by_kind["add_pos_attr"].attr_acc == 100.0
    assert by_kind["add_pos_attr"].pos_acc == 100.0
    assert by_kind["del_pos"].pos_acc is None
    assert by_kind["del_attr"].attr_acc == 100.0
    assert report.overall.count == len(units)
    assert report.overall.len_acc == 100.0


def test_evaluate_corpus_only_present_kinds():
    units = make_units(random.Random(59), 3, kinds=(CommandKind.DEL_LEN,))
    report = evaluate_corpus(units)
    assert [r.kind for r in report.rows] == ["del_len"]


def test_evaluate_corpus_is_order_independent():
    units = make_units(random.Random(61), 6)
    report_a = evaluate_corpus(units)
    shuffled = list(units)
    random.Random(99).shuffle(shuffled)
    report_b = evaluate_corpus(shuffled)
    assert report_a.to_dict() == report_b.to_dict()


def test_evaluate_corpus_input_validation():
    with pytest.raises(ValueError):
        evaluate_corpus([])
    with pytest.raises(ValueError, match="^empty corpus$"):
        evaluate_corpus(u for u in ())
    word_unit = make_units(random.Random(67), 1, kinds=(CommandKind.ADD_LEN,))[0]
    char_sample = EditSample(
        id="c0", video_id="v0", mode=CHAR,
        command=Command(Operation.ADD),
        reference=tokenize("一只狗", CHAR),
        ground_truth=tokenize("一只大狗跑", CHAR),
        provenance=Provenance.LENGTH_PAIR,
    )
    char_unit = EvalUnit(char_sample, tokenize("一只大狗跑", CHAR))
    with pytest.raises(ValueError):
        evaluate_corpus([word_unit, char_unit])

    def units():
        yield word_unit
        yield word_unit
        yield char_unit
        raise AssertionError("read past the first unit of another mode")

    with pytest.raises(ValueError, match="^mixed language modes in one evaluation corpus$"):
        evaluate_corpus(units())


def test_unit_mode_mismatch_raises():
    sample = _sample(Command(Operation.ADD), "a .", "a b .")
    with pytest.raises(ValueError):
        EvalUnit(sample, tokenize("一", CHAR))


def test_ppl_and_emscore_are_ingested_not_computed():
    s1 = _sample(Command(Operation.ADD), "a .", "a b c .", ppl=10.0, emscore=0.5)
    s2 = _sample(Command(Operation.ADD), "a .", "a b c .", ppl=20.0)
    units = [EvalUnit(s1, s1.ground_truth), EvalUnit(s2, s2.ground_truth)]
    report = evaluate_corpus(units)
    assert report.overall.mean_ppl == 15.0
    assert report.overall.mean_emscore == 0.5
    bare = _sample(Command(Operation.ADD), "a .", "a b c .")
    report = evaluate_corpus([EvalUnit(bare, bare.ground_truth)])
    assert report.overall.mean_ppl is None


def test_report_table_formatting():
    units = make_units(random.Random(71), 2)
    text = format_report_table(evaluate_corpus(units))
    lines = text.splitlines()
    assert lines[0].split() == [
        "Command", "N", "Len-Acc", "Attr-Acc", "Pos-Acc",
        "SARI", "BLEU4", "ROUGE-L", "PPL", "EMScore",
    ]
    assert len(lines) == 1 + 7 + 1  # header, one per kind, overall
    assert lines[-1].startswith("Overall")
    assert "-" in lines[1]  # not-applicable cells render as "-"
    assert text.endswith("\n")
    assert "100.00" in lines[1]
    assert "1.0000" in lines[1]


# one CJK character per vocabulary word, so a word-mode sample maps
# token for token onto a char-mode one with the same command
_TO_CHAR = {
    w: chr(0x4E00 + i) for i, w in enumerate(CAPTION_WORDS + ATTR_WORDS + (".",))
}


def _char_seq(seq: TokenSeq) -> TokenSeq:
    return TokenSeq(tuple(_TO_CHAR[t] for t in seq.tokens), CHAR)


def _char_sample(sample: EditSample) -> EditSample:
    cmd = sample.command
    attrs = cmd.attributes
    if attrs is not None:
        attrs = tuple(tuple(_TO_CHAR[t] for t in p) for p in attrs)
    payload = sample.payload
    if payload is not None:
        payload = tuple(tuple(_TO_CHAR[t] for t in p) for p in payload)
    return replace(
        sample,
        mode=CHAR,
        command=Command(cmd.op, cmd.positions, attrs),
        reference=_char_seq(sample.reference),
        ground_truth=_char_seq(sample.ground_truth),
        payload=payload,
    )


def _random_hypothesis(rng: random.Random, sample: EditSample) -> TokenSeq:
    gt = list(sample.ground_truth.tokens)
    ref = list(sample.reference.tokens)
    pool = sorted(set(gt + ref))
    shape = rng.randrange(6)
    if shape == 0:
        toks = gt
    elif shape == 1:
        toks = ref
    elif shape == 2:
        toks = []
    elif shape == 3:  # repeated n-grams
        cut = rng.randint(1, len(gt))
        toks = gt[:cut] + gt[:cut] + gt[cut:]
    elif shape == 4:  # few distinct tokens, many repeats
        few = rng.sample(pool, min(2, len(pool)))
        toks = [rng.choice(few) for _ in range(rng.randint(1, 12))]
    else:
        toks = list(gt)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(toks))
            op = rng.randrange(3)
            if op == 0:
                toks.insert(at, rng.choice(pool))
            elif toks and at < len(toks):
                if op == 1:
                    del toks[at]
                else:
                    toks[at] = rng.choice(pool)
    return TokenSeq(tuple(toks), sample.mode)


def _random_units(rng: random.Random, mode: LanguageMode, per_kind: int) -> list[EvalUnit]:
    units = []
    for sample in make_samples(rng, per_kind):
        if mode is CHAR:
            sample = _char_sample(sample)
        sample = replace(
            sample,
            ppl=rng.choice((None, rng.uniform(1.0, 200.0))),
            emscore=rng.choice((None, rng.random())),
        )
        units.append(EvalUnit(sample, _random_hypothesis(rng, sample)))
    return units


@pytest.mark.parametrize("mode", [WORD, CHAR])
@pytest.mark.parametrize(
    "config",
    [
        # (delta, rng seed); the seeds are the reprs of the configuration
        # object these cases were first drawn with, so they keep their units
        (1, "EvalConfig(delta=1, length_target_ratio=None, length_target_tolerance=0.2)"),
        (3, "EvalConfig(delta=3, length_target_ratio=None, length_target_tolerance=0.2)"),
    ],
)
def test_evaluate_corpus_matches_two_pass_oracle(mode, config):
    delta, seed = config
    rng = random.Random(f"{mode.value}-{seed}")
    for _ in range(4):
        units = _random_units(rng, mode, rng.randint(1, 12))
        want = evaluate_corpus_two_pass(units, delta).to_dict()
        assert len(want["per_kind"]) == 7
        assert evaluate_corpus(units, delta).to_dict() == want
        assert evaluate_corpus(iter(units), delta).to_dict() == want
        shuffled = list(units)
        rng.shuffle(shuffled)
        assert evaluate_corpus(shuffled, delta).to_dict() == want


@pytest.mark.parametrize("mode", [WORD, CHAR])
def test_unit_sari_matches_independent_calculator(mode):
    units = _random_units(random.Random(f"sari-{mode.value}"), mode, 2)
    assert len(units) >= 7
    for unit in units:
        triple = (
            normalized_tokens(unit.sample.reference),
            normalized_tokens(unit.hypothesis),
            normalized_tokens(unit.sample.ground_truth),
        )
        assert abs(sari_score(*triple) - sari_independent(*triple)) < 1e-9


def test_evaluate_corpus_scores_each_unit_once(monkeypatch):
    calls = {"lcs_length": 0, "dsa_ops": 0, "normalized_tokens": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("lcs_length", "dsa_ops"):
        monkeypatch.setattr(kernels, name, counted(kernels, name))
    monkeypatch.setattr(metrics, "normalized_tokens", counted(metrics, "normalized_tokens"))
    units = make_units(random.Random(73), 5)
    evaluate_corpus(units)
    positional = sum(
        kind(u.sample.command) in (CommandKind.ADD_POS, CommandKind.ADD_POS_ATTR)
        for u in units
    )
    # reference, hypothesis and ground truth are normalized once each,
    # also for the attribute kinds
    assert calls == {
        "lcs_length": len(units), "dsa_ops": positional, "normalized_tokens": 3 * len(units),
    }



def test_mean_survives_a_sum_past_the_float_range():
    # fsum raises OverflowError on these; the exact sum gives the mean
    assert metrics._mean([1e308, 1e308]) == 1e308
    values = [1.7e308, 1.7e308, -1.5e308]
    assert metrics._mean(values) == float(sum(map(Fraction, values)) / 3)
    # a sum in range is fsum's, as before
    values = [0.1, 0.2, 0.3, 1e-20]
    assert metrics._mean(values) == math.fsum(values) / 4
    assert metrics._mean([]) is None
