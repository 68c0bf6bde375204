"""Release gate.

Six end-to-end criteria, each printed as one line

    ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)

on the real stdout so the verdicts survive output capture.  Tolerances
and time budgets are pinned here and must not be loosened to make a
failing criterion pass.
"""

import itertools
import json
import random
import time

from capedit import io as cio
from capedit.alignment import dsa_align
from capedit.commands import (
    MASK_TOKEN,
    Command,
    CommandKind,
    Operation,
    PositionedReference,
    kind,
    make_positioned_reference,
    parse,
    serialize,
)
from capedit.construction import (
    ConstructionConfig,
    Provenance,
    PARTITIONS,
    construct_corpus,
    partition_videos,
)
from capedit.editing import oracle_apply, payload_from_truth
from capedit.metrics import (
    EvalUnit,
    evaluate_corpus,
    rouge_l_score,
    sari_score,
)
from capedit.text import LanguageMode, TokenSeq, tokenize

from helpers import make_sample, make_samples
from oracles import align_oracle, sari_independent

WORD = LanguageMode.WORD


def _verdict(capsys, number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


GOLDEN = [
    (
        Command(Operation.ADD, None, (("field",), ("hockey",))),
        "A group of girls is playing a game .",
        "[o] [ADD] [/o] [a] field , hockey [/a] "
        "[r] A group of girls is playing a game . [/r]",
    ),
    (
        Command(Operation.DEL, None, None),
        "A group of girls is on the field playing a game .",
        "[o] [DEL] [/o] [a] [/a] "
        "[r] A group of girls is on the field playing a game . [/r]",
    ),
    (
        Command(Operation.ADD, (5,), (("field",), ("hockey",))),
        "A group of girls is playing a game .",
        "[o] [ADD] [/o] [a] field , hockey [/a] "
        "[r] A group of girls is [MASK] playing a game . [/r]",
    ),
]


def test_acceptance_1_command_codec(capsys):
    start = time.perf_counter()
    rng = random.Random(101)
    total = failures = 0
    for k in CommandKind:
        for i in range(150):
            s = make_sample(rng, k, f"v{i}")
            ctrl = serialize(s.command, s.reference)
            cmd2, posref2 = parse(ctrl, s.reference)
            want_masks = make_positioned_reference(
                s.reference, s.command
            ).mask_indexes()
            ok = (
                kind(cmd2) == k
                and cmd2.attributes == s.command.attributes
                and posref2.mask_indexes() == want_masks
                and serialize(cmd2, s.reference) == ctrl
            )
            total += 1
            failures += not ok
    golden_ok = all(serialize(cmd, tokenize(ref, WORD)) == ctrl
                    for cmd, ref, ctrl in GOLDEN)
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 1, "command codec round-trip",
        failures == 0 and golden_ok and total >= 1000 and elapsed < 5.0,
        f"{total} randomized pairs, {failures} failures, "
        f"3 golden strings {'ok' if golden_ok else 'MISMATCH'}, {elapsed:.2f}s",
    )


def test_acceptance_2_aligner_equivalence(capsys):
    # exhaustive: posref over {a,b,c,MASK} with <= 2 masks, hyp over
    # {a,b,c}, combined length <= 8; the oracle is memoized per
    # first-occurrence relabelling since both sides only compare tokens
    # for equality
    start = time.perf_counter()
    alpha = ("a", "b", "c")
    seen: dict = {}
    pairs = mismatches = 0
    for n_ref in range(0, 9):
        for x in itertools.product(alpha + (None,), repeat=n_ref):
            if x.count(None) > 2:
                continue
            toks = tuple(MASK_TOKEN if t is None else t for t in x)
            posref = PositionedReference(toks, WORD, None, x.count(None))
            for n_hyp in range(0, 9 - n_ref):
                for y in itertools.product(alpha, repeat=n_hyp):
                    pairs += 1
                    res = dsa_align(posref, TokenSeq(y, WORD))
                    ids: dict = {}
                    key = (
                        tuple(None if t is None else ids.setdefault(t, len(ids))
                              for t in x),
                        tuple(ids.setdefault(t, len(ids)) for t in y),
                    )
                    if key not in seen:
                        seen[key] = align_oracle(x, y)
                    cost, spans, aligned = seen[key]
                    if (res.cost != cost
                            or tuple(res.mask_spans) != spans
                            or tuple(res.pairs) != aligned):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 2, "aligner matches exhaustive search",
        pairs == 267771 and mismatches == 0 and elapsed < 60.0,
        f"{pairs} pairs, {len(seen)} canonical classes, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_acceptance_3_oracle_ceiling(capsys):
    start = time.perf_counter()
    samples = make_samples(random.Random(102), 500)
    units = []
    for s in samples:
        payload = s.payload
        if payload is None and kind(s.command) is CommandKind.ADD_LEN:
            payload = payload_from_truth(s.command, s.reference, s.ground_truth)
        units.append(EvalUnit(s, oracle_apply(s.command, s.reference, payload)))
    report = evaluate_corpus(units)
    rows = {r.kind: r for r in report.rows}
    attr_kinds = {"add_attr", "add_pos_attr", "del_attr"}
    pos_kinds = {"add_pos", "add_pos_attr"}
    problems = []
    for name, row in rows.items():
        if row.count != 500:
            problems.append(f"{name}: count {row.count}")
        if row.len_acc != 100.0:
            problems.append(f"{name}: len {row.len_acc}")
        want_attr = 100.0 if name in attr_kinds else None
        if row.attr_acc != want_attr:
            problems.append(f"{name}: attr {row.attr_acc}")
        want_pos = 100.0 if name in pos_kinds else None
        if row.pos_acc != want_pos:
            problems.append(f"{name}: pos {row.pos_acc}")
    if (report.overall.len_acc, report.overall.attr_acc,
            report.overall.pos_acc) != (100.0, 100.0, 100.0):
        problems.append("overall not 100/100/100")
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 3, "oracle controllability ceiling",
        len(rows) == 7 and not problems and elapsed < 30.0,
        f"{len(units)} units, "
        f"{'all 100 where applicable' if not problems else '; '.join(problems)}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_4_metric_identities(capsys):
    samples = make_samples(random.Random(103), 150)
    units = [EvalUnit(s, s.ground_truth) for s in samples]
    report = evaluate_corpus(units)
    identity_ok = (
        len(units) >= 1000
        and report.overall.sari == 1.0
        and report.overall.bleu4 == 1.0
        and report.overall.rouge_l == 1.0
    )
    rouge_err = abs(rouge_l_score(("a", "b", "c"), ("a", "c")) - 0.8299)
    worked = abs(
        sari_score(("a", "b", "c", "d"), ("a", "b", "c", "d"), ("a", "b", "e", "d"))
        - sari_independent(
            ["a", "b", "c", "d"], ["a", "b", "c", "d"], ["a", "b", "e", "d"]
        )
    )
    rng = random.Random(104)
    vocab = ["a", "b", "c", "d", "e"]
    max_sari_err = 0.0
    for _ in range(300):
        src, hyp, gt = (
            [rng.choice(vocab) for _ in range(rng.randrange(9))] for _ in range(3)
        )
        max_sari_err = max(
            max_sari_err,
            abs(sari_score(tuple(src), tuple(hyp), tuple(gt))
                - sari_independent(src, hyp, gt)),
        )
    _verdict(
        capsys, 4, "metric identities",
        identity_ok and rouge_err <= 1e-4 and worked <= 1e-9
        and max_sari_err <= 1e-9,
        f"{len(units)} identity units all 1.0, rouge_err {rouge_err:.1e}, "
        f"sari vs independent max err {max_sari_err:.1e}",
    )


def _fixture_corpus(data_dir):
    groups = cio.read_captions(str(data_dir / "captions.jsonl"))
    parses = cio.read_parses(
        str(data_dir / "parses.conllu"), groups, str(data_dir / "srl.jsonl")
    )
    neighbors = cio.read_neighbors(str(data_dir / "neighbors.jsonl"), groups)
    with open(data_dir / "config.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = ConstructionConfig.from_dict(raw)
    samples = construct_corpus(groups, parses, config, seed=0, neighbors=neighbors)
    return samples, raw["split"]


def test_acceptance_5_construction_reconstruction(capsys, data_dir, tmp_path):
    first, split_spec = _fixture_corpus(data_dir)
    second, _ = _fixture_corpus(data_dir)
    stable = [cio.sample_to_wire(s) for s in first] == [
        cio.sample_to_wire(s) for s in second
    ]
    with_payload = [
        s for s in first
        if s.provenance in (Provenance.DEGRADATION, Provenance.REVERSAL)
        and s.payload is not None
    ]
    reconstructed = sum(
        oracle_apply(s.command, s.reference, s.payload) == s.ground_truth
        for s in with_payload
    )
    # the split files as construct writes them
    partition = partition_videos(
        first, ratios=tuple(split_spec["ratios"]), seed=split_spec["seed"]
    )
    cio.write_dataset(str(tmp_path / "corpus.jsonl"), first, partition)
    parts = [cio.read_dataset(str(tmp_path / f"corpus.{p}.jsonl")) for p in PARTITIONS]
    videos = [{s.video_id for s in part_samples} for part_samples in parts]
    disjoint = all(
        not (a & b) for a, b in itertools.combinations(videos, 2)
    )
    covered = sorted(s.id for part_samples in parts for s in part_samples) == sorted(
        s.id for s in first
    )
    _verdict(
        capsys, 5, "construction reconstruction",
        bool(with_payload) and reconstructed == len(with_payload)
        and stable and disjoint and covered,
        f"{reconstructed}/{len(with_payload)} payload samples reconstruct, "
        f"rerun {'identical' if stable else 'DIFFERS'}, "
        f"splits {'disjoint' if disjoint else 'OVERLAP'}",
    )


def test_acceptance_6_throughput(capsys):
    samples = make_samples(random.Random(105), 14286)
    units = [EvalUnit(s, s.ground_truth) for s in samples]
    assert len(units) >= 100000
    longest = max(
        max(len(u.sample.reference), len(u.sample.ground_truth)) for u in units
    )
    assert longest <= 30
    start = time.perf_counter()
    report = evaluate_corpus(units)
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 6, "evaluation throughput",
        report.overall.count == len(units) and elapsed < 300.0,
        f"{len(units)} units in {elapsed:.1f}s "
        f"({len(units) / elapsed:.0f} units/s), budget 300s",
    )
