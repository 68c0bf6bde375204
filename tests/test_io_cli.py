import gc
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from capedit import io as cio
from capedit.cli import main
from capedit.commands import Command, CommandKind, Operation, kind
from capedit.construction import (
    CaptionGroup,
    EditSample,
    ParseAnnotation,
    Provenance,
    construct_corpus,
)
from capedit.editing import oracle_apply
from capedit.errors import DatasetError
from capedit.metrics import EvalUnit, attr_acc, len_acc, pos_acc
from capedit.text import LanguageMode, detokenize, tokenize

from helpers import make_samples, read_samples
from oracles import sample_to_wire

WORD = LanguageMode.WORD
CHAR = LanguageMode.CHAR


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- datasets


def test_dataset_write_read_write_is_byte_stable(tmp_path):
    rng = random.Random(3)
    samples = make_samples(rng, 4)
    samples[0] = replace(samples[0], ppl=12.5, emscore=0.25)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    cio.write_dataset(str(first), samples)
    loaded = read_samples(str(first))
    assert loaded == samples
    cio.write_dataset(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()


def test_dataset_records_keep_unicode_readable(tmp_path):
    sample = EditSample(
        id="z0",
        video_id="vz",
        mode=CHAR,
        command=Command(Operation.ADD, None, (("棕", "色"),)),
        reference=tokenize("一只狗在跑。", CHAR),
        ground_truth=tokenize("一只棕色狗在跑。", CHAR),
        provenance=Provenance.RELAXATION,
    )
    path = tmp_path / "zh.jsonl"
    cio.write_dataset(str(path), [sample])
    raw = path.read_text(encoding="utf-8")
    assert "棕色" in raw and "\\u" not in raw
    assert read_samples(str(path)) == [sample]


def test_dataset_reader_reports_file_and_line(tmp_path):
    path = _write(tmp_path / "bad.jsonl", '{"id": "a"}\n')
    with pytest.raises(DatasetError) as err:
        read_samples(path)
    assert f"{path}:1" in str(err.value)
    assert "video_id" in str(err.value)

    path = _write(tmp_path / "broken.jsonl", "{nope\n")
    with pytest.raises(DatasetError) as err:
        read_samples(path)
    assert "invalid JSON" in str(err.value)


def _record(**kw):
    base = {
        "id": "r0",
        "video_id": "v0",
        "lang": "en-word",
        "command": {"op": "add"},
        "reference": "a b .",
        "ground_truth": "a b c d .",
    }
    base.update(kw)
    return base


def test_iter_dataset_yields_each_sample_with_its_line(tmp_path):
    samples = make_samples(random.Random(11), 1)[:3]
    path = tmp_path / "ds.jsonl"
    lines = [json.dumps(sample_to_wire(s)) for s in samples]
    _write(path, lines[0] + "\n\n" + lines[1] + "\n" + lines[2] + "\n")
    assert list(cio.iter_dataset(str(path))) == list(zip((1, 3, 4), samples))
    assert read_samples(str(path)) == samples
    _write(path, lines[0] + "\n" + lines[1] + "\n" + lines[0] + "\n")
    stream = cio.iter_dataset(str(path))
    assert [next(stream), next(stream)] == list(zip((1, 2), samples))
    with pytest.raises(DatasetError, match=f"{path}:3: duplicate sample id 't000000'"):
        next(stream)


def test_dataset_reader_validation(tmp_path):
    good = _record()
    dup = tmp_path / "dup.jsonl"
    _write(dup, json.dumps(good) + "\n" + json.dumps(good) + "\n")
    with pytest.raises(DatasetError) as err:
        read_samples(str(dup))
    assert "duplicate sample id" in str(err.value)

    for bad, needle in (
        (_record(lang="en"), "unknown language mode"),
        (_record(command={"op": "move"}), "bad command operation"),
        (
            _record(
                command={"op": "del", "positions": [[0, 1]], "attributes": ["x"]}
            ),
            "not supported",
        ),
        (_record(command={"op": "add", "positions": [3, 1]}), "strictly increasing"),
    ):
        path = _write(tmp_path / "one.jsonl", json.dumps(bad) + "\n")
        with pytest.raises(DatasetError) as err:
            read_samples(path)
        assert needle in str(err.value)
        assert ":1:" in str(err.value)


@pytest.mark.parametrize(
    "bad, needle",
    [
        (_record(provenance="invented"), "Provenance"),
        (_record(command={"op": "add", "positions": ["x"]}), "bad command positions"),
        (_record(command={"op": "del", "positions": [[0, None]]}), "bad command positions"),
        (_record(command={"op": "del", "positions": [3]}), "bad command positions"),
        (_record(reference=7), "reference must be a string"),
        (_record(ground_truth=["a", "b"]), "ground_truth must be a string"),
        (_record(command={"op": "add", "attributes": [1]}), "attribute must be a string"),
        (_record(command={"op": "add", "positions": [1.7]}), "bad command positions"),
        (_record(command={"op": "add", "positions": [True]}), "bad command positions"),
        (_record(command={"op": "add", "positions": ["1"]}), "bad command positions"),
        (_record(command={"op": "del", "positions": [[0, 1.7]]}), "bad command positions"),
        (_record(command={"op": "del", "positions": [[True, 1]]}), "bad command positions"),
        (_record(command="add"), "bad command operation"),
        (_record(command={"op": "add", "positions": [1]}, payload="big"), "payload must be a list"),
        (_record(aux={"ppl": [1]}), "ppl must be a number, got [1]"),
        (_record(aux=5), "aux must be an object, got 5"),
        (_record(aux={"ppl": "42"}), "ppl must be a number, got '42'"),
        (_record(aux={"emscore": True}), "emscore must be a number, got True"),
        (_record(aux={"ppl": 10**400}), "ppl must be a number, got 1000"),
        (_record(id=None), "id must be a string, got None"),
        (_record(video_id=7), "video_id must be a string, got 7"),
        (_record(aux={"ppl": float("nan")}), "ppl must be a number, got nan"),
        (_record(aux={"emscore": float("inf")}), "emscore must be a number, got inf"),
        (_record(aux={"ppl": -float("inf")}), "ppl must be a number, got -inf"),
    ],
)
def test_cli_malformed_dataset_record_exits_two(tmp_path, capsys, bad, needle):
    lines = [json.dumps(_record(id="ok")), json.dumps(bad)]
    path = _write(tmp_path / "bad.jsonl", "\n".join(lines) + "\n")
    assert main(["stats", "--dataset", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and needle in err


def test_dataset_numbers_read_as_floats(tmp_path):
    path = _write(
        tmp_path / "aux.jsonl",
        "\n".join(
            json.dumps(r)
            for r in (
                _record(id="a", aux={"ppl": 3, "emscore": 0.5}),
                _record(id="b", aux=None),
                _record(id="c", aux={"ppl": None}),
            )
        )
        + "\n",
    )
    a, b, c = read_samples(path)
    assert (a.ppl, a.emscore) == (3.0, 0.5) and type(a.ppl) is float
    assert (b.ppl, b.emscore) == (None, None) == (c.ppl, c.emscore)

    ppl = _write(
        tmp_path / "ppl.jsonl",
        '{"caption_id": "v#0", "ppl": 7}\n{"caption_id": "v#1", "ppl": 2.5}\n',
    )
    groups = [CaptionGroup("v", (tokenize("a dog .", WORD), tokenize("a cat runs .", WORD)))]
    by_caption = cio.read_ppl(ppl, groups)
    assert by_caption == {("v", "a dog ."): 7.0, ("v", "a cat runs ."): 2.5}
    assert all(type(v) is float for v in by_caption.values())


def test_provenance_defaults_when_absent(tmp_path):
    records = [
        _record(id="a", command={"op": "del", "positions": [[0, 1]]},
                reference="a b .", ground_truth="b .", payload=["a"]),
        _record(id="b", command={"op": "add", "positions": [0]},
                reference="b .", ground_truth="a b .", payload=["a"]),
        _record(id="c"),
    ]
    path = _write(
        tmp_path / "p.jsonl", "".join(json.dumps(r) + "\n" for r in records)
    )
    a, b, c = read_samples(path)
    assert a.provenance is Provenance.DEGRADATION
    assert b.provenance is Provenance.REVERSAL
    assert c.provenance is Provenance.LENGTH_PAIR


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        cio.write_predictions(fh, [("a", "x y ."), ("b", "z .")])
    assert cio.read_predictions(str(path)) == {"a": "x y .", "b": "z ."}
    _write(path, '{"id": "a", "hypothesis": "x"}\n{"id": "a", "hypothesis": "y"}\n')
    with pytest.raises(DatasetError):
        cio.read_predictions(str(path))


def test_read_captions_validation(tmp_path):
    good = {"video_id": "v", "lang": "en-word", "captions": ["a ."]}
    path = _write(tmp_path / "c.jsonl", json.dumps(good) + "\n" + json.dumps(good) + "\n")
    with pytest.raises(DatasetError):
        cio.read_captions(path)
    path = _write(
        tmp_path / "c2.jsonl",
        json.dumps({"video_id": "v", "lang": "en-word", "captions": []}) + "\n",
    )
    with pytest.raises(DatasetError):
        cio.read_captions(path)
    path = _write(
        tmp_path / "c3.jsonl",
        json.dumps({"video_id": "v", "lang": "en-word", "captions": [None]}) + "\n",
    )
    with pytest.raises(DatasetError, match="c3.jsonl:1: caption must be a string"):
        cio.read_captions(path)


# ---------------------------------------------------------------- annotations


def test_read_conllu_fixture(data_dir):
    groups = cio.read_captions(str(data_dir / "captions.jsonl"))
    parsed = cio.read_parses(str(data_dir / "parses.conllu"), groups)
    assert set(parsed) == {("vid1", 0)}
    assert parsed[("vid1", 0)].caption_index == 0
    tokens = parsed[("vid1", 0)].tokens
    assert len(tokens) == 12
    assert tokens[8].form == "playing"
    assert tokens[8].head == -1
    assert tokens[8].deprel == "root"
    assert tokens[7].head == 8
    assert tokens[7].deprel == "obl"
    assert tokens[0].upos == "DET"


def test_read_conllu_skips_multiword_rows(tmp_path):
    text = (
        "# sent_id = v#0\n"
        "1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2-3\tdogfood\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tdog\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    parsed = cio.read_parses(_write(tmp_path / "m.conllu", text), [])
    assert [t.form for t in parsed[("v", 0)].tokens] == ["a", "dog"]


def test_read_conllu_errors(tmp_path):
    with pytest.raises(DatasetError) as err:
        cio.read_parses(_write(tmp_path / "a.conllu", "1\ta\tDET\n"), [])
    assert "10 tab-separated columns" in str(err.value)

    no_id = "1\ta\t_\tDET\t_\t_\t0\troot\t_\t_\n"
    with pytest.raises(DatasetError) as err:
        cio.read_parses(_write(tmp_path / "b.conllu", no_id), [])
    assert "sent_id" in str(err.value)

    bad_head = "# sent_id = v#0\n1\ta\t_\tDET\t_\t_\tx\troot\t_\t_\n"
    with pytest.raises(DatasetError):
        cio.read_parses(_write(tmp_path / "c.conllu", bad_head), [])


@pytest.mark.parametrize("field", ["predicate", "start", "end"])
def test_read_parses_rejects_bool_srl_integers(tmp_path, data_dir, field):
    frame = {"caption_id": "vid1#0", "predicate": 8,
             "arguments": [{"label": "ARG0", "start": 0, "end": 4}]}
    target = frame if field == "predicate" else frame["arguments"][0]
    target[field] = True
    srl = _write(tmp_path / "srl.jsonl", json.dumps(frame) + "\n")
    with pytest.raises(DatasetError, match=f"srl.jsonl:1: {field} must be an integer, got True"):
        cio.read_parses(str(data_dir / "parses.conllu"), [], srl)


def test_read_srl_neighbors_ppl(data_dir):
    conllu = str(data_dir / "parses.conllu")
    groups = cio.read_captions(str(data_dir / "captions.jsonl"))
    parses = cio.read_parses(conllu, groups, str(data_dir / "srl.jsonl"))
    assert list(parses) == [("vid1", 0)]
    frames = parses[("vid1", 0)].frames
    assert len(frames) == 1
    assert frames[0].predicate == 8
    assert ("ARG0", 0, 4) in frames[0].arguments
    assert parses[("vid1", 0)].tokens == cio.read_parses(conllu, groups)[("vid1", 0)].tokens
    assert cio.read_parses(conllu, groups)[("vid1", 0)].frames == ()
    neighbors = cio.read_neighbors(str(data_dir / "neighbors.jsonl"), groups)
    assert neighbors == {"vid2": ["vid1"], "vid1": []}
    ppl = cio.read_ppl(str(data_dir / "ppl.jsonl"), groups)
    vid1 = next(g for g in groups if g.video_id == "vid1")
    assert ppl == {("vid1", detokenize(vid1.captions[0])): 42.0}


# ---------------------------------------------------------------- CLI


def _evaluate_flow(tmp_path, rng_seed=5, per_kind=3):
    ds = tmp_path / "ds.jsonl"
    preds = tmp_path / "preds.jsonl"
    cio.write_dataset(str(ds), make_samples(random.Random(rng_seed), per_kind))
    assert main(["oracle-edit", "--dataset", str(ds), "--out", str(preds)]) == 0
    return ds, preds


def test_cli_oracle_edit_then_evaluate_is_perfect(tmp_path, capsys):
    ds, preds = _evaluate_flow(tmp_path)
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--dataset", str(ds), "--predictions", str(preds),
        "--out", str(out), "--per-kind",
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "Overall" in table
    assert "100.00" in table
    report = json.loads(out.read_text())
    assert len(report["per_kind"]) == 7
    assert report["overall"]["len_acc"] == 100.0
    assert report["overall"]["sari"] == 1.0
    for row in report["per_kind"]:
        assert row["len_acc"] == 100.0


def test_cli_evaluate_overall_only_by_default(tmp_path, capsys):
    ds, preds = _evaluate_flow(tmp_path)
    out = tmp_path / "report.json"
    assert main([
        "evaluate", "--dataset", str(ds), "--predictions", str(preds),
        "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"overall"}


def test_cli_evaluate_matches_golden_report(tmp_path, capsys, data_dir):
    # the golden files hold what `evaluate --per-kind --out` wrote for
    # this corpus when they were committed; they are never regenerated,
    # so any change to a reported number or to its formatting fails here
    out = tmp_path / "report.json"
    code = main([
        "evaluate",
        "--dataset", str(data_dir / "golden_eval_dataset.jsonl"),
        "--predictions", str(data_dir / "golden_eval_predictions.jsonl"),
        "--delta", "2", "--per-kind", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (data_dir / "golden_eval_report.txt").read_bytes()
    assert out.read_bytes() == (data_dir / "golden_eval_report.json").read_bytes()


@pytest.mark.parametrize("command", ["evaluate", "stats"])
@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_cli_dataset_without_records_exits_two(tmp_path, capsys, command, text):
    ds = _write(tmp_path / "ds.jsonl", text)
    preds = _write(tmp_path / "preds.jsonl", "")
    argv = [command, "--dataset", ds]
    if command == "evaluate":
        argv += ["--predictions", preds]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ds}: no dataset records\n"


def test_cli_evaluate_mixed_language_modes_exits_two_at_the_line(tmp_path, capsys):
    ds, preds = _evaluate_flow(tmp_path)
    lines = ds.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[4])
    record["lang"] = "zh-char"
    lines[4] = json.dumps(record, ensure_ascii=False) + "\n"
    ds.write_text("".join(lines), encoding="utf-8")
    assert main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {ds}:5: language mode zh-char differs from the first record's en-word\n"
    )


@pytest.mark.parametrize("later_fault", ["no-prediction", "invalid-json-at-7"])
def test_cli_evaluate_mode_switch_is_checked_in_file_order(tmp_path, capsys, later_fault):
    # line 5 switches to zh-char; a fault of the same record found first,
    # or of a later line, does not change which error is reported
    ds, preds = _evaluate_flow(tmp_path)
    lines = ds.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[4])
    record["lang"] = "zh-char"
    lines[4] = json.dumps(record, ensure_ascii=False) + "\n"
    if later_fault == "no-prediction":
        hyps = preds.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(hyps[4])["id"] == record["id"]
        preds.write_text("".join(hyps[:4] + hyps[5:]), encoding="utf-8")
        expected = f"{ds}:5: no prediction for sample id {record['id']!r}"
    else:
        lines[6] = "{nope\n"
        expected = f"{ds}:5: language mode zh-char differs from the first record's en-word"
    ds.write_text("".join(lines), encoding="utf-8")
    assert main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


def test_cli_evaluate_mean_of_perplexities_near_the_float_limit(tmp_path, capsys):
    # the two values sum past the float range; their mean does not
    ds, preds = _evaluate_flow(tmp_path, per_kind=1)
    lines = ds.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records[:2]:
        record["aux"] = {"ppl": 1e308}
    ds.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--dataset", str(ds), "--predictions", str(preds), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["overall"]["mean_ppl"] == 1e308


def test_cli_evaluate_missing_prediction(tmp_path, capsys):
    ds, preds = _evaluate_flow(tmp_path)
    lines = preds.read_text().splitlines()[1:]
    preds.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)])
    assert code == 2
    err = capsys.readouterr().err
    assert "no prediction for sample id" in err
    # the first record lost its prediction, and is reported at its line
    assert f"error: {ds}:1: no prediction for sample id 't000000'" in err


def test_cli_evaluate_reports_a_bad_predictions_file_first(tmp_path, capsys):
    ds, preds = _evaluate_flow(tmp_path)
    _write(ds, "{nope\n")
    _write(preds, "\n[1]\n")
    assert main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)]) == 2
    assert f"error: {preds}:2: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["evaluate", "oracle-edit", "session"])
def test_cli_delta_below_one_exits_two(tmp_path, capsys, subcommand):
    ds, preds = _evaluate_flow(tmp_path)
    script = _write(tmp_path / "script.jsonl", _SESSION_HEAD + '\n{"command": {"op": "del"}}\n')
    inputs = {
        "evaluate": ["--dataset", str(ds), "--predictions", str(preds)],
        "oracle-edit": ["--dataset", str(ds)],
        "session": ["--script", script],
    }[subcommand]
    assert main([subcommand, *inputs, "--delta", "1"]) == 0
    capsys.readouterr()
    for delta in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *inputs, "--delta", delta])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --delta: margin must be at least 1, got {delta}" in captured.err


@pytest.mark.parametrize(
    "command, bound",
    [("evaluate", 1024), ("serialize", 1024), ("oracle-edit", 1024), ("stats", 512)],
    ids=["evaluate", "serialize", "oracle-edit", "stats"],
)
def test_cli_memory_does_not_grow_with_the_dataset(tmp_path, capsys, command, bound):
    """Every dataset command streams the dataset: between N and 4N
    records the traced peak grows by less than bound per extra record.
    As measured here, evaluate keeps about 0.6 KB per record (the
    predictions map, the seen ids and a few floats), serialize and
    oracle-edit about 0.3-0.4 KB (the seen ids and the output lines they
    write once the input is read) and stats about 0.2 KB; holding every
    sample, as a list of samples or units would, costs over 1.6 KB each.
    stats's caches hold each distinct sequence once, about 3.4 KB each,
    so its dataset repeats one set of samples under new ids, as a built
    corpus repeats its texts."""

    def argv(per_kind):
        if command == "stats":
            base = make_samples(random.Random(60), 60)
            copies = range(per_kind // 60)
            samples = [replace(s, id=f"{s.id}.{c}") for c in copies for s in base]
        else:
            samples = make_samples(random.Random(per_kind), per_kind)
        ds, preds = tmp_path / f"ds{per_kind}.jsonl", tmp_path / f"preds{per_kind}.jsonl"
        cio.write_dataset(str(ds), samples)
        with open(preds, "w", encoding="utf-8") as fh:
            cio.write_predictions(fh, ((s.id, detokenize(s.ground_truth)) for s in samples))
        extra = {
            "evaluate": ["--predictions", str(preds)],
            "serialize": ["--out", str(tmp_path / "out")],
            "oracle-edit": ["--out", str(tmp_path / "out")],
            "stats": [],
        }[command]
        return len(samples), [command, "--dataset", str(ds), *extra]

    small, large = argv(60), argv(240)
    assert large[0] == 4 * small[0]
    peaks = {}
    # Freed tuples wait in CPython's free lists, which tracemalloc still
    # counts and a full collection empties.  Two warm-up runs on the
    # larger input fill them, and with the collector off they stay full,
    # so the measured runs see only what the command keeps.
    gc.collect()
    tracemalloc.start()
    gc.disable()
    try:
        for n, args in (large, large, small, large):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(args) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
    finally:
        gc.enable()
        tracemalloc.stop()
    per_record = (peaks[large[0]] - peaks[small[0]]) / (large[0] - small[0])
    assert per_record < bound, f"traced peak grows by {per_record:.0f} B per record"


@pytest.mark.parametrize("hyp", [None, 7, ["a", "b"]], ids=["null", "number", "list"])
def test_cli_evaluate_non_string_hypothesis_exits_two(tmp_path, capsys, hyp):
    ds, preds = _evaluate_flow(tmp_path)
    lines = preds.read_text(encoding="utf-8").splitlines()
    rid = json.loads(lines[1])["id"]
    lines[1] = json.dumps({"id": rid, "hypothesis": hyp})
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{preds}:2:" in err and "hypothesis must be a string" in err


@pytest.mark.parametrize("rid", [None, 7], ids=["null", "number"])
def test_cli_evaluate_non_string_prediction_id_exits_two(tmp_path, capsys, rid):
    ds, preds = _evaluate_flow(tmp_path)
    lines = preds.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({"id": rid, "hypothesis": "a ."})
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["evaluate", "--dataset", str(ds), "--predictions", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{preds}:2:" in err and f"id must be a string, got {rid!r}" in err


def test_cli_reports_malformed_input(tmp_path, capsys):
    bad = _write(tmp_path / "bad.jsonl", '{"id": "a"}\n')
    preds = _write(tmp_path / "p.jsonl", "")
    assert main(["evaluate", "--dataset", bad, "--predictions", preds]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and ":1" in err


def test_cli_missing_file_exits_two(tmp_path, capsys):
    assert main(["stats", "--dataset", str(tmp_path / "none.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_serialize_and_parse_control_round_trip(tmp_path, capsys):
    ds, _ = _evaluate_flow(tmp_path)
    controls = tmp_path / "controls.tsv"
    assert main(["serialize", "--dataset", str(ds), "--out", str(controls)]) == 0
    lines = controls.read_text(encoding="utf-8").splitlines()
    samples = read_samples(str(ds))
    assert len(lines) == len(samples)
    assert all("\t" in line and "[o]" in line for line in lines)

    assert main(["parse-control", "--in", str(controls)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == len(samples)
    for sample, line in zip(samples, out_lines):
        rec = json.loads(line)
        assert rec["id"] == sample.id
        assert rec["op"] == sample.command.op.value
        expected_kind = kind(sample.command).value
        if expected_kind == "del_len":
            assert rec["kind"] == "del_len"
        elif sample.command.positions is None:
            assert rec["kind"] == expected_kind
        else:
            # del spans parse back as positional even without the original
            assert rec["kind"].startswith(sample.command.op.value)
        assert len(rec["mask_indexes"]) == (
            len(sample.command.positions) if sample.command.positions else 0
        )


@pytest.mark.parametrize(
    "line, needle",
    [
        ("b\t[o] [FLIP] [/o] [a] [/a] [r] x [/r]", "unknown operation token [FLIP]"),
        ("b [o] [ADD] [/o] [a] [/a] [r] x [/r]", "expected '<id>\\t<control string>'"),
    ],
    ids=["bad-control", "no-tab"],
)
def test_cli_parse_control_error_cites_its_line(tmp_path, capsys, line, needle):
    good = "a\t[o] [ADD] [/o] [a] [/a] [r] x [/r]"
    path = _write(tmp_path / "controls.tsv", f"{good}\n\n{line}\n")
    assert main(["parse-control", "--in", path]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:3: {needle}" in err


def test_cli_align_reports_mask_spans(capsys):
    code = main([
        "align",
        "--ref", "A group of girls is [MASK] playing a game .",
        "--hyp", "A group of girls is field hockey playing a game .",
    ])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["cost"] == 0
    assert rec["mask_spans"] == [[5, 7]]
    assert rec["mask_texts"] == ["field hockey"]


@pytest.mark.parametrize(
    "mode, ref, hyp, spans, texts",
    [
        ("zh-char", "一只[MASK]狗在[MASK]公园里跑", "一只小黄狗在大公园里跑步",
         [[2, 4], [6, 7]], ["小黄", "大"]),
        ("en-word", "A group of girls is[MASK] playing a game .",
         "A group of girls is field hockey playing a game .", [[5, 7]], ["field hockey"]),
    ],
    ids=["zh-char", "en-word"],
)
def test_cli_align_reads_masks_without_spaces(capsys, mode, ref, hyp, spans, texts):
    assert main(["align", "--mode", mode, "--ref", ref, "--hyp", hyp]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mask_spans"] == spans
    assert rec["mask_texts"] == texts


def test_cli_session_script(tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    rows = [
        {"video_id": "v1", "caption": "A group of girls is playing a game .", "lang": "en-word"},
        {"command": {"op": "add", "positions": [5], "attributes": ["field", "hockey"]}},
        {"command": {"op": "del", "attributes": ["hockey"]}},
        {"command": {"op": "del"}},
    ]
    _write(script, "".join(json.dumps(r) + "\n" for r in rows))
    assert main(["session", "--script", str(script)]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["round"] for r in out] == [1, 2, 3]
    assert out[0]["edited"] == "A group of girls is field hockey playing a game ."
    assert out[1]["edited"] == "A group of girls is field playing a game ."
    assert out[2]["edited"] == "A group of girls is field playing ."
    assert out[2]["reference"] == out[1]["edited"]
    assert all(r["source"] == "oracle" for r in out)

    _write(script, json.dumps(rows[0]) + "\n" + '{"note": "no command"}\n')
    assert main(["session", "--script", str(script)]) == 2


_SESSION_HEAD = json.dumps({"video_id": "v1", "caption": "A dog runs .", "lang": "en-word"})


@pytest.mark.parametrize(
    "lines, bad_line, needle",
    [
        ([_SESSION_HEAD, "", "{nope"], 3, "invalid JSON"),
        ([_SESSION_HEAD, "", '["add"]'], 3, "expected a JSON object, got list"),
        (
            [_SESSION_HEAD, '{"command": {"op": "add"}, "hypothesis": 7}'],
            2,
            "hypothesis must be a string",
        ),
        (
            [_SESSION_HEAD, '{"command": {"op": "add", "positions": [1]}, "payload": [3]}'],
            2,
            "payload span must be a string",
        ),
        (["", '{"video_id": "v1", "caption": 5}'], 2, "caption must be a string"),
        (
            [_SESSION_HEAD, '{"command": {"op": "add", "positions": [1]}, "payload": "big"}'],
            2,
            "payload must be a list",
        ),
        (["", '{"video_id": 7, "caption": "a ."}'], 2, "video_id must be a string, got 7"),
    ],
)
def test_cli_session_malformed_script_line_exits_two(tmp_path, capsys, lines, bad_line, needle):
    script = _write(tmp_path / "script.jsonl", "\n".join(lines) + "\n")
    assert main(["session", "--script", script]) == 2
    err = capsys.readouterr().err
    assert f"{script}:{bad_line}:" in err and needle in err


@pytest.mark.parametrize(
    "rnd, needle",
    [
        ({"command": {"op": "add", "positions": [99]}}, "gap 99 out of range for length 5"),
        ({"command": {"op": "add", "positions": [1]}}, "requires an insertion payload"),
        ({"command": {"op": "del", "positions": [[2, 9]]}}, "(2, 9) out of range for length 5"),
    ],
    ids=["gap-past-end", "positional-add-without-payload", "span-past-end"],
)
def test_cli_session_round_error_cites_its_line(tmp_path, capsys, rnd, needle):
    # the first round makes the 4-token caption 5 tokens long, and the
    # bad round is checked against that
    first = json.dumps({"command": {"op": "add", "attributes": ["big"]}})
    script = _write(
        tmp_path / "script.jsonl", "\n".join([_SESSION_HEAD, "", first, json.dumps(rnd)]) + "\n"
    )
    assert main(["session", "--script", script]) == 2
    err = capsys.readouterr().err
    assert f"{script}:4:" in err and needle in err


def test_cli_construct_end_to_end(tmp_path, capsys, data_dir):
    out = tmp_path / "corpus.jsonl"
    argv = [
        "construct",
        "--captions", str(data_dir / "captions.jsonl"),
        "--parses", str(data_dir / "parses.conllu"),
        "--srl", str(data_dir / "srl.jsonl"),
        "--neighbors", str(data_dir / "neighbors.jsonl"),
        "--ppl", str(data_dir / "ppl.jsonl"),
        "--config", str(data_dir / "config.json"),
        "--out", str(out),
    ]
    assert main(argv) == 0
    samples = read_samples(str(out))
    assert samples
    kinds = {kind(s.command) for s in samples}
    assert CommandKind.DEL_POS in kinds
    assert CommandKind.ADD_POS_ATTR in kinds
    assert CommandKind.DEL_LEN in kinds

    for s in samples:
        if s.payload is not None:
            assert oracle_apply(s.command, s.reference, s.payload) == s.ground_truth
    assert any(s.ppl == 42.0 for s in samples)

    stats = json.loads((tmp_path / "corpus.jsonl.stats.json").read_text())
    assert stats["count"] == len(samples)
    assert sum(stats["per_kind"].values()) == len(samples)

    split_ids = {}
    for part in ("train", "val", "test"):
        part_path = tmp_path / f"corpus.{part}.jsonl"
        assert part_path.exists()
        split_ids[part] = {s.video_id for s in read_samples(str(part_path))}
    assert not (split_ids["train"] & split_ids["val"])
    assert not (split_ids["train"] & split_ids["test"])

    first_bytes = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first_bytes


# The golden construct pool: 12 videos from perfbench's construct generator
# (seed 5) plus four hand-made videos.  hand_a's first caption degrades to
# the text of its second, whose perplexity it then carries; hand_b holds two
# equal captions with different perplexities; hand_c's content tokens have
# a Jaccard score of exactly 0.3 (3 of 10) with hand_a's, the default
# threshold, as do hand_d's, so hand_a's two neighbours tie; hand_c also
# shares hand_a's "a dog runs ." under another perplexity.  The config
# drops perplexities above 65, balances with a max_per_kind cap
# (min_length_diff 8 makes two balancing recipients tie) and splits by
# ratios whose remainders tie.  The outputs are what construct wrote when they
# were committed; they are never regenerated, so any change to a written
# byte fails here.
_GOLDEN_CONSTRUCT_SEED = 3
_GOLDEN_OUTPUTS = (".jsonl", ".train.jsonl", ".val.jsonl", ".test.jsonl", ".jsonl.stats.json")


def _golden(data_dir, name):
    return str(data_dir / f"golden_construct_{name}")


def test_cli_construct_matches_golden_outputs(tmp_path, capsys, data_dir):
    out = tmp_path / "corpus.jsonl"
    code = main([
        "construct",
        "--captions", _golden(data_dir, "captions.jsonl"),
        "--parses", _golden(data_dir, "parses.conllu"),
        "--srl", _golden(data_dir, "srl.jsonl"),
        "--ppl", _golden(data_dir, "ppl.jsonl"),
        "--config", _golden(data_dir, "config.json"),
        "--seed", str(_GOLDEN_CONSTRUCT_SEED),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == captured.err == ""
    for suffix in _GOLDEN_OUTPUTS:
        got = (tmp_path / f"corpus{suffix}").read_bytes()
        assert got == (data_dir / f"golden_construct_corpus{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("neighbors", [False, True], ids=["join", "neighbors-file"])
def test_construct_corpus_matches_golden_records(data_dir, neighbors):
    groups = cio.read_captions(_golden(data_dir, "captions.jsonl"))
    config, _ = cio.read_config(_golden(data_dir, "config.json"))
    parses = cio.read_parses(
        _golden(data_dir, "parses.conllu"), groups, _golden(data_dir, "srl.jsonl")
    )
    samples = construct_corpus(
        groups, parses, config,
        seed=_GOLDEN_CONSTRUCT_SEED,
        neighbors=cio.read_neighbors(_golden(data_dir, "neighbors.jsonl"), groups)
        if neighbors else None,
        ppl=cio.read_ppl(_golden(data_dir, "ppl.jsonl"), groups),
    )
    expected = (data_dir / (
        "golden_construct_neighbors_corpus.jsonl" if neighbors
        else "golden_construct_corpus.jsonl"
    )).read_text(encoding="utf-8")
    assert [sample_to_wire(s) for s in samples] == [
        json.loads(line) for line in expected.splitlines()
    ]


def _golden_argv(data_dir, neighbors):
    argv = [
        "construct",
        "--captions", _golden(data_dir, "captions.jsonl"),
        "--parses", _golden(data_dir, "parses.conllu"),
        "--srl", _golden(data_dir, "srl.jsonl"),
        "--ppl", _golden(data_dir, "ppl.jsonl"),
        "--config", _golden(data_dir, "config.json"),
        "--seed", str(_GOLDEN_CONSTRUCT_SEED),
    ]
    if neighbors:
        argv += ["--neighbors", _golden(data_dir, "neighbors.jsonl")]
    return argv


def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path, data_dir):
    """construct on the golden pool and evaluate on the golden eval files
    write the same bytes under two string hash seeds, so the iteration
    order of a set or dict of strings reaches no output."""
    env = {**os.environ, "PYTHONPATH": str(Path(cio.__file__).resolve().parents[1])}
    written = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        runs = (
            _golden_argv(data_dir, neighbors=False) + ["--out", str(out / "corpus.jsonl")],
            [
                "evaluate",
                "--dataset", str(data_dir / "golden_eval_dataset.jsonl"),
                "--predictions", str(data_dir / "golden_eval_predictions.jsonl"),
                "--delta", "2", "--per-kind", "--out", str(out / "report.json"),
            ],
        )
        stdout = [
            subprocess.run(
                [sys.executable, "-m", "capedit.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True,
            ).stdout
            for argv in runs
        ]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        written.append((stdout, files))
    assert len(written[0][1]) == 6
    assert written[0] == written[1]


def _fixture_argv(data_dir):
    return [
        "construct",
        "--captions", str(data_dir / "captions.jsonl"),
        "--parses", str(data_dir / "parses.conllu"),
        "--srl", str(data_dir / "srl.jsonl"),
        "--neighbors", str(data_dir / "neighbors.jsonl"),
        "--ppl", str(data_dir / "ppl.jsonl"),
        "--config", str(data_dir / "config.json"),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: _golden_argv(d, neighbors=False),
        lambda d: _golden_argv(d, neighbors=True),
        _fixture_argv,
    ],
    ids=["golden-join", "golden-neighbors-file", "fixture"],
)
def test_construct_output_passes_its_own_checks(tmp_path, capsys, data_dir, argv):
    """Every written sample, scored with its own ground truth as the
    hypothesis, passes the length check, and the attribute and
    positional checks wherever they apply: construction and the metrics
    read a command the same way."""
    out = tmp_path / "corpus.jsonl"
    assert main(argv(data_dir) + ["--out", str(out)]) == 0
    units = [EvalUnit(s, s.ground_truth) for s in read_samples(str(out))]
    assert units
    failed = [
        u.sample.id
        for u in units
        if not len_acc(u) or attr_acc(u) is False or pos_acc(u) is False
    ]
    assert failed == []
    assert any(attr_acc(u) is not None for u in units)
    assert any(pos_acc(u) is not None for u in units)


def test_read_parses_checks_each_tree_once(data_dir, monkeypatch):
    calls = []
    inner = ParseAnnotation.__post_init__

    def counted(self):
        calls.append(self.caption_index)
        inner(self)

    monkeypatch.setattr(ParseAnnotation, "__post_init__", counted)
    groups = cio.read_captions(_golden(data_dir, "captions.jsonl"))
    parses = cio.read_parses(
        _golden(data_dir, "parses.conllu"), groups, _golden(data_dir, "srl.jsonl")
    )
    framed = [p for p in parses.values() if p.frames]
    assert framed and len(framed) < len(parses)
    # one check per sentence: attaching the SRL frames checks no copy
    assert len(calls) == len(parses)


_SRL_OK = '{"caption_id": "vid1#0", "predicate": 8, "arguments": []}\n'
_ROOT_ROW = "1\ta\t_\tDET\t_\t_\t0\troot\t_\t_\n"


def _sentence(sent_id, caption):
    """A CoNLL-U sentence over the words of caption, each headed by the last."""
    n = len(caption.split())
    rows = "".join(
        f"{i}\t{w}\t_\tX\t_\t_\t{0 if i == n else n}\t{'root' if i == n else 'dep'}\t_\t_\n"
        for i, w in enumerate(caption.split(), start=1)
    )
    return f"# sent_id = {sent_id}\n{rows}"


@pytest.mark.parametrize(
    "name, text, where, needle",
    [
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": "x", "arguments": []}',
         "{path}:2:", "predicate must be an integer"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 1.7, "arguments": []}',
         "{path}:2:", "predicate must be an integer"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"start": 0, "end": 1}]}', "{path}:2:", "missing field 'label'"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"label": "ARG0", "start": "0", "end": 1}]}', "{path}:2:", "start must be an integer"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": "ARG0"}',
         "{path}:2:", "arguments must be a list of objects"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": [1]}',
         "{path}:2:", "arguments must be a list of objects"),
        ("parses.conllu", "\n# sent_id = vid1-0\n" + _ROOT_ROW,
         "{path}:2:", "is not of the form <video_id>#<caption_index>"),
        ("parses.conllu", "# sent_id = vid1#0\n" + _ROOT_ROW + _ROOT_ROW.replace("1\ta", "2\tb"),
         "{path}:1: sentence 'vid1#0'", "exactly one root"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 99, "arguments": []}',
         "{path}:2:", "predicate 99 is outside caption 'vid1#0' (12 tokens)"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": -1, "arguments": []}',
         "{path}:2:", "predicate -1 is outside caption"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"label": "ARG0", "start": 6, "end": 2}]}', "{path}:2:",
         "argument 'ARG0' starts after it ends (6 > 2)"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"label": "ARG1", "start": 9, "end": 13}]}', "{path}:2:",
         "argument 'ARG1' span [9, 13) is outside caption 'vid1#0' (12 tokens)"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"label": "ARG0", "start": -1, "end": 4}]}', "{path}:2:",
         "argument 'ARG0' span [-1, 4) is outside caption"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": "abc"}',
         "{path}:1:", "ppl must be a number, got 'abc'"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": 42.0}\n{"caption_id": "vid1#1", "ppl": "42"}',
         "{path}:2:", "ppl must be a number, got '42'"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": true}',
         "{path}:1:", "ppl must be a number, got True"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": 42.0}\n{"caption_id": "vid1#1", "ppl": NaN}',
         "{path}:2:", "ppl must be a number, got nan"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": 1e400}',
         "{path}:1:", "ppl must be a number, got inf"),
        ("neighbors.jsonl", '{"video_id": "vid1", "neighbors": 5}',
         "{path}:1:", "neighbors must be a list of strings, got 5"),
        ("neighbors.jsonl", '{"video_id": "vid1", "neighbors": []}\n'
         '{"video_id": "vid1", "neighbors": "vid2"}',
         "{path}:2:", "neighbors must be a list of strings, got 'vid2'"),
        ("neighbors.jsonl", '{"video_id": "vid1", "neighbors": [1]}',
         "{path}:1:", "neighbors must be a list of strings, got [1]"),
        ("captions.jsonl", '{"video_id": "vid1", "lang": "en-word", "captions": "a dog runs ."}',
         "{path}:1:", "captions must be a list of strings, got 'a dog runs .'"),
        ("captions.jsonl", '{"video_id": "vid1", "lang": "en-word", "captions": ["a dog .", 1]}',
         "{path}:1:", "caption must be a string, got 1"),
        ("captions.jsonl", '{"video_id": "vid1", "lang": "en-word", "captions": ["a ."]}\n'
         '{"video_id": 7, "lang": "en-word", "captions": ["a ."]}',
         "{path}:2:", "video_id must be a string, got 7"),
        ("neighbors.jsonl", '{"video_id": null, "neighbors": []}',
         "{path}:1:", "video_id must be a string, got None"),
        ("ppl.jsonl", '{"caption_id": 7, "ppl": 42.0}',
         "{path}:1:", "caption_id must be a string, got 7"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": ["vid1#0"], "predicate": 8, "arguments": []}',
         "{path}:2:", "caption_id must be a string, got ['vid1#0']"),
        ("srl.jsonl", _SRL_OK + '{"caption_id": "vid1#0", "predicate": 8, "arguments": '
         '[{"label": 0, "start": 0, "end": 4}]}', "{path}:2:", "label must be a string, got 0"),
        ("parses.conllu", "\n# sent_id = vid1#0\n" + _ROOT_ROW
         + "2\tb\t_\tNOUN\t_\t_\t3\tdep\t_\t_\n3\tc\t_\tNOUN\t_\t_\t2\tdep\t_\t_\n",
         "{path}:2: sentence 'vid1#0'", "cycle"),
        ("parses.conllu", "# sent_id = vid1#1\n" + _ROOT_ROW + "\n\n# sent_id = vid1#2\n"
         + _ROOT_ROW + _ROOT_ROW.replace("1\ta", "2\tb"),
         "{path}:5: sentence 'vid1#2'", "exactly one root"),
        ("parses.conllu", "# sent_id = vid1#0\n" + _ROOT_ROW + "\n# sent_id = vid1#0\n" + _ROOT_ROW,
         "{path}:4:", "duplicate sent_id 'vid1#0'"),
        ("parses.conllu", _sentence("vid1#0", "A group of girls is on the field playing a game .")
         + "\n" + _sentence("vid1#1", "A group of boys is playing a game ."),
         "{path}:15: sentence 'vid1#1'", "parse token 3 is 'boys', caption has 'girls'"),
        ("parses.conllu", _sentence("vid2#1", "the dog chases a ball"),
         "{path}:1: sentence 'vid2#1'", "parse has 5 tokens for a 6-token caption"),
        ("neighbors.jsonl", '{"video_id": "vid2", "neighbors": ["vid1"]}\n'
         '{"video_id": "vid1", "neighbors": ["vid3"]}',
         "{path}:2:", "neighbor list names unknown video 'vid3'"),
        ("captions.jsonl", '{"video_id": "vid1", "lang": "en-word", "captions": '
         '["A group of girls is on the field playing a game .", "girls play [o] ."]}',
         "{path}:1:", "caption 1: token '[o]' collides with the control grammar"),
        ("captions.jsonl", '{"video_id": "vid1", "lang": "en-word", "captions": '
         '["A group of girls is on the field playing a game .", '
         '"A group of girls [ADD] is playing a game ."]}',
         "{path}:1:", "caption 1: token '[ADD]' collides with the control grammar"),
        ("neighbors.jsonl", '{"video_id": "vid2", "neighbors": ["vid1"]}\n'
         '{"video_id": "vid2", "neighbors": []}',
         "{path}:2:", "duplicate video id 'vid2'"),
        ("neighbors.jsonl", '{"video_id": "vid1", "neighbors": ["vid1"]}',
         "{path}:1:", "video 'vid1' is listed as its own neighbor"),
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": 1.0}\n{"caption_id": "vid1#0", "ppl": 999.0}',
         "{path}:2:", "duplicate caption id 'vid1#0'"),
        # "#00" names the caption "#0" names
        ("ppl.jsonl", '{"caption_id": "vid1#0", "ppl": 1.0}\n{"caption_id": "vid1#00", "ppl": 9.0}',
         "{path}:2:", "duplicate caption id 'vid1#00'"),
        # a tree is checked for one root, then for heads in range, then for a cycle
        ("parses.conllu", "# sent_id = vid1#0\n1\ta\t_\tDET\t_\t_\t9\tdep\t_\t_\n"
         + _ROOT_ROW.replace("1\ta", "2\tb") + _ROOT_ROW.replace("1\ta", "3\tc"),
         "{path}:1: sentence 'vid1#0'", "parse must have exactly one root, found 2"),
        ("parses.conllu", "# sent_id = vid1#0\n" + _ROOT_ROW
         + "2\tb\t_\tNOUN\t_\t_\t3\tdep\t_\t_\n3\tc\t_\tNOUN\t_\t_\t2\tdep\t_\t_\n"
         + "4\td\t_\tNOUN\t_\t_\t9\tdep\t_\t_\n",
         "{path}:1: sentence 'vid1#0'", "token 3: head 8 out of range"),
    ],
    ids=[
        "srl-predicate-string", "srl-predicate-float", "srl-argument-without-label",
        "srl-start-string", "srl-arguments-string", "srl-arguments-not-objects",
        "conllu-bad-sent-id", "conllu-two-roots",
        "srl-predicate-past-end", "srl-predicate-negative", "srl-start-after-end",
        "srl-end-past-caption", "srl-start-negative",
        "ppl-string", "ppl-numeric-string", "ppl-bool", "ppl-nan", "ppl-past-float-range",
        "neighbors-number", "neighbors-string", "neighbors-not-strings",
        "captions-string", "captions-not-strings", "captions-video-id-number",
        "neighbors-video-id-null", "ppl-caption-id-number", "srl-caption-id-list",
        "srl-label-number", "conllu-cycle", "conllu-second-sentence-two-roots",
        "conllu-duplicate-sent-id", "conllu-token-mismatch", "conllu-token-count",
        "neighbors-unknown-video", "captions-reserved-token-reference",
        "captions-reserved-token-truth", "neighbors-duplicate-video", "neighbors-self",
        "ppl-duplicate-caption", "ppl-duplicate-caption-other-spelling",
        "conllu-two-roots-before-head-out-of-range", "conllu-head-out-of-range-before-cycle",
    ],
)
def test_cli_malformed_annotation_exits_two(tmp_path, capsys, data_dir, name, text, where, needle):
    inputs = {
        n: str(data_dir / n)
        for n in ("captions.jsonl", "parses.conllu", "srl.jsonl", "neighbors.jsonl", "ppl.jsonl")
    }
    inputs[name] = path = _write(tmp_path / name, text + "\n")
    argv = [
        "construct",
        "--captions", inputs["captions.jsonl"],
        "--parses", inputs["parses.conllu"],
        "--srl", inputs["srl.jsonl"],
        "--neighbors", inputs["neighbors.jsonl"],
        "--ppl", inputs["ppl.jsonl"],
        "--out", str(tmp_path / "corpus.jsonl"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where.format(path=path) in err and needle in err


def test_cli_construct_ignores_annotations_of_unknown_captions(tmp_path, data_dir):
    # a sentence or neighbor line naming no caption of the pools is not
    # checked against them and changes nothing
    out = tmp_path / "corpus.jsonl"
    argv = ["construct", "--captions", str(data_dir / "captions.jsonl"), "--out", str(out)]
    assert main(argv + ["--neighbors", _write(tmp_path / "none.jsonl", "")]) == 0
    expected = out.read_bytes()
    parses = _write(
        tmp_path / "p.conllu",
        _sentence("vid9#0", "no such caption") + "\n" + _sentence("vid1#7", "x y"),
    )
    neighbors = _write(tmp_path / "n.jsonl", '{"video_id": "vid9", "neighbors": ["vid9", "vid8"]}\n')
    assert main(argv + ["--parses", parses, "--neighbors", neighbors]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "cid", ["vid9#0", "vid1#7", "vid1"], ids=["unknown-video", "index-past-pool", "no-index"]
)
def test_cli_construct_unknown_ppl_caption_cites_its_line(tmp_path, capsys, data_dir, cid):
    ppl = _write(
        tmp_path / "ppl.jsonl",
        json.dumps({"caption_id": "vid1#0", "ppl": 42.0}) + "\n"
        + json.dumps({"caption_id": cid, "ppl": 3.0}) + "\n",
    )
    argv = [
        "construct", "--captions", str(data_dir / "captions.jsonl"),
        "--ppl", ppl, "--out", str(tmp_path / "corpus.jsonl"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{ppl}:2: perplexity entry for unknown caption {cid!r}" in err


def _construct_argv(data_dir, out, config) -> list[str]:
    return [
        "construct",
        "--captions", str(data_dir / "captions.jsonl"),
        "--parses", str(data_dir / "parses.conllu"),
        "--srl", str(data_dir / "srl.jsonl"),
        "--neighbors", str(data_dir / "neighbors.jsonl"),
        "--ppl", str(data_dir / "ppl.jsonl"),
        "--config", config,
        "--out", str(out),
    ]


@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"min_length_diff": 5,}', "invalid JSON"),
        ('{"min_length_diff": "\udcff"}', "invalid JSON ('utf-8' codec can't decode"),
        ('{"min_length_diff": "5"}', "min_length_diff must be a non-negative integer, got '5'"),
        ('{"removable_relations": 5}', "removable_relations must be a list of strings, got 5"),
        ('{"split": {"ratios": [1]}}', "split ratios must be three non-negative numbers"),
        ('{"unknown_knob": 1}', "unknown construction config keys: ['unknown_knob']"),
        ('{"merge_max_tokens": 1.5}', "merge_max_tokens must be a non-negative integer, got 1.5"),
        ('{"max_per_kind": -1}', "max_per_kind must be a non-negative integer or null, got -1"),
        ('{"balance_tolerance": -1}', "balance_tolerance must be a non-negative integer, got -1"),
        ('{"similarity_threshold": true}', "similarity_threshold must be a number, got True"),
        ('{"ppl_threshold": "10"}', "ppl_threshold must be a number or null, got '10'"),
        ('{"attribute_pos": ["NOUN", 1]}', "attribute_pos must be a list of strings"),
        ('{"attribute_pos": "NOUN"}', "attribute_pos must be a list of strings, got 'NOUN'"),
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"split": 5}', "split must be an object of ratios, seed and mapping, got 5"),
        ('{"split": {"ratios": [0.5, -0.25, 0.75]}}', "split ratios must be"),
        ('{"split": {"ratios": "0.7"}}', "split ratios must be"),
        ('{"split": {"ratios": [0.5, 0.5, 0.5]}}', "split ratios must be"),
        ('{"min_length_diff": null}', "min_length_diff must be a non-negative integer, got None"),
        ('{"split": {"seed": "1"}}', "split seed must be an integer, got '1'"),
        ('{"split": {"mapping": {"vid1": "dev"}}}', "split mapping must map video ids"),
        ('{"split": {"mapping": ["vid1"]}}', "split mapping must map video ids"),
        ('{"split": {"ratio": [1, 0, 0]}}', "split must be an object of ratios, seed and mapping"),
        ('{"ppl_threshold": NaN}', "ppl_threshold must be a number or null, got nan"),
        ('{"similarity_threshold": 1e400}', "similarity_threshold must be a number, got inf"),
        ('{"similarity_threshold": -Infinity}', "similarity_threshold must be a number, got -inf"),
    ],
    ids=[
        "invalid-json", "not-utf8", "int-as-string", "set-as-number", "one-ratio", "unknown-key",
        "int-as-float", "negative-cap", "negative-tolerance", "float-as-bool",
        "optional-as-string", "set-with-number", "set-as-string", "not-an-object",
        "split-not-an-object", "negative-ratio", "ratios-as-string", "ratios-sum-past-one",
        "null-for-required", "seed-as-string",
        "unknown-partition", "mapping-as-list", "unknown-split-key",
        "nan", "past-float-range", "negative-infinity",
    ],
)
def test_cli_construct_malformed_config_exits_two(tmp_path, capsys, data_dir, text, needle):
    config = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(_construct_argv(data_dir, tmp_path / "corpus.jsonl", config)) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and needle in err


@pytest.mark.parametrize(
    "split",
    [
        {"ratios": [0.5, 0.25, 0.25], "seed": 1},
        {"mapping": {"vid1": "train", "vid2": "test"}},  # val stays empty
    ],
    ids=["ratios", "mapping-with-empty-partition"],
)
def test_cli_construct_split_files_are_filtered_corpus_lines(tmp_path, data_dir, split):
    config = _write(tmp_path / "config.json", json.dumps({"split": split}))
    out = tmp_path / "corpus.jsonl"
    assert main(_construct_argv(data_dir, out, config)) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    videos = {json.loads(line)["video_id"] for line in lines}
    assert len(videos) == 2
    seen = []
    for part in ("train", "val", "test"):
        part_text = (tmp_path / f"corpus.{part}.jsonl").read_text(encoding="utf-8")
        part_lines = part_text.splitlines(keepends=True)
        part_videos = {json.loads(line)["video_id"] for line in part_lines}
        # the corpus lines of the partition's videos, in corpus order
        assert part_lines == [
            line for line in lines if json.loads(line)["video_id"] in part_videos
        ]
        seen.extend(part_lines)
        if "mapping" in split:
            assert part_videos == {v for v, p in split["mapping"].items() if p == part}
    assert sorted(seen) == sorted(lines)
    if "mapping" in split:
        assert (tmp_path / "corpus.val.jsonl").read_bytes() == b""


def test_cli_construct_serializes_each_record_once(tmp_path, data_dir, monkeypatch):
    calls = []
    inner = cio._record_line

    def counted(sample):
        calls.append(sample.id)
        return inner(sample)

    monkeypatch.setattr(cio, "_record_line", counted)
    out = tmp_path / "corpus.jsonl"
    assert main(_construct_argv(data_dir, out, str(data_dir / "config.json"))) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert calls == [json.loads(line)["id"] for line in lines]
    assert all((tmp_path / f"corpus.{p}.jsonl").exists() for p in ("train", "val", "test"))


def test_cli_construct_captions_only(tmp_path, data_dir):
    out = tmp_path / "plain.jsonl"
    assert main([
        "construct", "--captions", str(data_dir / "captions.jsonl"),
        "--out", str(out),
    ]) == 0
    samples = read_samples(str(out))
    # no parses and no similar videos: only the length pair survives
    assert [kind(s.command) for s in samples] == [CommandKind.ADD_LEN]


def test_cli_construct_stacked_adjectives(tmp_path):
    captions = _write(
        tmp_path / "captions.jsonl",
        json.dumps({"video_id": "v", "lang": "en-word",
                    "captions": ["a small brown dog runs across the park ."]}) + "\n",
    )
    rows = [
        ("a", "DET", 4, "det"), ("small", "ADJ", 4, "amod"), ("brown", "ADJ", 4, "amod"),
        ("dog", "NOUN", 5, "nsubj"), ("runs", "VERB", 0, "root"), ("across", "ADP", 8, "case"),
        ("the", "DET", 8, "det"), ("park", "NOUN", 5, "obl"), (".", "PUNCT", 5, "punct"),
    ]
    parses = _write(
        tmp_path / "parses.conllu",
        "# sent_id = v#0\n"
        + "".join(
            f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n"
            for i, (form, upos, head, rel) in enumerate(rows, start=1)
        )
        + "\n",
    )
    out = tmp_path / "corpus.jsonl"
    assert main(["construct", "--captions", captions, "--parses", parses, "--out", str(out)]) == 0
    samples = read_samples(str(out))
    assert any(s.payload is not None for s in samples)
    for s in samples:
        if s.payload is not None:
            assert oracle_apply(s.command, s.reference, s.payload) == s.ground_truth


def test_cli_construct_srl_needs_parses(tmp_path, capsys, data_dir):
    srl = _write(tmp_path / "srl.jsonl", '{"caption_id": 5}\n')
    out = tmp_path / "corpus.jsonl"
    argv = ["construct", "--captions", str(data_dir / "captions.jsonl"), "--srl", srl,
            "--out", str(out)]
    assert main(argv) == 2
    assert "error: --srl needs --parses" in capsys.readouterr().err
    assert not out.exists()


def test_cli_construct_without_samples_exits_two(tmp_path, capsys):
    captions = _write(
        tmp_path / "captions.jsonl",
        json.dumps({"video_id": "v", "lang": "en-word", "captions": ["a dog runs ."]}) + "\n",
    )
    assert main(["construct", "--captions", captions, "--out", str(tmp_path / "c.jsonl")]) == 2
    assert "error: construction produced no samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rec, message",
    [
        # nothing before the final punctuation is left to drop
        (_record(command={"op": "del"}, reference=".", ground_truth="a"),
         "cannot shorten a 1-token caption below 0 tokens"),
        # no surplus tail of the truth to insert
        (_record(reference="a b c .", ground_truth="a ."),
         "ground truth is not longer than the reference"),
    ],
    ids=["del-len-of-punctuation", "add-len-with-shorter-truth"],
)
def test_cli_oracle_edit_unrealizable_sample_exits_two(tmp_path, capsys, rec, message):
    ds = _write(tmp_path / "ds.jsonl", json.dumps(rec) + "\n")
    assert main(["oracle-edit", "--dataset", ds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ds}:1: sample 'r0': {message}\n"


def test_cli_oracle_edit_reports_the_first_fault_in_file_order(tmp_path, capsys):
    # the dataset is streamed, so an unrealizable sample at line 2 is
    # reported before the invalid JSON at line 5 is read
    lines = [
        json.dumps(_record(id="a")),
        json.dumps(_record(id="r0", reference="a b c .", ground_truth="a .")),
        json.dumps(_record(id="b")),
        json.dumps(_record(id="c")),
        "{nope",
    ]
    ds = _write(tmp_path / "ds.jsonl", "\n".join(lines) + "\n")
    assert main(["oracle-edit", "--dataset", ds]) == 2
    assert capsys.readouterr().err == (
        f"error: {ds}:2: sample 'r0': ground truth is not longer than the reference\n"
    )


@pytest.mark.parametrize("subcommand", ["serialize", "oracle-edit"])
def test_cli_bad_last_line_leaves_out_unchanged(tmp_path, capsys, subcommand):
    # nothing is written before the whole dataset has been read
    ds, _ = _evaluate_flow(tmp_path)
    with open(ds, "a", encoding="utf-8") as fh:
        fh.write("{nope\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"kept\n")
    assert main([subcommand, "--dataset", str(ds), "--out", str(out)]) == 2
    lines = ds.read_text(encoding="utf-8").count("\n")
    assert f"error: {ds}:{lines}: invalid JSON" in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"


def test_cli_session_empty_script_exits_two(tmp_path, capsys):
    script = _write(tmp_path / "script.jsonl", "\n\n")
    assert main(["session", "--script", script]) == 2
    assert f"error: {script}: empty session script" in capsys.readouterr().err


def test_cli_internal_error_exits_one(tmp_path, capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cio, "iter_dataset", broken)
    assert main(["stats", "--dataset", str(tmp_path / "any.jsonl")]) == 1
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


_UTF8_READERS = ("dataset", "predictions", "captions", "parses", "srl", "neighbors", "ppl",
                 "controls", "session")


@pytest.mark.parametrize("padding", [0, 10_000], ids=["first-line", "past-8-KiB"])
@pytest.mark.parametrize("reader", _UTF8_READERS)
def test_cli_non_utf8_input_exits_two_at_its_line(tmp_path, capsys, data_dir, reader, padding):
    """A byte that is not UTF-8 is reported at its path:line, also past the
    first 8 KiB the decoder reads at once."""
    dataset = _write(tmp_path / "ds.jsonl", json.dumps(_record()) + "\n")
    files = {
        n: str(data_dir / f"{n}.{'conllu' if n == 'parses' else 'jsonl'}")
        for n in ("captions", "parses", "srl", "neighbors", "ppl")
    }
    good = {
        "dataset": json.dumps(_record()),
        "predictions": json.dumps({"id": "r0", "hypothesis": "a b c ."}),
        "controls": "a\t[o] [ADD] [/o] [a] [/a] [r] x [/r]",
        "session": _SESSION_HEAD,
    }
    if reader not in good:
        with open(files[reader], encoding="utf-8") as fh:
            good[reader] = fh.read().rstrip("\n")
    # a valid start, then blank lines past the first 8 KiB, then the bad
    # line, then lines that are never read
    text = good[reader] + "\n" * (padding + 1) if padding else ""
    path = tmp_path / f"bad-{reader}"
    path.write_bytes(text.encode("utf-8") + b'{"caption": "caf\xe9"}\n' + b"{}\n" * 3)
    files[reader] = path = str(path)
    argv = {
        "dataset": ["stats", "--dataset", path],
        "predictions": ["evaluate", "--dataset", dataset, "--predictions", path],
        "controls": ["parse-control", "--in", path],
        "session": ["session", "--script", path],
    }.get(reader, [
        "construct", "--captions", files["captions"], "--parses", files["parses"],
        "--srl", files["srl"], "--neighbors", files["neighbors"], "--ppl", files["ppl"],
        "--out", str(tmp_path / "corpus.jsonl"),
    ])
    assert main(argv) == 2
    line = text.count("\n") + 1
    assert f"error: {path}:{line}: not UTF-8" in capsys.readouterr().err
    assert len(text) > 8192 or line == 1


def test_cli_stats(tmp_path, capsys):
    ds, _ = _evaluate_flow(tmp_path, per_kind=2)
    assert main(["stats", "--dataset", str(ds)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["count"] == 14
    assert stats["vocabulary"] > 0


@pytest.mark.skipif(shutil.which("capedit") is None, reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["capedit", "align", "--ref", "a [MASK] b", "--hyp", "a x b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mask_spans"] == [[1, 2]]


def test_public_names_resolve_and_readme_library_snippet_runs(capsys):
    import capedit

    for name in capedit.__all__:
        getattr(capedit, name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(snippet, {})
    assert capsys.readouterr().out.splitlines()[-1] == "((5, 7),)"


def test_no_unused_imports_in_the_package():
    # no linter is part of the toolchain, so a deletion that leaves an
    # import behind would go unnoticed; __init__ imports to re-export
    import ast

    import capedit

    unused = []
    for path in sorted(Path(capedit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []
