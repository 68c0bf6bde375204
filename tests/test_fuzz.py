"""Every subcommand on mutated copies of its inputs: bad input exits 2
with a message, and only a defect exits 1.

Each example takes the files a subcommand reads (the tests/data inputs,
a corpus constructed from them, its oracle predictions and control
strings, a session script), changes one node of one JSON record, one
column of a CoNLL-U row, one token of a control line or one raw line,
and runs the subcommand in-process.  Derandomized and bounded, so every
run checks the same examples.  Whole-file mutations, which no one-node
change can make, are run on every input file of every subcommand."""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedit.cli import main

DATA = Path(__file__).parent / "data"
EXAMPLES = 40

_SESSION = [
    {"video_id": "v1", "caption": "A group of girls is playing a game .", "lang": "en-word"},
    {"command": {"op": "add", "positions": [5], "attributes": ["field", "hockey"]}},
    {"command": {"op": "del", "attributes": ["hockey"]}},
    {"command": {"op": "add", "positions": [0]}, "payload": ["Today"]},
    {"command": {"op": "add"}, "hypothesis": "Today a group of girls is playing ."},
    {"command": {"op": "del", "positions": [[0, 1]]}},
]

_WORDS = st.sampled_from(
    ["[MASK]", "[o]", "[/a]", "[ADD]", "[DEL]", ",", "#", "vid1", "vid1#0", "vid2#1",
     "en-word", "zh-char", "add", "del", "train", "test", "root", "a", "狗", " ", ""]
)
_TEXT = st.lists(_WORDS | st.text(max_size=3), max_size=4).map(" ".join)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([10**30, -(10**30)])
    | st.floats(allow_nan=True, allow_infinity=True) | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORDS, inner, max_size=3),
    max_leaves=6,
)


def _mutate_value(value, data):
    """value with one node, found by a random walk, replaced or dropped."""
    if isinstance(value, (dict, list)) and value and data.draw(st.integers(0, 4)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(list(keys)))
        out = dict(value) if isinstance(value, dict) else list(value)
        if data.draw(st.integers(0, 5)):
            out[key] = _mutate_value(value[key], data)
        else:
            del out[key]
        return out
    return data.draw(_JSON)


def _mutate_line(line: str, kind: str, data) -> str:
    if not data.draw(st.integers(0, 9)):
        return data.draw(st.sampled_from(["", "{", "[]", "null", line[: len(line) // 2]]))
    if kind == "json":
        return json.dumps(_mutate_value(json.loads(line), data), ensure_ascii=False)
    sep = "\t" if kind == "conllu" else " "
    parts = line.split(sep)
    i = data.draw(st.integers(0, len(parts) - 1))
    if data.draw(st.booleans()):
        parts[i] = data.draw(_WORDS | st.integers(-2, 20).map(str))
    else:
        del parts[i]
    return sep.join(parts)


def _mutate_file(path: Path, data) -> None:
    if path.suffix == ".json":
        text = json.dumps(_mutate_value(json.loads(path.read_text(encoding="utf-8")), data))
        path.write_text(text, encoding="utf-8")
        return
    kind = {".jsonl": "json", ".conllu": "conllu", ".tsv": "tsv"}[path.suffix]
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if line.strip()]
    i = data.draw(st.sampled_from(rows))
    lines[i] = _mutate_line(lines[i], kind, data)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The tests/data inputs plus a corpus built from them, its oracle
    predictions and control strings, and a session script."""
    base = tmp_path_factory.mktemp("fuzz")
    for name in ("captions.jsonl", "parses.conllu", "srl.jsonl", "neighbors.jsonl",
                 "ppl.jsonl", "config.json"):
        shutil.copy(DATA / name, base / name)
    corpus, preds, ctrl = (str(base / n) for n in ("corpus.jsonl", "preds.jsonl", "ctrl.tsv"))
    assert _run(_ARGV["construct"](base) + ["--out", corpus])[0] == 0
    assert _run(["oracle-edit", "--dataset", corpus, "--out", preds])[0] == 0
    assert _run(["serialize", "--dataset", corpus, "--out", ctrl])[0] == 0
    (base / "session.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in _SESSION), encoding="utf-8"
    )
    return base


# each subcommand's input files, and its argv over a directory holding them
_FILES = {
    "construct": ("captions.jsonl", "parses.conllu", "srl.jsonl", "neighbors.jsonl",
                  "ppl.jsonl", "config.json"),
    "evaluate": ("corpus.jsonl", "preds.jsonl"),
    "serialize": ("corpus.jsonl",),
    "oracle-edit": ("corpus.jsonl",),
    "stats": ("corpus.jsonl",),
    "parse-control": ("ctrl.tsv",),
    "session": ("session.jsonl",),
}
_ARGV = {
    "construct": lambda d: [
        "construct", "--captions", str(d / "captions.jsonl"),
        "--parses", str(d / "parses.conllu"), "--srl", str(d / "srl.jsonl"),
        "--neighbors", str(d / "neighbors.jsonl"), "--ppl", str(d / "ppl.jsonl"),
        "--config", str(d / "config.json"),
    ],
    "evaluate": lambda d: [
        "evaluate", "--dataset", str(d / "corpus.jsonl"),
        "--predictions", str(d / "preds.jsonl"), "--per-kind", "--out", str(d / "report.json"),
    ],
    "serialize": lambda d: ["serialize", "--dataset", str(d / "corpus.jsonl")],
    "oracle-edit": lambda d: ["oracle-edit", "--dataset", str(d / "corpus.jsonl")],
    "stats": lambda d: ["stats", "--dataset", str(d / "corpus.jsonl")],
    "parse-control": lambda d: ["parse-control", "--in", str(d / "ctrl.tsv")],
    "session": lambda d: ["session", "--script", str(d / "session.jsonl")],
}


@pytest.mark.parametrize("command", sorted(_FILES))
def test_cli_mutated_input_exits_zero_or_two(inputs, command):
    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name in _FILES[command]:
                shutil.copy(inputs / name, work / name)
            _mutate_file(work / data.draw(st.sampled_from(_FILES[command])), data)
            argv = _ARGV[command](work)
            if command == "construct":
                argv += ["--out", str(work / "corpus.jsonl")]
            if command == "parse-control":
                argv += ["--mode", data.draw(st.sampled_from(["en-word", "zh-char"]))]
            code, err = _run(argv)
        assert code in (0, 2), err
        assert code == 0 or err.startswith("error: "), err

    check()


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(
    mode=st.sampled_from(["en-word", "zh-char"]),
    ref=st.lists(_WORDS, max_size=8).map(" ".join),
    hyp=st.lists(_WORDS, max_size=8).map(" ".join),
)
def test_cli_align_on_any_text_exits_zero_or_two(mode, ref, hyp):
    code, err = _run(["align", "--mode", mode, "--ref", ref, "--hyp", hyp])
    assert code in (0, 2), err


def _flip_lang(text: str) -> str:
    """The last record that has a "lang" field, with the other mode."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    for record in reversed(records):
        if isinstance(record, dict) and "lang" in record:
            record["lang"] = "zh-char" if record["lang"] == "en-word" else "en-word"
            break
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def _numbers(value, number: float):
    """value with every float replaced by number; a dataset record also
    gets that perplexity, so that evaluate averages more than one."""
    if isinstance(value, list):
        return [_numbers(v, number) for v in value]
    if isinstance(value, dict):
        out = {k: _numbers(v, number) for k, v in value.items()}
        if "ground_truth" in out:
            aux = out.get("aux")
            out["aux"] = {**(aux if isinstance(aux, dict) else {}), "ppl": number}
        return out
    return number if type(value) is float else value


def _with_numbers(number: float):
    def mutate(text: str, suffix: str) -> str:
        if suffix == ".json":
            return json.dumps(_numbers(json.loads(text), number))
        return "".join(
            json.dumps(_numbers(json.loads(line), number), ensure_ascii=False) + "\n"
            for line in text.splitlines() if line.strip()
        )
    return mutate


def _number_path(value, path=()):
    """The keys down to value's first number, or None when it holds none."""
    if type(value) in (int, float):
        return path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            found = _number_path(item, (*path, key))
            if found is not None:
                return found
    return None


_PLACEHOLDER = "\ufdd0"  # a noncharacter that no input holds


def _with_literal(literal: str, number: bool):
    """One value replaced by a JSON literal: the file's first number when
    number is set and the file holds one, else its first record's first
    value.  The literal is spliced into the text, as json.dumps cannot
    write it."""
    def mutate(text: str, suffix: str) -> str:
        docs = [json.loads(line) for line in ([text] if suffix == ".json" else text.splitlines())
                if line.strip()]
        found = [(doc, path) for doc in docs if number and (path := _number_path(doc))]
        doc, path = found[0] if found else (docs[0], (next(iter(docs[0])),))
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = _PLACEHOLDER
        out = "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs)
        return out.replace(json.dumps(_PLACEHOLDER, ensure_ascii=False), literal)
    return mutate


# whole-file mutations: (text, file suffix) -> text, and the suffixes
# each applies to
_WHOLE_FILE = {
    "empty": (lambda text, suffix: "", (".jsonl", ".json", ".conllu", ".tsv")),
    "blank-lines": (lambda text, suffix: "\n  \n\n", (".jsonl", ".conllu", ".tsv")),
    "lang-flipped": (lambda text, suffix: _flip_lang(text), (".jsonl",)),
    "nan": (_with_numbers(math.nan), (".jsonl", ".json")),
    "1e308": (_with_numbers(1e308), (".jsonl", ".json")),
    # json.loads raises RecursionError on the one and ValueError (the
    # int-string digit limit) on the other, not JSONDecodeError
    "deep-array": (_with_literal("[" * 1000 + "]" * 1000, number=False), (".jsonl", ".json")),
    "long-int": (_with_literal("9" * 5000, number=True), (".jsonl", ".json")),
}


@pytest.mark.parametrize("mutation", sorted(_WHOLE_FILE))
@pytest.mark.parametrize("command", sorted(_FILES))
def test_cli_whole_file_mutation_exits_zero_or_two(inputs, command, mutation, tmp_path):
    mutate, suffixes = _WHOLE_FILE[mutation]
    names = [n for n in _FILES[command] if Path(n).suffix in suffixes]
    for name in names:
        work = tmp_path / name.replace(".", "-")
        work.mkdir()
        for other in _FILES[command]:
            shutil.copy(inputs / other, work / other)
        path = work / name
        path.write_text(mutate(path.read_text(encoding="utf-8"), path.suffix), encoding="utf-8")
        argv = _ARGV[command](work)
        if command == "construct":
            argv += ["--out", str(work / "corpus.jsonl")]
        code, err = _run(argv)
        assert code in (0, 2), f"{name}: {err}"
        assert code == 0 or err.startswith("error: "), f"{name}: {err}"
        # what a successful run writes is JSON: no NaN or Infinity token
        written = [work / "report.json"] if command == "evaluate" else []
        if command == "construct":
            written = list(work.glob("corpus*.json*"))
        for out in written if code == 0 else ():
            text = out.read_text(encoding="utf-8")
            for doc in text.splitlines() if out.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=_not_json)


def _not_json(token: str):
    raise AssertionError(f"non-JSON token {token}")
