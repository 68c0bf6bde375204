"""Line-delimited JSON dataset/prediction records and annotation readers.

Dataset records carry one editing quadruple each:

    {"id": ..., "video_id": ..., "lang": "en-word"|"zh-char",
     "command": {"op": "add"|"del", "positions": [...], "attributes": [...]},
     "reference": "...", "ground_truth": "...",
     "payload": [...], "aux": {"ppl": ..., "emscore": ...},
     "provenance": "..."}

positions are gap indexes for add and [start, end) pairs for del;
attributes and payload spans are plain strings tokenized by the
record's language mode.  Optional fields are omitted when absent, and
emitted files re-read losslessly (write -> read -> write is
byte-stable).  Errors name the file and line.

The JSONL readers parse one line at a time.  iter_dataset, the only
dataset reader, hands each sample on as soon as its line is read, and
no CLI command keeps the samples; the other readers return all they read.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from typing import Iterable, Iterator, TextIO

from capedit.commands import RESERVED_TOKENS, Command, Operation
from capedit.construction import (
    PARTITIONS,
    CaptionGroup,
    ConstructionConfig,
    DepToken,
    EditSample,
    ParseAnnotation,
    Provenance,
    SrlFrame,
)
from capedit.editing import Payload, Session
from capedit.errors import CapeditError, DatasetError
from capedit.text import LanguageMode, TokenSeq, detokenize, tokenize


class _Record:
    """A JSON object read from path:lineno.

    Each getter reads a required field under the input rules and
    reports a violation through error(), so every message names the
    location; has() tells whether an optional field is given."""

    __slots__ = ("data", "path", "lineno")

    def __init__(self, data, path: str, lineno: int) -> None:
        self.data, self.path, self.lineno = data, path, lineno

    def error(self, msg: str) -> DatasetError:
        return DatasetError(f"{self.path}:{self.lineno}: {msg}")

    def has(self, key: str) -> bool:
        """The field is present and not null."""
        return self.data.get(key) is not None

    def require(self, key: str):
        try:
            return self.data[key]
        except KeyError:
            raise self.error(f"missing field {key!r}") from None

    def string(self, key: str) -> str:
        """A JSON string; str() would turn null into "None" and 7 into "7"."""
        value = self.require(key)
        if not isinstance(value, str):
            raise self.error(f"{key} must be a string, got {value!r}")
        return value

    def integer(self, key: str) -> int:
        """A JSON integer; int() would truncate 1.7 and accept true and "1"."""
        value = self.require(key)
        if type(value) is not int:
            raise self.error(f"{key} must be an integer, got {value!r}")
        return value

    def number(self, key: str) -> float:
        """A JSON number as a finite float; float() would also accept true
        and "42".  json reads the non-JSON NaN and Infinity, and a literal
        past the float range such as 1e400 as inf; all are rejected."""
        value = self.require(key)
        if type(value) in (int, float):
            try:
                number = float(value)
            except OverflowError:
                pass
            else:
                if math.isfinite(number):
                    return number
        raise self.error(f"{key} must be a number, got {value!r}")

    def text(self, key: str, mode: LanguageMode) -> TokenSeq:
        """A string tokenized in mode."""
        return tokenize(self.string(key), mode)

    def strings(self, key: str, item: str | None = None) -> list[str]:
        """A list of strings; a non-string entry is reported as the item
        when item names it, else as the list."""
        value = self.require(key)
        if not isinstance(value, list):
            raise self.error(f"{key} must be a list of strings, got {value!r}")
        for v in value:
            if not isinstance(v, str):
                raise self.error(
                    f"{item} must be a string, got {v!r}" if item
                    else f"{key} must be a list of strings, got {value!r}"
                )
        return value

    def texts(self, key: str, item: str, mode: LanguageMode) -> tuple[TokenSeq, ...]:
        """A list of strings, each tokenized in mode."""
        return tuple(tokenize(v, mode) for v in self.strings(key, item))

    def mode(self, default: str | None = None) -> LanguageMode:
        """The "lang" field; default, when given, stands for an absent one."""
        try:
            return LanguageMode.from_wire(
                self.data.get("lang", default) if default else self.require("lang")
            )
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def nested(self, key: str) -> _Record:
        """The object under key, read at this location."""
        value = self.require(key)
        if not isinstance(value, dict):
            raise self.error(f"{key} must be an object, got {value!r}")
        return _Record(value, self.path, self.lineno)


def read_lines(path: str):
    """(line number, line) of a UTF-8 text file.  A byte that is not
    UTF-8 is reported at the path:line holding it, which is looked up
    only once the decoder has failed."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                # universal newlines, as the text reader counts lines
                for lineno, line in enumerate(raw.read().splitlines(), start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        break
            raise DatasetError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from exc


def _records(path: str):
    """The JSON objects of a JSONL file; blank lines are skipped."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        rec = _Record(None, path, lineno)
        try:
            rec.data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # besides JSONDecodeError: an integer literal past CPython's
            # digit limit (ValueError) and nesting too deep (RecursionError)
            raise rec.error(f"invalid JSON ({exc})") from exc
        if not isinstance(rec.data, dict):
            raise rec.error(f"expected a JSON object, got {type(rec.data).__name__}")
        yield rec


def _split_caption_id(cid: str) -> tuple[str, int] | None:
    """(video_id, caption_index) from "<video_id>#<caption_index>", or
    None when cid is not of that form."""
    vid, _, idx = cid.rpartition("#")
    if not vid or not idx.isdecimal():
        return None
    return vid, int(idx)


def _payload(rec: _Record, mode: LanguageMode) -> Payload | None:
    """The optional payload: a list of strings, one token span each."""
    if not rec.has("payload"):
        return None
    return tuple(s.tokens for s in rec.texts("payload", "payload span", mode))


def _command_from_wire(rec: _Record, mode: LanguageMode) -> Command:
    try:
        op = Operation(rec.require("command")["op"])
    except (KeyError, TypeError, ValueError):
        raise rec.error("bad command operation") from None
    cmd = rec.nested("command")
    attributes = None
    if cmd.has("attributes"):
        attributes = tuple(a.tokens for a in cmd.texts("attributes", "attribute", mode))
    try:
        return Command(op, cmd.data.get("positions"), attributes)
    except CapeditError as exc:
        raise rec.error(str(exc)) from exc


def sample_from_wire(record: dict, path: str = "<memory>", lineno: int = 0) -> EditSample:
    rec = _Record(record, path, lineno)
    rid = rec.string("id")
    video_id = rec.string("video_id")
    mode = rec.mode()
    cmd = _command_from_wire(rec, mode)
    reference = rec.text("reference", mode)
    ground_truth = rec.text("ground_truth", mode)
    payload = _payload(rec, mode)
    ppl = emscore = None
    if rec.has("aux"):
        aux = rec.nested("aux")
        ppl = aux.number("ppl") if aux.has("ppl") else None
        emscore = aux.number("emscore") if aux.has("emscore") else None
    try:
        provenance = Provenance(record["provenance"]) if "provenance" in record else (
            Provenance.DEGRADATION if payload is not None and cmd.op is Operation.DEL
            else Provenance.REVERSAL if payload is not None
            else Provenance.LENGTH_PAIR
        )
        return EditSample(
            id=rid,
            video_id=video_id,
            mode=mode,
            command=cmd,
            reference=reference,
            ground_truth=ground_truth,
            provenance=provenance,
            payload=payload,
            ppl=ppl,
            emscore=emscore,
        )
    except (ValueError, CapeditError) as exc:
        raise rec.error(str(exc)) from exc


def iter_dataset(path: str) -> Iterator[tuple[int, EditSample]]:
    """(line number, sample) of each dataset record, one at a time as it
    is read; a record that repeats an earlier id is reported at its
    line.  Only the set of ids seen so far is kept."""
    seen = set()
    for rec in _records(path):
        sample = sample_from_wire(rec.data, path, rec.lineno)
        if sample.id in seen:
            raise rec.error(f"duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        yield rec.lineno, sample


# what json.dumps(obj, ensure_ascii=False) returns, without building an
# encoder per call
_dump = json.JSONEncoder(ensure_ascii=False).encode
# the string escape that encoder applies
_str = json.encoder.encode_basestring


def _number(value) -> str:
    """An aux value as _dump writes it: a finite float is its repr, and
    anything else (an int, a bool, NaN or inf) goes through _dump."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return _dump(value)


def _record_line(sample: EditSample) -> str:
    """The dataset record of sample as one line: exactly _dump of its
    JSON object (the keys and order of the module docstring, the ", "
    and ": " separators) plus "\\n", built from string pieces.  Enum
    values are read from _value_, not through the Python-level
    Enum.value property."""
    sep = " " if sample.mode is LanguageMode.WORD else ""
    cmd = sample.command
    line = (
        f'{{"id": {_str(sample.id)}, "video_id": {_str(sample.video_id)}, '
        f'"lang": {_str(sample.mode._value_)}, "command": {{"op": {_str(cmd.op._value_)}'
    )
    if cmd.positions is not None:
        if cmd.op is Operation.ADD:
            line += ', "positions": [' + ", ".join(map(str, cmd.positions)) + "]"
        else:
            line += ', "positions": [' + ", ".join([f"[{s}, {e}]" for s, e in cmd.positions]) + "]"
    if cmd.attributes is not None:
        line += ', "attributes": [' + ", ".join([_str(sep.join(p)) for p in cmd.attributes]) + "]"
    line += (
        f'}}, "reference": {_str(sep.join(sample.reference.tokens))}, '
        f'"ground_truth": {_str(sep.join(sample.ground_truth.tokens))}'
    )
    if sample.payload is not None:
        line += ', "payload": [' + ", ".join([_str(sep.join(s)) for s in sample.payload]) + "]"
    if sample.ppl is not None or sample.emscore is not None:
        aux = [
            f'"{key}": {_number(value)}'
            for key, value in (("ppl", sample.ppl), ("emscore", sample.emscore))
            if value is not None
        ]
        line += ', "aux": {' + ", ".join(aux) + "}"
    return line + f', "provenance": {_str(sample.provenance._value_)}}}\n'


def write_dataset(
    path: str, samples: Iterable[EditSample], partition: dict[str, str] | None = None
) -> None:
    """Write one record per line to path.  Each sample is encoded once,
    by _record_line, straight to the line that json.dumps(record,
    ensure_ascii=False) would write, with no dict in between.

    With partition (video id -> partition name), the same line also
    goes to <stem>.<partition>.jsonl in the same pass, where stem is
    path without its ".jsonl", so each split file holds the corpus
    lines of its partition in corpus order; every split file is
    written, even an empty one."""
    with ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", encoding="utf-8"))
        if partition is not None:
            stem = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
            split_fhs = {
                part: stack.enter_context(open(f"{stem}.{part}.jsonl", "w", encoding="utf-8"))
                for part in PARTITIONS
            }
        for sample in samples:
            line = _record_line(sample)
            fh.write(line)
            if partition is not None:
                split_fhs[partition[sample.video_id]].write(line)


def read_predictions(path: str) -> dict[str, str]:
    """Prediction records: {"id": ..., "hypothesis": "..."}."""
    out: dict[str, str] = {}
    for rec in _records(path):
        rid = rec.string("id")
        hyp = rec.string("hypothesis")
        if rid in out:
            raise rec.error(f"duplicate prediction id {rid!r}")
        out[rid] = hyp
    return out


def write_predictions(fh: TextIO, records: Iterable[tuple[str, str]]) -> None:
    for rid, hyp in records:
        fh.write(_dump({"id": rid, "hypothesis": hyp}) + "\n")


def read_captions(path: str) -> list[CaptionGroup]:
    """Caption pools: {"video_id": ..., "lang": ..., "captions": [...]}.
    A caption may hold no token of the control grammar ([MASK], [o] ...)."""
    groups = []
    seen = set()
    for rec in _records(path):
        vid = rec.string("video_id")
        if vid in seen:
            raise rec.error(f"duplicate video id {vid!r}")
        seen.add(vid)
        captions = rec.texts("captions", "caption", rec.mode())
        if not captions:
            raise rec.error("empty caption list")
        for i, cap in enumerate(captions):
            if not RESERVED_TOKENS.isdisjoint(cap.tokens):
                tok = next(t for t in cap.tokens if t in RESERVED_TOKENS)
                raise rec.error(f"caption {i}: token {tok!r} collides with the control grammar")
        groups.append(CaptionGroup(vid, captions))
    return groups


def read_config(path: str) -> tuple[ConstructionConfig, dict | None]:
    """A construction config file (plain JSON) and its "split" entry."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise DatasetError(f"{path}: invalid JSON ({exc})") from exc
    return ConstructionConfig.from_dict(data, path), data.get("split")


def _read_conllu(path: str) -> dict[str, tuple[int, ParseAnnotation]]:
    """CoNLL-U sentences by sent_id, each with its first line number and
    checked as a dependency tree.

    Columns used: FORM, UPOS, HEAD (1-based, 0 = root), DEPREL.  sent_id
    must be of the form "<video_id>#<caption_index>".  An invalid tree
    and a missing or duplicate sent_id are reported at the sentence's
    first line."""
    out: dict[str, tuple[int, ParseAnnotation]] = {}
    sent_id = None
    start = 0
    tokens: list[DepToken] = []

    def error(lineno: int, msg: str) -> DatasetError:
        return DatasetError(f"{path}:{lineno}: {msg}")

    def flush() -> None:
        nonlocal sent_id, start, tokens
        if tokens:
            if sent_id is None:
                raise error(start, "sentence without a sent_id comment")
            if sent_id in out:
                raise error(start, f"duplicate sent_id {sent_id!r}")
            try:
                out[sent_id] = start, ParseAnnotation(_split_caption_id(sent_id)[1], tuple(tokens))
            except ValueError as exc:
                raise error(start, f"sentence {sent_id!r}: {exc}") from exc
            tokens = []
        sent_id = None
        start = 0

    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if not start:
            start = lineno
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                sent_id = value.strip()
                if _split_caption_id(sent_id) is None:
                    raise error(
                        lineno,
                        f"sent_id {sent_id!r} is not of the form <video_id>#<caption_index>",
                    )
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise error(lineno, "expected 10 tab-separated columns")
        tok_id, form, _, upos, _, _, head, deprel = cols[:8]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword/empty nodes are not used
        try:
            head_idx = int(head) - 1
        except ValueError:
            raise error(lineno, f"bad HEAD value {head!r}") from None
        tokens.append(DepToken(form, upos, head_idx, deprel.lower()))
    flush()
    return out


def _read_srl(path: str) -> dict[str, list[tuple[_Record, SrlFrame]]]:
    """SRL frames by caption id, each with the record it was read from:
    {"caption_id": ..., "predicate": int,
    "arguments": [{"label": ..., "start": int, "end": int}]}."""
    out: dict[str, list[tuple[_Record, SrlFrame]]] = {}
    for rec in _records(path):
        cid = rec.string("caption_id")
        predicate = rec.integer("predicate")
        arguments = rec.require("arguments")
        if not isinstance(arguments, list) or not all(isinstance(a, dict) for a in arguments):
            raise rec.error("arguments must be a list of objects")
        args = tuple(
            (arg.string("label"), arg.integer("start"), arg.integer("end"))
            for arg in (_Record(a, path, rec.lineno) for a in arguments)
        )
        out.setdefault(cid, []).append((rec, SrlFrame(predicate, args)))
    return out


def _check_srl_frame(rec: _Record, frame: SrlFrame, cid: str, n: int) -> None:
    """The predicate is a token of the n-token caption and each argument
    a [start, end) span inside it."""
    if not 0 <= frame.predicate < n:
        raise rec.error(f"predicate {frame.predicate} is outside caption {cid!r} ({n} tokens)")
    for label, start, end in frame.arguments:
        if start > end:
            raise rec.error(f"argument {label!r} starts after it ends ({start} > {end})")
        if start < 0 or end > n:
            raise rec.error(
                f"argument {label!r} span [{start}, {end}) is outside caption {cid!r} "
                f"({n} tokens)"
            )


def _caption(by_id: dict[str, CaptionGroup], key: tuple[str, int] | None) -> TokenSeq | None:
    """The caption of the pools that key = (video_id, caption_index)
    names, or None."""
    group = by_id.get(key[0]) if key else None
    if group is None or key[1] >= len(group.captions):
        return None
    return group.captions[key[1]]


def read_parses(
    conllu_path: str, groups: list[CaptionGroup], srl_path: str | None = None
) -> dict[tuple[str, int], ParseAnnotation]:
    """Parse annotations keyed by (video_id, caption_index): each CoNLL-U
    sentence with the SRL frames recorded under its sent_id, whose spans
    must lie inside the sentence.  A sentence whose sent_id names a
    caption of the pools must hold that caption's tokens, or it is
    reported at its first line; one that names no caption is not
    checked against the pools, and construction never reads it."""
    by_id = {g.video_id: g for g in groups}
    sentences = _read_conllu(conllu_path)
    srl = _read_srl(srl_path) if srl_path else {}
    parses = {}
    for cid, (start, parse) in sentences.items():
        key = _split_caption_id(cid)
        caption = _caption(by_id, key)
        if caption is not None:
            try:
                parse.check_caption(caption)
            except DatasetError as exc:
                raise DatasetError(f"{conllu_path}:{start}: sentence {cid!r}: {exc}") from exc
        frames = srl.get(cid)
        if frames:
            for rec, frame in frames:
                _check_srl_frame(rec, frame, cid, len(parse.tokens))
            # the tree checks never read the frames, and this parse is new,
            # so they are set in place instead of checking a copy again
            object.__setattr__(parse, "frames", tuple(frame for _, frame in frames))
        parses[key] = parse
    return parses


def read_neighbors(path: str, groups: list[CaptionGroup]) -> dict[str, list[str]]:
    """Precomputed video similarity lists, {"video_id": ...,
    "neighbors": [...]}, one line per video.  The neighbors of a video
    of the pools must be other videos of the pools; a line for a video
    outside the pools is not checked, and construction never reads it."""
    known = {g.video_id for g in groups}
    out: dict[str, list[str]] = {}
    for rec in _records(path):
        vid = rec.string("video_id")
        neighbors = rec.strings("neighbors")
        if vid in out:
            raise rec.error(f"duplicate video id {vid!r}")
        out[vid] = neighbors
        if vid in known:
            for other in neighbors:
                if other == vid:
                    raise rec.error(f"video {vid!r} is listed as its own neighbor")
                if other not in known:
                    raise rec.error(f"neighbor list names unknown video {other!r}")
    return out


def read_ppl(path: str, groups: list[CaptionGroup]) -> dict[tuple[str, str], float]:
    """Per-caption perplexities, {"caption_id": "<video_id>#<caption_index>",
    "ppl": number}, keyed by (video_id, caption text) of the caption
    pools as construct_corpus takes them."""
    by_id = {g.video_id: g for g in groups}
    out: dict[tuple[str, str], float] = {}
    seen = set()
    for rec in _records(path):
        cid = rec.string("caption_id")
        ppl = rec.number("ppl")
        key = _split_caption_id(cid)
        caption = _caption(by_id, key)
        if caption is None:
            raise rec.error(f"perplexity entry for unknown caption {cid!r}")
        if key in seen:
            raise rec.error(f"duplicate caption id {cid!r}")
        seen.add(key)
        out[(key[0], detokenize(caption))] = ppl
    return out


def read_session(
    path: str,
) -> tuple[Session, list[tuple[int, Command, Payload | None, TokenSeq | None]]]:
    """A session script: a header {"video_id": ..., "caption": ...,
    "lang": ...} ("lang" defaults to en-word), then one round per line,
    {"command": {...}, "payload": [...], "hypothesis": "..."} with the
    last two optional.  Returns the session the header starts and each
    round's (line, command, payload, hypothesis)."""
    records = _records(path)
    head = next(records, None)
    if head is None:
        raise DatasetError(f"{path}: empty session script")
    video_id = head.string("video_id")
    mode = head.mode(default="en-word")
    session = Session(video_id, head.text("caption", mode))
    rounds = []
    for rec in records:
        cmd = _command_from_wire(rec, mode)
        payload = _payload(rec, mode)
        hypothesis = rec.text("hypothesis", mode) if rec.has("hypothesis") else None
        rounds.append((rec.lineno, cmd, payload, hypothesis))
    return session, rounds
