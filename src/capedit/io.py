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
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from typing import Iterable, TextIO

from capedit.commands import Command, Operation
from capedit.construction import (
    CaptionGroup,
    DepToken,
    EditSample,
    ParseAnnotation,
    Provenance,
    SrlFrame,
)
from capedit.errors import CapeditError, DatasetError
from capedit.text import LanguageMode, TokenSeq, detokenize, join, tokenize


def _iter_json_lines(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise DatasetError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            yield lineno, record


def _require(record: dict, key: str, path: str, lineno: int):
    if key not in record:
        raise DatasetError(f"{path}:{lineno}: missing field {key!r}")
    return record[key]


def _str_field(record: dict, key: str, path: str, lineno: int) -> str:
    """A required JSON string field; str() would turn null into "None"
    and 7 into "7"."""
    value = _require(record, key, path, lineno)
    if not isinstance(value, str):
        raise DatasetError(f"{path}:{lineno}: {key} must be a string, got {value!r}")
    return value


def _tokenize(value, mode: LanguageMode, what: str, path: str, lineno: int) -> TokenSeq:
    if not isinstance(value, str):
        raise DatasetError(f"{path}:{lineno}: {what} must be a string, got {value!r}")
    return tokenize(value, mode)


def _json_int(value) -> int:
    """A JSON integer as is; int() would truncate 1.7 and accept true and "1"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _json_number(value) -> float:
    """A JSON number (integer or float) as a float; float() would also
    accept true and "42"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"number out of range: {value!r}") from None


def _number_field(value, key: str, path: str, lineno: int) -> float:
    try:
        return _json_number(value)
    except TypeError:
        raise DatasetError(f"{path}:{lineno}: {key} must be a number, got {value!r}") from None


def _int_field(record: dict, key: str, path: str, lineno: int) -> int:
    value = _require(record, key, path, lineno)
    try:
        return _json_int(value)
    except TypeError:
        raise DatasetError(f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None


def _split_caption_id(cid: str) -> tuple[str, int] | None:
    """(video_id, caption_index) from "<video_id>#<caption_index>", or
    None when cid is not of that form."""
    vid, _, idx = cid.rpartition("#")
    if not vid or not idx.isdecimal():
        return None
    return vid, int(idx)


def _payload_from_wire(
    value, mode: LanguageMode, path: str, lineno: int
) -> tuple[tuple[str, ...], ...]:
    """A payload: a list of strings, one token span each."""
    if not isinstance(value, list):
        raise DatasetError(f"{path}:{lineno}: payload must be a list of strings, got {value!r}")
    return tuple(_tokenize(span, mode, "payload span", path, lineno).tokens for span in value)


def _command_from_wire(data: dict, path: str, lineno: int, mode: LanguageMode) -> Command:
    try:
        op = Operation(data["op"])
    except (KeyError, TypeError, ValueError):
        raise DatasetError(f"{path}:{lineno}: bad command operation") from None
    positions = data.get("positions")
    if positions is not None:
        try:
            if op is Operation.ADD:
                positions = tuple(_json_int(p) for p in positions)
            else:
                positions = tuple((_json_int(s), _json_int(e)) for s, e in positions)
        except (TypeError, ValueError):
            raise DatasetError(f"{path}:{lineno}: bad command positions {positions!r}") from None
    attributes = data.get("attributes")
    if attributes is not None:
        attributes = tuple(
            _tokenize(a, mode, "attribute", path, lineno).tokens for a in attributes
        )
    try:
        return Command(op, positions, attributes)
    except CapeditError as exc:
        raise DatasetError(f"{path}:{lineno}: {exc}") from exc


def _command_to_wire(cmd: Command, mode: LanguageMode) -> dict:
    out: dict = {"op": cmd.op.value}
    if cmd.positions is not None:
        if cmd.op is Operation.ADD:
            out["positions"] = list(cmd.positions)
        else:
            out["positions"] = [[s, e] for s, e in cmd.positions]
    if cmd.attributes is not None:
        out["attributes"] = [join(p, mode) for p in cmd.attributes]
    return out


def sample_from_wire(record: dict, path: str = "<memory>", lineno: int = 0) -> EditSample:
    rid = _str_field(record, "id", path, lineno)
    video_id = _str_field(record, "video_id", path, lineno)
    try:
        mode = LanguageMode.from_wire(_require(record, "lang", path, lineno))
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    cmd = _command_from_wire(_require(record, "command", path, lineno), path, lineno, mode)
    reference = _tokenize(
        _require(record, "reference", path, lineno), mode, "reference", path, lineno
    )
    ground_truth = _tokenize(
        _require(record, "ground_truth", path, lineno), mode, "ground_truth", path, lineno
    )
    payload = record.get("payload")
    if payload is not None:
        payload = _payload_from_wire(payload, mode, path, lineno)
    aux = record.get("aux")
    if aux is None:
        aux = {}
    elif not isinstance(aux, dict):
        raise DatasetError(f"{path}:{lineno}: aux must be an object, got {aux!r}")
    ppl = aux.get("ppl")
    if ppl is not None:
        ppl = _number_field(ppl, "ppl", path, lineno)
    emscore = aux.get("emscore")
    if emscore is not None:
        emscore = _number_field(emscore, "emscore", path, lineno)
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
        raise DatasetError(f"{path}:{lineno}: {exc}") from exc


def sample_to_wire(sample: EditSample) -> dict:
    out: dict = {
        "id": sample.id,
        "video_id": sample.video_id,
        "lang": sample.mode.value,
        "command": _command_to_wire(sample.command, sample.mode),
        "reference": detokenize(sample.reference),
        "ground_truth": detokenize(sample.ground_truth),
    }
    if sample.payload is not None:
        out["payload"] = [join(span, sample.mode) for span in sample.payload]
    aux = {}
    if sample.ppl is not None:
        aux["ppl"] = sample.ppl
    if sample.emscore is not None:
        aux["emscore"] = sample.emscore
    if aux:
        out["aux"] = aux
    out["provenance"] = sample.provenance.value
    return out


def read_dataset(path: str) -> list[EditSample]:
    samples = []
    seen = set()
    for lineno, record in _iter_json_lines(path):
        sample = sample_from_wire(record, path, lineno)
        if sample.id in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return samples


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


def write_dataset(
    path: str,
    samples: Iterable[EditSample],
    split_paths: dict[str, str] | None = None,
    partition: dict[str, str] | None = None,
) -> None:
    """Write one record per line to path, dumping each sample once.

    With split_paths (partition name -> file) and partition (video id ->
    partition name), the same line also goes to its video's split file
    in the same pass, so each split file holds the corpus lines of its
    partition in corpus order; every split file is written, even an
    empty one."""
    if (split_paths is None) != (partition is None):
        raise ValueError("split_paths and partition go together")
    with ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", encoding="utf-8"))
        split_fhs = {
            part: stack.enter_context(open(split_path, "w", encoding="utf-8"))
            for part, split_path in (split_paths or {}).items()
        }
        for sample in samples:
            line = _dump(sample_to_wire(sample)) + "\n"
            fh.write(line)
            if partition is not None:
                split_fhs[partition[sample.video_id]].write(line)


def read_predictions(path: str) -> dict[str, str]:
    """Prediction records: {"id": ..., "hypothesis": "..."}."""
    out: dict[str, str] = {}
    for lineno, record in _iter_json_lines(path):
        rid = _str_field(record, "id", path, lineno)
        hyp = _require(record, "hypothesis", path, lineno)
        if not isinstance(hyp, str):
            raise DatasetError(f"{path}:{lineno}: hypothesis must be a string, got {hyp!r}")
        if rid in out:
            raise DatasetError(f"{path}:{lineno}: duplicate prediction id {rid!r}")
        out[rid] = hyp
    return out


def write_predictions(path_or_fh, records: Iterable[tuple[str, str]]) -> None:
    def _write(fh: TextIO) -> None:
        for rid, hyp in records:
            fh.write(_dump({"id": rid, "hypothesis": hyp}) + "\n")

    if isinstance(path_or_fh, str):
        with open(path_or_fh, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(path_or_fh)


def read_captions(path: str) -> list[CaptionGroup]:
    """Caption pools: {"video_id": ..., "lang": ..., "captions": [...]}."""
    groups = []
    seen = set()
    for lineno, record in _iter_json_lines(path):
        vid = _str_field(record, "video_id", path, lineno)
        if vid in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate video id {vid!r}")
        seen.add(vid)
        try:
            mode = LanguageMode.from_wire(_require(record, "lang", path, lineno))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
        captions = _require(record, "captions", path, lineno)
        if not isinstance(captions, list):
            raise DatasetError(
                f"{path}:{lineno}: captions must be a list of strings, got {captions!r}"
            )
        if not captions:
            raise DatasetError(f"{path}:{lineno}: empty caption list")
        groups.append(
            CaptionGroup(
                vid, tuple(_tokenize(c, mode, "caption", path, lineno) for c in captions)
            )
        )
    return groups


def _read_conllu_sentences(path: str) -> dict[str, tuple[int, tuple[DepToken, ...]]]:
    """CoNLL-U sentences by sent_id, each with its first line."""
    out: dict[str, tuple[int, tuple[DepToken, ...]]] = {}
    sent_id = None
    start = 0
    tokens: list[DepToken] = []

    def flush(lineno: int) -> None:
        nonlocal sent_id, start, tokens
        if tokens:
            if sent_id is None:
                raise DatasetError(f"{path}:{lineno}: sentence without a sent_id comment")
            if sent_id in out:
                raise DatasetError(f"{path}:{lineno}: duplicate sent_id {sent_id!r}")
            out[sent_id] = (start, tuple(tokens))
            tokens = []
        sent_id = None
        start = 0

    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(lineno)
                continue
            if not start:
                start = lineno
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("sent_id"):
                    _, _, value = body.partition("=")
                    sent_id = value.strip()
                    if _split_caption_id(sent_id) is None:
                        raise DatasetError(
                            f"{path}:{lineno}: sent_id {sent_id!r} is not of the form "
                            "<video_id>#<caption_index>"
                        )
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise DatasetError(f"{path}:{lineno}: expected 10 tab-separated columns")
            tok_id, form, _, upos, _, _, head, deprel = cols[:8]
            if "-" in tok_id or "." in tok_id:
                continue  # multiword/empty nodes are not used
            try:
                head_idx = int(head) - 1
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: bad HEAD value {head!r}") from None
            tokens.append(DepToken(form, upos, head_idx, deprel.lower()))
        flush(lineno + 1)
    return out


def read_conllu(path: str) -> dict[str, tuple[DepToken, ...]]:
    """CoNLL-U sentences keyed by their sent_id comment.

    Columns used: FORM, UPOS, HEAD (1-based, 0 = root), DEPREL.
    sent_id must be of the form "<video_id>#<caption_index>".
    """
    return {sid: tokens for sid, (_, tokens) in _read_conllu_sentences(path).items()}


def _read_srl_frames(path: str) -> dict[str, list[tuple[int, SrlFrame]]]:
    """SRL frames by caption id, each with the line it was read from."""
    out: dict[str, list[tuple[int, SrlFrame]]] = {}
    for lineno, record in _iter_json_lines(path):
        cid = _str_field(record, "caption_id", path, lineno)
        predicate = _int_field(record, "predicate", path, lineno)
        arguments = _require(record, "arguments", path, lineno)
        if not isinstance(arguments, list) or not all(isinstance(a, dict) for a in arguments):
            raise DatasetError(f"{path}:{lineno}: arguments must be a list of objects")
        args = tuple(
            (
                _str_field(arg, "label", path, lineno),
                _int_field(arg, "start", path, lineno),
                _int_field(arg, "end", path, lineno),
            )
            for arg in arguments
        )
        out.setdefault(cid, []).append((lineno, SrlFrame(predicate, args)))
    return out


def read_srl(path: str) -> dict[str, tuple[SrlFrame, ...]]:
    """SRL frames: {"caption_id": ..., "predicate": int,
    "arguments": [{"label": ..., "start": int, "end": int}]}."""
    return {
        cid: tuple(frame for _, frame in frames)
        for cid, frames in _read_srl_frames(path).items()
    }


def _check_srl_frame(frame: SrlFrame, cid: str, n: int, path: str, lineno: int) -> None:
    """The predicate is a token of the n-token caption and each argument
    a [start, end) span inside it."""
    if not 0 <= frame.predicate < n:
        raise DatasetError(
            f"{path}:{lineno}: predicate {frame.predicate} is outside caption {cid!r} "
            f"({n} tokens)"
        )
    for label, start, end in frame.arguments:
        if start > end:
            raise DatasetError(
                f"{path}:{lineno}: argument {label!r} starts after it ends ({start} > {end})"
            )
        if start < 0 or end > n:
            raise DatasetError(
                f"{path}:{lineno}: argument {label!r} span [{start}, {end}) is outside "
                f"caption {cid!r} ({n} tokens)"
            )


def read_parses(
    conllu_path: str, srl_path: str | None = None
) -> dict[tuple[str, int], ParseAnnotation]:
    """Parse annotations keyed by (video_id, caption_index): each CoNLL-U
    sentence with the SRL frames recorded under its sent_id, whose spans
    must lie inside the sentence.  An invalid tree is reported at the
    sentence's first line."""
    sentences = _read_conllu_sentences(conllu_path)
    srl = _read_srl_frames(srl_path) if srl_path else {}
    parses = {}
    for cid, (start, tokens) in sentences.items():
        vid, idx = _split_caption_id(cid)
        frames = srl.get(cid, ())
        try:
            parses[(vid, idx)] = ParseAnnotation(
                idx, tokens, tuple(frame for _, frame in frames)
            )
        except ValueError as exc:
            raise DatasetError(f"{conllu_path}:{start}: sentence {cid!r}: {exc}") from exc
        for lineno, frame in frames:
            _check_srl_frame(frame, cid, len(tokens), srl_path, lineno)
    return parses


def read_neighbors(path: str) -> dict[str, list[str]]:
    """Precomputed video similarity lists:
    {"video_id": ..., "neighbors": [...]}."""
    out: dict[str, list[str]] = {}
    for lineno, record in _iter_json_lines(path):
        vid = _str_field(record, "video_id", path, lineno)
        neighbors = _require(record, "neighbors", path, lineno)
        if not isinstance(neighbors, list) or not all(isinstance(v, str) for v in neighbors):
            raise DatasetError(
                f"{path}:{lineno}: neighbors must be a list of strings, got {neighbors!r}"
            )
        out[vid] = neighbors
    return out


def read_ppl(path: str) -> dict[str, float]:
    """Per-caption perplexities: {"caption_id": ..., "ppl": float}."""
    out: dict[str, float] = {}
    for lineno, record in _iter_json_lines(path):
        cid = _str_field(record, "caption_id", path, lineno)
        out[cid] = _number_field(_require(record, "ppl", path, lineno), "ppl", path, lineno)
    return out
