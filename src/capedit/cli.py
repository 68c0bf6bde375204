"""Command-line front end.

Subcommands: evaluate, construct, serialize, parse-control, align,
oracle-edit, session, stats.  Exit status: 0 on success, 2 on invalid
input (malformed files, unresolvable ids, bad arguments), 1 on
internal errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from capedit import io as cio
from capedit.alignment import dsa_align, mask_span_tokens
from capedit.commands import (
    MASK_TOKEN,
    CommandKind,
    PositionedReference,
    kind,
    parse as parse_control,
    serialize,
)
from capedit.construction import SPLIT_RATIOS, construct_corpus, corpus_stats, partition_videos
from capedit.editing import oracle_apply, payload_from_truth, session_step
from capedit.errors import CapeditError, DatasetError, OracleError
from capedit.metrics import EvalUnit, evaluate_corpus, format_report_table
from capedit.text import LanguageMode, detokenize, join, tokenize

ORACLE_NOTE = (
    "The rule-based editor only witnesses that commands are mechanically "
    "satisfiable; it makes no fluency or semantic claims."
)


def _output(path: str | None):
    """The file at path for writing, or stdout (left open) without one;
    opened only once all input is read, so bad input leaves it as it was."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _write_json(path: str | None, obj) -> None:
    """obj as indented JSON and a newline, to the file at path or stdout."""
    with _output(path) as out:
        json.dump(obj, out, ensure_ascii=False, indent=2)
        out.write("\n")


def _nonempty_dataset(path: str):
    """iter_dataset's (line, sample) pairs, and an error if there was none."""
    lineno = 0
    for lineno, sample in cio.iter_dataset(path):
        yield lineno, sample
    if not lineno:
        raise DatasetError(f"{path}: no dataset records")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    # The predictions are read first; the dataset is then streamed, each
    # record scored as it is read, so no list of samples is kept.
    predictions = cio.read_predictions(args.predictions)

    def units():
        mode = None
        for lineno, sample in _nonempty_dataset(args.dataset):
            hypothesis = predictions.get(sample.id)
            if hypothesis is None:
                raise DatasetError(
                    f"{args.dataset}:{lineno}: no prediction for sample id {sample.id!r}"
                )
            if mode is None:
                mode = sample.mode
            elif sample.mode is not mode:
                raise DatasetError(
                    f"{args.dataset}:{lineno}: language mode {sample.mode.value} differs "
                    f"from the first record's {mode.value}"
                )
            yield EvalUnit(sample, tokenize(hypothesis, sample.mode))

    report = evaluate_corpus(units(), delta=args.delta)
    sys.stdout.write(format_report_table(report))
    if args.out:
        payload = report.to_dict()
        if not args.per_kind:
            payload = {"overall": payload["overall"]}
        _write_json(args.out, payload)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    groups = cio.read_captions(args.captions)
    config, split_spec = cio.read_config(args.config) if args.config else (None, None)
    if args.srl and not args.parses:
        raise DatasetError("--srl needs --parses: SRL frames attach to parsed captions")
    parses = cio.read_parses(args.parses, groups, args.srl) if args.parses else {}
    neighbors = cio.read_neighbors(args.neighbors, groups) if args.neighbors else None
    ppl = cio.read_ppl(args.ppl, groups) if args.ppl else None
    samples = construct_corpus(
        groups, parses, config, seed=args.seed, neighbors=neighbors, ppl=ppl
    )
    if not samples:
        raise DatasetError("construction produced no samples")
    partition = None
    if split_spec:
        partition = partition_videos(
            samples,
            mapping=split_spec.get("mapping"),
            ratios=tuple(split_spec.get("ratios", SPLIT_RATIOS)),
            seed=split_spec.get("seed", args.seed),
        )
    cio.write_dataset(args.out, samples, partition)
    _write_json(args.out + ".stats.json", corpus_stats(samples).to_dict())
    return 0


def _cmd_serialize(args: argparse.Namespace) -> int:
    lines = []
    for _, sample in cio.iter_dataset(args.dataset):
        lines.append(f"{sample.id}\t{serialize(sample.command, sample.reference)}\n")
    with _output(args.out) as out:
        out.writelines(lines)
    return 0


def _cmd_parse_control(args: argparse.Namespace) -> int:
    mode = LanguageMode.from_wire(args.mode)
    for lineno, line in cio.read_lines(args.infile):
        line = line.rstrip("\n")
        if not line:
            continue
        rid, sep, ctrl = line.partition("\t")
        try:
            if not sep:
                raise DatasetError("expected '<id>\\t<control string>'")
            cmd, posref = parse_control(ctrl, mode=mode)
        except CapeditError as exc:
            raise DatasetError(f"{args.infile}:{lineno}: {exc}") from exc
        record = {
            "id": rid,
            "op": cmd.op.value,
            "kind": kind(cmd).value,
            "attributes": [
                join(p, mode) for p in cmd.attributes
            ] if cmd.attributes else None,
            "mask_indexes": list(posref.mask_indexes()),
            "positioned_reference": " ".join(posref.tokens),
        }
        sys.stdout.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def _parse_positioned_text(line: str, mode: LanguageMode) -> PositionedReference:
    """Reference text with [MASK] slots, which need no surrounding spaces."""
    pieces = line.split(MASK_TOKEN)
    toks: list[str] = []
    for i, piece in enumerate(pieces):
        if i:
            toks.append(MASK_TOKEN)
        toks.extend(tokenize(piece, mode).tokens)
    return PositionedReference(tuple(toks), mode, None, len(pieces) - 1)


def _cmd_align(args: argparse.Namespace) -> int:
    mode = LanguageMode.from_wire(args.mode)
    posref = _parse_positioned_text(args.ref, mode)
    hyp = tokenize(args.hyp, mode)
    result = dsa_align(posref, hyp)
    record = {
        "cost": result.cost,
        "pairs": [list(p) for p in result.pairs],
        "mask_spans": [list(s) for s in result.mask_spans],
        "mask_texts": [join(t, mode) for t in mask_span_tokens(result, hyp)],
    }
    sys.stdout.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def _cmd_oracle_edit(args: argparse.Namespace) -> int:
    records = []
    for lineno, sample in cio.iter_dataset(args.dataset):
        payload = sample.payload
        try:
            if payload is None and kind(sample.command) is CommandKind.ADD_LEN:
                payload = payload_from_truth(
                    sample.command, sample.reference, sample.ground_truth
                )
            edited = oracle_apply(sample.command, sample.reference, payload, delta=args.delta)
        except OracleError as exc:
            raise DatasetError(f"{args.dataset}:{lineno}: sample {sample.id!r}: {exc}") from exc
        records.append((sample.id, detokenize(edited)))
    with _output(args.out) as out:
        cio.write_predictions(out, records)
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    session, rounds = cio.read_session(args.script)
    for lineno, cmd, payload, hypothesis in rounds:
        try:
            session = session_step(session, cmd, hypothesis, payload, delta=args.delta)
        except CapeditError as exc:
            raise DatasetError(f"{args.script}:{lineno}: {exc}") from exc
        rnd = session.rounds[-1]
        sys.stdout.write(
            json.dumps(
                {
                    "round": len(session.rounds),
                    "kind": kind(cmd).value,
                    "reference": detokenize(rnd.reference),
                    "edited": detokenize(rnd.edited),
                    "source": rnd.source.value,
                },
                ensure_ascii=False,
            )
            + "\n"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    samples = (sample for _, sample in _nonempty_dataset(args.dataset))
    _write_json(None, corpus_stats(samples).to_dict())
    return 0


def _margin(text: str) -> int:
    """An argparse type for --delta: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"margin must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capedit",
        description="Caption editing: commands, control sequences, corpus "
        "construction, rule-based oracle editing, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--delta", type=_margin, default=1, help="length-accuracy margin")
    p.add_argument("--per-kind", action="store_true", help="include per-kind rows in --out")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("construct", help="build an edit corpus from caption pools")
    p.add_argument("--captions", required=True)
    p.add_argument("--parses", help="CoNLL-U dependency parses")
    p.add_argument("--srl", help="semantic-role frames (jsonl)")
    p.add_argument("--neighbors", help="precomputed video similarity lists (jsonl)")
    p.add_argument("--ppl", help="per-caption perplexities (jsonl)")
    p.add_argument("--config", help="construction config (json)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("serialize", help="render dataset records as control strings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_serialize)

    p = sub.add_parser("parse-control", help="parse '<id>\\t<control>' lines back")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", default="en-word", choices=[m.value for m in LanguageMode])
    p.set_defaults(func=_cmd_parse_control)

    p = sub.add_parser("align", help="align a [MASK]-bearing reference with a caption")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--mode", default="en-word", choices=[m.value for m in LanguageMode])
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser(
        "oracle-edit",
        help="apply the rule-based editor to every record. " + ORACLE_NOTE,
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--delta", type=_margin, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_edit)

    p = sub.add_parser(
        "session",
        help="run a multi-round editing session from a script. " + ORACLE_NOTE,
    )
    p.add_argument("--script", required=True)
    p.add_argument("--delta", type=_margin, default=1)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("stats", help="corpus statistics for a dataset file")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapeditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
