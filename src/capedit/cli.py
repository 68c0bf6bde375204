"""Command-line front end.

Subcommands: evaluate, construct, serialize, parse-control, align,
oracle-edit, session, stats.  Exit status: 0 on success, 2 on invalid
input (malformed files, unresolvable ids, bad arguments), 1 on
internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from capedit import io as cio
from capedit.alignment import dsa_align, mask_span_tokens
from capedit.commands import (
    MASK_TOKEN,
    PositionedReference,
    kind,
    make_positioned_reference,
    parse as parse_control,
    serialize,
)
from capedit.construction import (
    PARTITIONS,
    ConstructionConfig,
    construct_corpus,
    corpus_stats,
    partition_videos,
)
from capedit.editing import (
    Session,
    oracle_apply,
    payload_from_truth,
    session_step,
)
from capedit.errors import CapeditError, DatasetError, OracleError
from capedit.metrics import EvalConfig, EvalUnit, evaluate_corpus, format_report_table
from capedit.text import LanguageMode, detokenize, join, tokenize

ORACLE_NOTE = (
    "The rule-based editor only witnesses that commands are mechanically "
    "satisfiable; it makes no fluency or semantic claims."
)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    samples = cio.read_dataset(args.dataset)
    predictions = cio.read_predictions(args.predictions)
    units = []
    for sample in samples:
        if sample.id not in predictions:
            raise DatasetError(f"no prediction for sample id {sample.id!r}")
        units.append(
            EvalUnit(sample, tokenize(predictions[sample.id], sample.mode))
        )
    config = EvalConfig(delta=args.delta)
    report = evaluate_corpus(units, config)
    sys.stdout.write(format_report_table(report))
    if args.out:
        payload = report.to_dict()
        if not args.per_kind:
            payload = {"overall": payload["overall"]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    groups = cio.read_captions(args.captions)
    config = ConstructionConfig()
    split_spec = None
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        config = ConstructionConfig.from_dict(data)
        split_spec = data.get("split")
    parses = cio.read_parses(args.parses, args.srl) if args.parses else {}
    neighbors = cio.read_neighbors(args.neighbors) if args.neighbors else None
    ppl_by_caption = cio.read_ppl(args.ppl) if args.ppl else None
    ppl = None
    if ppl_by_caption:
        by_id = {g.video_id: g for g in groups}
        ppl = {}
        for cid, value in ppl_by_caption.items():
            key = cio._split_caption_id(cid)
            group = by_id.get(key[0]) if key else None
            if group is None or key[1] >= len(group.captions):
                raise DatasetError(f"perplexity entry for unknown caption {cid!r}")
            ppl[(group.video_id, detokenize(group.captions[key[1]]))] = value
    samples = construct_corpus(
        groups, parses, config, seed=args.seed, neighbors=neighbors, ppl=ppl
    )
    if not samples:
        raise DatasetError("construction produced no samples")
    split_paths = partition = None
    if split_spec:
        partition = partition_videos(
            samples,
            mapping=split_spec.get("mapping"),
            ratios=tuple(split_spec.get("ratios", (0.7, 0.1, 0.2))),
            seed=split_spec.get("seed", args.seed),
        )
        stem = args.out[: -len(".jsonl")] if args.out.endswith(".jsonl") else args.out
        split_paths = {part: f"{stem}.{part}.jsonl" for part in PARTITIONS}
    cio.write_dataset(args.out, samples, split_paths, partition)
    stats = corpus_stats(samples)
    with open(args.out + ".stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats.to_dict(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    return 0


def _cmd_serialize(args: argparse.Namespace) -> int:
    samples = cio.read_dataset(args.dataset)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for sample in samples:
            ctrl = serialize(sample.command, sample.reference)
            out.write(f"{sample.id}\t{ctrl}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_parse_control(args: argparse.Namespace) -> int:
    mode = LanguageMode.from_wire(args.mode)
    with open(args.infile, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            rid, sep, ctrl = line.partition("\t")
            if not sep:
                raise DatasetError(
                    f"{args.infile}:{lineno}: expected '<id>\\t<control string>'"
                )
            cmd, posref = parse_control(ctrl, mode=mode)
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
    toks: list[str] = []
    masks = 0
    for chunk in line.split():
        if chunk == MASK_TOKEN:
            toks.append(MASK_TOKEN)
            masks += 1
        else:
            toks.extend(tokenize(chunk, mode).tokens)
    return PositionedReference(tuple(toks), mode, None, masks)


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
    samples = cio.read_dataset(args.dataset)
    records = []
    for sample in samples:
        payload = sample.payload
        if payload is None and kind(sample.command).value == "add_len":
            payload = payload_from_truth(
                sample.command, sample.reference, sample.ground_truth
            )
        try:
            edited = oracle_apply(
                sample.command, sample.reference, payload, delta=args.delta
            )
        except OracleError as exc:
            raise DatasetError(f"sample {sample.id!r}: {exc}") from exc
        records.append((sample.id, detokenize(edited)))
    if args.out:
        cio.write_predictions(args.out, records)
    else:
        cio.write_predictions(sys.stdout, records)
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    lines = list(cio._iter_json_lines(args.script))
    if not lines:
        raise DatasetError(f"{args.script}: empty session script")
    head_lineno, head = lines[0]
    video_id = cio._str_field(head, "video_id", args.script, head_lineno)
    try:
        mode = LanguageMode.from_wire(head.get("lang", "en-word"))
        caption = head["caption"]
    except (KeyError, ValueError) as exc:
        raise DatasetError(
            f"{args.script}:{head_lineno}: bad session header ({exc})"
        ) from exc
    session = Session(
        video_id, cio._tokenize(caption, mode, "caption", args.script, head_lineno)
    )
    for lineno, step in lines[1:]:
        if "command" not in step:
            raise DatasetError(f"{args.script}:{lineno}: round without a command")
        cmd = cio._command_from_wire(step["command"], args.script, lineno, mode)
        payload = step.get("payload")
        if payload is not None:
            payload = cio._payload_from_wire(payload, mode, args.script, lineno)
        hyp = step.get("hypothesis")
        hypothesis = (
            cio._tokenize(hyp, mode, "hypothesis", args.script, lineno)
            if hyp is not None
            else None
        )
        session = session_step(session, cmd, hypothesis, payload, delta=args.delta)
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
    samples = cio.read_dataset(args.dataset)
    stats = corpus_stats(samples)
    sys.stdout.write(json.dumps(stats.to_dict(), ensure_ascii=False, indent=2) + "\n")
    return 0


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
    p.add_argument("--delta", type=int, default=1, help="length-accuracy margin")
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
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_edit)

    p = sub.add_parser(
        "session",
        help="run a multi-round editing session from a script. " + ORACLE_NOTE,
    )
    p.add_argument("--script", required=True)
    p.add_argument("--delta", type=int, default=1)
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
