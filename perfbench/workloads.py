"""The benchmark's operations: one CLI call each, plus its output checks.

An operation drives capedit the way the command line does, through
capedit.cli.main(argv) on generated files.  check() returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from gen import KINDS, kind_of

EXACT = 1e-12
PAYLOAD_PROVENANCES = ("degradation", "reversal")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def remove_outputs(op) -> None:
    """Delete the previous call's outputs, so that every call writes new
    files as a fresh CLI run would.  Rewriting a file in place instead
    makes ext4 flush it on close, which costs more and varies more than
    the program's own work."""
    for path in op.output_paths():
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run capedit.cli.main(argv) in this process; (exit code, stderr).

    The module attribute is looked up on every call so that a traced
    run goes through the installed wrapper."""
    from capedit import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


class Evaluate:
    """`capedit evaluate --per-kind --out report.json` on the generated
    dataset and predictions."""

    def __init__(self, inputs: str, outputs: str, manifest: dict, seed: int):
        self.inputs, self.outputs, self.manifest = inputs, outputs, manifest
        self.items = manifest["items"]
        self.report = os.path.join(outputs, "report.json")

    def argv(self, dataset="dataset.jsonl", predictions="predictions.jsonl", out=None) -> list[str]:
        return [
            "evaluate",
            "--dataset", os.path.join(self.inputs, dataset),
            "--predictions", os.path.join(self.inputs, predictions),
            "--per-kind",
            "--out", out or self.report,
        ]

    def output_paths(self) -> list[str]:
        return [self.report]

    def digest(self) -> str:
        return _sha256(self.report)

    def check(self) -> list[str]:
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        counts = {row["kind"]: row["count"] for row in report["per_kind"]}
        problems = []
        if counts != self.manifest["kind_counts"]:
            problems.append(f"per-kind counts {counts} != generated {self.manifest['kind_counts']}")
        if report["overall"]["count"] != self.items:
            problems.append(f"overall count {report['overall']['count']} != {self.items}")
        return problems

    def check_identity(self) -> list[str]:
        """Hypothesis == ground truth on the slice must score SARI =
        BLEU-4 = ROUGE-L = 1 and 100% on every applicable accuracy."""
        out = os.path.join(self.outputs, "slice_report.json")
        code, err = call_cli(self.argv("slice_dataset.jsonl", "slice_predictions.jsonl", out))
        if code != 0:
            return [f"identity slice: exit {code}: {err}"]
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = []
        for row in report["per_kind"] + [report["overall"]]:
            for key in ("sari", "bleu4", "rouge_l"):
                if abs(row[key] - 1.0) > EXACT:
                    problems.append(f"identity: {row['kind']} {key} = {row[key]!r}")
            for key in ("len_acc", "attr_acc", "pos_acc"):
                if row[key] is not None and abs(row[key] - 100.0) > EXACT:
                    problems.append(f"identity: {row['kind']} {key} = {row[key]!r}")
        applicable = {
            row["kind"]: (row["attr_acc"] is not None, row["pos_acc"] is not None)
            for row in report["per_kind"]
        }
        expected = {
            k: ("attr" in k, k in ("add_pos", "add_pos_attr")) for k in KINDS
        }
        if applicable != expected:
            problems.append(f"identity: applicable accuracies {applicable}")
        return problems


class Construct:
    """`capedit construct` with parses, SRL, perplexities and a config
    with a split, on the generated caption pools."""

    def __init__(self, inputs: str, outputs: str, manifest: dict, seed: int):
        self.inputs, self.seed = inputs, seed
        self.items = manifest["items"]
        self.corpus = os.path.join(outputs, "corpus.jsonl")
        self.expected_kinds = set(KINDS)
        if manifest["workload"] == "construct-mine":
            # add_pos samples only arise from balancing re-assignment, and
            # this workload's config makes balancing move nothing
            self.expected_kinds.discard("add_pos")

    def argv(self) -> list[str]:
        def path(name):
            return os.path.join(self.inputs, name)

        return [
            "construct",
            "--captions", path("captions.jsonl"),
            "--parses", path("parses.conllu"),
            "--srl", path("srl.jsonl"),
            "--ppl", path("ppl.jsonl"),
            "--config", path("config.json"),
            "--seed", str(self.seed),
            "--out", self.corpus,
        ]

    def output_paths(self) -> list[str]:
        stem = self.corpus[: -len(".jsonl")]
        return [self.corpus, self.corpus + ".stats.json"] + [
            f"{stem}.{part}.jsonl" for part in ("train", "val", "test")
        ]

    def digest(self) -> str:
        return _sha256(self.corpus)

    def check(self) -> list[str]:
        return check_corpus(self.corpus, self.expected_kinds)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _unreconstructable(path: str, records: list[dict]) -> int:
    """Degradation/reversal samples with a payload whose oracle_apply
    result differs from their ground truth."""
    from capedit import io as cio
    from capedit.editing import oracle_apply

    bad = 0
    for lineno, rec in enumerate(records, start=1):
        if rec.get("payload") is None or rec.get("provenance") not in PAYLOAD_PROVENANCES:
            continue
        s = cio.sample_from_wire(rec, path, lineno)
        if oracle_apply(s.command, s.reference, s.payload) != s.ground_truth:
            bad += 1
    return bad


def check_corpus(corpus: str, expected_kinds: set) -> list[str]:
    """Payload samples reconstruct through oracle_apply, the split files
    are video-disjoint and cover the corpus, and the stats count equals
    the number of written lines."""
    problems = []
    lines = _read_lines(corpus)
    records = [json.loads(line) for line in lines]
    with open(corpus + ".stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    if stats["count"] != len(lines):
        problems.append(f"stats count {stats['count']} != {len(lines)} written lines")
    kinds = {kind_of(r["command"]) for r in records}
    if not expected_kinds <= kinds:
        problems.append(f"missing kinds {sorted(expected_kinds - kinds)}")

    bad = _unreconstructable(corpus, records)
    if bad:
        problems.append(f"{bad} payload samples do not reconstruct")

    stem = corpus[: -len(".jsonl")]
    split_lines: list[str] = []
    videos = []
    for part in ("train", "val", "test"):
        part_lines = _read_lines(f"{stem}.{part}.jsonl")
        split_lines.extend(part_lines)
        videos.append({json.loads(line)["video_id"] for line in part_lines})
    if any(videos[i] & videos[j] for i in range(3) for j in range(i + 1, 3)):
        problems.append("split files share videos")
    if sorted(split_lines) != sorted(lines):
        problems.append("split files do not cover the corpus exactly")
    return problems


class StackedAdjectiveProbe:
    """construct on the fixed one-caption pool of gen.PROBE_CAPTION.  It
    must exit 0 with a corpus whose payload samples reconstruct; until
    construction keeps adjacent sibling branches apart it exits 2."""

    def __init__(self, inputs: str, outputs: str):
        self.inputs = inputs
        self.corpus = os.path.join(outputs, "probe_corpus.jsonl")

    def run(self) -> list[str]:
        code, err = call_cli([
            "construct",
            "--captions", os.path.join(self.inputs, "captions.jsonl"),
            "--parses", os.path.join(self.inputs, "parses.conllu"),
            "--out", self.corpus,
        ])
        if code != 0:
            return [f"exit {code}: {err}"]
        bad = _unreconstructable(self.corpus, [json.loads(x) for x in _read_lines(self.corpus)])
        return [f"{bad} payload samples do not reconstruct"] if bad else []
