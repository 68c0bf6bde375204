"""Seeded input generators for the perfbench workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical files.  The generators use no capedit code, so a change
to the program cannot change the inputs it is measured on.

Run as a script to perform one set-up (generate and write one
workload's inputs, after importing capedit so that import time counts):

    python3 perfbench/gen.py --workload evaluate-en --seed 1 --out DIR

It prints one JSON line with the SHA-256 of the written files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

KINDS = (
    "add_len", "add_pos", "add_attr", "add_pos_attr",
    "del_len", "del_pos", "del_attr",
)

# Pseudo-words: caption words are built from syllables whose onsets
# never include "z", and attribute words always start with "z", so the
# two vocabularies are disjoint by construction.  Inserted content then
# never matches a reference token and the minimum-cost alignment of a
# ground truth is unambiguous.
_ONSETS = "bdfgklmnprstv"
_VOWELS = "aeiou"
# real function words used by the construct grammar; pseudo-words never
# collide with them
FUNCTION_WORDS = frozenset(
    "a the with and in on at near across over under into".split()
)

EVAL_UNITS = {"evaluate-en": 7 * 450, "evaluate-zh": 7 * 120}
SLICE_PER_KIND = 60
CONSTRUCT_VIDEOS = {"construct-mine": 300, "construct-balance": 30}
# construct-mine pool sizes of the one-off size sweep (sweep.py), large
# enough that the all-pairs similarity join has a real share of a call,
# and the untraced calls timed at each size
SWEEP_VIDEOS = (500, 1000, 2000)
SWEEP_CALLS = 2
CAPTIONS_PER_VIDEO = 10
CLUSTER_SIZE = 3
BALANCE_PPL_THRESHOLD = 65.0

# the checkout root, whose src/ holds the capedit package
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _word(rng: random.Random, syllables: int, prefix: str = "") -> str:
    return prefix + "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)
    )


def _vocab(rng: random.Random, size: int, prefix: str = "", taken=None) -> list[str]:
    taken = set() if taken is None else taken
    out = []
    while len(out) < size:
        w = _word(rng, rng.randint(2, 3), prefix)
        if w in taken or w in FUNCTION_WORDS:
            continue
        taken.add(w)
        out.append(w)
    return out


def _dump(records) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


# ---------------------------------------------------------------- evaluate


class _EvalVocab:
    def __init__(self, rng: random.Random, lang: str):
        self.lang = lang
        if lang == "en-word":
            self.caption = _vocab(rng, 400)
            self.attr = _vocab(rng, 200, prefix="z")
            self.joiner = " "
        else:
            # CJK blocks 0x4E00.. for captions and 0x6000.. for
            # attributes: disjoint, single-character tokens
            self.caption = [chr(0x4E00 + i) for i in range(400)]
            self.attr = [chr(0x6000 + i) for i in range(200)]
            self.joiner = ""

    def caption_len(self, rng: random.Random, short: bool = False) -> int:
        if self.lang == "en-word":
            return rng.randint(8, 18) if short else rng.randint(12, 24)
        return rng.randint(40, 80) if short else rng.randint(50, 94)

    def caption_tokens(self, rng: random.Random, n: int) -> list[str]:
        end = "." if self.lang == "en-word" else "。"
        return [rng.choice(self.caption) for _ in range(n - 1)] + [end]

    def phrase(self, rng: random.Random) -> list[str]:
        n = rng.randint(1, 2) if self.lang == "en-word" else rng.randint(2, 4)
        return [rng.choice(self.attr) for _ in range(n)]

    def text(self, tokens) -> str:
        return self.joiner.join(tokens)


def _insert_at_gaps(ref: list[str], gaps: list[int], spans: list[list[str]]) -> list[str]:
    out: list[str] = []
    fill = dict(zip(gaps, spans))
    for i in range(len(ref) + 1):
        if i in fill:
            out.extend(fill[i])
        if i < len(ref):
            out.append(ref[i])
    return out


def _distinct_phrases(rng: random.Random, v: _EvalVocab, count: int) -> list[list[str]]:
    phrases: list[list[str]] = []
    while len(phrases) < count:
        p = v.phrase(rng)
        if p not in phrases:
            phrases.append(p)
    return phrases


def _eval_record(rng: random.Random, v: _EvalVocab, k: str):
    """One sample of kind k whose ground truth satisfies its command
    exactly, so a hypothesis equal to the truth scores 100% on every
    applicable accuracy.  Returns the wire fields after id and video_id,
    and the reference and ground-truth tokens."""
    cmd: dict = {"op": "add" if k.startswith("add") else "del"}
    payload = None
    if k == "add_len":
        ref = v.caption_tokens(rng, v.caption_len(rng, short=True))
        at = rng.randint(0, len(ref) - 1)
        truth = ref[:at] + v.phrase(rng) + v.phrase(rng) + ref[at:]
    elif k in ("add_pos", "add_pos_attr", "add_attr"):
        ref = v.caption_tokens(rng, v.caption_len(rng, short=True))
        count = rng.randint(1, 2)
        gaps = sorted(rng.sample(range(len(ref)), count))
        phrases = _distinct_phrases(rng, v, count)
        truth = _insert_at_gaps(ref, gaps, phrases)
        if k != "add_attr":
            cmd["positions"] = gaps
        if k == "add_pos":
            payload = [v.text(p) for p in phrases]
        else:
            cmd["attributes"] = [v.text(p) for p in phrases]
    elif k == "del_len":
        ref = v.caption_tokens(rng, v.caption_len(rng))
        s = rng.randint(0, len(ref) - 4)
        truth = ref[:s] + ref[s + rng.randint(1, 3):]
    elif k == "del_pos":
        ref = v.caption_tokens(rng, v.caption_len(rng))
        count = rng.randint(1, 2)
        starts = sorted(rng.sample(range(0, len(ref) - 1, 4), count))
        spans = [[s, min(s + rng.randint(1, 3), len(ref) - 1)] for s in starts]
        cmd["positions"] = spans
        payload = [v.text(ref[s:e]) for s, e in spans]
        removed = {i for s, e in spans for i in range(s, e)}
        truth = [t for i, t in enumerate(ref) if i not in removed]
    else:  # del_attr
        truth = v.caption_tokens(rng, v.caption_len(rng, short=True))
        count = rng.randint(1, 2)
        gaps = sorted(rng.sample(range(len(truth)), count))
        phrases = _distinct_phrases(rng, v, count)
        ref = _insert_at_gaps(truth, gaps, phrases)
        cmd["attributes"] = [v.text(p) for p in phrases]
    fields = {
        "lang": v.lang,
        "command": cmd,
        "reference": v.text(ref),
        "ground_truth": v.text(truth),
    }
    if payload is not None:
        fields["payload"] = payload
        fields["provenance"] = "reversal" if k.startswith("add") else "degradation"
    return fields, ref, truth


def _edited(rng: random.Random, v: _EvalVocab, tokens: list[str]) -> list[str]:
    out = list(tokens)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 or len(out) < 3:
            out.insert(rng.randint(0, len(out)), rng.choice(v.caption))
        elif op == 1:
            out[rng.randrange(len(out))] = rng.choice(v.caption)
        else:
            del out[rng.randrange(len(out))]
    return out


def generate_evaluate(workload: str, seed: int, out_dir: str) -> dict:
    """Dataset + predictions in equal kind shares; hypotheses in three
    equal parts: the ground truth, the unchanged reference, and the
    ground truth with 1-3 random token edits.  Also a ground-truth-only
    slice for the metric identity check."""
    lang = "en-word" if workload == "evaluate-en" else "zh-char"
    rng = random.Random(f"{workload}:{seed}")
    v = _EvalVocab(rng, lang)
    units = EVAL_UNITS[workload]
    per_kind = units // len(KINDS)
    samples = []
    for k in KINDS:
        for _ in range(per_kind):
            samples.append(_eval_record(rng, v, k))
    rng.shuffle(samples)
    dataset, predictions = [], []
    slice_counts = dict.fromkeys(KINDS, 0)
    slice_dataset, slice_predictions = [], []
    for i, (fields, ref, truth) in enumerate(samples):
        rec = {"id": f"e{i:06d}", "video_id": f"v{i // 10:05d}", **fields}
        dataset.append(rec)
        part = i % 3
        hyp = truth if part == 0 else ref if part == 1 else _edited(rng, v, truth)
        predictions.append({"id": rec["id"], "hypothesis": v.text(hyp)})
        k = kind_of(rec["command"])
        if slice_counts[k] < SLICE_PER_KIND:
            slice_counts[k] += 1
            slice_dataset.append(rec)
            slice_predictions.append({"id": rec["id"], "hypothesis": rec["ground_truth"]})
    files = {
        "dataset.jsonl": _dump(dataset),
        "predictions.jsonl": _dump(predictions),
        "slice_dataset.jsonl": _dump(slice_dataset),
        "slice_predictions.jsonl": _dump(slice_predictions),
    }
    manifest = {
        "workload": workload,
        "seed": seed,
        "items": len(dataset),
        "kind_counts": {k: per_kind for k in KINDS},
    }
    return _write(out_dir, files, manifest)


def kind_of(command: dict) -> str:
    """Command kind of a wire command, as capedit names it."""
    has_pos = command.get("positions") is not None
    has_attr = command.get("attributes") is not None
    suffix = (
        "pos_attr" if has_pos and has_attr
        else "pos" if has_pos
        else "attr" if has_attr
        else "len"
    )
    return f"{command['op']}_{suffix}"


# --------------------------------------------------------------- construct


class _Topic:
    """Content vocabulary of one cluster of similar videos."""

    def __init__(self, rng: random.Random, taken: set):
        self.subjects = _vocab(rng, 3, taken=taken)
        self.objects = _vocab(rng, 4, taken=taken)
        self.places = _vocab(rng, 3, taken=taken)
        self.verbs = _vocab(rng, 4, taken=taken)
        self.adjectives = _vocab(rng, 4, taken=taken)
        self.adverbs = _vocab(rng, 2, taken=taken)
        self.accessories = _vocab(rng, 2, taken=taken)


def _conllu_row(i: int, form: str, upos: str, head: int, deprel: str) -> str:
    return f"{i + 1}\t{form}\t_\t{upos}\t_\t_\t{head + 1}\t{deprel}\t_\t_"


# Caption shapes: which optional constituents a caption has.  Every
# video cycles through the same shapes, and the seed picks only words and
# perplexities, so the amount of work (degradations, length pairs, kind
# counts and balancing moves) barely depends on the seed and runs with
# different seeds are comparable.
SHAPE_FIELDS = ("subj_adj", "nmod", "adv", "obj", "obj_adj", "obl", "obl_adj", "conj")
SHAPES = tuple(
    dict(zip(SHAPE_FIELDS, map(int, bits)))
    for bits in (
        "00000000", "00010000", "00000100", "10010000", "01010100",
        "00110001", "00011100", "00000000", "11011110", "00000101",
    )
)
# captions whose perplexity exceeds the threshold (construct-balance)
HIGH_PPL_CAPTIONS = frozenset({2, 5, 9})
# captions drawn from another, random topic, so pools overlap by
# varying amounts and similarity scores spread out
BORROWING_CAPTIONS = frozenset({3, 8})


def _construct_caption(rng: random.Random, t: _Topic, shape: dict):
    """One caption of the given shape with its dependency parse and SRL
    frame.

    Grammar: SUBJ [ADV] VERB [OBJ] [OBL] [CONJ] "." where every noun has
    at most one adjective and the only one-token verb modifier (ADV)
    sits before the verb.  No two removable sibling branches are then
    adjacent; adjacent ones make construction fail (see the
    stacked-adjective probe), which would leave no throughput to report.
    """
    toks: list[list] = []  # [form, upos, head, deprel]; head "verb" until known

    def add(form: str, upos: str, head, deprel: str) -> int:
        toks.append([form, upos, head, deprel])
        return len(toks) - 1

    def noun_phrase(case, det, adj, noun, head, rel) -> int:
        deps = [add(case, "ADP", None, "case")] if case else []
        deps.append(add(det, "DET", None, "det"))
        if adj:
            deps.append(add(rng.choice(t.adjectives), "ADJ", None, "amod"))
        n = add(noun, "NOUN", head, rel)
        for d in deps:
            toks[d][2] = n
        return n

    subj = noun_phrase(
        None, rng.choice(("a", "the")), shape["subj_adj"], rng.choice(t.subjects),
        "verb", "nsubj",
    )
    if shape["nmod"]:
        noun_phrase("with", "a", 0, rng.choice(t.accessories), subj, "nmod")
    args = [{"label": "ARG0", "start": 0, "end": len(toks)}]
    if shape["adv"]:
        add(rng.choice(t.adverbs), "ADV", "verb", "advmod")
    verb = add(rng.choice(t.verbs), "VERB", -1, "root")
    if shape["obj"]:
        start = len(toks)
        noun_phrase(
            None, rng.choice(("a", "the")), shape["obj_adj"], rng.choice(t.objects),
            verb, "obj",
        )
        args.append({"label": "ARG1", "start": start, "end": len(toks)})
    if shape["obl"]:
        start = len(toks)
        noun_phrase(
            rng.choice(("in", "on", "near", "across")), "the", shape["obl_adj"],
            rng.choice(t.places), verb, "obl",
        )
        args.append({"label": "AM-LOC", "start": start, "end": len(toks)})
    if shape["conj"]:
        cc = add("and", "CCONJ", None, "cc")
        conj = add(rng.choice(t.verbs), "VERB", verb, "conj")
        add(rng.choice(t.adverbs), "ADV", conj, "advmod")
        toks[cc][2] = conj
    add(".", "PUNCT", verb, "punct")
    for tok in toks:
        if tok[2] == "verb":
            tok[2] = verb
    return [tuple(tok) for tok in toks], {"predicate": verb, "arguments": args}


def generate_construct(workload: str, seed: int, out_dir: str, videos: int | None = None) -> dict:
    """Caption pools in topic clusters of CLUSTER_SIZE videos, with a
    CoNLL-U parse, an SRL frame and a perplexity for every caption."""
    rng = random.Random(f"{workload}:{seed}")
    videos = CONSTRUCT_VIDEOS[workload] if videos is None else videos
    taken: set = set()
    topics = [_Topic(rng, taken) for _ in range(-(-videos // CLUSTER_SIZE))]
    captions, conllu, srl, ppl = [], [], [], []
    for v in range(videos):
        vid = f"vid{v:05d}"
        texts = []
        for ci in range(CAPTIONS_PER_VIDEO):
            t = rng.choice(topics) if ci in BORROWING_CAPTIONS else topics[v // CLUSTER_SIZE]
            toks, frame = _construct_caption(rng, t, SHAPES[(v + ci) % len(SHAPES)])
            texts.append(" ".join(f for f, _, _, _ in toks))
            cid = f"{vid}#{ci}"
            conllu.append(f"# sent_id = {cid}\n" + "\n".join(
                _conllu_row(i, *tok) for i, tok in enumerate(toks)
            ) + "\n\n")
            srl.append({"caption_id": cid, **frame})
            low, high = (
                (BALANCE_PPL_THRESHOLD + 1.0, 95.0) if ci in HIGH_PPL_CAPTIONS
                else (5.0, BALANCE_PPL_THRESHOLD - 1.0)
            )
            ppl.append({"caption_id": cid, "ppl": round(rng.uniform(low, high), 3)})
        captions.append({"video_id": vid, "lang": "en-word", "captions": texts})
    config: dict = {"split": {"ratios": [0.7, 0.1, 0.2], "seed": seed}}
    if workload == "construct-mine":
        config["balance_tolerance"] = 1_000_000_000
    else:
        config["ppl_threshold"] = BALANCE_PPL_THRESHOLD
    files = {
        "captions.jsonl": _dump(captions),
        "parses.conllu": "".join(conllu),
        "srl.jsonl": _dump(srl),
        "ppl.jsonl": _dump(ppl),
        "config.json": json.dumps(config, indent=2) + "\n",
    }
    manifest = {
        "workload": workload,
        "seed": seed,
        "items": videos * CAPTIONS_PER_VIDEO,
        "videos": videos,
    }
    return _write(out_dir, files, manifest)


# The known-defect probe: two stacked amod adjectives before one noun are
# adjacent small sibling branches.  construct merges their spans into
# (1,2),(2,3), and the reversed add command gets duplicate gaps.
PROBE_CAPTION = "a small brown dog runs across the park ."
PROBE_PARSE = (
    ("a", "DET", 3, "det"),
    ("small", "ADJ", 3, "amod"),
    ("brown", "ADJ", 3, "amod"),
    ("dog", "NOUN", 4, "nsubj"),
    ("runs", "VERB", -1, "root"),
    ("across", "ADP", 7, "case"),
    ("the", "DET", 7, "det"),
    ("park", "NOUN", 4, "obl"),
    (".", "PUNCT", 4, "punct"),
)


def write_probe(out_dir: str) -> dict:
    files = {
        "captions.jsonl": _dump(
            [{"video_id": "probe", "lang": "en-word", "captions": [PROBE_CAPTION]}]
        ),
        "parses.conllu": "# sent_id = probe#0\n" + "\n".join(
            _conllu_row(i, *tok) for i, tok in enumerate(PROBE_PARSE)
        ) + "\n\n",
    }
    return _write(out_dir, files, {"workload": "probe", "items": 1})


# ------------------------------------------------------------------ common


def _write(out_dir: str, files: dict[str, str], manifest: dict) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode("utf-8")
        digest.update(name.encode() + b"\0" + data)
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    manifest["inputs_sha256"] = digest.hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def generate(workload: str, seed: int, out_dir: str) -> dict:
    if workload.startswith("evaluate-"):
        return generate_evaluate(workload, seed, out_dir)
    return generate_construct(workload, seed, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import capedit.cli  # noqa: F401  (set-up includes the program's import)

    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps({"inputs_sha256": manifest["inputs_sha256"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
