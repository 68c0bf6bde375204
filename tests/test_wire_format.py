"""Differential check of the dataset line encoder against the wire-format
oracle: each line io writes must equal
json.dumps(oracles.sample_to_wire(sample), ensure_ascii=False) + "\\n".

Runs under pytest, or without it as a plain script:

    PYTHONPATH=src:tests python tests/test_wire_format.py
"""

import json
import math
import random
import tempfile
from pathlib import Path

from capedit import io as cio
from capedit.commands import Command, CommandKind, Operation, kind
from capedit.construction import EditSample, Provenance
from capedit.text import LanguageMode, TokenSeq

from oracles import sample_to_wire

KINDS = tuple(CommandKind)
MODES = tuple(LanguageMode)
# id characters: the JSON escapes, control characters, the line and
# paragraph separators (which JSON writes unescaped), non-ASCII and a
# non-BMP character
ID_CHARS = (
    '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029",
    "é", "中", "\U0001f600", "a", "0",
)
# token characters: the same without whitespace, which no token holds
TOKEN_CHARS = ('"', "\\", "/", "\x00", "\x7f", "é", "中", "\U0001f600", "a", "b", "'", ".")
# aux values: finite floats, ints and bools, and NaN and the infinities,
# which only samples built in library code can carry (the readers reject them)
AUX = (
    None, 1.5, 0.1, 1e16, 5e-324, -0.0, 1e308, 2.5e-7, 3, 0, True, False,
    math.nan, math.inf, -math.inf,
)


def _text(rng: random.Random, chars, lo: int, hi: int) -> str:
    return "".join(rng.choices(chars, k=rng.randint(lo, hi)))


def _tokens(rng: random.Random, mode: LanguageMode, n: int) -> tuple[str, ...]:
    if mode is LanguageMode.CHAR:
        return tuple(rng.choices(TOKEN_CHARS, k=n))
    return tuple(_text(rng, TOKEN_CHARS, 1, 3) for _ in range(n))


def random_sample(
    rng: random.Random, kind: CommandKind, mode: LanguageMode, with_payload: bool, ppl
) -> EditSample:
    """A sample of kind in mode whose fields exercise the encoder; the
    ground truth need not be the command's edit of the reference."""
    ref = TokenSeq(_tokens(rng, mode, rng.randint(4, 9)), mode)
    positions = None
    if kind.has_pos:
        bounds = sorted(rng.sample(range(len(ref) + 1), 4))
        if kind.op is Operation.ADD:
            positions = tuple(bounds[: rng.randint(1, 4)])
        else:
            positions = ((bounds[0], bounds[1]), (bounds[2], bounds[3]))[: rng.randint(1, 2)]
    attributes = None
    if kind.has_attr:
        attributes = tuple(_tokens(rng, mode, rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
    payload = None
    provenance = rng.choice(tuple(Provenance))
    if with_payload and positions is not None:
        payload = tuple(_tokens(rng, mode, rng.randint(1, 3)) for _ in positions)
        provenance = rng.choice((Provenance.DEGRADATION, Provenance.REVERSAL))
    return EditSample(
        id=_text(rng, ID_CHARS, 0, 6),
        video_id=_text(rng, ID_CHARS, 0, 6),
        mode=mode,
        command=Command(kind.op, positions, attributes),
        reference=ref,
        ground_truth=TokenSeq(_tokens(rng, mode, rng.randint(0, 9)), mode),
        provenance=provenance,
        payload=payload,
        ppl=ppl,
        emscore=rng.choice(AUX),
    )


def random_samples(seed: int = 24, rounds: int = 2) -> list[EditSample]:
    """Every (kind, mode, payload or not) cell with every ppl value of
    AUX, rounds times over."""
    rng = random.Random(seed)
    cells = len(KINDS) * len(MODES) * 2
    return [
        random_sample(
            rng,
            KINDS[i % len(KINDS)],
            MODES[i // len(KINDS) % len(MODES)],
            bool(i // (len(KINDS) * len(MODES)) % 2),
            AUX[i // cells % len(AUX)],
        )
        for i in range(cells * len(AUX) * rounds)
    ]


def _oracle_line(sample: EditSample) -> str:
    return json.dumps(sample_to_wire(sample), ensure_ascii=False) + "\n"


def test_record_line_matches_wire_oracle():
    samples = random_samples()
    for sample in samples:
        assert cio._record_line(sample) == _oracle_line(sample), sample
    # every kind in both modes, with a payload where the kind allows one
    # and without, and every aux value were written
    assert {(kind(s.command), s.mode, s.payload is not None) for s in samples} == {
        (k, m, p) for k in KINDS for m in MODES for p in {False, k.has_pos}
    }
    assert {repr(s.ppl) for s in samples} == {repr(v) for v in AUX}


def test_write_dataset_writes_the_oracle_lines(tmp_path):
    samples = random_samples(seed=25, rounds=1)
    path = tmp_path / "corpus.jsonl"
    cio.write_dataset(str(path), samples)
    assert path.read_bytes() == "".join(map(_oracle_line, samples)).encode("utf-8")


if __name__ == "__main__":
    test_record_line_matches_wire_oracle()
    with tempfile.TemporaryDirectory() as tmp:
        test_write_dataset_writes_the_oracle_lines(Path(tmp))
    print(f"wire format: {len(random_samples())} encoder lines match the oracle")
