"""Synthetic data generators tuned to hit target compression factors.

Each Table 3 data type maps to a *family* generator that produces
structurally plausible bytes (XML trees, log lines, PostScript operators,
skewed binary words, PCM-like walks, high-entropy media).  A single
monotone knob ``t`` trades redundancy for entropy:

- ``t in [0, 1]``: fully structured content whose token diversity grows
  with t (small vocabularies compress extremely well);
- ``t in (1, 2]``: full-diversity structured content blended with an
  increasing fraction of incompressible bytes.

:func:`calibrate_knob` binary-searches t so that the zlib -9 factor of a
sample matches the Table 2 target, which is all the evaluation needs from
the data (the paper's figures consume only size, factor and type).

Mixed-container types (tar-of-HTML, PDF) blend at compression-buffer
granularity so that whole 0.128 MB blocks are text-like or media-like,
giving the block-adaptive scheme (Figure 10) realistic input.
"""

from __future__ import annotations

import functools
import random
import zlib
from typing import Callable, Dict

from repro import units
from repro.errors import WorkloadError
from repro.workload.manifest import FileType

#: Sample size used during knob calibration.
_CALIBRATION_SAMPLE = 64 * 1024
#: Blend granularity for ordinary types (inside the LZ77 window).
_FINE_CHUNK = 4096


def _vocab(rng: random.Random, size: int, word_len: int = 7) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        "".join(rng.choice(letters) for _ in range(rng.randint(3, word_len)))
        for _ in range(size)
    ]


def _diversity_to_vocab(t: float, lo: int = 4, hi: int = 4000) -> int:
    t = min(max(t, 0.0), 1.0)
    # Exponential ramp: tiny vocabularies at t=0, thousands at t=1.
    return int(lo * (hi / lo) ** t)


# -- family generators (structured part) -------------------------------------


def xml_like(rng: random.Random, size: int, t: float) -> bytes:
    """XML-record stream; vocabulary and counter periods grow with t."""
    vocab = _vocab(rng, _diversity_to_vocab(t, 3, 1500))
    tags = vocab[: max(3, len(vocab) // 20)]
    # Counter fields cycle with a t-dependent period: near t=0 records are
    # nearly identical (factor 25+), near t=1 ids are effectively unique.
    cycle = max(4, int(4 + 9996 * min(t, 1.0) ** 2))
    out = bytearray(b"<?xml version=\"1.0\"?>\n<catalog>\n")
    i = 0
    while len(out) < size:
        tag = tags[i % len(tags)]
        w1 = vocab[rng.randrange(len(vocab))]
        w2 = vocab[rng.randrange(len(vocab))]
        out += (
            f'  <{tag} id="{i % cycle}" class="{w1}">\n'
            f"    <name>{w2}</name><value>{i % (cycle % 97 + 3)}</value>\n"
            f"  </{tag}>\n"
        ).encode()
        i += 1
    out += b"</catalog>\n"
    return bytes(out[:size])


def log_like(rng: random.Random, size: int, t: float) -> bytes:
    """Web-server log lines; host/path vocabulary grows with t."""
    vocab = _vocab(rng, _diversity_to_vocab(t, 6, 2500))
    hosts = vocab[: max(2, len(vocab) // 30)]
    cycle = max(3, int(3 + 8997 * min(t, 1.0) ** 2))
    out = bytearray()
    i = 0
    while len(out) < size:
        host = hosts[i % len(hosts)]
        path = "/".join(vocab[rng.randrange(len(vocab))] for _ in range(2))
        out += (
            f"{host}.example.com - - [10/Jan/2003:12:{i % (cycle % 60 + 1):02d}"
            f":{(i * 7) % (cycle % 61 + 1):02d}] "
            f'"GET /{path}.html HTTP/1.0" 200 {1000 + (i * 37) % cycle}\n'
        ).encode()
        i += 1
    return bytes(out[:size])


def text_like(rng: random.Random, size: int, t: float) -> bytes:
    """Sentence stream over a t-sized vocabulary (mail, PDF text)."""
    vocab = _vocab(rng, _diversity_to_vocab(t, 8, 6000))
    out = bytearray()
    while len(out) < size:
        words = [vocab[rng.randrange(len(vocab))] for _ in range(rng.randint(4, 11))]
        out += (" ".join(words) + ".\n").encode()
    return bytes(out[:size])


def source_like(rng: random.Random, size: int, t: float) -> bytes:
    """C-like source: keywords plus a t-sized identifier vocabulary."""
    vocab = _vocab(rng, _diversity_to_vocab(t, 6, 3000))
    keywords = ["int", "for", "if", "return", "struct", "void", "while", "static"]
    out = bytearray()
    i = 0
    while len(out) < size:
        kw = keywords[i % len(keywords)]
        a = vocab[rng.randrange(len(vocab))]
        b = vocab[rng.randrange(len(vocab))]
        out += f"{kw} {a}_{i % 50}({b}) {{\n    {a} = {b} + {i % 10};\n}}\n".encode()
        i += 1
    return bytes(out[:size])


def postscript_like(rng: random.Random, size: int, t: float) -> bytes:
    """PostScript operators with t-scaled coordinate entropy."""
    vocab = _vocab(rng, _diversity_to_vocab(t, 5, 1200))
    ops = ["moveto", "lineto", "curveto", "stroke", "show", "setfont", "scalefont"]
    out = bytearray(b"%!PS-Adobe-2.0\n")
    i = 0
    coord_range = 100 + int(900 * min(t, 1.0))
    while len(out) < size:
        op = ops[i % len(ops)]
        x = rng.randrange(coord_range)
        y = rng.randrange(coord_range)
        word = vocab[rng.randrange(len(vocab))]
        out += f"{x} {y} {op} ({word}) show\n".encode()
        i += 1
    return bytes(out[:size])


def binary_like(rng: random.Random, size: int, t: float) -> bytes:
    """Instruction-stream-like bytes built from a basic-block library.

    Real machine code compresses (gzip factors 1.6-3.5 in Table 2)
    because prologues, call sequences and addressing idioms repeat.  A
    library of K distinct instruction sequences is sampled Zipf-style;
    K and the fraction of one-off literal instructions grow with t.
    """
    t = min(max(t, 0.0), 1.0)
    n_blocks = _diversity_to_vocab(t, 4, 3000)
    library = []
    for _ in range(n_blocks):
        block_len = 4 * rng.randint(3, 12)
        block = bytearray()
        while len(block) < block_len:
            block.append(rng.randrange(64))  # opcode
            block.append(rng.randrange(16))  # registers
            block += bytes((rng.randrange(32), 0))  # small imm + pad
        library.append(bytes(block))

    literal_fraction = 0.05 + 0.45 * t
    out = bytearray()
    while len(out) < size:
        if rng.random() < literal_fraction:
            out += bytes(
                (rng.randrange(256), rng.randrange(256), rng.randrange(64), 0)
            )
        else:
            # Zipf-ish block choice: square the uniform draw to skew low.
            idx = int(rng.random() ** 2 * n_blocks)
            out += library[min(idx, n_blocks - 1)]
    return bytes(out[:size])


def wav_like(rng: random.Random, size: int, t: float) -> bytes:
    """8-bit PCM-like random walk; step amplitude grows smoothly with t."""
    max_step = 1.0 + 14.0 * min(t, 1.0)
    out = bytearray(b"RIFFWAVEfmt ")
    level = 128.0
    silence = 0
    while len(out) < size:
        if silence > 0:
            out.append(128)
            silence -= 1
            continue
        if rng.random() < 0.002 * (1.5 - min(t, 1.0)):
            silence = rng.randint(32, 256)
            continue
        level += rng.uniform(-max_step, max_step)
        level = min(255.0, max(0.0, level))
        out.append(int(level))
    return bytes(out[:size])


def media_like(rng: random.Random, size: int, t: float) -> bytes:
    """Already-encoded media: high-entropy plus low-entropy filler regions.

    Real encoded media sits at gzip factors 1.00-1.09 (Table 2): almost
    incompressible, with whatever slack comes from padding, headers and
    flat regions.  The filler share shrinks to zero as t -> 1.
    """
    t = min(max(t, 0.0), 1.0)
    filler_prob = 0.5 * (1.0 - t)
    out = bytearray()
    while len(out) < size:
        if rng.random() < filler_prob:
            out += bytes([rng.randrange(256)]) * rng.randint(64, 512)
        else:
            out += rng.getrandbits(8 * 256).to_bytes(256, "little")
    return bytes(out[:size])


_FAMILIES: Dict[FileType, Callable[[random.Random, int, float], bytes]] = {
    FileType.XML: xml_like,
    FileType.HTML: xml_like,
    FileType.LOG: log_like,
    FileType.TAR_HTML: xml_like,
    FileType.SOURCE: source_like,
    FileType.POSTSCRIPT: postscript_like,
    FileType.EPS: postscript_like,
    FileType.PDF: text_like,
    FileType.BINARY: binary_like,
    FileType.CLASS: binary_like,
    FileType.WAV: wav_like,
    FileType.TIFF: media_like,
    FileType.JPEG: media_like,
    FileType.MP3: media_like,
    FileType.MPEG: media_like,
    FileType.GIF: media_like,
    FileType.RANDOM: media_like,
    FileType.MAIL: text_like,
    FileType.SCRIPT: source_like,
    FileType.MODEM: binary_like,
}

#: Types whose real-world instances are containers mixing text and
#: already-encoded objects; blended at compression-buffer granularity.
MIXED_TYPES = (FileType.TAR_HTML, FileType.PDF)


def structured(file_type: FileType, size: int, seed: int, t: float) -> bytes:
    """The structured part of a family at diversity knob ``t``."""
    try:
        family = _FAMILIES[file_type]
    except KeyError:
        raise WorkloadError(f"no generator family for {file_type}") from None
    return family(random.Random(seed), size, t)


def _random_bytes(rng: random.Random, size: int) -> bytes:
    return rng.getrandbits(8 * size).to_bytes(size, "little") if size else b""


def blended(
    file_type: FileType,
    size: int,
    seed: int,
    t: float,
    chunk: int = 0,
) -> bytes:
    """Generate ``size`` bytes at knob ``t`` (see module docstring)."""
    return _blend(
        file_type, size, seed, t, chunk,
        lambda: structured(file_type, size, seed, 1.0),
    )


def _blend(
    file_type: FileType,
    size: int,
    seed: int,
    t: float,
    chunk: int,
    full_diversity: Callable[[], bytes],
) -> bytes:
    """:func:`blended`, reading ``structured(..., t=1.0)`` from
    ``full_diversity()``, called only when a chunk needs it."""
    if size <= 0:
        return b""
    if t == 1.0:
        return full_diversity()
    if t < 1.0:
        return structured(file_type, size, seed, t)
    if chunk <= 0:
        # Small files need fine-grained blending or the random fraction
        # quantizes to a step function of t.
        chunk = min(_FINE_CHUNK, max(64, size // 16))
    random_fraction = min(t - 1.0, 1.0)
    rng = random.Random(seed ^ 0x5EED)
    struct_data = None
    out = bytearray()
    pos = 0
    while pos < size:
        n = min(chunk, size - pos)
        if rng.random() < random_fraction:
            out += _random_bytes(rng, n)
        else:
            if struct_data is None:
                struct_data = full_diversity()
            out += struct_data[pos : pos + n]
        pos += n
    return bytes(out[:size])


def measured_factor(data: bytes) -> float:
    """gzip-lineage compression factor of ``data`` (zlib level 9)."""
    if not data:
        return 1.0
    return len(data) / len(zlib.compress(data, 9))


def calibrate_knob(
    file_type: FileType,
    target_factor: float,
    seed: int,
    sample_size: int = _CALIBRATION_SAMPLE,
    iterations: int = 14,
) -> float:
    """Binary-search the knob t so the sample's zlib factor hits the target.

    The achieved factor is monotonically non-increasing in t.  Raises
    :class:`WorkloadError` if the target exceeds what the family can do
    even at maximum redundancy.
    """
    if target_factor < 0.9:
        raise WorkloadError(f"target factor {target_factor} below media floor")

    best_t = 0.0
    best_err = float("inf")

    # Every knob past 1 blends the same t=1 sample: build it once per
    # calibration, on first use.
    @functools.cache
    def full_diversity() -> bytes:
        return structured(file_type, sample_size, seed, 1.0)

    def factor_at(t: float) -> float:
        nonlocal best_t, best_err
        f = measured_factor(
            _blend(file_type, sample_size, seed, t, 0, full_diversity)
        )
        err = abs(f - target_factor)
        if err < best_err:
            best_t, best_err = t, err
        return f

    f_max = factor_at(0.0)
    if f_max < target_factor * 0.95:
        raise WorkloadError(
            f"{file_type} family tops out at factor {f_max:.2f} "
            f"< target {target_factor:.2f}"
        )
    lo, hi = 0.0, 2.0
    if factor_at(hi) > target_factor:
        return hi
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if factor_at(mid) >= target_factor:
            lo = mid
        else:
            hi = mid
    # Chunk quantization makes the factor slightly non-monotone on small
    # inputs; return the best knob actually evaluated, not the midpoint.
    return best_t


def mixed_container(
    file_type: FileType,
    size: int,
    seed: int,
    target_factor: float,
    region_bytes: int = units.BLOCK_SIZE_BYTES,
) -> bytes:
    """Container-type file: whole regions are text-like or media-like.

    The media-region count is solved from 1/F = p + (1-p)/F_text with
    F_text measured on a region-sized sample, regions are spread evenly,
    and the result is corrected against the measured whole-file factor
    (region counts quantize p, so one refinement pass is enough for the
    corpus's +-15% validation band).
    """
    n_regions = max(1, (size + region_bytes - 1) // region_bytes)
    # Pick the most diverse text knob whose factor still clears the
    # target with headroom, so adding media regions can dial down to it.
    sample = min(size, region_bytes)
    t_text = 0.6
    f_text = measured_factor(structured(file_type, sample, seed, t_text))
    while f_text < target_factor * 1.25 and t_text > 0.0:
        t_text = max(0.0, t_text - 0.15)
        f_text = measured_factor(structured(file_type, sample, seed, t_text))
    f_text = max(f_text, target_factor)  # the text part must compress deeper

    def build(n_random: int) -> bytes:
        rng = random.Random(seed ^ 0xC0FFEE)
        random_slots = set()
        if n_random > 0:
            stride = n_regions / n_random
            random_slots = {int((k + 0.5) * stride) for k in range(n_random)}
        out = bytearray()
        region = 0
        while len(out) < size:
            n = min(region_bytes, size - len(out))
            if region in random_slots:
                out += _random_bytes(rng, n)
            else:
                out += structured(file_type, n, seed + region, t_text)
            region += 1
        return bytes(out[:size])

    # The whole-file factor is monotone decreasing in the random-region
    # count, so binary-search it, tracking the best build seen.
    best = None
    best_err = float("inf")

    def evaluate(n_random: int) -> float:
        nonlocal best, best_err
        data = build(n_random)
        f = measured_factor(data)
        err = abs(f - target_factor)
        if err < best_err:
            best, best_err = data, err
        return f

    lo, hi = 0, n_regions
    p = (1.0 / target_factor - 1.0 / f_text) / (1.0 - 1.0 / f_text)
    first = int(round(min(max(p, 0.0), 1.0) * n_regions))
    if evaluate(first) >= target_factor:
        lo = first
    else:
        hi = first
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid) >= target_factor:
            lo = mid
        else:
            hi = mid
    evaluate(lo)
    evaluate(hi)
    return best
