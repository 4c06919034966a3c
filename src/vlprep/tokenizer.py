"""Byte-level mock tokenizer and projection of character spans onto tokens.

The pipeline never needs a production tokenizer: what it needs is *some*
tokenizer whose special literals are atomic, so that packing lengths and loss
masks can be computed and tested deterministically. :class:`MockTokenizer`
maps every UTF-8 byte to its own id (0..255) and each reserved literal to a
single id above that. Any object with the same ``encode`` / ``decode`` pair
can be dropped in instead.

``encode_token_ids`` and ``decode_token_ids`` carry token ids in one ASCII
string (token record format 3): the base64 of the ids as little-endian
unsigned 16-bit integers.

``project_mask`` turns the character-level supervision spans of an
:class:`~vlprep.chat.AnnotatedText` into supervised token ranges by encoding
span by span. Because spans were built on segment boundaries this is lossless
for any sane tokenizer; the function verifies the round trip and raises
:class:`~vlprep.errors.SpanAlignmentError` if concatenated span encodings do
not decode back to the original text.
"""

from __future__ import annotations

import binascii
import re
import struct
from typing import Protocol

from .chat import EOS, IM_END, IM_START, AnnotatedText
from .errors import SpanAlignmentError
from .grounding import (
    TAG_BOX_CLOSE,
    TAG_BOX_OPEN,
    TAG_IMG_CLOSE,
    TAG_IMG_OPEN,
    TAG_QUAD_CLOSE,
    TAG_QUAD_OPEN,
    TAG_REF_CLOSE,
    TAG_REF_OPEN,
)

# Literals that must encode to a single token id each. Order fixes their ids.
RESERVED_LITERALS = (
    TAG_IMG_OPEN,
    TAG_IMG_CLOSE,
    TAG_BOX_OPEN,
    TAG_BOX_CLOSE,
    TAG_REF_OPEN,
    TAG_REF_CLOSE,
    TAG_QUAD_OPEN,
    TAG_QUAD_CLOSE,
    IM_START,
    IM_END,
    EOS,
)

N_BYTE_TOKENS = 256


class Tokenizer(Protocol):
    def encode(self, text: str) -> list[int]: ...

    def decode(self, ids: list[int]) -> str: ...


class MockTokenizer:
    """UTF-8 bytes as ids 0..255, reserved literals as single ids 256 and up.

    Reserved literals are matched greedily left to right; none of them is a
    substring of another, so the segmentation is unambiguous.
    """

    def __init__(self) -> None:
        self._id_of = {
            lit: N_BYTE_TOKENS + i for i, lit in enumerate(RESERVED_LITERALS)
        }
        # The UTF-8 bytes of every id, indexed by id.
        self._bytes_of = [bytes((i,)) for i in range(N_BYTE_TOKENS)] + [
            lit.encode("utf-8") for lit in RESERVED_LITERALS
        ]
        ordered = sorted(RESERVED_LITERALS, key=len, reverse=True)
        self._reserved_re = re.compile("|".join(re.escape(t) for t in ordered))

    @property
    def vocab_size(self) -> int:
        return N_BYTE_TOKENS + len(RESERVED_LITERALS)

    def token_id(self, literal: str) -> int:
        if literal not in self._id_of:
            raise KeyError(f"not a reserved literal: {literal!r}")
        return self._id_of[literal]

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        pos = 0
        for m in self._reserved_re.finditer(text):
            ids.extend(text[pos : m.start()].encode("utf-8"))
            ids.append(self._id_of[m.group()])
            pos = m.end()
        ids.extend(text[pos:].encode("utf-8"))
        return ids

    def decode(self, ids: list[int]) -> str:
        table = self._bytes_of
        try:
            # A negative id would index from the end: send it past the end.
            return b"".join([table[i if i >= 0 else len(table)] for i in ids]).decode("utf-8")
        except IndexError:
            pass
        # An id is out of range. As a left-to-right decode would, first raise
        # on a byte run closed by a literal before it, if that run is not UTF-8.
        bad = next(k for k, i in enumerate(ids) if not 0 <= i < len(table))
        closed = max((k + 1 for k in range(bad) if ids[k] >= N_BYTE_TOKENS), default=0)
        b"".join([table[i] for i in ids[:closed]]).decode("utf-8")
        raise ValueError(f"token id {ids[bad]} out of range")


def project_mask(
    annotated: AnnotatedText, tokenizer: Tokenizer
) -> tuple[list[int], list[list[int]]]:
    """Encode an annotated text span by span into (token ids, loss spans).

    The loss spans are the maximal runs of supervised tokens, each a
    half-open ``[start, end]`` range of token positions: sorted, non-empty,
    never adjacent, within ``[0, len(ids)]``. Supervised tokens are exactly
    those produced by supervised character spans. Raises SpanAlignmentError
    when the per-span encoding does not round-trip, which happens with
    tokenizers that merge across the span boundaries used here.
    """
    ids: list[int] = []
    loss_spans: list[list[int]] = []
    for start, end, supervised in annotated.spans:
        span_ids = tokenizer.encode(annotated.text[start:end])
        if supervised and span_ids:
            if loss_spans and loss_spans[-1][1] == len(ids):
                loss_spans[-1][1] += len(span_ids)
            else:
                loss_spans.append([len(ids), len(ids) + len(span_ids)])
        ids.extend(span_ids)
    if tokenizer.decode(ids) != annotated.text:
        raise SpanAlignmentError(
            "span-wise encoding does not reproduce the original text"
        )
    return ids, loss_spans


def encode_token_ids(ids: list[int]) -> str:
    """The standard, padded base64 of ``ids`` as little-endian uint16.

    Raises ValueError unless every id is an integer in [0, 65535].
    """
    try:
        # struct packs a list of ints about twice as fast as array("H") does.
        packed = struct.pack(f"<{len(ids)}H", *ids)
    except struct.error as e:
        raise ValueError(f"token ids must be integers in [0, 65535]: {e}") from None
    return binascii.b2a_base64(packed, newline=False).decode("ascii")


def decode_token_ids(text: str) -> list[int]:
    """The ids of :func:`encode_token_ids` output; the inverse of that function.

    Raises ValueError for any other string: a character outside the base64
    alphabet, missing or misplaced padding, non-zero unused bits, or an odd
    number of bytes.
    """
    import base64  # ~1 ms to import, and no CLI command decodes ids

    if not isinstance(text, str):
        raise TypeError(f"token ids must be a base64 string, got {type(text).__name__}")
    raw = base64.b64decode(text, validate=True)
    # Python 3.10 decodes "=" as no bytes, and no version refuses unused bits.
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise ValueError("token ids are not canonical base64")
    if len(raw) % 2:
        raise ValueError(f"token ids take {len(raw)} bytes, an odd count")
    return list(struct.unpack(f"<{len(raw) // 2}H", raw))
