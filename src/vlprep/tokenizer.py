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
span by span, so every span boundary is a token boundary by design: a
tokenizer that would merge characters across a boundary encodes each side on
its own. For any tokenizer but the exact :class:`MockTokenizer`, subclasses
included, the function checks that the concatenated span encodings decode
back to the original text and raises
:class:`~vlprep.errors.SpanAlignmentError` if they do not, which catches
lossy or normalising tokenizers; it does not catch a segmentation that
differs from encoding the whole text. The exact mock is lossless by
construction, so its projection skips that decode: its byte and literal ids
invert exactly, UTF-8 pieces join into UTF-8, and a lone surrogate raises in
the encode before any check.
"""

from __future__ import annotations

import binascii
import struct
from typing import Protocol

from .chat import RESERVED_LITERALS, AnnotatedText
from .errors import SpanAlignmentError

N_BYTE_TOKENS = 256


class Tokenizer(Protocol):
    def encode(self, text: str) -> list[int]: ...

    def decode(self, ids: list[int]) -> str: ...


class MockTokenizer:
    """UTF-8 bytes as ids 0..255, reserved literals as single ids 256 and up.

    Reserved literals are matched greedily left to right. Each is ASCII,
    starts with ``<``, ends with ``>`` and holds no other ``<`` or ``>``, so
    no two occurrences overlap and the segmentation is unambiguous.
    """

    def __init__(self) -> None:
        self._id_of = {
            lit: N_BYTE_TOKENS + i for i, lit in enumerate(RESERVED_LITERALS)
        }
        # Each literal and the code point of its id.
        self._points = tuple((lit, chr(i)) for lit, i in self._id_of.items())
        self._point_of = dict(self._points)

    @property
    def vocab_size(self) -> int:
        return N_BYTE_TOKENS + len(RESERVED_LITERALS)

    def token_id(self, literal: str) -> int:
        if literal not in self._id_of:
            raise KeyError(f"not a reserved literal: {literal!r}")
        return self._id_of[literal]

    def _code_points(self, text: str) -> str:
        """The ids of ``text`` as a string, one code point per id.

        Its UTF-8 bytes read as Latin-1 are the byte ids. For ASCII text
        those bytes read back as the text itself, so it is its own string of
        byte ids and is not copied; other text, a lone surrogate included,
        goes through ``str.encode``. Occurrences of literals never overlap,
        so replacing one literal after another matches them as a greedy
        left-to-right scan would. Every literal starts with ``<``: once none
        is left, no literal is.
        """
        point = self._point_of.get(text)  # many spans are one literal
        if point is not None:
            return point
        # str.isascii and str.encode, so that a non-string is a TypeError.
        points = text if str.isascii(text) else str.encode(text, "utf-8").decode("latin-1")
        if "<" in points:
            for lit, point in self._points:
                points = points.replace(lit, point)
                if "<" not in points:
                    break
        return points

    def _text(self, points: str) -> str:
        """The inverse of :meth:`_code_points`: strict UTF-8 of the bytes."""
        for lit, point in self._points:
            if point in points:  # a search is much cheaper than a replace
                points = points.replace(point, lit)
        return points.encode("latin-1").decode("utf-8")

    def encode(self, text: str) -> list[int]:
        return _ids(self._code_points(text))

    def decode(self, ids: list[int]) -> str:
        try:
            points = "".join(map(chr, ids))
        except (TypeError, ValueError, OverflowError):
            points = None
        if points is not None and max(points, default="") < chr(self.vocab_size):
            return self._text(points)
        # An id is out of range or not an integer. As a left-to-right decode
        # would, first raise on a byte run closed by a literal before it, if
        # that run is not UTF-8.
        import operator

        bad = next(k for k, i in enumerate(ids)
                   if not 0 <= operator.index(i) < self.vocab_size)
        closed = max((k + 1 for k in range(bad) if ids[k] >= N_BYTE_TOKENS), default=0)
        self._text("".join(map(chr, ids[:closed])))
        raise ValueError(f"token id {ids[bad]} out of range")


def _ids(points: str) -> list[int]:
    """The ids of a string of code points below U+D800: one UTF-16 unit each."""
    return list(struct.unpack(f"<{len(points)}H", points.encode("utf-16-le")))


def project_mask(
    annotated: AnnotatedText, tokenizer: Tokenizer
) -> tuple[list[int], list[list[int]]]:
    """Encode an annotated text span by span into (token ids, loss spans).

    The loss spans are the maximal runs of supervised tokens, each a
    half-open ``[start, end]`` range of token positions: sorted, non-empty,
    never adjacent, within ``[0, len(ids)]``. Supervised tokens are exactly
    those produced by supervised character spans. Each span is encoded on
    its own, so span boundaries are token boundaries by design. Raises
    SpanAlignmentError when the concatenated span encodings do not decode
    back to the text, as with a lossy or normalising tokenizer. The exact
    MockTokenizer is lossless by construction, so its projection skips the
    decode; a subclass keeps it. The check does not catch a tokenizer that
    would segment the whole text differently.
    """
    # The mock's spans encode to strings of code points, one per id. Not for
    # a subclass: it may override encode.
    mock = type(tokenizer) is MockTokenizer
    encode = tokenizer._code_points if mock else tokenizer.encode
    text = annotated.text
    parts: list = []
    n_ids = 0
    loss_spans: list[list[int]] = []
    for start, end, supervised in annotated.spans:
        part = encode(text[start:end])
        if supervised and part:
            if loss_spans and loss_spans[-1][1] == n_ids:
                loss_spans[-1][1] += len(part)
            else:
                loss_spans.append([n_ids, n_ids + len(part)])
        n_ids += len(part)
        parts.append(part)
    if mock:
        # The spans tile the text and _code_points is exact, so
        # _text("".join(parts)) is always the text: nothing to check.
        return _ids("".join(parts)), loss_spans
    ids = []
    for part in parts:
        ids.extend(part)
    if tokenizer.decode(ids) != text:
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
