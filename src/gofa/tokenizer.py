"""Byte-level tokenizer: 256 byte values plus a few special ids.

Desk-scale stand-in for a subword vocabulary; any UTF-8 string round-trips
losslessly through encode/decode.
"""

from __future__ import annotations

N_BYTES = 256
PAD_ID = 256
EOS_ID = 258

# ids 257 and 259 are reserved; they keep every embedding shape and seeded initialisation
VOCAB_SIZE = 260


def encode(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def decode(ids) -> str:
    return bytes(i for i in ids if 0 <= i < N_BYTES).decode("utf-8", errors="replace")
