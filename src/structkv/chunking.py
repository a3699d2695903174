"""Structure-aware partitioning of token streams into chunks.

A file's chunks are the runs between consecutive entries of one ascending
list of token cuts, built in three steps:

1. Unit bounds. Each top-level ``def`` line (a ``def`` keyword at the file's
   smallest indent) starts a unit at the end of the last statement line
   before it, so the blank and comment lines leading into it belong to it.
   The unit ends after the last deeper line of its body; blank and comment
   lines after that lead into whatever follows. The statements between
   functions form the units in between. A top-level decorator line is
   such a statement, so it ends the unit before its ``def``, and
   ``async def`` starts no unit; class and method bodies are cut by size
   alone.
2. Splits. While the rest of a unit is longer than ``target_chunk_tokens``,
   a cut goes at the last statement start within the target. When there is
   none, the next statement is taken whole, but a piece never grows past
   ``max_chunk_tokens``: there it is cut mid-statement.
3. Merges. From the first piece on, a piece shorter than
   ``min_chunk_tokens`` loses the cut after it (merges forward) if the
   result stays within ``max_chunk_tokens``, else the cut before it (merges
   backward) on the same condition, and the merged piece is checked again.
   A short piece boxed in by the maximum on both sides stays, as does a
   file's only piece.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .lexer import SourceFile, Token, TokenKind, logical_lines


@dataclass(frozen=True)
class ChunkConfig:
    max_chunk_tokens: int = 4096
    target_chunk_tokens: int = 512
    min_chunk_tokens: int = 128

    def __post_init__(self) -> None:
        if not (0 < self.min_chunk_tokens <= self.target_chunk_tokens <= self.max_chunk_tokens):
            raise ConfigError(
                "chunk sizes must satisfy 0 < min <= target <= max, got "
                f"min={self.min_chunk_tokens} target={self.target_chunk_tokens} "
                f"max={self.max_chunk_tokens}"
            )


@dataclass(frozen=True)
class Chunk:
    id: int
    file: str
    token_range: tuple[int, int]  # half-open over file token indices
    line_range: tuple[int, int]  # inclusive
    length: int


def partition_chunks(
    file: SourceFile,
    tokens: list[Token],
    cfg: ChunkConfig,
    start_id: int = 0,
) -> list[Chunk]:
    """Partition a file's tokens into chunks; every token lands in exactly one."""
    statements = [ln for ln in logical_lines(tokens) if not ln.blank]
    top = min((ln.indent_col for ln in statements), default=0)
    bounds = []  # token positions where a top-level function's unit starts or ends
    line_end = 0  # end of the last statement line so far
    in_def = False
    for ln in statements:
        if ln.indent_col == top:
            tok = tokens[ln.sig_start]
            is_def = tok.kind is TokenKind.KEYWORD and tok.text == "def"
            if in_def or is_def:
                bounds.append(line_end)
            in_def = is_def
        line_end = ln.end
    if in_def:
        bounds.append(line_end)
    bounds.append(len(tokens))

    starts = [ln.start for ln in statements]
    cuts = [0]
    for end in bounds:
        pos = cuts[-1]
        while end - pos > cfg.target_chunk_tokens:
            i = bisect.bisect_right(starts, pos + cfg.target_chunk_tokens)
            if i and starts[i - 1] > pos:
                cut = starts[i - 1]  # last statement start within target
            else:
                cut = starts[i] if i < len(starts) else end  # oversized statement
            pos = min(cut, end, pos + cfg.max_chunk_tokens)
            cuts.append(pos)
        if pos < end:
            cuts.append(end)

    i = 0  # piece i runs from cuts[i] to cuts[i + 1]
    while i + 1 < len(cuts):
        lo, hi = cuts[i], cuts[i + 1]
        if hi - lo >= cfg.min_chunk_tokens or len(cuts) == 2:
            i += 1
        elif i + 2 < len(cuts) and cuts[i + 2] - lo <= cfg.max_chunk_tokens:
            del cuts[i + 1]
        elif i > 0 and hi - cuts[i - 1] <= cfg.max_chunk_tokens:
            del cuts[i]
            i -= 1
        else:
            i += 1

    return chunks_between(file.path, tokens, cuts, start_id)


def chunks_between(
    path: str, tokens: Sequence[Token], cuts: Sequence[int], start_id: int = 0
) -> list[Chunk]:
    """The chunks of a file's ``tokens`` between consecutive entries of
    ascending token ``cuts``, numbered from ``start_id``."""
    return [
        Chunk(
            id=start_id + offset,
            file=path,
            token_range=(s, e),
            line_range=(tokens[s].line, tokens[e - 1].line),
            length=e - s,
        )
        for offset, (s, e) in enumerate(zip(cuts, cuts[1:]))
    ]
