"""Structure-aware partitioning of token streams into chunks.

Chunks follow function boundaries where possible: each top-level function
(with the blank and comment lines leading into it) becomes a unit, and the
statements between functions form interstitial units.  Units longer than
the target size are split greedily at the last statement start that still
fits, and fragments shorter than the minimum are merged forward (backward
at end of file).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import ConfigError
from .lexer import LogicalLine, SourceFile, Token, TokenKind, logical_lines


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
    if not tokens:
        return []
    lines = logical_lines(tokens)
    units = _function_units(tokens, lines)

    boundaries = [ln.start for ln in lines if not ln.blank]
    fragments: list[tuple[int, int]] = []
    for ustart, uend in units:
        fragments.extend(_split_unit(ustart, uend, boundaries, cfg))
    fragments = _merge_short(fragments, cfg)

    chunks = []
    for offset, (s, e) in enumerate(fragments):
        chunks.append(
            Chunk(
                id=start_id + offset,
                file=file.path,
                token_range=(s, e),
                line_range=(tokens[s].line, tokens[e - 1].line),
                length=e - s,
            )
        )
    return chunks


def _function_units(tokens: list[Token], lines: list[LogicalLine]) -> list[tuple[int, int]]:
    """Token ranges of top-level functions and the statement runs between them."""
    sig_lines = [ln for ln in lines if not ln.blank]
    if not sig_lines:
        return [(lines[0].start, lines[-1].end)]
    top_col = min(ln.indent_col for ln in sig_lines)

    def is_def(ln: LogicalLine) -> bool:
        tok = tokens[ln.sig_start]
        return (
            ln.indent_col == top_col
            and tok.kind is TokenKind.KEYWORD
            and tok.text == "def"
        )

    regions: list[tuple[int, int]] = []  # inclusive line-index ranges of functions
    i = 0
    while i < len(lines):
        ln = lines[i]
        if not ln.blank and is_def(ln):
            last_body = i
            j = i + 1
            while j < len(lines):
                nxt = lines[j]
                if nxt.blank:
                    j += 1
                    continue
                if nxt.indent_col > top_col:
                    last_body = j
                    j += 1
                    continue
                break
            regions.append((i, last_body))
            i = last_body + 1
        else:
            i += 1

    units: list[tuple[int, int]] = []
    cursor = 0
    for s, e in regions:
        lead = s
        while lead > cursor and lines[lead - 1].blank:
            lead -= 1
        if cursor < lead:
            units.append((lines[cursor].start, lines[lead - 1].end))
        units.append((lines[lead].start, lines[e].end))
        cursor = e + 1
    if cursor < len(lines):
        units.append((lines[cursor].start, lines[-1].end))
    return units


def _split_unit(
    start: int, end: int, boundaries: list[int], cfg: ChunkConfig
) -> list[tuple[int, int]]:
    target = cfg.target_chunk_tokens
    out = []
    pos = start
    while end - pos > target:
        lo = bisect.bisect_right(boundaries, pos)
        hi = bisect.bisect_right(boundaries, pos + target)
        if hi > lo:
            cut = boundaries[hi - 1]  # last statement start within target
        elif lo < len(boundaries) and boundaries[lo] < end:
            cut = boundaries[lo]  # oversized statement: take it whole
        else:
            cut = end
        if cut - pos > cfg.max_chunk_tokens:
            cut = pos + cfg.max_chunk_tokens  # hard cap mid-statement
        out.append((pos, cut))
        pos = cut
    out.append((pos, end))
    return out


def _merge_short(frags: list[tuple[int, int]], cfg: ChunkConfig) -> list[tuple[int, int]]:
    frags = list(frags)
    i = 0
    while i < len(frags):
        size = frags[i][1] - frags[i][0]
        if size >= cfg.min_chunk_tokens or len(frags) == 1:
            i += 1
            continue
        if i + 1 < len(frags):
            nxt = frags[i + 1][1] - frags[i + 1][0]
            if size + nxt <= cfg.max_chunk_tokens:
                frags[i] = (frags[i][0], frags[i + 1][1])
                del frags[i + 1]
                continue
        if i > 0:
            prev = frags[i - 1][1] - frags[i - 1][0]
            if size + prev <= cfg.max_chunk_tokens:
                frags[i - 1] = (frags[i - 1][0], frags[i][1])
                del frags[i]
                i -= 1
                continue
        i += 1  # boxed in by the max cap; keep the short fragment
    return frags
