"""Command-line interface.

Every subcommand reads an optional JSON config, writes JSON artifacts into
an output directory, and exits nonzero with a machine-readable error object
on stderr when anything fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .chunking import chunks_between
from .config import PipelineConfig
from .cpg import import_cpg_json
from .errors import ConfigError, ParameterError, StructKVError
from .lexer import load_source, tokenize
from .metrics import (
    normalized_edit_distance,
    set_metrics,
    structure_score,
    topk_overlap_jaccard,
)
from .pipeline import (
    chunk_facts,
    chunk_graph,
    context_tokens,
    index_corpus,
    load_corpus,
    load_external_cpgs,
    run_pipeline,
    score_chunks,
)
from .plan import CompressionPlan, canonical_json, decode_json, read_record
from .scoring import structural_score


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return 0
    except (StructKVError, OSError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(canonical_json(doc), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structkv",
        description="Structure-aware KV-cache compression planner for code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chunk = sub.add_parser("chunk", help="partition a corpus into chunks")
    p_chunk.add_argument("dir", nargs="?", help="corpus root (falls back to config corpus_dir)")
    _common(p_chunk)
    p_chunk.set_defaults(handler=_cmd_chunk)

    p_cpg = sub.add_parser("cpg", help="build every chunk's property graph, as a sidecar")
    p_cpg.add_argument("--dir", help="corpus root (falls back to config corpus_dir)")
    _common(p_cpg)
    p_cpg.set_defaults(handler=_cmd_cpg)

    p_score = sub.add_parser("score", help="score chunks against a query")
    p_score.add_argument("--query", required=True)
    p_score.add_argument("--dir", help="corpus root (falls back to config corpus_dir)")
    _common(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_comp = sub.add_parser("compress", help="plan compression for a corpus")
    p_comp.add_argument(
        "--cap", type=float, help="base retention ratio (default: config allocation.capacity_ratio)"
    )
    p_comp.add_argument("--k", type=int, help="chunks to select (default: config selection.k)")
    p_comp.add_argument("--query", help="falls back to config query")
    p_comp.add_argument("--dir", help="corpus root (falls back to config corpus_dir)")
    _common(p_comp)
    p_comp.set_defaults(handler=_cmd_compress)

    p_eval = sub.add_parser("evaluate", help="recompute retention metrics for a plan")
    p_eval.add_argument("--plan", required=True)
    p_eval.add_argument("--dir", help="corpus root (falls back to config corpus_dir)")
    p_eval.add_argument(
        "--gold",
        help="JSON file with 'predicted'/'gold' sets (and optionally "
        "'predicted_text'/'gold_text') for overlap and edit-distance metrics",
    )
    _common(p_eval)
    p_eval.set_defaults(handler=_cmd_evaluate)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="out", help="output directory")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_json_file(args.config)
    return PipelineConfig()


def _write(outdir: str, name: str, obj: object) -> Path:
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
    return path


def _corpus_dir(args: argparse.Namespace, cfg: PipelineConfig) -> str:
    """The corpus root of every command: ``--dir`` (``DIR`` for ``chunk``),
    else the config's ``corpus_dir``, else a :class:`ConfigError`."""
    directory = args.dir or cfg.corpus_dir
    if not directory:
        raise ConfigError("no corpus directory: pass --dir or set corpus_dir in the config")
    return directory


def _cmd_chunk(args: argparse.Namespace) -> None:
    """Write the corpus's chunks, with the ids every other command uses."""
    cfg = _load_config(args)
    index = index_corpus(load_corpus(_corpus_dir(args, cfg), cfg.include), cfg.chunking, cfg.span)
    print(_write(args.out, "chunks.json", {"chunks": index.chunks}))


def _cmd_cpg(args: argparse.Namespace) -> None:
    """Write the built-in graph of every chunk of the corpus, in chunk-id
    order, as the sidecar array ``external_cpg_file`` reads."""
    cfg = _load_config(args)
    index = index_corpus(load_corpus(_corpus_dir(args, cfg), cfg.include), cfg.chunking, cfg.span)
    graphs = [chunk_graph(chunk, index.tokens(chunk.id)) for chunk in index.chunks]
    print(_write(args.out, "cpg.json", graphs))


def _cmd_score(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    index = index_corpus(load_corpus(_corpus_dir(args, cfg), cfg.include), cfg.chunking, cfg.span)
    query_tokens, prefix_tokens = context_tokens(args.query, cfg)
    scores, selected = score_chunks(index, query_tokens, prefix_tokens, cfg)
    doc = {
        "scores": [{"chunk_id": cid, "ppl": value} for cid, value in scores],
        "selected": selected,
        "k": len(selected),
    }
    print(_write(args.out, "scores.json", doc))


def _cmd_compress(args: argparse.Namespace) -> None:
    # every flag lands in the config, so config_fingerprint hashes what was planned
    cfg = _load_config(args)
    cap = cfg.allocation.capacity_ratio if args.cap is None else args.cap
    k = cfg.selection.k if args.k is None else args.k
    cfg = dataclasses.replace(
        cfg,
        allocation=dataclasses.replace(cfg.allocation, capacity_ratio=cap),
        selection=dataclasses.replace(cfg.selection, k=k),
        query=args.query or cfg.query,
    )
    if not cfg.query:
        raise ConfigError("no query: pass --query or set query in the config")
    corpus = load_corpus(_corpus_dir(args, cfg), cfg.include)
    external = load_external_cpgs(cfg.external_cpg_file) if cfg.external_cpg_file else None
    plan, report = run_pipeline(corpus, cfg.query, cfg, external_cpgs=external)
    plan_path = _write(args.out, "plan.json", plan)
    _write(args.out, "report.json", report.to_dict())
    print(plan_path)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    """Recompute a plan's report from the corpus files it names, checking
    each chunk's sigma against the plan's."""
    cfg = _load_config(args)
    plan = CompressionPlan.from_dict(decode_json(Path(args.plan).read_bytes(), args.plan))
    # plan paths are relative to the corpus root; absolute ones stay as they are
    root = Path(_corpus_dir(args, cfg))
    names = sorted({c.file for c in plan.chunks})
    tokens_by_file = {name: tokenize(load_source(root / name)) for name in names}
    external = load_external_cpgs(cfg.external_cpg_file) if cfg.external_cpg_file else {}
    kinds: dict[int, np.ndarray] = {}
    for chunk_plan in plan.chunks:
        toks = tokens_by_file[chunk_plan.file]
        start, end = chunk_plan.token_range
        if end > len(toks):
            raise ParameterError(
                f"{chunk_plan.file}: token range {chunk_plan.token_range} exceeds "
                f"current file ({len(toks)} tokens); source changed since planning?"
            )
        (chunk,) = chunks_between(chunk_plan.file, toks, (start, end), chunk_plan.chunk_id)
        document = external.get(chunk.id)
        cpg = None if document is None else import_cpg_json(document, chunk)
        facts = chunk_facts(chunk, toks[start:end], cfg.span, cpg)
        kinds[chunk.id] = facts.kinds
        sigma = structural_score(facts.features)
        if sigma != chunk_plan.sigma:
            raise ParameterError(
                f"chunk {chunk.id} ({chunk.file}): its graph gives sigma {sigma!r}, the plan "
                f"{chunk_plan.sigma!r}; the graph source (external_cpg_file) or the file "
                "differs from planning"
            )
    report = structure_score(plan, kinds)
    doc = report.to_dict()
    doc["config_fingerprint"] = plan.config_fingerprint
    if len(plan.chunks) >= 1:
        # relevance-vs-structure agreement over the selected chunks
        doc["ranking_overlap_top20"] = topk_overlap_jaccard(
            [-c.ppl for c in plan.chunks], [c.sigma for c in plan.chunks], 0.2
        )
    if args.gold:
        doc.update(_gold_metrics(args.gold))
    print(_write(args.out, "report.json", doc))


@dataclasses.dataclass(frozen=True)
class GoldFile:
    """The ``evaluate --gold`` document: two sets for the set-overlap metrics
    and, optionally, two texts (strings, or arrays of tokens) for the
    normalized edit distance."""

    predicted: tuple[str | int | float, ...]
    gold: tuple[str | int | float, ...]
    predicted_text: str | tuple[str | int | float, ...] | None = None
    gold_text: str | tuple[str | int | float, ...] | None = None


def _gold_metrics(path: str) -> dict:
    gold = read_record(GoldFile, decode_json(Path(path).read_bytes(), path), path)
    out = {"set_metrics": set_metrics(set(gold.predicted), set(gold.gold))}
    if gold.predicted_text is not None and gold.gold_text is not None:
        out["edit_distance"] = normalized_edit_distance(gold.predicted_text, gold.gold_text)
    return out


if __name__ == "__main__":
    sys.exit(main())
