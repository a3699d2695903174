"""Command-line interface.

Every subcommand reads an optional JSON config, writes JSON artifacts into
an output directory, and exits nonzero with a machine-readable error object
on stderr when anything fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .chunking import Chunk
from .config import PipelineConfig
from .cpg import Cpg, export_cpg_json
from .errors import ConfigError, ParameterError, SchemaError, StructKVError
from .lexer import load_source, tokenize
from .metrics import (
    normalized_edit_distance,
    set_metrics,
    structure_score,
    topk_overlap_jaccard,
)
from .pipeline import (
    chunk_graph,
    context_tokens,
    index_corpus,
    load_corpus,
    load_external_cpgs,
    run_pipeline,
    score_chunks,
)
from .plan import CompressionPlan, canonical_json


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return 0
    except (StructKVError, OSError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structkv",
        description="Structure-aware KV-cache compression planner for code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chunk = sub.add_parser("chunk", help="partition a corpus into chunks")
    p_chunk.add_argument("dir")
    _common(p_chunk)
    p_chunk.set_defaults(handler=_cmd_chunk)

    p_cpg = sub.add_parser("cpg", help="build property graphs for one file")
    p_cpg.add_argument("file")
    p_cpg.add_argument(
        "--dir", help="corpus root; chunk ids then match corpus-wide numbering"
    )
    _common(p_cpg)
    p_cpg.set_defaults(handler=_cmd_cpg)

    p_score = sub.add_parser("score", help="score chunks against a query")
    p_score.add_argument("--query", required=True)
    p_score.add_argument("--dir", help="corpus root (falls back to config corpus_dir)")
    _common(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_comp = sub.add_parser("compress", help="plan compression for a corpus")
    p_comp.add_argument("--cap", type=float, required=True, help="base retention ratio")
    p_comp.add_argument("--k", type=int, required=True, help="chunks to select")
    p_comp.add_argument("--query")
    p_comp.add_argument("--dir")
    _common(p_comp)
    p_comp.set_defaults(handler=_cmd_compress)

    p_eval = sub.add_parser("evaluate", help="recompute retention metrics for a plan")
    p_eval.add_argument("--plan", required=True)
    p_eval.add_argument("--dir")
    p_eval.add_argument("--external-cpgs", help="sidecar graph documents (JSON array)")
    p_eval.add_argument(
        "--gold",
        help="JSON file with 'predicted'/'gold' sets (and optionally "
        "'predicted_text'/'gold_text') for overlap and edit-distance metrics",
    )
    _common(p_eval)
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_pipe = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--out", default="out")
    p_pipe.set_defaults(handler=_cmd_pipeline)

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
    directory = getattr(args, "dir", None) or cfg.corpus_dir
    if not directory:
        raise ConfigError("no corpus directory: pass --dir or set corpus_dir in the config")
    return directory


def _cmd_chunk(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    index = index_corpus(load_corpus(args.dir, cfg.include), cfg.chunking)
    chunks = [dataclasses.asdict(chunk) for chunk in index.chunks]
    print(_write(args.out, "chunks.json", {"chunks": chunks}))


def _cmd_cpg(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    if args.dir:
        root = Path(args.dir)
        corpus = load_corpus(root, cfg.include)
        target = Path(args.file).resolve()
        wanted = {f.path for f in corpus if (root / f.path).resolve() == target}
    else:
        corpus = [load_source(args.file)]
        wanted = {corpus[0].path}
    index = index_corpus(corpus, cfg.chunking)
    docs = [
        json.loads(export_cpg_json(chunk_graph(chunk, src, index.tokens[src.path])))
        for chunk, src in zip(index.chunks, index.chunk_files)
        if src.path in wanted
    ]
    if not docs:
        raise ParameterError(f"{args.file}: no chunks produced (is it under --dir?)")
    print(_write(args.out, "cpg.json", docs))


def _cmd_score(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    index = index_corpus(load_corpus(_corpus_dir(args, cfg), cfg.include), cfg.chunking)
    query_tokens, prefix_tokens = context_tokens(args.query, cfg)
    scores, selected = score_chunks(index, query_tokens, prefix_tokens, cfg)
    doc = {
        "scores": [{"chunk_id": cid, "ppl": value} for cid, value in scores],
        "selected": selected,
        "k": len(selected),
    }
    print(_write(args.out, "scores.json", doc))


def _plan_and_write(cfg: PipelineConfig, query: str, directory: str, outdir: str) -> None:
    corpus = load_corpus(directory, cfg.include)
    external = load_external_cpgs(cfg.external_cpg_file) if cfg.external_cpg_file else None
    plan, report = run_pipeline(corpus, query, cfg, external_cpgs=external)
    plan_path = _write(outdir, "plan.json", plan.to_dict())
    _write(outdir, "report.json", report.to_dict())
    print(plan_path)


def _cmd_compress(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    cfg = dataclasses.replace(
        cfg,
        allocation=dataclasses.replace(cfg.allocation, capacity_ratio=args.cap),
        selection=dataclasses.replace(cfg.selection, k=args.k),
    )
    query = args.query or cfg.query
    if not query:
        raise ConfigError("no query: pass --query or set query in the config")
    _plan_and_write(cfg, query, _corpus_dir(args, cfg), args.out)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    plan = CompressionPlan.from_json(Path(args.plan).read_text(encoding="utf-8"))
    # plan paths are relative to the corpus root; absolute ones stay as they are
    root = Path(args.dir or cfg.corpus_dir or ".")
    sources = {name: load_source(root / name) for name in sorted({c.file for c in plan.chunks})}
    file_tokens = {name: tokenize(src) for name, src in sources.items()}
    external = load_external_cpgs(args.external_cpgs) if args.external_cpgs else {}
    cpgs: dict[int, Cpg] = {}
    for chunk_plan in plan.chunks:
        toks = file_tokens[chunk_plan.file]
        start, end = chunk_plan.token_range
        if end > len(toks):
            raise ParameterError(
                f"{chunk_plan.file}: token range {chunk_plan.token_range} exceeds "
                f"current file ({len(toks)} tokens); source changed since planning?"
            )
        chunk = Chunk(
            id=chunk_plan.chunk_id,
            file=chunk_plan.file,
            token_range=(start, end),
            line_range=(toks[start].line, toks[end - 1].line),
            length=end - start,
        )
        cpgs[chunk.id] = chunk_graph(chunk, sources[chunk.file], toks, external.get(chunk.id))
    report = structure_score(plan, cpgs)
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


def _gold_metrics(path: str) -> dict:
    try:
        gold_doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(gold_doc, dict):
        raise SchemaError(f"{path}: a gold file must be a JSON object")
    for key in ("predicted", "gold"):
        if not _scalars(gold_doc.get(key)):
            raise SchemaError(f"{path}: {key!r} must be an array of strings or numbers")
    for key in ("predicted_text", "gold_text"):
        if key in gold_doc and not (isinstance(gold_doc[key], str) or _scalars(gold_doc[key])):
            raise SchemaError(f"{path}: {key!r} must be a string or an array of tokens")
    metrics = set_metrics(set(gold_doc["predicted"]), set(gold_doc["gold"]))
    out = {
        "set_metrics": {
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
            "jaccard": metrics.jaccard,
            "gold_empty": metrics.gold_empty,
        }
    }
    if "predicted_text" in gold_doc and "gold_text" in gold_doc:
        out["edit_distance"] = normalized_edit_distance(
            gold_doc["predicted_text"], gold_doc["gold_text"]
        )
    return out


def _scalars(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, (str, int, float)) for v in value)


def _cmd_pipeline(args: argparse.Namespace) -> None:
    cfg = PipelineConfig.from_json_file(args.config)
    if not cfg.corpus_dir:
        raise ConfigError("config must set corpus_dir")
    if not cfg.query:
        raise ConfigError("config must set query")
    _plan_and_write(cfg, cfg.query, cfg.corpus_dir, args.out)


if __name__ == "__main__":
    sys.exit(main())
