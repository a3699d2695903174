"""Plan invariants checked on every plan the benchmark makes.

They are the paper's invariants, read off the canonical plan document
(the parsed ``plan.json``), so they hold for whatever in-memory form the
program uses:

- protection dominance: every protected token is kept in every layer;
- budget exactness: each layer keeps exactly min(budget, length) tokens;
- positions: each kept token's position is the prefix base plus its
  chunk-local index, and lies below ``query_start_position``.
"""

from __future__ import annotations


def plan_violations(doc: dict) -> list[str]:
    """Every invariant the plan document breaks, one message each."""
    out: list[str] = []
    base = doc["prefix_len"]
    query_start = doc["query_start_position"]
    for chunk in doc["chunks"]:
        cid = chunk["chunk_id"]
        length = chunk["length"]
        protected = set(chunk["protected"])
        want = min(chunk["budget"], length)
        if len(chunk["layers"]) != doc["layer_count"]:
            out.append(
                f"chunk {cid}: {len(chunk['layers'])} layers, plan says {doc['layer_count']}"
            )
        for layer in chunk["layers"]:
            where = f"chunk {cid} layer {layer['layer']}"
            kept = layer["kept"]
            if kept != sorted(set(kept)) or (kept and not 0 <= kept[0] <= kept[-1] < length):
                out.append(f"{where}: kept indices not ascending, unique and inside the chunk")
            missing = protected.difference(kept)
            if missing:
                out.append(f"{where}: protected tokens dropped: {sorted(missing)[:5]}")
            if len(kept) != want:
                out.append(f"{where}: kept {len(kept)} tokens, budget allows exactly {want}")
            if layer["positions"] != [base + i for i in kept]:
                out.append(f"{where}: positions are not prefix base {base} plus kept")
            late = [p for p in layer["positions"] if p >= query_start]
            if late:
                out.append(f"{where}: positions {late[:5]} at or above query start {query_start}")
    return out
