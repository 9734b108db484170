"""Definition-level oracle for the per-paper metrics.

It reads the JSONL corpus with ``json`` alone and recomputes, from the
definitions in PAPER.md, each sampled paper's expertise vectors, max
distance and component count. Weights are ``Fraction``s, so exact 0 and
exact 1 are decided exactly, and the edge test ``d < t`` is decided as
``dot² > (1 - t)²·|u|²·|v|²``. Components are counted by brute-force
reachability. Nothing here imports ``teamdiv``.
"""
from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction


def read_corpus(path, wanted: set[str]):
    """Background topic counts over every record, and the papers of the wanted authors."""
    background: dict[str, int] = {}
    n_records = 0
    papers_of: dict[str, list[tuple[int, list[str]]]] = {a: [] for a in wanted}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            n_records += 1
            topics = set(record["topics"])
            for t in topics:
                background[t] = background.get(t, 0) + 1
            for a in record["authors"]:
                if a in papers_of:
                    papers_of[a].append((record["year"], topics))
    return background, n_records, papers_of


def expertise(window: list[set[str]], background: dict[str, int], n_records: int, k: int):
    """Top-k positive weights of (share in window) - (share in corpus), ties by topic id."""
    if not window:
        return {}
    counts: dict[str, int] = {}
    for topics in window:
        for t in topics:
            counts[t] = counts.get(t, 0) + 1
    weights = [
        (Fraction(c, len(window)) - Fraction(background[t], n_records), t)
        for t, c in counts.items()
    ]
    ranked = sorted((-w, t) for w, t in weights if w > 0)
    return {t: -neg for neg, t in ranked[:k]}


def team_metrics(vectors: dict[str, dict], threshold: float, inclusive: bool):
    """(max distance, n_components, pairs below threshold, pairs at or above it).

    The max distance is None with fewer than two nonempty vectors, else
    0, 1, or a Decimal strictly between them.
    """
    usable = sorted(a for a, v in vectors.items() if v)
    s = 1 - Fraction(threshold)  # d < t  <=>  cos > 1 - t
    edges: dict[str, set[str]] = {a: set() for a in vectors}
    min_cos2 = None
    below = above = 0
    for i, a in enumerate(usable):
        u = vectors[a]
        uu = sum(w * w for w in u.values())
        for b in usable[i + 1:]:
            v = vectors[b]
            vv = sum(w * w for w in v.values())
            dot = sum(w * v[t] for t, w in u.items() if t in v)
            cos2 = dot * dot / (uu * vv)
            min_cos2 = cos2 if min_cos2 is None else min(min_cos2, cos2)
            # cos >= 0 here, so cos > s (or >= s) is decided on squares
            bound = s * s * uu * vv
            if dot * dot > bound or (inclusive and dot * dot == bound):
                edges[a].add(b)
                edges[b].add(a)
                below += 1
            else:
                above += 1
    seen: set[str] = set()
    components = 0
    for start in vectors:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    if min_cos2 is None:
        largest = None
    elif min_cos2 == 1:
        largest = 0
    elif min_cos2 == 0:
        largest = 1
    else:
        with localcontext() as ctx:
            ctx.prec = 50
            root = (Decimal(min_cos2.numerator) / Decimal(min_cos2.denominator)).sqrt()
            largest = 1 - root
    return largest, components, below, above


def check_sample(path, papers: dict[str, tuple[int, tuple[str, ...]]], computed: dict,
                 window_years: int, top_k: int, threshold: float, inclusive: bool):
    """Compare the program's metrics for the sampled papers with the definitions.

    ``papers`` maps a sampled paper id to (year, authors); ``computed`` maps
    it to (max_distance, n_components) as the program produced them.
    Returns (mismatch descriptions, pairs below threshold, pairs above).
    """
    wanted = {a for _, authors in papers.values() for a in authors}
    background, n_records, papers_of = read_corpus(path, wanted)
    mismatches = []
    below = above = 0
    for pid, (year, authors) in sorted(papers.items()):
        vectors = {}
        for a in authors:
            window = [t for y, t in papers_of[a] if year - window_years <= y < year]
            vectors[a] = expertise(window, background, n_records, top_k)
        want_max, want_comp, b, ab = team_metrics(vectors, threshold, inclusive)
        below += b
        above += ab
        got_max, got_comp = computed[pid]
        if got_comp != want_comp:
            mismatches.append(f"{pid}: components {got_comp} != {want_comp}")
        if want_max is None or want_max in (0, 1):
            same = got_max == want_max if want_max is not None else got_max is None
        else:
            same = got_max is not None and 0.0 < got_max < 1.0 and abs(Decimal(got_max) - want_max) <= Decimal("1e-12")
        if not same:
            mismatches.append(f"{pid}: max distance {got_max!r} != {want_max}")
    return mismatches, below, above
