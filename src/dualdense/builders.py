"""Case-study conceptual-network builders.

Geographic closeness: per-user mean check-in position, pairwise great-circle
distances normalized by the maximum, weight 1 - d/d_max.  Interest
similarity: Jaccard index over lowercased token sets.  Both builders take a
pairing policy: by default only pairs within ``max_hops`` hops of the
physical network get a weight computed (all-pairs is quadratic and only
sensible for small inputs).
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .formats import CheckinRecord
from .graph import Graph, bfs

EARTH_RADIUS_KM = 6371.0

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a sphere of mean Earth radius."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def _hop_pairs(g: Graph, max_hops: int) -> list[tuple[int, int]]:
    """Node pairs (u, v), u < v, within max_hops hops of each other."""
    return sorted((u, v) for u in range(g.n) for v in bfs(g, (u,), max_hops)[0] if v > u)


def mean_positions(checkins: Iterable[CheckinRecord]) -> dict[str, tuple[float, float]]:
    """Componentwise mean of each user's check-in coordinates, in degrees.

    Adequate at city scale; positions straddling the antimeridian will
    average incorrectly (known limitation).
    """
    sums: dict[str, list[float]] = {}
    for rec in checkins:
        acc = sums.setdefault(rec.user, [0.0, 0.0, 0.0])
        acc[0] += rec.lat
        acc[1] += rec.lon
        acc[2] += 1.0
    return {user: (lat / cnt, lon / cnt) for user, (lat, lon, cnt) in sums.items()}


def geo_conceptual(checkins: Sequence[CheckinRecord], friendship: Graph,
                   max_hops: int | None = 2) -> Graph:
    """Conceptual network of geographic closeness over the friendship
    network's users.

    Weights are 1 - d/d_max over the pairs designated by the pairing policy
    (``max_hops`` hops in the friendship network; None means all pairs), so
    the maximally distant computed pair drops out (zero weights are not
    edges) and coincident users get weight 1.  Every user must have at
    least one check-in.
    """
    positions = mean_positions(checkins)
    missing = [lab for lab in friendship.labels if lab not in positions]
    if missing:
        raise ValueError(f"users with no check-ins: {missing}")

    if max_hops is None:
        pairs = list(combinations(range(friendship.n), 2))
    else:
        pairs = _hop_pairs(friendship, max_hops)

    dists = []
    for u, v in pairs:
        pu = positions[friendship.labels[u]]
        pv = positions[friendship.labels[v]]
        dists.append(haversine_km(pu[0], pu[1], pv[0], pv[1]))
    d_max = max(dists, default=0.0)

    edges = []
    for (u, v), d in zip(pairs, dists):
        w = 1.0 if d_max == 0.0 else 1.0 - d / d_max
        if w > 0.0:
            edges.append((u, v, w))
    return Graph(friendship.labels, edges)


def tokenize(text: str) -> set[str]:
    """Lowercase tokens split on non-alphanumeric runs; no stemming, no
    stop-word removal."""
    return {tok for tok in _TOKEN_SPLIT.split(text.lower()) if tok}


def jaccard_conceptual(documents: Mapping[str, str | Iterable[str]],
                       physical: Graph | None = None,
                       max_hops: int = 2) -> Graph:
    """Conceptual network of document similarity: Jaccard index over token
    sets, one node per document label.

    Strings are tokenized; any other iterable is treated as pre-tokenized
    (lowercased).  With a ``physical`` graph the pairing policy restricts
    the computed pairs to those within ``max_hops`` hops; otherwise all
    pairs are scored.  Zero-similarity pairs yield no edge.
    """
    labels = list(documents)
    tokens: dict[str, set[str]] = {}
    for lab, doc in documents.items():
        tokens[lab] = tokenize(doc) if isinstance(doc, str) else {t.lower() for t in doc}

    if physical is None:
        pairs = list(combinations(range(len(labels)), 2))
        at = labels
    else:
        for lab in labels:
            if not physical.has_label(lab):
                raise ValueError(f"document label {lab!r} missing from the physical network")
        pairs = [(u, v) for u, v in _hop_pairs(physical, max_hops)
                 if physical.labels[u] in tokens and physical.labels[v] in tokens]
        at = physical.labels

    edges = []
    for u, v in pairs:
        tu, tv = tokens[at[u]], tokens[at[v]]
        union = len(tu | tv)
        if union == 0:
            continue
        w = len(tu & tv) / union
        if w > 0.0:
            edges.append((at[u], at[v], w))
    return Graph.from_label_edges(edges, nodes=labels)
