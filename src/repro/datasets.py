"""Synthetic substitutes for the paper's corpora (DESIGN.md §4).

The paper evaluates on NYT (50M annotated sentences), AMZN (21M Amazon
review sequences), AMZN-F (forest-hierarchy variant), and CW50 (567M
ClueWeb sentences). None are redistributable or laptop-sized, so each
generator below produces a deterministic corpus with the same *shape*:

* ``nyt_lite_raw`` — grammar-templated sentences over a POS-tagged vocabulary:
  inflected word → lemma → POS chains (|anc| = 3, like NYT's mean 2.8 /
  max 3) and Zipf-popular entities with entity → type → ENTITY chains.
  Relational clauses ("lives in", "graduated from", "is survived by",
  "was born in", "is a professor") are planted so the paper's N1-N5
  example patterns come out of the miners.
* ``amzn_lite_raw`` — per-customer product sequences with a
  product → subcategory → department DAG (some products carry two
  subcategory parents), Zipf product popularity, heavy-tailed basket
  lengths (mean ≈ 4 like AMZN's 3.9), and planted co-purchase structure
  (camera → lenses/tripods/batteries, MP3 player → headphones, ordered
  fantasy-book series, instruments → bags & cases) for A1-A4.
* ``amzn_f_lite_raw`` — the forest variant: multi-parent products keep their
  first (most popular) subcategory, mirroring the paper's AMZN-F.
* ``cw_lite_raw`` — flat Zipf sentences (no hierarchy) via
  :func:`repro.synth_data.zipf_sequences_raw`.

Each ``*_raw`` function returns ``(sequences, hierarchy)`` as plain Python
objects; callers build Spark DataFrames from them as needed.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.synth_data import zipf_sequences_raw

Hierarchy = Dict[str, List[str]]


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** alpha
    return w / w.sum()


# ---------------------------------------------------------------------------
# NYT-lite
# ---------------------------------------------------------------------------

_VERB_LEMMAS = {
    # lemma -> inflected forms appearing in text
    "live": ["lives", "lived"],
    "graduate": ["graduated", "graduates"],
    "survive": ["survived", "survives"],
    "make": ["made", "makes", "making"],
    "offer": ["offering", "offered"],
    "say": ["said", "says"],
    "buy": ["bought", "buys"],
    "bear": ["born"],
    "move": ["moved", "moves"],
    "lead": ["led", "leads"],
    "join": ["joined", "joins"],
    "meet": ["met", "meets"],
    "work": ["worked", "works"],
    "play": ["played", "plays"],
    "write": ["wrote", "writes"],
    "be": ["is", "was", "are", "been"],
}
_NOUN_LEMMAS = {
    "deal": ["deal", "deals"],
    "professor": ["professor", "professors"],
    "place": ["place", "places"],
    "right": ["rights"],
    "home": ["home", "homes"],
    "company": ["company", "companies"],
    "team": ["team", "teams"],
    "season": ["season"],
    "game": ["game", "games"],
    "percent": ["percent"],
    "year": ["year", "years"],
    "condition": ["condition", "conditions"],
}
_PREPS = ["in", "from", "by", "with", "of", "to", "for", "at", "on"]
_DETS = ["the", "a", "an", "this"]
_ADJS = ["great", "new", "big", "former", "human", "anonymous", "several"]
_ADVS = ["very", "also", "not", "still", "only"]
_PRONS = ["who", "he", "she", "it", "they"]


def nyt_hierarchy(n_per: int = 30, n_org: int = 20, n_loc: int = 20) -> Hierarchy:
    h: Hierarchy = {}
    for lemma, forms in _VERB_LEMMAS.items():
        h[lemma] = ["VERB"]
        for f in forms:
            if f != lemma:
                h[f] = [lemma]
    for lemma, forms in _NOUN_LEMMAS.items():
        h.setdefault(lemma, ["NOUN"])
        for f in forms:
            if f != lemma:
                h[f] = [lemma]
    for w in _PREPS:
        h[w] = ["PREP"]
    for w in _DETS:
        h[w] = ["DET"]
    for w in _ADJS:
        h[w] = ["ADJ"]
    for w in _ADVS:
        h[w] = ["ADV"]
    for w in _PRONS:
        h[w] = ["PRON"]
    for typ, count in (("PER", n_per), ("ORG", n_org), ("LOC", n_loc)):
        h[typ] = ["ENTITY"]
        for i in range(count):
            h[f"{typ.lower()}_{i}"] = [typ]
    return h


def nyt_lite_raw(n: int = 500, seed: int = 17) -> Tuple[List[List[str]], Hierarchy]:
    """Grammar-templated NYT-like sentences (mean length ≈ 20)."""
    g = np.random.default_rng(seed)
    h = nyt_hierarchy()
    pers = [f"per_{i}" for i in range(30)]
    orgs = [f"org_{i}" for i in range(20)]
    locs = [f"loc_{i}" for i in range(20)]
    wp, wo, wl = (_zipf_weights(len(x), 1.05) for x in (pers, orgs, locs))

    def ent(kind=None):
        if kind == "PER" or (kind is None and g.random() < 0.5):
            return pers[g.choice(len(pers), p=wp)]
        if kind == "ORG" or (kind is None and g.random() < 0.5):
            return orgs[g.choice(len(orgs), p=wo)]
        return locs[g.choice(len(locs), p=wl)]

    # Relational clause templates (weighted). Items starting with '@' are
    # entity slots.
    templates = [
        (0.16, ["@PER", "lives", "in", "@LOC"]),
        (0.12, ["@PER", "graduated", "from", "@ORG"]),
        (0.10, ["@PER", "is", "survived", "by", "@PER"]),
        (0.08, ["@PER", "was", "born", "in", "@LOC"]),
        (0.10, ["@ANY", "is", "a", "professor"]),
        (0.08, ["@ORG", "is", "offering", "@ANY"]),
        (0.08, ["@PER", "made", "a", "deal", "with", "@ORG"]),
        (0.07, ["@PER", "works", "for", "@ORG"]),
        (0.07, ["@PER", "played", "for", "@ORG"]),
        (0.07, ["@PER", "met", "with", "@PER"]),
        (0.07, ["@LOC", "is", "a", "great", "place"]),
    ]
    t_weights = np.array([w for w, _ in templates])
    t_weights = t_weights / t_weights.sum()

    verbs = [f for forms in _VERB_LEMMAS.values() for f in forms]
    nouns = [f for forms in _NOUN_LEMMAS.values() for f in forms]
    filler_pool = verbs + nouns + _PREPS + _DETS + _ADJS + _ADVS + _PRONS
    fw = _zipf_weights(len(filler_pool), 0.8)

    def filler(k: int) -> List[str]:
        if k <= 0:
            return []
        idx = g.choice(len(filler_pool), size=k, p=fw)
        return [filler_pool[i] for i in idx]

    def phrase() -> List[str]:
        # DET ADJ? NOUN VERB ADV? — generic grammatical filler.
        out = [_DETS[g.integers(len(_DETS))]]
        if g.random() < 0.5:
            out.append(_ADJS[g.integers(len(_ADJS))])
        out.append(nouns[g.integers(len(nouns))])
        out.append(verbs[g.integers(len(verbs))])
        if g.random() < 0.4:
            out.append(_ADVS[g.integers(len(_ADVS))])
        return out

    seqs: List[List[str]] = []
    for _ in range(n):
        tokens: List[str] = []
        tokens += filler(int(g.integers(0, 6)))
        if g.random() < 0.65:
            _, tpl = templates[g.choice(len(templates), p=t_weights)]
            for tok in tpl:
                if tok.startswith("@"):
                    kind = tok[1:]
                    tokens.append(ent(None if kind == "ANY" else kind))
                else:
                    tokens.append(tok)
        else:
            tokens += phrase()
        tokens += phrase() if g.random() < 0.6 else []
        tokens += filler(int(g.integers(0, 8)))
        seqs.append(tokens)
    return seqs, h


# ---------------------------------------------------------------------------
# AMZN-lite
# ---------------------------------------------------------------------------

_AMZN_SUBCATS: Dict[str, List[str]] = {
    "Electr": [
        "MP3Player", "Headphones", "Mice", "Keyboards", "Accessories",
        "DigitalCamera", "Lenses", "Tripods", "Batteries", "MemoryCard",
    ],
    "Book": ["Fantasy", "SciFi", "Mystery", "Romance"],
    "MusicInstr": ["Guitars", "Drums", "BagsCases", "Keys"],
    "Home": ["Kitchen", "Furniture", "Garden"],
}
_N_PROD_PER_SUBCAT = 20
_SERIES = [f"fantasy_series_{i}" for i in range(5)]  # ordered book series


def _amzn_products(seed: int = 3) -> Tuple[Dict[str, List[str]], Hierarchy, Hierarchy]:
    """Products per subcategory plus the DAG and forest hierarchies."""
    g = np.random.default_rng(seed)
    dag: Hierarchy = {}
    forest: Hierarchy = {}
    products: Dict[str, List[str]] = {}
    all_subcats = [(s, dept) for dept, subs in _AMZN_SUBCATS.items() for s in subs]
    for dept, subs in _AMZN_SUBCATS.items():
        for s in subs:
            dag[s] = [dept]
            forest[s] = [dept]
            prods = [f"{s.lower()}_{i}" for i in range(_N_PROD_PER_SUBCAT)]
            products[s] = prods
            for p in prods:
                parents = [s]
                if g.random() < 0.15:  # DAG: a second subcategory parent
                    other = all_subcats[g.integers(len(all_subcats))][0]
                    if other != s:
                        parents = [s, other]
                dag[p] = parents
                forest[p] = [s]  # forest keeps the first parent
    for b in _SERIES:
        dag[b] = ["Fantasy"]
        forest[b] = ["Fantasy"]
        products["Fantasy"] = products["Fantasy"] + [b]
    return products, dag, forest


# Planted co-purchase structure: trigger subcategory -> follow-up subcats.
_FOLLOWUPS = {
    "DigitalCamera": ["Lenses", "Tripods", "Batteries", "MemoryCard"],
    "MP3Player": ["Headphones", "Accessories"],
    "Mice": ["Keyboards", "Accessories"],
    "Guitars": ["BagsCases"],
    "Drums": ["BagsCases"],
}


def amzn_lite_raw(
    n: int = 500, seed: int = 23, *, forest: bool = False
) -> Tuple[List[List[str]], Hierarchy]:
    """Per-customer product sequences with planted co-purchases."""
    g = np.random.default_rng(seed)
    products, dag, forest_h = _amzn_products()
    hierarchy = forest_h if forest else dag
    depts = list(_AMZN_SUBCATS)
    dept_w = _zipf_weights(len(depts), 0.6)
    prod_w = {s: _zipf_weights(len(ps), 1.05) for s, ps in products.items()}

    def draw(subcat: str) -> str:
        ps = products[subcat]
        return ps[g.choice(len(ps), p=prod_w[subcat])]

    seqs: List[List[str]] = []
    for _ in range(n):
        primary = depts[g.choice(len(depts), p=dept_w)]
        length = 1 + int(g.geometric(0.28))
        length = min(length, 40)
        basket: List[str] = []
        while len(basket) < length:
            if g.random() < 0.75:
                subs = _AMZN_SUBCATS[primary]
            else:
                d2 = depts[g.choice(len(depts), p=dept_w)]
                subs = _AMZN_SUBCATS[d2]
            s = subs[g.integers(len(subs))]
            if primary == "Book" and s == "Fantasy" and g.random() < 0.45:
                # Ordered series reading: contiguous window of the series.
                start = int(g.integers(0, len(_SERIES) - 1))
                run = int(g.integers(2, len(_SERIES) - start + 1))
                basket.extend(_SERIES[start : start + run])
                continue
            basket.append(draw(s))
            for follow in _FOLLOWUPS.get(s, []):
                if g.random() < 0.35 and len(basket) < 40:
                    basket.append(draw(follow))
        seqs.append(basket[:40])
    return seqs, hierarchy


def amzn_f_lite_raw(n: int = 500, seed: int = 23) -> Tuple[List[List[str]], Hierarchy]:
    return amzn_lite_raw(n, seed, forest=True)


# ---------------------------------------------------------------------------
# CW-lite
# ---------------------------------------------------------------------------

def cw_lite_raw(n: int = 500, seed: int = 31) -> Tuple[List[List[str]], Hierarchy]:
    return (
        zipf_sequences_raw(n=n, vocab_size=2000, alpha=1.25, mean_len=19.0, seed=seed),
        {},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

DATASETS = {
    "NYT-lite": nyt_lite_raw,
    "AMZN-lite": amzn_lite_raw,
    "AMZN-F-lite": amzn_f_lite_raw,
    "CW-lite": cw_lite_raw,
}

# Generation is deterministic but not free at bench scale; experiment
# harnesses share corpora through this (name, n, seed)-keyed cache. The
# returned objects are treated as immutable by all callers.
_CACHE: Dict[Tuple[str, int, int], Tuple[List[List[str]], Hierarchy]] = {}


def load(name: str, n: int, seed: int) -> Tuple[List[List[str]], Hierarchy]:
    key = (name, n, seed)
    if key not in _CACHE:
        _CACHE[key] = DATASETS[name](n, seed)
    return _CACHE[key]
