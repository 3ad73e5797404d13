"""Seeded synthetic code corpus for the benchmark.

Same shape as ``smse_backend_ray.sources.synth`` (repo, path, commit, lang,
content; a Zipfian keyword head, snake/camel identifiers, numbered
identifiers that form a long vocabulary tail, exact re-uploads of a key with
new content, empty files), but generated in whole-corpus numpy passes:
``synth_row`` costs about 1.4 ms per document, which would spend most of a
benchmark run on input generation.

Every value is a pure function of (seed, n_docs). The engine only ever sees
the parquet file written from this table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

WORDS = (
    "get set make build parse read write open close run exec load store "
    "map list dict node tree graph hash index query plan scan sort merge "
    "join filter group agg window batch stream buffer cache pool file path "
    "token term doc score rank search match count sum min max avg head tail "
    "key value row col table block page seg shard part split chunk span"
).split()
KEYWORDS = (
    "def return if else for while class import from try except with as "
    "lambda yield pass raise not and or in is self none true false"
).split()
LANGS = ("py", "js", "go", "java", "rs", "txt", "md")
REPOS = tuple(f"org{i}/repo{j}" for i in range(8) for j in range(4))

NUMBERED_PER_WORD = 1000  # "scan417v"-style identifiers: the vocabulary tail
MEAN_TOKENS = 150
DUP_RATE = 0.01    # rows that re-upload the previous row's key with new content
EMPTY_RATE = 0.003


def _zipf_p(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def make_corpus(seed: int, n_docs: int) -> pa.Table:
    rng = np.random.default_rng([seed, n_docs])
    words = np.array(WORDS, dtype=object)[rng.permutation(len(WORDS))]
    keywords = np.array(KEYWORDS, dtype=object)
    numbered = np.array(
        [f"{w}{n}v" for w in words for n in range(NUMBERED_PER_WORD)], dtype=object
    )[rng.permutation(len(words) * NUMBERED_PER_WORD)]
    w1 = rng.integers(0, len(words), size=4096)
    w2 = rng.integers(0, len(words), size=4096)
    snake = np.array([f"{words[a]}_{words[b]}" for a, b in zip(w1, w2)], dtype=object)
    camel = np.array(
        [f"{words[a]}{words[b].capitalize()}" for a, b in zip(w2, w1)], dtype=object
    )

    lens = np.clip(rng.lognormal(np.log(MEAN_TOKENS), 0.6, n_docs), 4, 2000).astype(np.int64)
    lens[rng.random(n_docs) < EMPTY_RATE] = 0
    total = int(lens.sum())
    kind = rng.random(total)
    tok = np.empty(total, dtype=object)
    m = kind < 0.35
    tok[m] = keywords[rng.choice(len(keywords), int(m.sum()), p=_zipf_p(len(keywords), 1.3))]
    m = (kind >= 0.35) & (kind < 0.80)
    tok[m] = words[rng.choice(len(words), int(m.sum()), p=_zipf_p(len(words), 0.9))]
    m = (kind >= 0.80) & (kind < 0.92)
    tok[m] = numbered[rng.choice(len(numbered), int(m.sum()), p=_zipf_p(len(numbered), 0.8))]
    m = (kind >= 0.92) & (kind < 0.96)
    tok[m] = snake[rng.integers(0, len(snake), int(m.sum()))]
    m = kind >= 0.96
    tok[m] = camel[rng.integers(0, len(camel), int(m.sum()))]

    bounds = np.concatenate(([0], np.cumsum(lens)))
    content = [" ".join(tok[bounds[i] : bounds[i + 1]]) for i in range(n_docs)]

    repo_idx = rng.integers(0, len(REPOS), n_docs)
    lang_idx = rng.integers(0, len(LANGS), n_docs)
    repos, paths, commits, langs = [], [], [], []
    for i in range(n_docs):
        lang = LANGS[lang_idx[i]]
        repos.append(REPOS[repo_idx[i]])
        paths.append(f"src/s{seed}/m{i // 500:04d}/f_{i:07d}.{lang}")
        commits.append(hashlib.md5(f"{seed}:{i}".encode()).hexdigest())
        langs.append(lang)
    for i in np.flatnonzero(rng.random(n_docs) < DUP_RATE):
        if i > 0:  # re-upload: previous row's key, this row's content
            repos[i], paths[i], commits[i], langs[i] = (
                repos[i - 1], paths[i - 1], commits[i - 1], langs[i - 1]
            )
    return pa.table(
        {
            "repo": pa.array(repos, type=pa.string()),
            "path": pa.array(paths, type=pa.string()),
            "commit": pa.array(commits, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "content": pa.array(content, type=pa.string()),
        }
    )
