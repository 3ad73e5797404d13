"""PII detection + redaction over the ``documents`` table — the scrubbing
stage every large-scale training-data pipeline runs before anything else
(emails, IPv4 addresses, credential-shaped tokens).

Reference analog: the reference has no scrubbing stage; this extends the
curation family (SURVEY.md "LLM-data-pipeline operators") the same way the
dedup/quality/decontamination operators do.

Engine <-> SQL frozen pair (CLAUDE.md invariants): the three RE2 patterns,
the match-count semantics (non-overlapping, leftmost, counted on the RAW
text independently per pattern) and the SEQUENTIAL redaction order
email -> ipv4 -> token are mirrored in ``pii_sql`` — pyarrow's
count_substring_regex / replace_substring_regex and DuckDB's
regexp_extract_all / regexp_replace(...,'g') are both RE2, verified
identical on adversarial fixtures (tests/test_pii.py) and by the driver
gate comparing the full redacted strings.

The synthetic word-soup corpus contains no natural PII, so the gate entry
deterministically AUGMENTS each document from its own key columns (doc_id /
source / lang) — an email on doc_id % 3 == 0, an IPv4 on % 5 == 0, a
credential token on % 7 == 0 — with the identical expression in SQL, giving
the oracle real detection + redaction work on every row. In a real
deployment ``pii_scan_batch`` runs on the raw text column directly.

Scale shape: stateless ``map_batches``, all work in Arrow C++ RE2 kernels
(compiled once per pattern per task); no shuffle, no state, no Python loop
— the same 100 TB profile as the quality/lang-id stages.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from smse_backend_ray.functions.collect import collect_table

# frozen patterns: RE2-safe (no backslash classes, so the SQL literal is the
# byte-identical string), shared verbatim by engine and oracle
PII_EMAIL_RE = "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+[.][A-Za-z][A-Za-z]+"
PII_IPV4_RE = "([0-9]{1,3}[.]){3}[0-9]{1,3}"
PII_TOKEN_RE = "tok_[0-9]{16}"

# redaction order is load-bearing (each replace runs on the previous output)
PII_RULES = (
    ("email", PII_EMAIL_RE, "<EMAIL>"),
    ("ipv4", PII_IPV4_RE, "<IP>"),
    ("token", PII_TOKEN_RE, "<TOKEN>"),
)


def pii_scan_batch(text: "pa.Array | pa.ChunkedArray") -> dict:
    """The operator: per-row match counts (on the raw text, independently
    per pattern) + the sequentially redacted text. Returns
    {n_email, n_ipv4, n_token: int64 arrays, redacted: string array}."""
    out: dict = {}
    red = text
    for name, pat, repl in PII_RULES:
        out[f"n_{name}"] = pc.cast(
            pc.count_substring_regex(text, pattern=pat), pa.int64()
        )
        red = pc.replace_substring_regex(red, pattern=pat, replacement=repl)
    out["redacted"] = red
    return out


def _augment(t: pa.Table) -> "pa.Array":
    """Deterministic gate-harness augmentation (documented above): inject
    synthetic PII derived from the row's own key columns. Pure Arrow/numpy
    column expressions — the SQL twin concatenates the same pieces."""
    did = pc.cast(t["doc_id"], pa.int64()).to_numpy()
    s = lambda v: pa.array(v.astype("int64"), type=pa.int64()).cast(pa.string())
    empty = pa.scalar("", type=pa.string())
    email = pc.if_else(
        pa.array(did % 3 == 0),
        pc.binary_join_element_wise(
            " contact ", t["source"], "@mail-", t["lang"], ".example.com", ""
        ),
        empty,
    )
    ip = pc.if_else(
        pa.array(did % 5 == 0),
        pc.binary_join_element_wise(
            " host ", s(did % 256), ".", s((did // 7) % 256), ".0.", s(did % 251), ""
        ),
        empty,
    )
    token = pc.if_else(
        pa.array(did % 7 == 0),
        pc.binary_join_element_wise(
            " key tok_",
            pc.utf8_lpad(s(did), width=16, padding="0"),
            "",
        ),
        empty,
    )
    return pc.binary_join_element_wise(
        pc.fill_null(t["text"], ""), email, ip, token, ""
    )


def doc_pii(sf_dir: str) -> pa.Table:
    """Gate entry: (doc_id, n_email, n_ipv4, n_token, redacted) over the
    augmented documents table, doc_id ascending. Value-oracled against
    ``pii_sql`` including the full redacted strings."""
    from smse_backend_ray.sources.corpus import read_table

    def scan(t: pa.Table) -> pa.Table:
        cols = pii_scan_batch(_augment(t))
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()), **cols})

    ds = (
        read_table(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
        .map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    )
    t = collect_table(ds)
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def pii_sql() -> str:
    """DuckDB twin: identical augmentation expression, identical RE2
    patterns, identical count (len(regexp_extract_all) on raw augmented
    text) and sequential-redaction ('g') semantics."""
    e, i, k = PII_EMAIL_RE, PII_IPV4_RE, PII_TOKEN_RE
    return f"""
WITH aug AS (
  SELECT doc_id,
    coalesce(text, '')
    || CASE WHEN doc_id % 3 = 0
            THEN ' contact ' || source || '@mail-' || lang || '.example.com'
            ELSE '' END
    || CASE WHEN doc_id % 5 = 0
            THEN ' host ' || CAST(doc_id % 256 AS VARCHAR) || '.'
                 || CAST((doc_id // 7) % 256 AS VARCHAR) || '.0.'
                 || CAST(doc_id % 251 AS VARCHAR)
            ELSE '' END
    || CASE WHEN doc_id % 7 = 0
            THEN ' key tok_' || lpad(CAST(doc_id AS VARCHAR), 16, '0')
            ELSE '' END AS a
  FROM documents)
SELECT doc_id,
  len(regexp_extract_all(a, '{e}'))::BIGINT AS n_email,
  len(regexp_extract_all(a, '{i}'))::BIGINT AS n_ipv4,
  len(regexp_extract_all(a, '{k}'))::BIGINT AS n_token,
  regexp_replace(regexp_replace(regexp_replace(
    a, '{e}', '<EMAIL>', 'g'), '{i}', '<IP>', 'g'), '{k}', '<TOKEN>', 'g')
    AS redacted
FROM aug ORDER BY doc_id
"""
