"""Differential run forensics: *what changed between two runs, and why?*

The regression gate (``benchmarks/check_regression.py``) can say a
metric moved past tolerance; this module answers the next question.
Feed it any two observability artifacts the repo produces —

* BENCH JSON (kernel / agg / serving / async reports),
* flight-recorder payloads (``kind: "flight_recorder"``),
* span JSON-lines logs,
* metrics snapshots (``MetricsRegistry.snapshot()`` dumps),
* wall-profile payloads (``kind: "wall_profile"``),
* critical-path analyses (``kind: "critpath"``)

— and :func:`diff_runs` emits one structured ``RunDiff``: counter
deltas, histogram-quantile shifts (with the empty-vs-nonempty case
reported as a **new signal**, never a divide-by-zero), critpath
stage-blame deltas, skew top-k set churn, and per-subsystem wall-share
deltas.  A fingerprint classifier then maps the dominant delta to a
named cause ("server queue-wait grew", "transport charge grew",
"coalescer flush efficiency dropped", "interpreter overhead in marshal
grew", ...) so a failing gate ships its own root-cause hypothesis.

Direction convention: **A is the reference (baseline), B the candidate
(fresh run)** — relative changes are ``(b - a) / |a|``.  Wall-clock
fields (``wall_seconds``, ``events_per_sec``) are inherently noisy on
shared machines, so they only count as significant past a much wider
threshold; everything simulated uses ``rel_threshold`` directly, and a
same-seed self-diff of any deterministic artifact reports zero
significant deltas.

Everything is stdlib-only and deterministic (sorted iteration, no RNG),
like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import SLO_QUANTILES, percentile_summary

__all__ = [
    "FINGERPRINT_CODES",
    "detect_kind",
    "diff_paths",
    "diff_runs",
    "fingerprint",
    "load_artifact",
    "render_diff",
    "write_diff_json",
]

#: default relative-change significance threshold (10%)
DEFAULT_REL_THRESHOLD = 0.10

#: wall-clock metrics only count as significant past this threshold
NOISY_REL_THRESHOLD = 0.50

#: absolute share-point threshold for stage/subsystem blame shifts
SHARE_THRESHOLD = 0.05

#: key fragments marking wall-clock (machine-noisy) metrics
_NOISY_FRAGMENTS = ("wall", "events_per_sec", "elapsed")

#: config keys that define workload shape — differing values mean the two
#: runs measured different experiments, which trumps every other signal.
#: Tuning knobs (``sweep``, ``aggregation``, ``queue_bound``, window
#: sizes) are deliberately *not* here: an A/B over a knob is exactly what
#: the fingerprinter exists to explain.
_WORKLOAD_KEYS = (
    "scale", "nodes", "procs_per_node", "procs", "clients", "tenants",
    "ops_per_client", "keys_per_tenant", "events_processed", "seed",
    "theta", "sim_only",
)

#: tuning knobs: config keys an A/B experiment deliberately varies.  A
#: differing knob is listed under config changes but does *not* trigger
#: the workload-shape fingerprint — the interesting question is what the
#: knob change did, which the other rules answer.
_KNOB_KEYS = ("sweep", "aggregation", "queue_bound", "queue_bounds",
              "rpc_batch_size", "batch", "window", "shed_retries",
              "queue_frac", "retry_backoff", "rate_per_client", "mix",
              "queue_home", "pooling")

#: fields used to label rows when aligning lists of dicts across runs
_IDENTITY_FIELDS = ("app", "mode", "queue_bound", "stage", "subsystem",
                    "name", "partition", "key", "tenant", "cls")

#: quantile-ish keys compared inside a histogram-summary group
_QUANTILE_METRICS = ("mean", "p50", "p90", "p95", "p99", "p99.9", "max")


# -- artifact loading ---------------------------------------------------------

def detect_kind(doc) -> str:
    """Classify one loaded artifact (best-effort, never raises)."""
    if isinstance(doc, list):
        if all(isinstance(r, dict) and "span_id" in r for r in doc) and doc:
            return "spans"
        return "unknown"
    if not isinstance(doc, dict):
        return "unknown"
    bench = doc.get("benchmark")
    if isinstance(bench, str):
        return {
            "kernel_events_per_sec": "bench_kernel",
            "aggregation_sweep": "bench_agg",
            "serving_zipf": "bench_serving",
            "async_pipeline": "bench_async",
        }.get(bench, "bench")
    kind = doc.get("kind")
    if kind in ("flight_recorder", "critpath", "wall_profile", "run_diff"):
        return {"flight_recorder": "flight"}.get(kind, kind)
    if doc.get("records") and detect_kind(doc.get("records")) == "spans":
        return "spans"
    if doc and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        or (isinstance(v, dict)
            and ("n" in v or {"value", "peak"} <= set(v)))
        for v in doc.values()
    ):
        return "metrics"
    return "unknown"


def load_artifact(path: str) -> Tuple[str, Dict]:
    """Load one artifact file; ``.jsonl`` files parse as span logs."""
    if path.endswith(".jsonl"):
        records: List[Dict] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return "spans", {"kind": "spans", "records": records}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = detect_kind(doc)
    if kind == "spans" and isinstance(doc, list):
        doc = {"kind": "spans", "records": doc}
    return kind, doc


# -- per-kind summarization (keeps the generic flatten tractable) -------------

def _summarize(kind: str, doc: Dict) -> Dict:
    """Reduce bulky artifacts to their comparable surface."""
    if kind == "spans":
        by_stage: Dict[str, List[float]] = {}
        for rec in doc.get("records", []):
            if isinstance(rec, dict) and isinstance(rec.get("dur"),
                                                    (int, float)):
                by_stage.setdefault(str(rec.get("name")), []).append(
                    float(rec["dur"]))
        return {
            "spans_total": sum(len(v) for v in by_stage.values()),
            "stage": {
                name: percentile_summary(durs, SLO_QUANTILES)
                for name, durs in sorted(by_stage.items())
            },
        }
    if kind == "flight":
        series_out: Dict[str, Dict] = {}
        for name, series in sorted((doc.get("series") or {}).items()):
            values = series.get("values") or []
            numeric = [v for v in values
                       if isinstance(v, (int, float))
                       and not isinstance(v, bool)]
            series_out[name] = {
                "points": len(values),
                "dropped": series.get("dropped", 0),
                "last": numeric[-1] if numeric else 0.0,
                "mean": (sum(numeric) / len(numeric)) if numeric else 0.0,
            }
        events: Dict[str, int] = {}
        for ev in doc.get("events") or []:
            if isinstance(ev, (list, tuple)) and len(ev) >= 2:
                events[str(ev[1])] = events.get(str(ev[1]), 0) + 1
        return {
            "samples": doc.get("samples", 0),
            "events_dropped": doc.get("events_dropped", 0),
            "series": series_out,
            "events": events,
        }
    if kind == "wall_profile":
        return {
            "wall_seconds": doc.get("wall_seconds", 0.0),
            "profiled_seconds": doc.get("profiled_seconds", 0.0),
            "scopes": {s.get("name"): {"wall_seconds": s.get("wall_seconds"),
                                       "count": s.get("count")}
                       for s in doc.get("scopes") or []
                       if isinstance(s, dict)},
        }
    if kind == "critpath":
        return {"traces": doc.get("traces", 0),
                "skipped": doc.get("skipped", 0)}
    return doc


# -- generic flattening -------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_quantile_group(value) -> bool:
    return (isinstance(value, dict) and _is_number(value.get("n"))
            and any(k == "mean" or (k.startswith("p") and
                                    k[1:2].isdigit())
                    for k in value))


def _row_labels(rows: Sequence[Dict]) -> Optional[Tuple[List[str], str]]:
    """Stable labels for a list of dict rows, aligned across runs.

    Prefers a coarse identity (``app``, ``mode``, ...) so an A/B over a
    knob (e.g. ``aggregation`` 512 vs 1) still aligns row-for-row.  When
    one identity owns several rows (a sweep), rows within the group are
    ranked by their knob value and labelled ``identity#rank`` — the
    baseline row of run A aligns with the baseline row of run B even
    when the swept values differ.  Returns ``(labels, field)`` — the
    identity field is folded into the label, so the caller drops it from
    the row body (a churned top-k list must not read as a workload
    change) — or None (positional labels) when no identity field covers
    every row.
    """
    for field in _IDENTITY_FIELDS:
        if all(field in r for r in rows):
            labels = [str(r[field]) for r in rows]
            if len(set(labels)) == len(labels):
                return labels, field
            if all("aggregation" in r for r in rows):
                order = sorted(
                    range(len(rows)),
                    key=lambda i: (labels[i], rows[i]["aggregation"], i))
                ranked = [""] * len(rows)
                rank_of: Dict[str, int] = {}
                for i in order:
                    rank = rank_of.get(labels[i], 0)
                    rank_of[labels[i]] = rank + 1
                    ranked[i] = f"{labels[i]}#{rank}"
                return ranked, field
    return None


def _flatten(node, prefix: str, counters: Dict[str, float],
             quantiles: Dict[str, Dict], configs: Dict[str, object]) -> None:
    if _is_quantile_group(node):
        quantiles[prefix] = node
        return
    if isinstance(node, dict):
        for key in sorted(node, key=str):
            sub = f"{prefix}/{key}" if prefix else str(key)
            _flatten(node[key], sub, counters, quantiles, configs)
        return
    if isinstance(node, list):
        if node and all(isinstance(r, dict) for r in node):
            labelling = _row_labels(node)
            labels, field = labelling if labelling else (None, None)
            for i, row in enumerate(node):
                label = labels[i] if labels else str(i)
                if field is not None:
                    row = {k: v for k, v in row.items() if k != field}
                _flatten(row, f"{prefix}[{label}]", counters, quantiles,
                         configs)
        else:
            configs[prefix] = json.dumps(node, sort_keys=True)
        return
    if _is_number(node):
        counters[prefix] = float(node)
    elif node is not None:
        configs[prefix] = node


def _flatten_doc(kind: str, doc: Dict):
    counters: Dict[str, float] = {}
    quantiles: Dict[str, Dict] = {}
    configs: Dict[str, object] = {}
    _flatten(_summarize(kind, doc), "", counters, quantiles, configs)
    return counters, quantiles, configs


# -- section diffs ------------------------------------------------------------

def _is_noisy(key: str) -> bool:
    lowered = key.lower()
    return any(frag in lowered for frag in _NOISY_FRAGMENTS)


def _counter_rows(ca: Dict[str, float], cb: Dict[str, float],
                  rel_threshold: float) -> List[Dict]:
    rows: List[Dict] = []
    for key in sorted(set(ca) | set(cb)):
        a, b = ca.get(key), cb.get(key)
        noisy = _is_noisy(key)
        threshold = max(rel_threshold, NOISY_REL_THRESHOLD) if noisy \
            else rel_threshold
        if a is None or (a == 0 and b not in (None, 0)):
            status, rel = "new_signal", None
            significant = not noisy and abs(b or 0.0) > 0
        elif b is None or (b == 0 and a != 0):
            status, rel = "gone", None
            significant = not noisy
        elif a == b:
            status, rel, significant = "unchanged", 0.0, False
        else:
            rel = (b - a) / abs(a) if a else 0.0
            status = "changed"
            significant = abs(rel) >= threshold
        if status == "unchanged":
            continue
        rows.append({
            "key": key,
            "a": a,
            "b": b,
            "delta": (b - a) if (a is not None and b is not None) else None,
            "rel": rel,
            "status": status,
            "noisy": noisy,
            "significant": significant,
        })
    rows.sort(key=lambda r: (not r["significant"],
                             -(abs(r["rel"]) if r["rel"] is not None
                               else float("inf")),
                             r["key"]))
    return rows


def _quantile_rows(qa: Dict[str, Dict], qb: Dict[str, Dict],
                   rel_threshold: float) -> List[Dict]:
    rows: List[Dict] = []
    for key in sorted(set(qa) | set(qb)):
        a, b = qa.get(key), qb.get(key)
        n_a = int((a or {}).get("n") or 0)
        n_b = int((b or {}).get("n") or 0)
        row: Dict = {"key": key, "n_a": n_a, "n_b": n_b, "noisy":
                     _is_noisy(key), "shifts": {}}
        if n_a == 0 and n_b == 0:
            continue
        if n_a == 0 and n_b > 0:
            # Empty-vs-nonempty is a *new signal* — quantiles of an empty
            # histogram are all 0.0, so relative shifts are undefined,
            # never a division.
            row.update(status="new_signal", significant=not row["noisy"])
            rows.append(row)
            continue
        if n_b == 0 and n_a > 0:
            row.update(status="gone", significant=not row["noisy"])
            rows.append(row)
            continue
        threshold = max(rel_threshold, NOISY_REL_THRESHOLD) \
            if row["noisy"] else rel_threshold
        significant = False
        for metric in _QUANTILE_METRICS:
            va, vb = a.get(metric), b.get(metric)
            if not (_is_number(va) and _is_number(vb)) or va == vb:
                continue
            if va == 0:
                shift = {"a": va, "b": vb, "rel": None,
                         "status": "new_signal"}
                shift_sig = True
            else:
                rel = (vb - va) / abs(va)
                shift = {"a": va, "b": vb, "rel": rel, "status": "changed"}
                shift_sig = abs(rel) >= threshold
            shift["significant"] = shift_sig
            row["shifts"][metric] = shift
            significant = significant or shift_sig
        if not row["shifts"]:
            continue
        row.update(status="changed", significant=significant)
        rows.append(row)
    rows.sort(key=lambda r: (not r["significant"], r["key"]))
    return rows


def _stage_shares(doc: Dict, which: str) -> Dict[str, float]:
    blame = doc.get(which) or {}
    return {s["stage"]: float(s.get("share") or 0.0)
            for s in blame.get("stages") or [] if isinstance(s, dict)}


def _critpath_section(a: Dict, b: Dict) -> Dict:
    out: Dict = {"rows": [], "significant": False}
    for which in ("overall", "slow"):
        sa, sb = _stage_shares(a, which), _stage_shares(b, which)
        for stage in sorted(set(sa) | set(sb)):
            delta = sb.get(stage, 0.0) - sa.get(stage, 0.0)
            if abs(delta) < 1e-12:
                continue
            significant = abs(delta) >= SHARE_THRESHOLD
            out["rows"].append({
                "blame": which,
                "stage": stage,
                "a": sa.get(stage, 0.0),
                "b": sb.get(stage, 0.0),
                "delta": delta,
                "significant": significant,
            })
            out["significant"] = out["significant"] or significant
    out["rows"].sort(key=lambda r: (not r["significant"],
                                    -abs(r["delta"]), r["blame"],
                                    r["stage"]))
    return out


def _profile_section(a: Dict, b: Dict) -> Dict:
    def shares(doc):
        return {s["subsystem"]: float(s.get("share") or 0.0)
                for s in doc.get("subsystems") or [] if isinstance(s, dict)}
    sa, sb = shares(a), shares(b)
    out: Dict = {"rows": [], "significant": False,
                 "wall_seconds_a": a.get("wall_seconds", 0.0),
                 "wall_seconds_b": b.get("wall_seconds", 0.0)}
    for subsystem in sorted(set(sa) | set(sb)):
        delta = sb.get(subsystem, 0.0) - sa.get(subsystem, 0.0)
        if abs(delta) < 1e-12:
            continue
        significant = abs(delta) >= SHARE_THRESHOLD
        out["rows"].append({
            "subsystem": subsystem,
            "a": sa.get(subsystem, 0.0),
            "b": sb.get(subsystem, 0.0),
            "delta": delta,
            "significant": significant,
        })
        out["significant"] = out["significant"] or significant
    out["rows"].sort(key=lambda r: (not r["significant"],
                                    -abs(r["delta"]), r["subsystem"]))
    return out


def _find_skew(doc) -> Optional[Dict]:
    """First skew summary embedded anywhere in the document."""
    if isinstance(doc, dict):
        if "top_partitions" in doc or "top_keys" in doc:
            return doc
        for key in sorted(doc, key=str):
            found = _find_skew(doc[key])
            if found is not None:
                return found
    elif isinstance(doc, list):
        for item in doc:
            found = _find_skew(item)
            if found is not None:
                return found
    return None


def _topk_churn(a_rows: List[Dict], b_rows: List[Dict],
                field: str) -> Dict:
    sa = {str(r.get(field)) for r in a_rows or [] if isinstance(r, dict)}
    sb = {str(r.get(field)) for r in b_rows or [] if isinstance(r, dict)}
    union = sa | sb
    jaccard = (len(sa & sb) / len(union)) if union else 1.0
    return {
        "entered": sorted(sb - sa),
        "left": sorted(sa - sb),
        "jaccard": jaccard,
    }


def _skew_section(a: Dict, b: Dict) -> Optional[Dict]:
    skew_a, skew_b = _find_skew(a), _find_skew(b)
    if skew_a is None or skew_b is None:
        return None
    partitions = _topk_churn(skew_a.get("top_partitions"),
                             skew_b.get("top_partitions"), "partition")
    keys = _topk_churn(skew_a.get("top_keys"), skew_b.get("top_keys"),
                       "key")
    imb_a = float(skew_a.get("imbalance") or 0.0)
    imb_b = float(skew_b.get("imbalance") or 0.0)
    churned = min(partitions["jaccard"], keys["jaccard"]) < 0.7
    return {
        "partitions": partitions,
        "keys": keys,
        "imbalance_a": imb_a,
        "imbalance_b": imb_b,
        "imbalance_delta": imb_b - imb_a,
        "significant": churned or abs(imb_b - imb_a) >=
        max(0.25, 0.1 * max(imb_a, 1.0)),
    }


# -- fingerprint classifier ---------------------------------------------------

#: every cause the classifier can emit, with its human-readable label
FINGERPRINT_CODES: Dict[str, str] = {
    "workload-shape-changed": "runs measured different workloads",
    "coalesce-efficiency-dropped": "coalescer flush efficiency dropped",
    "server-queue-wait-grew": "server queue-wait grew",
    "transport-charge-grew": "transport charge grew",
    "server-execute-grew": "server execute time grew",
    "marshal-overhead-grew": "interpreter overhead in marshal grew",
    "kernel-overhead-grew": "DES kernel wall overhead grew",
    "load-shedding-increased": "load shedding increased",
    "hot-set-churned": "hot partition/key set churned",
    "latency-tail-grew": "latency tail grew",
    "throughput-dropped": "throughput dropped",
    "no-significant-change": "no significant change",
}


def _counter_signal(rows: List[Dict], fragments: Sequence[str],
                    direction: int) -> Tuple[float, Optional[str]]:
    """Strongest significant counter move matching ``fragments``.

    Returns ``(magnitude, evidence)`` where magnitude is |rel| clamped to
    1.0 (new/gone signals count as 1.0).  ``direction`` +1 matches
    increases, -1 decreases.
    """
    best, evidence = 0.0, None
    for row in rows:
        if not row["significant"]:
            continue
        key = row["key"].lower()
        if not any(frag in key for frag in fragments):
            continue
        rel = row["rel"]
        if rel is None:
            grew = row["status"] == "new_signal"
            if (direction > 0) != grew:
                continue
            magnitude = 1.0
            desc = row["status"].replace("_", " ")
        else:
            if (rel > 0) != (direction > 0):
                continue
            magnitude = min(1.0, abs(rel))
            desc = f"{rel:+.0%}"
        if magnitude > best:
            best = magnitude
            evidence = f"{row['key']} {desc} ({row['a']} -> {row['b']})"
    return best, evidence


def _quantile_signal(rows: List[Dict], fragments: Sequence[str],
                     metrics: Sequence[str],
                     direction: int) -> Tuple[float, Optional[str]]:
    best, evidence = 0.0, None
    for row in rows:
        key = row["key"].lower()
        if not any(frag in key for frag in fragments):
            continue
        if row.get("status") == "new_signal" and direction > 0:
            if 1.0 > best:
                best, evidence = 1.0, f"{row['key']} appeared (new signal)"
            continue
        for metric in metrics:
            shift = row.get("shifts", {}).get(metric)
            if not shift or not shift["significant"]:
                continue
            rel = shift["rel"]
            if rel is None:
                magnitude, desc = 1.0, "new signal"
                if direction < 0:
                    continue
            else:
                if (rel > 0) != (direction > 0):
                    continue
                magnitude, desc = min(1.0, abs(rel)), f"{rel:+.0%}"
            if magnitude > best:
                best = magnitude
                evidence = f"{row['key']}.{metric} {desc}"
    return best, evidence


def _share_signal(section: Optional[Dict], row_key: str,
                  names: Sequence[str],
                  direction: int) -> Tuple[float, Optional[str]]:
    if not section:
        return 0.0, None
    best, evidence = 0.0, None
    for row in section["rows"]:
        if not row["significant"]:
            continue
        if row.get(row_key) not in names:
            continue
        delta = row["delta"]
        if (delta > 0) != (direction > 0):
            continue
        magnitude = min(1.0, abs(delta) / 0.25)
        if magnitude > best:
            best = magnitude
            evidence = (f"{row.get('blame', 'wall')} share of "
                        f"{row[row_key]}: {row['a']:.1%} -> {row['b']:.1%}")
    return best, evidence


def fingerprint(diff: Dict) -> Dict:
    """Name the dominant cause behind a RunDiff.

    Each candidate cause scores ``weight x magnitude`` from the section
    deltas that support it; the best-scoring cause wins.  Specific causes
    (coalescer efficiency, queue wait, transport charge, marshal
    overhead) outweigh the generic ones (tail grew, throughput dropped),
    so the report names a mechanism whenever the data supports one.
    """
    counters = diff["counters"]["rows"]
    quantiles = diff["quantiles"]["rows"]
    critpath = diff.get("critpath")
    profile = diff.get("profile")
    skew = diff.get("skew")

    candidates: List[Tuple[float, str, str]] = []

    shape_changes = [c for c in diff["config_changes"]
                     if not c.get("knob")]
    if shape_changes:
        change = shape_changes[0]
        candidates.append((
            100.0, "workload-shape-changed",
            f"{change['key']}: {change['a']!r} -> {change['b']!r}"))

    mag, ev = _counter_signal(counters, ("ops_per_flush",), -1)
    mag2, ev2 = _counter_signal(counters, ("/flushes", "flushes"), +1)
    if mag or mag2:
        candidates.append((10.0 * max(mag, mag2), "coalesce-efficiency-dropped",
                           ev if mag >= mag2 else ev2))

    mag, ev = _counter_signal(counters, ("queue_wait", "server.queue",
                                         "server/queue"), +1)
    mag2, ev2 = _quantile_signal(quantiles, ("queue_wait", "server.queue",
                                             "server.wait"),
                                 ("p99", "p95", "mean"), +1)
    mag3, ev3 = _share_signal(critpath, "stage", ("server.queue",
                                                  "server.wait"), +1)
    best = max(mag, mag2, mag3)
    if best:
        candidates.append((9.0 * best, "server-queue-wait-grew",
                           {mag: ev, mag2: ev2, mag3: ev3}[best]))

    mag, ev = _share_signal(critpath, "stage", ("transport", "client.send",
                                                "rpc.deliver"), +1)
    mag2, ev2 = _counter_signal(counters, ("transport", "charge"), +1)
    best = max(mag, mag2)
    if best:
        candidates.append((9.0 * best, "transport-charge-grew",
                           ev if mag >= mag2 else ev2))

    mag, ev = _share_signal(critpath, "stage", ("server.execute",), +1)
    if mag:
        candidates.append((8.0 * mag, "server-execute-grew", ev))

    mag, ev = _share_signal(profile, "subsystem", ("marshal",), +1)
    mag2, ev2 = _share_signal(critpath, "stage", ("client.marshal",), +1)
    best = max(mag, mag2)
    if best:
        candidates.append((8.0 * best, "marshal-overhead-grew",
                           ev if mag >= mag2 else ev2))

    mag, ev = _share_signal(profile, "subsystem", ("kernel",), +1)
    if mag:
        candidates.append((7.0 * mag, "kernel-overhead-grew", ev))

    mag, ev = _counter_signal(counters, ("shed",), +1)
    if mag:
        candidates.append((8.0 * mag, "load-shedding-increased", ev))

    if skew and skew["significant"]:
        churn = 1.0 - min(skew["partitions"]["jaccard"],
                          skew["keys"]["jaccard"])
        candidates.append((
            6.0 * max(churn, 0.2), "hot-set-churned",
            f"top-k jaccard partitions {skew['partitions']['jaccard']:.2f} "
            f"keys {skew['keys']['jaccard']:.2f}, imbalance "
            f"{skew['imbalance_a']:.2f} -> {skew['imbalance_b']:.2f}"))

    mag, ev = _quantile_signal(quantiles, ("",), ("p99.9", "p99", "p95"), +1)
    if mag:
        candidates.append((5.0 * mag, "latency-tail-grew", ev))

    mag, ev = _counter_signal(counters, ("ops_per_sim_sec", "events_per_sec",
                                         "speedup", "throughput"), -1)
    if mag:
        candidates.append((4.0 * mag, "throughput-dropped", ev))

    if not candidates:
        return {"code": "no-significant-change",
                "label": FINGERPRINT_CODES["no-significant-change"],
                "evidence": "", "score": 0.0}
    candidates.sort(key=lambda c: (-c[0], c[1]))
    score, code, evidence = candidates[0]
    return {
        "code": code,
        "label": FINGERPRINT_CODES[code],
        "evidence": evidence or "",
        "score": score,
        "runners_up": [
            {"code": c, "label": FINGERPRINT_CODES[c], "score": s,
             "evidence": e or ""}
            for s, c, e in candidates[1:4]
        ],
    }


# -- top level ----------------------------------------------------------------

def diff_runs(a_doc: Dict, b_doc: Dict, a_name: str = "A",
              b_name: str = "B",
              rel_threshold: float = DEFAULT_REL_THRESHOLD,
              top: int = 40) -> Dict:
    """Structured RunDiff between two loaded artifacts (A = reference)."""
    kind_a, kind_b = detect_kind(a_doc), detect_kind(b_doc)
    ca, qa, cfg_a = _flatten_doc(kind_a, a_doc)
    cb, qb, cfg_b = _flatten_doc(kind_b, b_doc)

    def _is_knob(key: str) -> bool:
        tail = key.rsplit("/", 1)[-1]
        return tail in _KNOB_KEYS

    config_changes = []
    for key in sorted(set(cfg_a) | set(cfg_b)):
        if cfg_a.get(key) != cfg_b.get(key):
            config_changes.append({"key": key, "a": cfg_a.get(key),
                                   "b": cfg_b.get(key),
                                   "knob": _is_knob(key)})
    for key in _WORKLOAD_KEYS:
        va, vb = ca.get(key), cb.get(key)
        if va != vb:
            config_changes.append({"key": key, "a": va, "b": vb,
                                   "knob": False})
    # Numeric knob settings (rpc_batch_size, aggregation, ...) flatten
    # into the counter dicts, but they are settings, not measurements:
    # report them as knob config changes and keep them out of the
    # counter-delta section.
    knob_keys = [k for k in set(ca) | set(cb) if _is_knob(k)]
    for key in sorted(knob_keys):
        if ca.get(key) != cb.get(key):
            config_changes.append({"key": key, "a": ca.get(key),
                                   "b": cb.get(key), "knob": True})
        ca.pop(key, None)
        cb.pop(key, None)
    seen_cfg = set()
    config_changes = [
        c for c in sorted(config_changes, key=lambda c: c["key"])
        if not (c["key"] in seen_cfg or seen_cfg.add(c["key"]))
    ]
    workload_keys = set(_WORKLOAD_KEYS)
    ca = {k: v for k, v in ca.items() if k not in workload_keys}
    cb = {k: v for k, v in cb.items() if k not in workload_keys}

    counter_rows = _counter_rows(ca, cb, rel_threshold)
    quantile_rows = _quantile_rows(qa, qb, rel_threshold)

    critpath = _critpath_section(a_doc, b_doc) \
        if kind_a == kind_b == "critpath" else None
    profile = _profile_section(a_doc, b_doc) \
        if kind_a == kind_b == "wall_profile" else None
    skew = _skew_section(a_doc, b_doc)

    n_sig_counters = sum(1 for r in counter_rows if r["significant"])
    n_sig_quantiles = sum(1 for r in quantile_rows if r["significant"])
    diff: Dict = {
        "kind": "run_diff",
        "a": {"name": a_name, "artifact": kind_a},
        "b": {"name": b_name, "artifact": kind_b},
        "comparable": kind_a == kind_b and kind_a != "unknown",
        "rel_threshold": rel_threshold,
        "config_changes": config_changes,
        "counters": {
            "rows": counter_rows[:max(top, n_sig_counters)],
            "total": len(counter_rows),
            "significant": n_sig_counters,
        },
        "quantiles": {
            "rows": quantile_rows[:max(top, n_sig_quantiles)],
            "total": len(quantile_rows),
            "significant": n_sig_quantiles,
        },
        "critpath": critpath,
        "profile": profile,
        "skew": skew,
    }
    diff["significant"] = bool(
        config_changes
        or n_sig_counters
        or n_sig_quantiles
        or (critpath and critpath["significant"])
        or (profile and profile["significant"])
        or (skew and skew["significant"])
    )
    diff["fingerprint"] = fingerprint(diff)
    return diff


def diff_paths(a_path: str, b_path: str,
               rel_threshold: float = DEFAULT_REL_THRESHOLD,
               top: int = 40) -> Dict:
    """Load two artifact files and diff them (A = reference/baseline)."""
    _kind_a, a_doc = load_artifact(a_path)
    _kind_b, b_doc = load_artifact(b_path)
    return diff_runs(a_doc, b_doc, a_name=a_path, b_name=b_path,
                     rel_threshold=rel_threshold, top=top)


# -- rendering ----------------------------------------------------------------

def _fmt_val(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff(diff: Dict, max_rows: int = 20) -> str:
    """Markdown forensics report for one RunDiff."""
    fp = diff["fingerprint"]
    lines = [
        f"## Run forensics: {diff['a']['name']} vs {diff['b']['name']}",
        "",
        f"- artifacts: `{diff['a']['artifact']}` vs "
        f"`{diff['b']['artifact']}`"
        + ("" if diff["comparable"] else " — **not directly comparable**"),
        f"- significant change: **{'yes' if diff['significant'] else 'no'}**"
        f" (threshold {diff['rel_threshold']:.0%})",
        f"- **fingerprint: {fp['label']}** (`{fp['code']}`)"
        + (f" — {fp['evidence']}" if fp.get("evidence") else ""),
    ]
    if diff["config_changes"]:
        lines += ["", "### Workload / config changes", ""]
        for change in diff["config_changes"][:max_rows]:
            lines.append(f"- `{change['key']}`: {change['a']!r} -> "
                         f"{change['b']!r}")
    rows = [r for r in diff["counters"]["rows"]][:max_rows]
    if rows:
        lines += ["", "### Counter deltas "
                  f"({diff['counters']['significant']} significant of "
                  f"{diff['counters']['total']} changed)", "",
                  "| metric | A | B | Δ | rel | status |",
                  "|---|---|---|---|---|---|"]
        for r in rows:
            rel = f"{r['rel']:+.1%}" if r["rel"] is not None else "-"
            flag = "**" if r["significant"] else ""
            lines.append(
                f"| {flag}`{r['key']}`{flag} | {_fmt_val(r['a'])} | "
                f"{_fmt_val(r['b'])} | {_fmt_val(r['delta'])} | {rel} | "
                f"{r['status']}{' (noisy)' if r['noisy'] else ''} |")
    qrows = diff["quantiles"]["rows"][:max_rows]
    if qrows:
        lines += ["", "### Histogram / quantile shifts "
                  f"({diff['quantiles']['significant']} significant of "
                  f"{diff['quantiles']['total']} changed)", ""]
        for r in qrows:
            if r["status"] in ("new_signal", "gone"):
                lines.append(f"- `{r['key']}`: **{r['status'].replace('_', ' ')}**"
                             f" (n {r['n_a']} -> {r['n_b']})")
                continue
            def _shift_txt(m, s):
                rel = ("new" if s["rel"] is None else
                       format(s["rel"], "+.0%"))
                return f"{m} {s['a']:.4g}->{s['b']:.4g} ({rel})"
            shifts = ", ".join(
                _shift_txt(m, s)
                for m, s in r["shifts"].items() if s["significant"]
            ) or ", ".join(_shift_txt(m, s)
                           for m, s in list(r["shifts"].items())[:3])
            lines.append(f"- `{r['key']}` (n {r['n_a']}->{r['n_b']}): {shifts}")
    if diff.get("critpath") and diff["critpath"]["rows"]:
        lines += ["", "### Critical-path stage blame", "",
                  "| blame | stage | A share | B share | Δ |",
                  "|---|---|---|---|---|"]
        for r in diff["critpath"]["rows"][:max_rows]:
            flag = "**" if r["significant"] else ""
            lines.append(f"| {r['blame']} | {flag}{r['stage']}{flag} | "
                         f"{r['a']:.1%} | {r['b']:.1%} | {r['delta']:+.1%} |")
    if diff.get("profile") and diff["profile"]["rows"]:
        lines += ["", "### Wall-clock subsystem shares", "",
                  f"wall {diff['profile']['wall_seconds_a']:.3f}s -> "
                  f"{diff['profile']['wall_seconds_b']:.3f}s", "",
                  "| subsystem | A share | B share | Δ |",
                  "|---|---|---|---|"]
        for r in diff["profile"]["rows"][:max_rows]:
            flag = "**" if r["significant"] else ""
            lines.append(f"| {flag}{r['subsystem']}{flag} | {r['a']:.1%} | "
                         f"{r['b']:.1%} | {r['delta']:+.1%} |")
    if diff.get("skew"):
        skew = diff["skew"]
        lines += ["", "### Skew top-k churn", "",
                  f"- imbalance {skew['imbalance_a']:.2f} -> "
                  f"{skew['imbalance_b']:.2f}",
                  f"- partitions jaccard {skew['partitions']['jaccard']:.2f}"
                  f" (entered: {', '.join(skew['partitions']['entered']) or '-'};"
                  f" left: {', '.join(skew['partitions']['left']) or '-'})",
                  f"- keys jaccard {skew['keys']['jaccard']:.2f}"
                  f" (entered: {', '.join(skew['keys']['entered']) or '-'};"
                  f" left: {', '.join(skew['keys']['left']) or '-'})"]
    if fp.get("runners_up"):
        lines += ["", "### Runner-up causes", ""]
        for r in fp["runners_up"]:
            lines.append(f"- {r['label']} (`{r['code']}`, score "
                         f"{r['score']:.2f})"
                         + (f" — {r['evidence']}" if r["evidence"] else ""))
    lines.append("")
    return "\n".join(lines)


def write_diff_json(diff: Dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diff, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
