"""The benchmark's four workloads.

Each workload builds its inputs from one instance seed, runs one HCL app
to completion on the simulated cluster and returns an :class:`Outcome`:
the app ops it completed, how many failed, the simulated seconds, and a
fingerprint of its exact outputs that must repeat on every re-run of the
same seed.  ``repro`` is imported inside each function because the
benchmark re-imports it for every run, so the import cost lands in
set-up time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: ares_like cluster shape of the batch workloads (nodes x ranks per node)
NODES, PROCS = 4, 3


@dataclass
class Outcome:
    #: app ops attempted, and how many of them failed or went unverified
    ops: int
    failed: int
    sim_s: float
    #: exact outputs (digests, app counts) that must repeat for one seed
    fingerprint: Tuple


def _genome(seed: int, coverage: int = 1):
    """The k-mer apps' input at aggregation-bench scale 1.0 (2,400 bp,
    8,832 k-mers); ``coverage`` multiplies the number of reads."""
    from repro.apps import synthesize_genome

    return synthesize_genome(genome_length=600 * NODES,
                             num_reads=48 * NODES * coverage, read_length=60,
                             k=15, seed=seed)


def kmer_sync(seed: int) -> Outcome:
    """k-mer counting, one synchronous upsert RPC per k-mer."""
    from repro.apps import run_kmer_counting
    from repro.config import ares_like

    data = _genome(seed)
    res = run_kmer_counting("hcl", ares_like(NODES, PROCS, seed=seed), data,
                            aggregation=0)
    return Outcome(res.total_kmers, 0 if res.verified else res.total_kmers,
                   res.time_seconds,
                   (res.digest, res.total_kmers, res.distinct_kmers))


def contig_agg(seed: int) -> Outcome:
    """Contig generation through the coalescer (64 ops) and read cache."""
    from repro.apps import run_contig_generation
    from repro.config import ares_like

    # Twice kmer-sync's reads: the longest contig walk sets the simulated
    # time, and at 4.8x coverage it varies too much from seed to seed.
    data = _genome(seed, coverage=2)
    res = run_contig_generation("hcl", ares_like(NODES, PROCS, seed=seed),
                                data, aggregation=64, read_cache=True)
    # Ops: k-mer occurrences merged into the graph, as the aggregation
    # bench counts them; the traversal's lookups scale with them.
    ops = sum(len(r) - data.k + 1 for r in data.reads)
    digest = zlib.crc32("\n".join(res.contigs).encode("ascii"))
    return Outcome(ops, 0 if res.verified else ops, res.time_seconds,
                   (f"{digest:08x}", len(res.contigs)))


def isx_pq(seed: int) -> Outcome:
    """ISx bucket sort through the MDList priority queues."""
    from repro.apps import run_isx
    from repro.config import ares_like

    res = run_isx("hcl", ares_like(NODES, PROCS, seed=seed),
                  keys_per_rank=1000, aggregation=64, seed=seed)
    return Outcome(res.total_keys, 0 if res.verified else res.total_keys,
                   res.time_seconds, (res.total_keys,))


#: serving-zipf configuration: one unbounded run below the hot node's
#: capacity (no backlog builds up at 1,000 ops/s per client)
SERVING = dict(nodes=4, procs_per_node=4, clients=1000, tenants=4, keys=512,
               theta=0.99, queue_frac=0.10, rate=1000.0, ops_per_client=20,
               bounds=(None,), shed_retries=0)


def serving_zipf(seed: int) -> Outcome:
    """Open-loop Zipfian map/queue serving mix in simulated time."""
    from repro.harness.serving import run_serving

    row = run_serving(seed=seed, **SERVING)["configs"][0]
    counts = ("issued", "completed", "shed", "shed_gaveup", "errors")
    return Outcome(row["issued"], row["issued"] - row["completed"],
                   row["sim_seconds"], tuple(row[c] for c in counts))


#: name -> (run one instance, instances per run, exact-latency histogram,
#: ops one instance attempts: every input of a workload has the same size)
WORKLOADS: Dict[str, Tuple[Callable[[int], Outcome], int, str, int]] = {
    "kmer-sync": (kmer_sync, 8, "rpcc", 8832),
    "contig-agg": (contig_agg, 6, "rpcc", 17664),
    "isx-pq": (isx_pq, 6, "rpcc", 12000),
    "serving-zipf": (serving_zipf, 4, "serving", 20000),
}
