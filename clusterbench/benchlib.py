"""Arithmetic and output checks of the cluster benchmark.

Everything here is computed apart from the program under test: expected
outputs are derived from the inputs by the contracts' own definitions, and
percentiles, rates and per-layer figures from raw observations. run.py
calls these; test_benchlib.py covers them.
"""

import bisect
import statistics

# --- Percentiles ----------------------------------------------------------


def tail_supported(n, p):
    """True when `n` samples leave at least ten beyond percentile `p`."""
    return n * (100 - p) >= 1000


def percentile(values, p):
    """Nearest-rank percentile of `values` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = -(-len(ordered) * p // 100)  # ceil(n * p / 100)
    return ordered[max(rank, 1) - 1]


# --- Expected outputs -------------------------------------------------------


def expected_concat_output(input_bytes):
    """`string_concat` writes the first 16 bytes of id | body | id:
    input[0:10] + "|" + input[10:15]."""
    return input_bytes[0:10] + b"|" + input_bytes[10:15]


SCF_TRANCHES = 6
SCF_FEE_BPS = 25


def expected_scf_output(input_bytes):
    """SCF-AR `transfer` returns amount - fee as 8 little-endian bytes,
    where the fee is charged per tranche on floor(amount / 6)."""
    amount = int(input_bytes.decode().split("\n")[3])
    piece = amount // SCF_TRANCHES
    fee = SCF_TRANCHES * (piece * SCF_FEE_BPS // 10000)
    return (amount - fee).to_bytes(8, "little")


# --- Commit timeline ---------------------------------------------------------


def visible_at(timeline, height):
    """First poll time at which a node's height passed block `height`
    (its Height() counts blocks, so block h is applied once it is > h).
    `timeline` is [(t_ns, height)] with heights non-decreasing."""
    heights = [h for _, h in timeline]
    i = bisect.bisect_right(heights, height)
    if i == len(timeline):
        raise ValueError(f"block {height} never became visible")
    return timeline[i][0]


# --- Node snapshots -> per-layer metrics -------------------------------------


def counter(snap, name):
    return snap.get("counters", {}).get(name, 0)


def hist(snap, name):
    return snap.get("histograms", {}).get(name, {"count": 0, "sum": 0})


def hist_mean(snap, name):
    h = hist(snap, name)
    return h["sum"] / h["count"] if h["count"] else 0.0


def hist_max_bound(snap, name):
    """Upper bound of the highest non-empty bucket (the overflow bucket
    reports the last bound)."""
    h = hist(snap, name)
    counts, bounds = h.get("counts", []), h.get("bounds", [])
    for i in range(len(counts) - 1, -1, -1):
        if counts[i]:
            return bounds[min(i, len(bounds) - 1)]
    return 0


def ratio(num, den):
    return num / den if den else 0.0


PHASES = ["p1_decode", "p2_envelope_open", "p3_sig_verify", "p4_cache_update",
          "p5_execute"]


def layer_metrics(nodes, leader, committed, load_wall_s):
    """Per-layer metrics from the node snapshots.

    `nodes` is the list of node snapshots indexed by node id, `leader` the
    id of the leader, `committed` the committed load transactions and
    `load_wall_s` the time from the first send to the last receipt.
    Per-transaction figures of work every node does are the mean over the
    nodes; network figures are cluster totals.
    """
    lead = nodes[leader]
    followers = [s for i, s in enumerate(nodes) if i != leader]

    def node_mean(fn):
        return statistics.fmean(fn(s) for s in nodes)

    def follower_mean(fn):
        return statistics.fmean(fn(s) for s in followers)

    def per_tx(name):
        return node_mean(lambda s: counter(s, name)) / committed

    def total(name):
        return sum(counter(s, name) for s in nodes)

    m = {
        "net.send_bytes_per_tx": total("net.send.bytes") / committed,
        "net.send_msgs_per_tx": total("net.send.count") / committed,
        "net.cluster.retransmits": total("cluster.retransmit.count"),
        "net.cluster.view_changes": total("cluster.view.change.count"),
        "chain.preverify.busy_s.leader":
            hist(lead, "chain.preverify.batch.latency_ns")["sum"] / 1e9,
        "chain.preverify.max_batch_ms.leader":
            hist_max_bound(lead, "chain.preverify.batch.latency_ns") / 1e6,
        "chain.block.execute_ms.leader":
            hist_mean(lead, "chain.block.execute.latency_ns") / 1e6,
        "chain.block.execute_ms.follower": follower_mean(
            lambda s: hist_mean(s, "chain.block.execute.latency_ns")) / 1e6,
        "chain.block.busy_share.leader":
            hist(lead, "chain.block.execute.latency_ns")["sum"] / 1e9 / load_wall_s,
    }
    for i, phase in enumerate(PHASES, start=1):
        name = f"confide.phase.{phase}_ns"
        m[f"confide.phase.p{i}_us.leader"] = hist_mean(lead, name) / 1e3
        m[f"confide.phase.p{i}_us.follower"] = follower_mean(
            lambda s, name=name: hist_mean(s, name)) / 1e3
    for role, snaps in (("leader", [lead]), ("follower", followers)):
        hits = sum(counter(s, "confide.preverify_cache.hit.count") for s in snaps)
        misses = sum(counter(s, "confide.preverify_cache.miss.count") for s in snaps)
        m[f"confide.preverify_cache.hit_ratio.{role}"] = ratio(hits, hits + misses)
    m["confide.state_ocalls_per_tx"] = sum(
        per_tx(n) for n in ("confide.state.get_ocall.count",
                            "confide.state.set_ocall.count",
                            "confide.state.get_batch_ocall.count",
                            "confide.state.set_batch_ocall.count"))
    m["tee.transitions_per_tx"] = per_tx("tee.transition.count")
    m["tee.bytes_copied_per_tx"] = per_tx("tee.boundary.bytes_copied")
    m["crypto.ecdsa_verify_per_tx"] = per_tx("crypto.ecdsa.verify.count")
    m["crypto.ecdh_per_tx"] = per_tx("crypto.ecdh.count")
    m["crypto.gcm_open_bytes_per_tx"] = per_tx("crypto.gcm.open.bytes")
    m["crypto.sha256_bytes_per_tx"] = per_tx("crypto.sha256.bytes")
    m["storage.wal_bytes_per_tx"] = per_tx("storage.wal.append.bytes")
    m["storage.wal_syncs_per_block"] = ratio(total("storage.wal.sync.count"),
                                             total("chain.block.count"))
    m["storage.read_amp"] = ratio(total("storage.lsm.read.structures_probed"),
                                  total("storage.lsm.read.count"))
    hits, misses = total("storage.cache.hit.count"), total("storage.cache.miss.count")
    m["storage.cache.hit_ratio"] = ratio(hits, hits + misses)
    m["storage.memtable_flushes"] = total("storage.memtable.flush.count")
    m["storage.compactions"] = total("storage.compaction.count")
    return m


def span_medians(spans):
    """Median duration in ns of each span name."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
    return {name: statistics.median(d) for name, d in by_name.items()}


def inproc_metrics(leg):
    """Per-layer metrics of the in-process leg (one node, no network).
    Self time of apply is ApplyBlock minus the Execute calls inside it."""
    blocks, txs = leg["blocks"], leg["txs"]
    return {
        "chain.node.preverify_us_per_tx": leg["preverify_ns"] / txs / 1e3,
        "chain.node.propose_us_per_block": leg["propose_ns"] / blocks / 1e3,
        "chain.node.apply_ms_per_block": leg["apply_ns"] / blocks / 1e6,
        "chain.node.apply_self_ms_per_block":
            (leg["apply_ns"] - leg["execute_ns"]) / blocks / 1e6,
        "confide.engine.execute_us.confidential":
            ratio(leg["conf_execute_ns"], leg["conf_execute_count"]) / 1e3,
        "confide.engine.execute_us.public":
            ratio(leg["pub_execute_ns"], leg["pub_execute_count"]) / 1e3,
        "chain.node.inproc_tps": txs / (leg["wall_ns"] / 1e9),
    }
