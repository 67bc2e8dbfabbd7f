#!/usr/bin/env python3
"""Cluster benchmark: boots four `confided` nodes and one `confide_gateway`
on 127.0.0.1, drives one workload through the load driver, checks every
output and prints one JSON result line. README.md in this directory has
the workloads, metrics and reference figures.

Usage (from the repository root):
  python3 clusterbench/run.py --workload mixed_paced --seed 1 --seconds 10 --trace 0

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
keeps the spans and node snapshots under <build dir>/traces/.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NODES = 4  # the smallest cluster with a real PBFT quorum (2f+1 = 3)
CONSORTIUM_SEED = 7  # confided --seed; every node derives the same keys
MIN_SAMPLES = 1000  # receipt latencies per run, so p99 has ten beyond it

# Offered load. Backlogs are sized per second of --seconds so a run lasts
# about --seconds at today's commit rates; see README.md for the knee.
# The commit-detection poll period is at most a tenth of receipt_p50_ms:
# 1 ms under the open loop (p50 ~15 ms), 10 ms under a backlog (p50 in
# seconds), where faster polling would only add wake-ups to a busy box.
WORKLOADS = {
    "mixed_paced": {"contracts": "concat", "mode": "paced", "rate": 200,
                    "poll_us": 1000},
    "mixed_backlog": {"contracts": "concat", "mode": "backlog", "per_second": 350,
                      "rounds": 4, "poll_us": 10000},
    "scfar_backlog": {"contracts": "scf", "mode": "backlog", "per_second": 100,
                      "rounds": 4, "poll_us": 10000},
}

# Fixed glibc malloc thresholds for the nodes and the load driver. Every
# contract call allocates and zero-fills a fresh 1 MiB VM memory; with
# glibc's dynamic mmap/trim thresholds whether that memory is reused or
# faulted in anew depends on each process's heap history, which made a
# run's SCF-AR execution cost 3-4x higher on some runs than on others.
# Pinned, the allocation and zero-fill cost is still paid on every call.
PINNED_MALLOC_ENV = dict(
    os.environ,
    GLIBC_TUNABLES="glibc.malloc.mmap_threshold=67108864:"
                   "glibc.malloc.trim_threshold=268435456")

KIND_PUBLIC, KIND_CONFIDENTIAL, KIND_SCF = 0, 1, 2


def log(message):
    print(f"clusterbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def on_signal(signum, _frame):
    # Ignore repeats so the clean-up that follows runs to its end.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise BenchError(f"signal {signum}")


# --- Build ------------------------------------------------------------------


def build(build_dir):
    """Configures (once) and builds the driver, confided and the gateway."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "clusterbench_load", "confided", "confide_gateway"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed, see {build_log}")
    return {
        "load": os.path.join(build_dir, "clusterbench_load"),
        "confided": os.path.join(build_dir, "confide", "net", "confided"),
        "gateway": os.path.join(build_dir, "confide", "net", "confide_gateway"),
    }


# --- Cluster ----------------------------------------------------------------


def pick_ports(count):
    """Distinct ephemeral ports (bind :0, then close)."""
    socks = [socket.socket() for _ in range(count)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


class Cluster:
    """Four nodes and a gateway, each in its own state under `run_dir`."""

    READY = re.compile(rb"(confided: node \d+|confide_gateway:) ready on port")

    def __init__(self, bins, run_dir):
        self.bins = bins
        self.run_dir = run_dir
        self.procs = []  # nodes 0..3, then the gateway
        ports = pick_ports(NODES + 1)
        self.node_addrs = [f"127.0.0.1:{p}" for p in ports[:NODES]]
        self.gateway_url = f"http://127.0.0.1:{ports[NODES]}"
        self.gateway_port = ports[NODES]

    def state_dir(self, i):
        return os.path.join(self.run_dir, f"node{i}")

    def snapshot_path(self, name):
        return os.path.join(self.run_dir, f"{name}.metrics.json")

    def _spawn(self, cmd, name, env=None):
        err = open(os.path.join(self.run_dir, f"{name}.log"), "wb")
        try:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, env=env)
        finally:
            err.close()
        self.procs.append(proc)

    def start(self):
        peers = ",".join(self.node_addrs)
        for i in range(NODES):
            os.makedirs(self.state_dir(i))
            self._spawn([self.bins["confided"], f"--node-id={i}", f"--peers={peers}",
                         "--listen-host=127.0.0.1", f"--seed={CONSORTIUM_SEED}",
                         f"--state-dir={self.state_dir(i)}",
                         f"--metrics-out={self.snapshot_path(f'node{i}')}"],
                        f"node{i}", PINNED_MALLOC_ENV)
        self._spawn([self.bins["gateway"], f"--nodes={peers}",
                     f"--listen=127.0.0.1:{self.gateway_port}",
                     f"--metrics-out={self.snapshot_path('gateway')}"], "gateway")

    def wait_ready(self, timeout_s=20):
        pending = {p.stdout.fileno(): p for p in self.procs}
        seen = {fd: b"" for fd in pending}
        deadline = time.monotonic() + timeout_s
        while pending:
            if time.monotonic() > deadline:
                raise BenchError("cluster did not come up")
            ready, _, _ = select.select(list(pending), [], [], 0.05)
            for fd in ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchError(f"process exited early: {pending[fd].args[0]}")
                seen[fd] += chunk
                if self.READY.search(seen[fd]):
                    del pending[fd]

    def peak_rss_kb(self):
        """VmHWM of each node, in kB."""
        out = []
        for proc in self.procs[:NODES]:
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        out.append(int(line.split()[1]))
        return out

    def stop(self):
        """Clean stop (SIGTERM, so snapshots are written), then SIGKILL
        whatever is left; reaps every process. Returns the exit codes."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15
        codes = []
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            codes.append(proc.returncode)
        self.procs = []
        return codes


# --- Checks -------------------------------------------------------------------


def find_ids(data, ids):
    """The members of `ids` (10-byte [a-z0-9] words) that occur in `data`."""
    hits = set()
    for run in re.finditer(rb"[a-z0-9]{10,}", data):
        word = run.group()
        for k in range(len(word) - 9):
            if word[k:k + 10] in ids:
                hits.add(word[k:k + 10])
    return hits


def scan_state_dirs(dirs, ids):
    hits = set()
    for top in dirs:
        for root, _, files in os.walk(top):
            for name in files:
                with open(os.path.join(root, name), "rb") as f:
                    hits |= find_ids(f.read(), ids)
    return hits


def check_run(res, snaps, state_dirs):
    """All output checks. Returns (failed op count, list of faults)."""
    faults = []
    txs = res["txs"]
    failed = 0
    for i, tx in enumerate(txs):
        if tx["status"] != 202 or tx["acked_hash"] != tx["hash"]:
            failed += 1
            continue
        if len(tx["heights"]) != 1:
            faults.append(f"tx {i} committed {len(tx['heights'])} times")
        if tx["error"] or not tx["success"]:
            failed += 1
            continue
        head = bytes.fromhex(tx["input_head"])
        if tx["kind"] == KIND_SCF:
            expected = benchlib.expected_scf_output(head)
        else:
            expected = benchlib.expected_concat_output(head)
        if bytes.fromhex(tx["output"]) != expected:
            faults.append(f"tx {i} output {tx['output']} != {expected.hex()}")

    committed = sum(1 for tx in txs if len(tx["heights"]) >= 1)
    if committed != len(txs) - failed:
        faults.append(f"{committed} committed of {len(txs) - failed} accepted")
    for n, snap in enumerate(snaps["nodes"]):
        counted = benchlib.counter(snap, "chain.block.tx.count") - res["setup_txs"]
        if counted != committed:
            faults.append(f"node {n} counted {counted} load txs, receipts {committed}")

    nodes = res["nodes"]
    if len(nodes) != NODES or not all(n["reachable"] for n in nodes):
        faults.append("not every node answered the final status")
    elif len({(n["height"], n["tip"]) for n in nodes}) != 1:
        faults.append(f"nodes disagree: {[(n['height'], n['tip'][:12]) for n in nodes]}")

    conf_ids = {bytes.fromhex(tx["input_head"])[:10]
                for tx in txs if tx["kind"] == KIND_CONFIDENTIAL}
    pub_ids = {bytes.fromhex(tx["input_head"])[:10]
               for tx in txs if tx["kind"] == KIND_PUBLIC}
    if conf_ids:
        leaked = set()
        for tx in txs:
            leaked |= find_ids(bytes.fromhex(tx["wire"]), conf_ids)
        if leaked:
            faults.append(f"{len(leaked)} confidential ids in receipt wire bytes")
        at_rest = scan_state_dirs(state_dirs, conf_ids | pub_ids)
        if at_rest & conf_ids:
            faults.append(f"{len(at_rest & conf_ids)} confidential ids at rest")
        # The scan must see what is stored in the clear, or it proves nothing.
        if pub_ids and not at_rest & pub_ids:
            faults.append("state scan found no public id: scan is blind")

    if res["threads_max"] > res["cpus"]:
        faults.append(f"load process ran {res['threads_max']} threads")
    return failed, faults


# --- Metrics ------------------------------------------------------------------


def receipt_latencies(res):
    """Latencies in ns of the committed txs, and per round the time from its
    first send to its last receipt and the txs it committed."""
    timeline = res["timeline"]
    lat, rounds = [], {}
    for tx in res["txs"]:
        if tx["heights"]:
            seen = benchlib.visible_at(timeline, tx["heights"][0])
            lat.append(seen - tx["due"])
            first, last, n = rounds.get(tx["round"], (tx["send"], seen, 0))
            rounds[tx["round"]] = (min(first, tx["send"]), max(last, seen), n + 1)
    return lat, [(last - first, n) for first, last, n in rounds.values()]


def end_to_end(res, launch_ns, rss_kb):
    lat, rounds = receipt_latencies(res)
    if not benchlib.tail_supported(len(lat), 99):
        raise BenchError(f"only {len(lat)} receipt samples; need {MIN_SAMPLES}")
    wall_s = sum(ns for ns, _ in rounds) / 1e9
    cpu_s = sum(res["cpu_ticks"]) / res["clk_tck"]
    return {
        "setup_s": (res["setup_done_ns"] - launch_ns) / 1e9,
        "commit_tps": statistics.median(n / (ns / 1e9) for ns, n in rounds),
        "receipt_p50_ms": benchlib.percentile(lat, 50) / 1e6,
        "receipt_p99_ms": benchlib.percentile(lat, 99) / 1e6,
        "cpu_ms_per_tx": cpu_s * 1e3 / len(lat),
        "node_rss_mb": max(rss_kb) / 1024,
    }, wall_s


def per_layer(res, snaps, e2e, wall_s):
    committed = sum(1 for tx in res["txs"] if tx["heights"])
    leader = res["nodes"][0]["leader"]
    m = benchlib.layer_metrics(snaps["nodes"], leader, committed, wall_s)
    m["net.cluster.txs_per_block"] = committed / len(res["load_blocks"])
    m["net.cluster.blocks_per_s"] = len(res["load_blocks"]) / wall_s
    spans = benchlib.span_medians(res["spans"])
    m["client.build_tx_us"] = spans["client.build_tx"] / 1e3
    m["net.gateway.submit_ms"] = spans["net.gateway.submit"] / 1e6
    m["net.gateway.receipt_get_ms"] = spans["net.gateway.receipt_get"] / 1e6
    m.update(benchlib.inproc_metrics(res["inproc"]))
    m["load.poll_period_ms"] = res["poll_span_ns"] / max(1, res["polls"] - 1) / 1e6
    m["load.send_lag_p99_ms"] = benchlib.percentile(
        [tx["send"] - tx["due"] for tx in res["txs"]], 99) / 1e6
    m["trace.commit_tps"] = e2e["commit_tps"]
    m["trace.receipt_p50_ms"] = e2e["receipt_p50_ms"]
    return m


# --- One run ------------------------------------------------------------------


def run(args, bins, work_root, spec):
    run_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    cluster = Cluster(bins, run_dir)
    try:
        if spec["mode"] == "paced":
            load_args = [f"--rate={spec['rate']}"]
        else:
            load_args = [f"--count={spec['per_second'] * args.seconds}",
                         f"--rounds={spec['rounds']}"]
        results_path = os.path.join(run_dir, "results.json")
        launch_ns = time.monotonic_ns()
        cluster.start()
        cluster.wait_ready()
        pids = ",".join(str(p.pid) for p in cluster.procs)
        cmd = [bins["load"], f"--gateway={cluster.gateway_url}",
               f"--status-node={cluster.node_addrs[1]}",
               f"--contracts={spec['contracts']}", f"--mode={spec['mode']}",
               f"--seconds={args.seconds}", f"--seed={args.seed}",
               f"--consortium-seed={CONSORTIUM_SEED}", f"--poll-us={spec['poll_us']}",
               f"--pids={pids}", f"--trace={args.trace}",
               f"--inproc-dir={os.path.join(run_dir, 'inproc')}",
               f"--out={results_path}"] + load_args
        with open(os.path.join(run_dir, "load.log"), "wb") as out:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=PINNED_MALLOC_ENV, timeout=130).returncode
        if rc != 0:
            with open(os.path.join(run_dir, "load.log"), "rb") as f:
                sys.stderr.write(f.read().decode(errors="replace")[-2000:])
            raise BenchError(f"load driver exited {rc}")
        with open(results_path) as f:
            res = json.load(f)
        rss_kb = cluster.peak_rss_kb()
        codes = cluster.stop()
        if any(codes):
            raise BenchError(f"a cluster process exited uncleanly: {codes}")
        snaps = {"nodes": []}
        for i in range(NODES):
            with open(cluster.snapshot_path(f"node{i}")) as f:
                snaps["nodes"].append(json.load(f))

        failed, faults = check_run(res, snaps,
                                   [cluster.state_dir(i) for i in range(NODES)])
        e2e, wall_s = end_to_end(res, launch_ns, rss_kb)
        poll_ms = res["poll_span_ns"] / max(1, res["polls"] - 1) / 1e6
        if poll_ms > e2e["receipt_p50_ms"] / 10:
            faults.append(f"poll period {poll_ms:.2f} ms > p50/10")
        log(f"{args.workload} seed {args.seed}: {len(res['txs'])} txs, "
            f"{res['setup_txs']} set-up txs, build {res['build_ns'] / 1e9:.2f} s, "
            f"poll {poll_ms:.3f} ms, senders {res['senders']}, "
            + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()))
        log("view changes {}, retransmits {}".format(*(
            sum(benchlib.counter(s, name) for s in snaps["nodes"])
            for name in ("cluster.view.change.count", "cluster.retransmit.count"))))
        for fault in faults:
            log(f"FAULT: {fault}")
        metrics = e2e
        if args.trace:
            metrics = per_layer(res, snaps, e2e, wall_s)
            keep = os.path.join(os.path.dirname(work_root), "traces",
                                f"{args.workload}-seed{args.seed}")
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            with open(os.path.join(keep, "spans.json"), "w") as f:
                json.dump(res["spans"], f)
            for name in [f"node{i}" for i in range(NODES)] + ["gateway"]:
                shutil.copy(cluster.snapshot_path(name), keep)
            log(f"trace kept in {keep}")
        return {"correct": not faults, "attempted": len(res["txs"]),
                "failed": failed, "metrics": metrics}
    finally:
        cluster.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def load_spec():
    """Names and units of the metrics, from BENCHMARK.json."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        if not os.path.exists(os.path.join(os.path.dirname(BENCH_DIR), "src",
                                           "CMakeLists.txt")):
            raise BenchError("no program sources next to the benchmark")
        spec = load_spec()
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                 "clusterbench")
        # Compilers and children keep their temporary files in the checkout.
        os.environ["TMPDIR"] = os.path.abspath(os.path.join(build_dir, "tmp"))
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        bins = build(build_dir)
        work_root = os.path.join(build_dir, "runs")
        os.makedirs(work_root, exist_ok=True)
        result = run(args, bins, work_root, WORKLOADS[args.workload])
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e!r}")
        return 1

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"error: metrics not computed: {missing}")
        return 1
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
