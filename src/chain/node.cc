#include "chain/node.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>

#include "common/bounded_queue.h"
#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"

namespace confide::chain {

namespace {

struct NodeMetrics {
  metrics::Counter* blocks = metrics::GetCounter("chain.block.count");
  metrics::Counter* block_txs = metrics::GetCounter("chain.block.tx.count");
  metrics::Histogram* txs_per_block = metrics::GetHistogram(
      "chain.block.txs", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  metrics::Histogram* block_execute_latency =
      metrics::GetHistogram("chain.block.execute.latency_ns");
  metrics::Histogram* preverify_batch_latency =
      metrics::GetHistogram("chain.preverify.batch.latency_ns");
  metrics::Gauge* unverified_pool = metrics::GetGauge("chain.pool.unverified");
  metrics::Gauge* verified_pool = metrics::GetGauge("chain.pool.verified");

  static const NodeMetrics& Get() {
    static const NodeMetrics instruments;
    return instruments;
  }
};

struct PipelineMetrics {
  metrics::Histogram* preverify_latency =
      metrics::GetHistogram("chain.pipeline.stage_latency.preverify_ns");
  metrics::Histogram* execute_latency =
      metrics::GetHistogram("chain.pipeline.stage_latency.execute_ns");
  metrics::Histogram* commit_latency =
      metrics::GetHistogram("chain.pipeline.stage_latency.commit_ns");
  metrics::Gauge* verified_queue =
      metrics::GetGauge("chain.pipeline.queue.verified");
  metrics::Gauge* staged_queue = metrics::GetGauge("chain.pipeline.queue.staged");
  metrics::Counter* blocks = metrics::GetCounter("chain.pipeline.block.count");
  metrics::Counter* stalls = metrics::GetCounter("chain.pipeline.stall.count");
  metrics::Histogram* commit_group_blocks = metrics::GetHistogram(
      "chain.pipeline.commit_group.blocks", {1, 2, 3, 4, 6, 8, 12, 16});

  static const PipelineMetrics& Get() {
    static const PipelineMetrics instruments;
    return instruments;
  }
};

/// Wall-clock wait modelling the device-side block write (§6.4). Real
/// blocking time — exactly what the commit stage overlaps with execution.
void CommitWriteWait(uint64_t latency_ns) {
  if (latency_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(latency_ns));
  }
}

std::string ReceiptKey(const crypto::Hash256& tx_hash) {
  return "rcpt/" + HexEncode(crypto::HashView(tx_hash));
}

std::string TxIndexKey(const crypto::Hash256& tx_hash) {
  return "txix/" + HexEncode(crypto::HashView(tx_hash));
}

}  // namespace

namespace {

/// Pool sizing: the calling thread always works inline, so parallel
/// execution/pre-verification needs parallelism−1 helpers; the pipeline
/// adds two long-running stage tasks (pre-verify, commit).
std::unique_ptr<ThreadPool> MakeNodePool(const NodeOptions& options) {
  uint32_t workers = (std::max<uint32_t>(1, options.parallelism) - 1) +
                     (options.pipeline_depth > 0 ? 2 : 0);
  if (workers == 0) return nullptr;
  return std::make_unique<ThreadPool>(workers);
}

}  // namespace

Node::Node(NodeOptions options, EngineSet engines,
           std::shared_ptr<storage::KvStore> kv)
    : options_(options),
      engines_(engines),
      pool_(MakeNodePool(options)),
      executor_(ExecutorOptions{options.parallelism, pool_.get()}),
      kv_(std::move(kv)) {
  state_ = std::make_unique<CommitStateDb>(kv_);
  blocks_ = std::make_unique<storage::BlockStore>(kv_, options.clock);
  // Move LSM compactions onto the node's shared pool: a flush that
  // crosses the run threshold schedules the merge in the background
  // instead of stalling the committing thread. kv_ is declared after
  // pool_ in Node, so the store (which joins its inflight compaction on
  // destruction) dies first.
  if (pool_ != nullptr) {
    if (auto* lsm = dynamic_cast<storage::LsmKvStore*>(kv_.get())) {
      lsm->SetCompactionPool(pool_.get());
    }
  }
}

Result<std::unique_ptr<Node>> Node::Create(NodeOptions options,
                                           EngineSet engines) {
  storage::LsmOptions lsm;
  lsm.wal_dir = options.state_wal_dir;
  auto store = storage::LsmKvStore::Open(lsm);
  if (!store.ok()) {
    // A node configured for durability must not come up volatile: an
    // unusable WAL would otherwise mean every acknowledged write is lost
    // on restart while the node reports success throughout.
    metrics::GetCounter("chain.node.storage_open_failure.count")->Increment();
    return store.status();
  }
  if (options.checkpoint.interval > 0 && options.validators == nullptr) {
    return Status::InvalidArgument(
        "node: checkpointing enabled without a validator set");
  }
  std::unique_ptr<Node> node(new Node(
      options, engines, std::shared_ptr<storage::KvStore>(std::move(*store))));
  if (options.validators != nullptr) {
    node->checkpoints_ = std::make_unique<CheckpointManager>(
        options.checkpoint, node->kv_, options.validators);
  }
  CONFIDE_RETURN_NOT_OK(node->ResyncFromStore());
  return node;
}

Status Node::ResyncFromStore() {
  CONFIDE_RETURN_NOT_OK(RecoverChainTip());
  if (checkpoints_ != nullptr) {
    CONFIDE_RETURN_NOT_OK(checkpoints_->RecoverLatest());
  }
  return Status::OK();
}

Status Node::RecoverChainTip() {
  // The WAL replay restored state, receipts and block bodies, but the
  // height cursors and tip hash live in memory: rebuild them so a
  // restarted node keeps extending the durable chain instead of starting
  // over at height 0.
  CONFIDE_RETURN_NOT_OK(blocks_->RecoverTip());
  uint64_t tip = blocks_->NextHeight();
  if (tip == 0) {
    last_block_hash_ = crypto::Hash256{};
    state_->RestoreRoot(crypto::Hash256{});
    return Status::OK();
  }
  CONFIDE_ASSIGN_OR_RETURN(Bytes stored, blocks_->GetByHeight(tip - 1));
  CONFIDE_ASSIGN_OR_RETURN(Block block, Block::Deserialize(stored));
  last_block_hash_ = block.header.Hash();
  // The chained state root is in-memory only; without restoring it from
  // the tip header a restarted node would re-chain from a zero root and
  // silently fork from its peers at the next block.
  state_->RestoreRoot(block.header.state_root);
  return Status::OK();
}

void Node::MaybeCheckpointTip(uint64_t height, const crypto::Hash256& block_hash,
                              const crypto::Hash256& state_root) {
  if (checkpoints_ == nullptr) return;
  Status status = checkpoints_->MaybeCheckpoint(height, block_hash, state_root);
  if (!status.ok()) {
    // The block is already durable; a failed checkpoint only delays the
    // next snapshot, so count it instead of failing the commit.
    metrics::GetCounter("chain.checkpoint.failure.count")->Increment();
  }
}

Status Node::SubmitTransaction(Transaction tx) {
  if (fault::FaultInjector::Global().ShouldFail("fault.chain.submit")) {
    return Status::Unavailable("node: injected submit failure");
  }
  if (tx.type == TxType::kConfidential && tx.envelope.empty()) {
    return Status::InvalidArgument("node: confidential tx without envelope");
  }
  std::lock_guard<std::mutex> lock(pool_mutex_);
  unverified_.push_back(std::move(tx));
  NodeMetrics::Get().unverified_pool->Set(int64_t(unverified_.size()));
  return Status::OK();
}

void Node::PreVerifyBatch(std::vector<Transaction>* txs,
                          std::vector<uint8_t>* valid) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= txs->size()) return;
      ExecutionEngine* engine = engines_.Route((*txs)[i]);
      if (engine == nullptr) continue;
      auto ok = engine->PreVerify((*txs)[i]);
      (*valid)[i] = (ok.ok() && *ok) ? 1 : 0;
    }
  };
  uint32_t n_threads = std::max<uint32_t>(1, options_.parallelism);
  if (n_threads == 1 || pool_ == nullptr) {
    worker();
  } else {
    pool_->RunOnWorkers(n_threads - 1, worker);
  }
}

Result<size_t> Node::PreVerify() {
  std::deque<Transaction> pending;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pending.swap(unverified_);
    NodeMetrics::Get().unverified_pool->Set(0);
  }
  if (pending.empty()) return size_t(0);
  metrics::ScopedLatencyTimer timer(NodeMetrics::Get().preverify_batch_latency);

  std::vector<Transaction> txs(std::make_move_iterator(pending.begin()),
                               std::make_move_iterator(pending.end()));
  std::vector<uint8_t> valid(txs.size(), 0);
  PreVerifyBatch(&txs, &valid);

  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    for (size_t i = 0; i < txs.size(); ++i) {
      if (valid[i]) {
        verified_.push_back(std::move(txs[i]));
        ++count;
      }
    }
    NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
  }
  return count;
}

Block Node::PackBlock(uint64_t height, const crypto::Hash256& parent,
                      const std::function<bool(Transaction*)>& next,
                      std::optional<Transaction>* carry) const {
  Block block;
  block.header.height = height;
  block.header.parent_hash = parent;
  block.header.timestamp_ns = height;  // deterministic
  std::vector<Bytes> wires;
  size_t bytes = 0;
  for (;;) {
    Transaction tx;
    if (carry->has_value()) {
      tx = std::move(**carry);
      carry->reset();
    } else if (!next(&tx)) {
      break;
    }
    Bytes wire = tx.Serialize();
    if (!block.transactions.empty() &&
        bytes + wire.size() > options_.block_max_bytes) {
      *carry = std::move(tx);  // overflows this block; opens the next
      break;
    }
    bytes += wire.size();
    wires.push_back(std::move(wire));
    block.transactions.push_back(std::move(tx));
  }
  block.header.tx_root = crypto::MerkleTree(wires).Root();
  return block;
}

Result<Block> Node::ProposeBlock() {
  auto next = [this](Transaction* tx) {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (verified_.empty()) return false;
    *tx = std::move(verified_.front());
    verified_.pop_front();
    return true;
  };
  std::optional<Transaction> carry;
  Block block = PackBlock(blocks_->NextHeight(), last_block_hash_, next, &carry);
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (carry.has_value()) verified_.push_front(std::move(*carry));
  NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
  return block;
}

void Node::RequeueVerified(std::vector<Transaction> txs) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (auto it = txs.rbegin(); it != txs.rend(); ++it) {
    verified_.push_front(std::move(*it));
  }
  NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
}

/// A block that finished the stage step (executed + staged) and waits for
/// the commit step.
struct Node::StagedBlock {
  Block stored;  ///< header carries the receipt and state roots once staged
  crypto::Hash256 block_hash{};
  storage::WriteBatch batch;
  std::vector<Receipt> receipts;
};

Status Node::StageBlock(StagedBlock* staged) {
  if (fault::FaultInjector::Global().ShouldFail("fault.chain.apply_block")) {
    return Status::Unavailable("node: injected apply-block failure");
  }
  Block& block = staged->stored;
  {
    metrics::ScopedLatencyTimer timer(NodeMetrics::Get().block_execute_latency);
    auto executed =
        executor_.ExecuteBlock(block.transactions, engines_, state_.get());
    if (!executed.ok()) {
      state_->Discard();  // partial overlay from failed groups
      return executed.status();
    }
    staged->receipts = std::move(*executed);
  }

  // Receipts, the tx→block index, the state writes and the block itself
  // land in ONE batch: the store applies a batch atomically (single WAL
  // record), so any write failure — injected or real — leaves the chain
  // exactly at the previous block.
  uint8_t height_be[8];
  StoreBe64(height_be, block.header.height);
  std::vector<Bytes> receipt_leaves;
  receipt_leaves.reserve(staged->receipts.size());
  for (size_t i = 0; i < staged->receipts.size(); ++i) {
    const crypto::Hash256 tx_hash = block.transactions[i].Hash();
    staged->receipts[i].tx_hash = tx_hash;
    receipt_leaves.push_back(staged->receipts[i].Serialize());
    staged->batch.Put(ReceiptKey(tx_hash), receipt_leaves.back());
    staged->batch.Put(TxIndexKey(tx_hash), Bytes(height_be, height_be + 8));
  }
  block.header.receipt_root = crypto::MerkleTree(receipt_leaves).Root();
  state_->StageCommit(&staged->batch, &block.header.state_root);
  staged->block_hash = block.header.Hash();
  return blocks_->StageAppend(block.header.height, staged->block_hash,
                              block.Serialize(), &staged->batch);
}

Status Node::CommitGroup(std::vector<std::unique_ptr<StagedBlock>>* group,
                         size_t* finalized, std::vector<Receipt>* receipts) {
  *finalized = 0;
  for (auto& block : *group) {
    CONFIDE_RETURN_NOT_OK(kv_->Write(block->batch));
    // The batch landed; finalize immediately so the in-memory view
    // (roots, height cursors, tip) never trails what the store holds.
    const crypto::Hash256& new_root = block->stored.header.state_root;
    state_->FinalizeCommit(new_root);
    blocks_->FinalizeAppend();
    last_block_hash_ = block->block_hash;
    // The commit step is the only writer of the backing store, so a
    // snapshot taken here sees exactly the committed prefix.
    MaybeCheckpointTip(blocks_->NextHeight(), block->block_hash, new_root);
    const size_t txs = block->stored.transactions.size();
    NodeMetrics::Get().blocks->Increment();
    NodeMetrics::Get().block_txs->Increment(txs);
    NodeMetrics::Get().txs_per_block->Observe(double(txs));
    for (Receipt& receipt : block->receipts) receipts->push_back(std::move(receipt));
    ++*finalized;
  }
  // One device write + fsync covers the whole group (group commit):
  // consecutive blocks' batches share a single ~6 ms SSD flush, and the
  // WAL counts the coalesced appends under storage.wal.group_commit.batched.
  // A failed fsync is reported, never undone: the finalized blocks are in
  // the store, and re-executing them would apply them twice.
  CommitWriteWait(options_.commit_write_latency_ns);
  return options_.sync_commits ? kv_->Sync() : Status::OK();
}

Result<std::vector<Receipt>> Node::ApplyBlock(const Block& block) {
  if (block.header.height != blocks_->NextHeight()) {
    return Status::InvalidArgument("node: block height mismatch");
  }
  if (block.header.height > 0 && block.header.parent_hash != last_block_hash_) {
    return Status::InvalidArgument("node: parent hash mismatch");
  }
  std::vector<std::unique_ptr<StagedBlock>> group;
  group.push_back(std::make_unique<StagedBlock>());
  group[0]->stored = block;
  std::vector<Receipt> receipts;
  size_t finalized = 0;
  Status status = StageBlock(group[0].get());
  if (status.ok()) status = CommitGroup(&group, &finalized, &receipts);
  if (!status.ok()) {
    state_->RollbackPending();
    blocks_->RollbackStaged();
    return status;
  }
  return receipts;
}

Result<std::vector<Receipt>> Node::RunPipelined() {
  // Depth 0 (or no pool to host the stage tasks) is the degenerate
  // pipeline: stages 1 and 3 run inline on this thread and every commit
  // group holds one block.
  const bool threaded = options_.pipeline_depth > 0 && pool_ != nullptr;
  const uint32_t depth = threaded ? options_.pipeline_depth : 1;
  const PipelineMetrics& pm = PipelineMetrics::Get();

  // Transactions a previous failed run returned to the verified pool
  // re-enter the stream ahead of everything newer — stage 1 only feeds
  // from the unverified pool, so without this they would be stranded
  // (re-verification is cheap and keeps a single stage-1 source).
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    for (auto it = verified_.rbegin(); it != verified_.rend(); ++it) {
      unverified_.push_front(std::move(*it));
    }
    verified_.clear();
    NodeMetrics::Get().verified_pool->Set(0);
    NodeMetrics::Get().unverified_pool->Set(int64_t(unverified_.size()));
  }

  // Inline, stage 1 verifies the whole pool before stage 2 packs, so the
  // verified queue must hold all of it.
  BoundedQueue<Transaction> verified_queue(
      threaded ? size_t(depth) * 64 : std::numeric_limits<size_t>::max());
  BoundedQueue<std::unique_ptr<StagedBlock>> staged_queue(depth);

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status error = Status::OK();
  auto fail = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (error.ok()) error = std::move(status);
    }
    failed.store(true);
    verified_queue.Close();
    staged_queue.Close();
  };

  // Transactions stranded by a failed commit group; re-queued at unwind.
  std::mutex aborted_mu;
  std::deque<Transaction> aborted_txs;

  // --- Stage 1 step: batched pre-verification ----------------------------
  // Swaps out the unverified pool and pushes its valid transactions in
  // order; false once the pool is empty or the run failed.
  auto verify_step = [&]() -> bool {
    try {
      std::deque<Transaction> pending;
      {
        std::lock_guard<std::mutex> lock(pool_mutex_);
        pending.swap(unverified_);
        NodeMetrics::Get().unverified_pool->Set(0);
      }
      if (pending.empty()) return false;
      if (fault::FaultInjector::Global().ShouldFail(
              "fault.chain.pipeline.preverify")) {
        // Return the whole batch: an injected verifier outage must not
        // drop transactions.
        std::lock_guard<std::mutex> lock(pool_mutex_);
        for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
          unverified_.push_front(std::move(*it));
        }
        fail(Status::Unavailable("pipeline: injected pre-verify failure"));
        return false;
      }
      // Threaded, verify in small chunks, not the whole swap: downstream
      // stages start on the first chunk while later ones are still in the
      // verifier, which is where the verify/execute overlap comes from.
      // Inline nothing overlaps, so the whole swap is one batch.
      constexpr size_t kPreVerifyChunk = 16;
      const size_t chunk = threaded ? kPreVerifyChunk : pending.size();
      while (!pending.empty()) {
        metrics::ScopedLatencyTimer timer(pm.preverify_latency);
        metrics::ScopedLatencyTimer batch_timer(
            NodeMetrics::Get().preverify_batch_latency);
        size_t n = std::min(chunk, pending.size());
        std::vector<Transaction> txs(
            std::make_move_iterator(pending.begin()),
            std::make_move_iterator(pending.begin() + ptrdiff_t(n)));
        pending.erase(pending.begin(), pending.begin() + ptrdiff_t(n));
        std::vector<uint8_t> valid(txs.size(), 0);
        PreVerifyBatch(&txs, &valid);
        for (size_t i = 0; i < txs.size(); ++i) {
          if (!valid[i]) continue;
          if (!verified_queue.Push(&txs[i])) {
            // Shutdown mid-batch: return the unconsumed tail — verified
            // remainder of this chunk first, then the unverified rest.
            std::lock_guard<std::mutex> lock(pool_mutex_);
            for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
              unverified_.push_front(std::move(*it));
            }
            for (size_t j = txs.size(); j-- > i;) {
              if (valid[j]) unverified_.push_front(std::move(txs[j]));
            }
            return false;
          }
          pm.verified_queue->Set(int64_t(verified_queue.Size()));
        }
      }
      return true;
    } catch (...) {
      fail(Status::Internal("pipeline: pre-verify stage threw"));
      return false;
    }
  };

  // --- Stage 3 step: group commit + finalize -----------------------------
  // False once the run failed; the group's uncommitted transactions are
  // then set aside for the unwind.
  std::vector<Receipt> committed_receipts;
  auto commit_step = [&](std::vector<std::unique_ptr<StagedBlock>>* group) {
    try {
      metrics::ScopedLatencyTimer timer(pm.commit_latency);
      size_t finalized = 0;
      Status status =
          fault::FaultInjector::Global().ShouldFail("fault.chain.pipeline.commit")
              ? Status::Unavailable("pipeline: injected commit failure")
              : CommitGroup(group, &finalized, &committed_receipts);
      pm.blocks->Increment(finalized);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(aborted_mu);
        for (size_t b = finalized; b < group->size(); ++b) {
          for (Transaction& tx : (*group)[b]->stored.transactions) {
            aborted_txs.push_back(std::move(tx));
          }
        }
        fail(status);
        return false;
      }
      pm.commit_group_blocks->Observe(double(group->size()));
      return true;
    } catch (...) {
      fail(Status::Internal("pipeline: commit stage threw"));
      return false;
    }
  };

  std::future<void> stage1;
  std::future<void> stage3;
  if (threaded) {
    stage1 = pool_->Submit([&] {
      while (!failed.load() && verify_step()) {
      }
      verified_queue.Close();
    });
    stage3 = pool_->Submit([&] {
      std::unique_ptr<StagedBlock> first;
      while (staged_queue.Pop(&first)) {
        // Drain whatever else is already staged: these blocks commit as
        // one group and their WAL records share a single fsync.
        std::vector<std::unique_ptr<StagedBlock>> group;
        group.push_back(std::move(first));
        std::unique_ptr<StagedBlock> more;
        while (group.size() < depth && staged_queue.TryPop(&more)) {
          group.push_back(std::move(more));
        }
        pm.staged_queue->Set(int64_t(staged_queue.Size()));
        if (!commit_step(&group)) break;
      }
    });
  }
  auto next_verified = [&](Transaction* tx) {
    if (threaded) {
      if (!verified_queue.Pop(tx)) return false;  // stage 1 done, drained
    } else {
      while (!verified_queue.TryPop(tx)) {
        if (failed.load() || !verify_step()) return false;
      }
    }
    pm.verified_queue->Set(int64_t(verified_queue.Size()));
    return true;
  };

  // --- Stage 2: pack + execute + stage (this thread) ---------------------
  // Serial across blocks by construction: block N+1's header chains to
  // block N's state/receipt roots, so proposal cannot overlap execution
  // of the same stream — but it overlaps stage 1 and stage 3 freely.
  uint64_t height = blocks_->NextStagedHeight();
  crypto::Hash256 parent = last_block_hash_;
  std::optional<Transaction> carry;
  std::vector<Transaction> failed_block_txs;

  while (!failed.load()) {
    auto staged = std::make_unique<StagedBlock>();
    staged->stored = PackBlock(height, parent, next_verified, &carry);
    if (staged->stored.transactions.empty()) break;  // pools drained

    uint64_t stall_ns = 0;
    if (fault::FaultInjector::Global().ShouldFail("fault.chain.pipeline.stall",
                                                  &stall_ns)) {
      // A stall is a delay, not a corruption: the pipeline must absorb it
      // (backpressure) without reordering or dropping anything.
      pm.stalls->Increment();
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(stall_ns > 0 ? stall_ns : 1'000'000));
      fault::NoteRecovered("fault.chain.pipeline.stall");
    }
    Status status;
    if (fault::FaultInjector::Global().ShouldFail(
            "fault.chain.pipeline.execute")) {
      status = Status::Unavailable("pipeline: injected execute failure");
    } else {
      metrics::ScopedLatencyTimer timer(pm.execute_latency);
      status = StageBlock(staged.get());
    }
    if (!status.ok()) {
      failed_block_txs = std::move(staged->stored.transactions);
      fail(std::move(status));
      break;
    }
    parent = staged->block_hash;
    ++height;
    if (!threaded) {
      std::vector<std::unique_ptr<StagedBlock>> group;
      group.push_back(std::move(staged));
      if (!commit_step(&group)) break;
      continue;
    }
    if (!staged_queue.Push(&staged)) {
      // Commit stage failed and closed the queue; this block never commits.
      failed_block_txs = std::move(staged->stored.transactions);
      break;
    }
    pm.staged_queue->Set(int64_t(staged_queue.Size()));
  }
  staged_queue.Close();   // lets stage 3 drain what was validly staged
  verified_queue.Close();  // stops stage 1 if it is still producing
  if (threaded) {
    stage3.get();
    stage1.get();
  }

  // The committed prefix is final; everything staged past it unwinds.
  state_->RollbackPending();
  blocks_->RollbackStaged();

  if (failed.load()) {
    // Re-queue every transaction that reached the pipeline but did not
    // commit, oldest first, so a retry replays them in order:
    // commit-stage casualties precede still-staged blocks, which precede
    // the block that failed in stage 2, the carry-over, and the verified
    // backlog.
    std::deque<Transaction> requeue;
    {
      std::lock_guard<std::mutex> lock(aborted_mu);
      for (Transaction& tx : aborted_txs) requeue.push_back(std::move(tx));
    }
    std::unique_ptr<StagedBlock> orphan;
    while (staged_queue.TryPop(&orphan)) {
      for (Transaction& tx : orphan->stored.transactions) {
        requeue.push_back(std::move(tx));
      }
    }
    for (Transaction& tx : failed_block_txs) requeue.push_back(std::move(tx));
    if (carry.has_value()) requeue.push_back(std::move(*carry));
    Transaction leftover;
    while (verified_queue.TryPop(&leftover)) requeue.push_back(std::move(leftover));
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
        verified_.push_front(std::move(*it));
      }
      NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
    }
    std::lock_guard<std::mutex> lock(error_mu);
    return error;
  }
  return committed_receipts;
}

Result<Receipt> Node::GetReceipt(const crypto::Hash256& tx_hash) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes wire, kv_->Get(ReceiptKey(tx_hash)));
  return Receipt::Deserialize(wire);
}

Result<TxProof> Node::ProveTransaction(const crypto::Hash256& tx_hash) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes height_bytes, kv_->Get(TxIndexKey(tx_hash)));
  if (height_bytes.size() != 8) return Status::Corruption("node: bad tx index");
  uint64_t height = LoadBe64(height_bytes.data());
  CONFIDE_ASSIGN_OR_RETURN(Bytes block_wire, blocks_->GetByHeight(height));
  CONFIDE_ASSIGN_OR_RETURN(Block block, Block::Deserialize(block_wire));

  std::vector<Bytes> leaves;
  size_t index = block.transactions.size();
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    leaves.push_back(block.transactions[i].Serialize());
    if (block.transactions[i].Hash() == tx_hash) index = i;
  }
  if (index == block.transactions.size()) {
    return Status::Corruption("node: tx index points to wrong block");
  }
  crypto::MerkleTree tree(leaves);
  TxProof proof;
  proof.header = block.header;
  proof.tx_wire = leaves[index];
  CONFIDE_ASSIGN_OR_RETURN(proof.proof, tree.Prove(index));
  return proof;
}

bool Node::VerifyTxProof(const TxProof& proof) {
  return crypto::MerkleTree::Verify(proof.header.tx_root, proof.tx_wire,
                                    proof.proof);
}

size_t Node::UnverifiedPoolSize() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return unverified_.size();
}

size_t Node::VerifiedPoolSize() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return verified_.size();
}

}  // namespace confide::chain
