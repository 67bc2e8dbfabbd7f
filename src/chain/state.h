/// \file state.h
/// \brief Contract state database: per-contract namespaced KV access with
/// block-atomic commit and a state root.
///
/// Two implementations share the StateDb interface:
///  * CommitStateDb — the node's canonical state over a KvStore; buffered
///    writes land atomically per block and fold into a chained state root.
///  * OverlayStateDb — a scratch view for one parallel execution group;
///    reads fall through to the parent, writes stay local until merged
///    (or are thrown away when the transaction fails).

#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "chain/types.h"
#include "storage/kv_store.h"

namespace confide::chain {

/// \brief Abstract contract-state access used by execution engines.
class StateDb {
 public:
  virtual ~StateDb() = default;

  /// \brief Namespaced key: <contract hex>/<raw key>.
  static std::string StateKey(const Address& contract, ByteView key);

  virtual Result<Bytes> Get(const Address& contract, ByteView key) const = 0;
  virtual void Put(const Address& contract, ByteView key, Bytes value) = 0;

  /// \brief Batched point reads (the SDM read-set prefetch / enclave
  /// batch ocall): one Result per (contract, key), in request order;
  /// absent keys come back NotFound. The base implementation loops Get;
  /// CommitStateDb overrides it to resolve every store-level miss against
  /// one pinned kv snapshot instead of N locked point reads.
  virtual std::vector<Result<Bytes>> GetMany(
      const std::vector<std::pair<Address, Bytes>>& keys) const;

  /// \brief Makes buffered writes durable/visible at this layer's parent.
  virtual Status Commit() = 0;

  /// \brief Drops buffered writes.
  virtual void Discard() = 0;

  /// \brief Buffered write count (tests).
  virtual size_t PendingWrites() const = 0;

  /// \brief True when `key` of `contract` holds a value in durable state:
  /// below every overlay and every staged block, where no discarded
  /// transaction, rerun group or unwound block can take it back.
  virtual bool IsDurable(const Address& contract, ByteView key) const = 0;
};

/// \brief Canonical node state over a KvStore.
///
/// Supports the pipelined block lifecycle with *staged generations*: each
/// StageCommit moves the buffered overlay into a pending generation that
/// stays readable (block N+1 executes against block N's staged-but-not-
/// yet-durable writes) until the matching FinalizeCommit — called in
/// stage order once the generation's batch landed — folds it into the
/// durable root, or RollbackPending() drops every in-flight generation
/// after a commit failure. The serial path is the depth-1 special case.
class CommitStateDb : public StateDb {
 public:
  explicit CommitStateDb(std::shared_ptr<storage::KvStore> kv) : kv_(std::move(kv)) {}

  Result<Bytes> Get(const Address& contract, ByteView key) const override;
  std::vector<Result<Bytes>> GetMany(
      const std::vector<std::pair<Address, Bytes>>& keys) const override;
  void Put(const Address& contract, ByteView key, Bytes value) override;
  Status Commit() override;
  void Discard() override;
  size_t PendingWrites() const override;
  bool IsDurable(const Address& contract, ByteView key) const override;

  /// \brief Stages the buffered writes into `batch` and a new pending
  /// generation, and reports the state root they chain to (from the
  /// newest staged generation, so overlapped blocks chain correctly),
  /// without touching the store. Once the batch is durably written call
  /// FinalizeCommit(new_root); on a failed write call RollbackPending()
  /// and re-execute. Lets the node fold state, receipts and block data
  /// into one atomic KV write.
  void StageCommit(storage::WriteBatch* batch, crypto::Hash256* new_root);

  /// \brief Completes the *oldest* staged generation after its batch
  /// landed: drops its pending values (the store now serves them) and
  /// adopts `new_root` as the durable root. Generations must finalize in
  /// stage order.
  void FinalizeCommit(const crypto::Hash256& new_root);

  /// \brief Drops every staged-but-unfinalized generation and the overlay;
  /// visible state reverts to the durable root. The unwind path when a
  /// pipelined commit fails downstream of StageCommit.
  void RollbackPending();

  /// \brief Staged-but-unfinalized generations (tests).
  size_t PendingGenerations() const;

  /// \brief Chained digest over all *durably committed* writes. (A
  /// production system would use a Merkle-Patricia trie; the chained
  /// digest preserves the state-continuity property consensus checks,
  /// §3.3.)
  crypto::Hash256 StateRoot() const;

  /// \brief Adopts `root` as the durable root and drops the overlay and
  /// every pending generation. The root is chained (not recomputable from
  /// the store), so restart recovery and state sync restore it from the
  /// tip block header after the backing store is in place.
  void RestoreRoot(const crypto::Hash256& root);

  storage::KvStore* backing() { return kv_.get(); }

 private:
  struct PendingGeneration {
    std::map<std::string, Bytes> values;  ///< readable until finalized
    crypto::Hash256 root;                 ///< root this generation chains to
  };

  std::shared_ptr<storage::KvStore> kv_;
  mutable std::mutex mutex_;
  std::map<std::string, Bytes> overlay_;
  std::deque<PendingGeneration> pending_;  ///< oldest first
  crypto::Hash256 state_root_{};           ///< durable root
  crypto::Hash256 staged_root_{};          ///< root incl. pending generations
};

/// \brief Scratch overlay for one transaction/group; Commit() merges into
/// the parent, Discard() drops.
class OverlayStateDb : public StateDb {
 public:
  explicit OverlayStateDb(StateDb* parent) : parent_(parent) {}

  Result<Bytes> Get(const Address& contract, ByteView key) const override;
  void Put(const Address& contract, ByteView key, Bytes value) override;
  Status Commit() override;
  void Discard() override { writes_.clear(); }
  size_t PendingWrites() const override { return writes_.size(); }
  bool IsDurable(const Address& contract, ByteView key) const override {
    return parent_->IsDurable(contract, key);
  }

 private:
  StateDb* parent_;
  // Keyed by (contract, raw key) so merges replay through parent->Put.
  std::map<std::string, std::pair<std::pair<Address, Bytes>, Bytes>> writes_;
};

}  // namespace confide::chain
