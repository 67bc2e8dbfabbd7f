#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string_view>

#include "common/crc32.h"
#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "crypto/drbg.h"
#include "storage/block_store.h"
#include "storage/bloom.h"
#include "storage/cache.h"
#include "storage/lsm_store.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace confide::storage {
namespace {

LsmOptions VolatileOptions() {
  LsmOptions options;
  options.memtable_flush_bytes = 1 << 20;
  return options;
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926, the classic check value.
  EXPECT_EQ(Crc32(AsByteView("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(ByteView{}), 0u); }

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

TEST(MemTableTest, PutGetOverwrite) {
  MemTable mem;
  mem.Put("a", ToBytes(std::string_view("1")));
  mem.Put("b", ToBytes(std::string_view("2")));
  mem.Put("a", ToBytes(std::string_view("3")));
  Lookup a = mem.Get("a");
  ASSERT_EQ(a.state, LookupState::kFoundValue);
  EXPECT_EQ(ToString(*a.value), "3");
  EXPECT_EQ(mem.entry_count(), 2u);
  EXPECT_EQ(mem.Get("zzz").state, LookupState::kNotFound);
}

TEST(MemTableTest, TombstoneIsDistinctFromAbsent) {
  MemTable mem;
  mem.Put("gone", std::nullopt);
  Lookup hit = mem.Get("gone");
  EXPECT_TRUE(hit.found());  // key is present...
  EXPECT_EQ(hit.state, LookupState::kFoundTombstone);  // ...as a tombstone
  EXPECT_EQ(hit.value, nullptr);
}

TEST(MemTableTest, ForEachVisitsInKeyOrder) {
  MemTable mem;
  crypto::Drbg rng(3);
  for (int i = 0; i < 500; ++i) {
    mem.Put(testutil::Numbered("key-", rng.NextBounded(1000)),
            ToBytes(std::string_view("v")));
  }
  std::string prev;
  bool first = true;
  mem.ForEach([&](const std::string& key, const std::optional<Bytes>&) {
    if (!first) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    first = false;
  });
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "confide_wal_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "test.wal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    WriteBatch b1;
    b1.Put("k1", ToBytes(std::string_view("v1")));
    b1.Delete("k2");
    ASSERT_TRUE((*wal)->Append(b1).ok());
    WriteBatch b2;
    b2.Put("k3", ToBytes(std::string_view("v3")));
    ASSERT_TRUE((*wal)->Append(b2).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<WriteBatch> replayed;
  ASSERT_TRUE(Wal::Replay(path_, [&](const WriteBatch& b) {
                replayed.push_back(b);
              }).ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].ops().size(), 2u);
  EXPECT_EQ(replayed[0].ops()[0].key, "k1");
  EXPECT_EQ(replayed[0].ops()[1].type, WriteBatch::OpType::kDelete);
  EXPECT_EQ(replayed[1].ops()[0].key, "k3");
}

TEST_F(WalTest, MissingFileIsEmptyLog) {
  int count = 0;
  ASSERT_TRUE(Wal::Replay(path_, [&](const WriteBatch&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(WalTest, TornTailStopsSilently) {
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    WriteBatch b;
    b.Put("k", ToBytes(std::string_view("v")));
    ASSERT_TRUE((*wal)->Append(b).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Simulate a crash mid-append: write a valid header with missing body.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  uint8_t torn[8] = {1, 2, 3, 4, 200, 0, 0, 0};
  std::fwrite(torn, 1, 8, f);
  std::fclose(f);

  int count = 0;
  ASSERT_TRUE(Wal::Replay(path_, [&](const WriteBatch&) { ++count; }).ok());
  EXPECT_EQ(count, 1);  // the intact record only
}

TEST_F(WalTest, CorruptRecordReportsCorruption) {
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    WriteBatch b;
    b.Put("key-one", ToBytes(std::string_view("value-one")));
    ASSERT_TRUE((*wal)->Append(b).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Flip a payload byte in place.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  std::fseek(f, 12, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 12, SEEK_SET);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  Status status = Wal::Replay(path_, [](const WriteBatch&) {});
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(WalTest, ResetTruncatesDurablyAndReplaysOnlyNewRecords) {
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    WriteBatch old_batch;
    old_batch.Put("old", ToBytes(std::string_view("stale")));
    ASSERT_TRUE((*wal)->Append(old_batch).ok());
    ASSERT_TRUE((*wal)->Sync().ok());

    ASSERT_TRUE((*wal)->Reset().ok());
    // The truncation must be on disk immediately, not buffered: a crash
    // right after Reset must not resurrect the stale record.
    EXPECT_EQ(std::filesystem::file_size(path_), 0u);

    WriteBatch new_batch;
    new_batch.Put("new", ToBytes(std::string_view("fresh")));
    ASSERT_TRUE((*wal)->Append(new_batch).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<WriteBatch> replayed;
  ASSERT_TRUE(Wal::Replay(path_, [&](const WriteBatch& b) {
                replayed.push_back(b);
              }).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].ops()[0].key, "new");
}

TEST_F(WalTest, ResetFaultSiteSurfacesCleanly) {
  auto wal = Wal::Open(path_);
  ASSERT_TRUE(wal.ok());
  fault::FaultPlan plan(1);
  plan.Arm("fault.storage.wal_reset",
           fault::Trigger{.one_shot = true});
  Status s = (*wal)->Reset();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*wal)->Reset().ok());  // retry succeeds
}

TEST_F(WalTest, MidFileCorruptionIsNotMistakenForTornTail) {
  // Three records; corrupt the middle one. Replay must stop with
  // Corruption (a mid-file flip is tampering/rot, not a crash artifact)
  // after applying only the first record.
  std::vector<uint64_t> offsets;
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Sync().ok());
      offsets.push_back(std::filesystem::file_size(path_));
      WriteBatch b;
      b.Put(testutil::Numbered("key", i), ToBytes(std::string_view("value")));
      ASSERT_TRUE((*wal)->Append(b).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Flip one payload byte of record 1 (skip its 8-byte header).
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  long flip_at = long(offsets[1]) + 8 + 2;
  std::fseek(f, flip_at, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, flip_at, SEEK_SET);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  int count = 0;
  ReplayStats stats;
  Status status =
      Wal::Replay(path_, [&](const WriteBatch&) { ++count; }, &stats);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_FALSE(stats.torn_tail);  // corruption, not a torn tail
}

TEST_F(WalTest, TruncationAtEveryByteOfLastRecordReplaysThePrefix) {
  uint64_t full_size = 0;
  uint64_t second_offset = 0;
  {
    auto wal = Wal::Open(path_);
    ASSERT_TRUE(wal.ok());
    WriteBatch b1;
    b1.Put("first", ToBytes(std::string_view("record")));
    ASSERT_TRUE((*wal)->Append(b1).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    second_offset = std::filesystem::file_size(path_);
    WriteBatch b2;
    b2.Put("second", ToBytes(std::string_view("record")));
    ASSERT_TRUE((*wal)->Append(b2).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    full_size = std::filesystem::file_size(path_);
  }
  // Crash at every possible byte boundary inside the last record.
  for (uint64_t size = second_offset; size < full_size; ++size) {
    std::filesystem::copy_file(path_, dir_ / "cut.wal",
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(dir_ / "cut.wal", size);
    int count = 0;
    ReplayStats stats;
    Status status = Wal::Replay((dir_ / "cut.wal").string(),
                                [&](const WriteBatch&) { ++count; }, &stats);
    ASSERT_TRUE(status.ok()) << "size=" << size << ": " << status.ToString();
    EXPECT_EQ(count, 1) << "size=" << size;
    EXPECT_EQ(stats.records, 1u) << "size=" << size;
    EXPECT_EQ(stats.torn_tail, size > second_offset) << "size=" << size;
  }
}

TEST_F(WalTest, BatchCodecRoundTrip) {
  WriteBatch batch;
  batch.Put("alpha", ToBytes(std::string_view("1")));
  batch.Delete("beta");
  batch.Put("", Bytes{});  // empty key and value are legal
  auto decoded = DecodeBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ops().size(), 3u);
  EXPECT_EQ(decoded->ops()[0].key, "alpha");
  EXPECT_EQ(decoded->ops()[1].type, WriteBatch::OpType::kDelete);
  EXPECT_TRUE(decoded->ops()[2].key.empty());
}

// ---------------------------------------------------------------------------
// LSM store
// ---------------------------------------------------------------------------


TEST_F(WalTest, GroupCommitCountersTrackCoalescedAppends) {
  auto syncs_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "storage.wal.group_commit.syncs");
  auto batched_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "storage.wal.group_commit.batched");
  auto wal = Wal::Open(path_);
  ASSERT_TRUE(wal.ok());
  WriteBatch b;
  b.Put("k", ToBytes(std::string_view("v")));
  // Three appends coalesce under one fsync: two of them rode along.
  ASSERT_TRUE((*wal)->Append(b).ok());
  ASSERT_TRUE((*wal)->Append(b).ok());
  ASSERT_TRUE((*wal)->Append(b).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  auto snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("storage.wal.group_commit.syncs"), syncs_before + 1);
  EXPECT_EQ(snap.counter("storage.wal.group_commit.batched"), batched_before + 2);

  // A lone append batches nothing further.
  ASSERT_TRUE((*wal)->Append(b).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("storage.wal.group_commit.syncs"), syncs_before + 2);
  EXPECT_EQ(snap.counter("storage.wal.group_commit.batched"), batched_before + 2);

  // A sync with nothing pending is a no-op for the group-commit ledger.
  ASSERT_TRUE((*wal)->Sync().ok());
  snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("storage.wal.group_commit.syncs"), syncs_before + 2);
  EXPECT_EQ(snap.counter("storage.wal.group_commit.batched"), batched_before + 2);
}

TEST(LsmStoreTest, SyncIsNoOpWithoutWalAndFsyncsWithOne) {
  // Volatile store: Sync succeeds trivially.
  auto volatile_store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(volatile_store.ok());
  EXPECT_TRUE((*volatile_store)->Sync().ok());

  // WAL-backed store: Sync reaches the WAL fsync path.
  auto dir = std::filesystem::temp_directory_path() / "confide_lsm_sync";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  LsmOptions options = VolatileOptions();
  options.wal_dir = dir.string();
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto syncs_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "storage.wal.group_commit.syncs");
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("v"))).ok());
  ASSERT_TRUE((*store)->Sync().ok());
  EXPECT_EQ(metrics::MetricsRegistry::Global().Snapshot().counter(
                "storage.wal.group_commit.syncs"),
            syncs_before + 1);
  std::filesystem::remove_all(dir);
}

TEST(LsmStoreTest, BasicPutGetDelete) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("v"))).ok());
  auto got = (*store)->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v");
  ASSERT_TRUE((*store)->Delete("k").ok());
  EXPECT_TRUE((*store)->Get("k").status().IsNotFound());
}

TEST(LsmStoreTest, WriteBatchAtomicView) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.Put(testutil::Numbered("key-", i), ToBytes(std::to_string(i * 10)));
  }
  ASSERT_TRUE((*store)->Write(batch).ok());
  for (int i = 0; i < 100; ++i) {
    auto got = (*store)->Get(testutil::Numbered("key-", i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToString(*got), std::to_string(i * 10));
  }
}

TEST(LsmStoreTest, FlushMovesDataToRunsAndLookupsStillWork) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Put(testutil::Numbered("k", i), ToBytes(std::to_string(i))).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->RunCount(), 1u);
  for (int i = 0; i < 50; ++i) {
    auto got = (*store)->Get(testutil::Numbered("k", i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToString(*got), std::to_string(i));
  }
}

TEST(LsmStoreTest, NewerWriteShadowsFlushedRun) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("old"))).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("new"))).ok());
  EXPECT_EQ(ToString(*(*store)->Get("k")), "new");

  // Tombstone over a flushed value.
  ASSERT_TRUE((*store)->Delete("k").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_TRUE((*store)->Get("k").status().IsNotFound());
}

TEST(LsmStoreTest, CompactionMergesRunsAndDropsTombstones) {
  LsmOptions options = VolatileOptions();
  options.max_runs = 2;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      std::string key = testutil::Numbered("k", i);
      if (round == 3 && i < 5) {
        ASSERT_TRUE((*store)->Delete(key).ok());
      } else {
        ASSERT_TRUE((*store)->Put(key, ToBytes(std::to_string(round))).ok());
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  EXPECT_LE((*store)->RunCount(), 2u);
  for (int i = 0; i < 10; ++i) {
    auto got = (*store)->Get(testutil::Numbered("k", i));
    if (i < 5) {
      EXPECT_TRUE(got.status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(ToString(*got), "3");
    }
  }
}

TEST(LsmStoreTest, IteratorSeesMergedSnapshot) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", ToBytes(std::string_view("1"))).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("b", ToBytes(std::string_view("2"))).ok());
  ASSERT_TRUE((*store)->Put("a", ToBytes(std::string_view("1b"))).ok());
  ASSERT_TRUE((*store)->Delete("c").ok());

  auto it = (*store)->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "a");
  EXPECT_EQ(ToString(it->value()), "1b");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");
  it->Next();
  EXPECT_FALSE(it->Valid());

  // Snapshot isolation: later writes invisible to the open iterator.
  ASSERT_TRUE((*store)->Put("z", ToBytes(std::string_view("3"))).ok());
  it->SeekToFirst();
  int count = 0;
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 2);
}

TEST(LsmStoreTest, IteratorSeek) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  for (char c = 'a'; c <= 'f'; ++c) {
    ASSERT_TRUE((*store)->Put(std::string(1, c), ToBytes(std::string(1, c))).ok());
  }
  auto it = (*store)->NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "c");
  it->Seek("cc");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST(LsmStoreTest, WalRecoveryRestoresState) {
  auto dir = std::filesystem::temp_directory_path() / "confide_lsm_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  LsmOptions options = VolatileOptions();
  options.wal_dir = dir.string();
  {
    auto store = LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("persist", ToBytes(std::string_view("me"))).ok());
    ASSERT_TRUE((*store)->Delete("ghost").ok());
    // Store dropped without any clean shutdown: WAL is the only copy.
  }
  {
    auto store = LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok());
    auto got = (*store)->Get("persist");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToString(*got), "me");
    EXPECT_TRUE((*store)->Get("ghost").status().IsNotFound());
  }
  std::filesystem::remove_all(dir);
}

TEST(LsmStoreTest, RandomizedAgainstReferenceMap) {
  auto store = LsmKvStore::Open([&] {
    LsmOptions options;
    options.memtable_flush_bytes = 2048;  // force frequent flushes
    options.max_runs = 3;
    return options;
  }());
  ASSERT_TRUE(store.ok());
  std::map<std::string, Bytes> reference;
  crypto::Drbg rng(77);
  for (int i = 0; i < 3000; ++i) {
    std::string key = testutil::Numbered("k", rng.NextBounded(200));
    if (rng.NextBounded(4) == 0) {
      ASSERT_TRUE((*store)->Delete(key).ok());
      reference.erase(key);
    } else {
      Bytes value = rng.Generate(1 + rng.NextBounded(40));
      ASSERT_TRUE((*store)->Put(key, value).ok());
      reference[key] = value;
    }
  }
  for (const auto& [key, value] : reference) {
    auto got = (*store)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  // And absent keys really are absent.
  for (int i = 200; i < 220; ++i) {
    EXPECT_TRUE((*store)->Get(testutil::Numbered("k", i)).status().IsNotFound());
  }
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(testutil::Numbered("bloom-key-", i));
  std::vector<std::string_view> views(keys.begin(), keys.end());
  BloomFilter filter = BloomFilter::Build(views, 10);
  for (const std::string& key : keys) {
    EXPECT_TRUE(filter.MayContain(key)) << key;
  }
}

TEST(BloomFilterTest, FalsePositiveRateWithinBound) {
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(testutil::Numbered("bloom-key-", i));
  std::vector<std::string_view> views(keys.begin(), keys.end());
  BloomFilter filter = BloomFilter::Build(views, 10);
  int false_positives = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (filter.MayContain(testutil::Numbered("absent-", i))) ++false_positives;
  }
  // Theoretical FPR at 10 bits/key is ~0.8%; 2% leaves generous margin.
  EXPECT_LT(false_positives, kProbes / 50)
      << "FPR " << 100.0 * false_positives / kProbes << "%";
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  std::vector<std::string_view> keys = {"alpha", "beta", "gamma"};
  BloomFilter filter = BloomFilter::Build(keys, 10);
  auto restored = BloomFilter::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->bit_count(), filter.bit_count());
  for (std::string_view key : keys) EXPECT_TRUE(restored->MayContain(key));
}

TEST(BloomFilterTest, EmptyFilterAnswersMaybe) {
  BloomFilter filter;
  EXPECT_TRUE(filter.empty());
  EXPECT_TRUE(filter.MayContain("anything"));
  EXPECT_TRUE(BloomFilter::Deserialize(ByteView{}).status().code() ==
              StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Row cache
// ---------------------------------------------------------------------------

TEST(RowCacheTest, InsertGetAndValueMatch) {
  RowCache cache(4096);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Get("k"), nullptr);
  cache.Insert("k", ToBytes(std::string_view("value")));
  const RowCache::Row* row = cache.Get("k");
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->value.has_value());
  EXPECT_EQ(ToString(*row->value), "value");
}

TEST(RowCacheTest, NegativeEntryRecordsConfirmedMiss) {
  RowCache cache(4096);
  cache.Insert("missing", std::nullopt);
  const RowCache::Row* row = cache.Get("missing");
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->value.has_value());
}

TEST(RowCacheTest, AdmissionRejectsOversizedRows) {
  RowCache cache(1024);  // admission bound: 1024 / 8 = 128 bytes per row
  cache.Insert("big", Bytes(512));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  cache.Insert("small", Bytes(16));
  EXPECT_NE(cache.Get("small"), nullptr);
}

TEST(RowCacheTest, EvictsLruPastByteBudget) {
  RowCache cache(1024);
  // Each row charges ~64 (overhead) + key + 32 value bytes ≈ 98; ten rows
  // blow the 1024 budget, so the oldest must go.
  for (int i = 0; i < 10; ++i) {
    cache.Insert(testutil::Numbered("evict-", i), Bytes(32));
  }
  EXPECT_LE(cache.bytes(), 1024u);
  EXPECT_EQ(cache.Get("evict-0"), nullptr);                // evicted
  EXPECT_NE(cache.Get("evict-9"), nullptr);                // newest survives
}

TEST(RowCacheTest, InvalidateDropsRowAndAccounting) {
  RowCache cache(4096);
  cache.Insert("k", ToBytes(std::string_view("v")));
  ASSERT_NE(cache.Get("k"), nullptr);
  cache.Invalidate("k");
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(RowCacheTest, ZeroBudgetDisablesEverything) {
  RowCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", ToBytes(std::string_view("v")));
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(RowCacheTest, BudgetResolutionPrecedence) {
  // Explicit configuration wins over everything.
  ::setenv("CONFIDE_STORAGE_CACHE_MB", "8", 1);
  EXPECT_EQ(ResolveCacheBudget(size_t(12345), 64), 12345u);
  // Unconfigured: the environment variable decides (in megabytes).
  EXPECT_EQ(ResolveCacheBudget(std::nullopt, 64), size_t(8) << 20);
  ::setenv("CONFIDE_STORAGE_CACHE_MB", "0", 1);
  EXPECT_EQ(ResolveCacheBudget(std::nullopt, 64), 0u);  // 0 = disabled
  // No env var either: the fallback applies.
  ::unsetenv("CONFIDE_STORAGE_CACHE_MB");
  EXPECT_EQ(ResolveCacheBudget(std::nullopt, 2), size_t(2) << 20);
}

// ---------------------------------------------------------------------------
// LSM read path: bloom gating, row cache, snapshots
// ---------------------------------------------------------------------------

/// Fills `store` so that several sorted runs exist.
void FillRuns(LsmKvStore* store, int keys_per_run, int runs) {
  for (int r = 0; r < runs; ++r) {
    for (int i = 0; i < keys_per_run; ++i) {
      std::string key = testutil::Numbered("run", r) + testutil::Numbered("-key", i);
      ASSERT_TRUE(store->Put(key, ToBytes(std::string_view("v"))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
}

TEST(LsmReadPathTest, BloomSkipsRunsForAbsentKeys) {
  LsmOptions options = VolatileOptions();
  options.max_runs = 16;     // keep all runs alive (no compaction)
  options.cache_bytes = 0;   // isolate the bloom effect
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  FillRuns(store->get(), 50, 4);
  ASSERT_EQ((*store)->RunCount(), 4u);

  auto before = metrics::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        (*store)->Get(testutil::Numbered("nope-", i)).status().IsNotFound());
  }
  auto after = metrics::MetricsRegistry::Global().Snapshot();
  uint64_t negatives = after.counter("storage.bloom.negatives") -
                       before.counter("storage.bloom.negatives");
  uint64_t probed = after.counter("storage.lsm.read.structures_probed") -
                    before.counter("storage.lsm.read.structures_probed");
  // 100 absent keys × 4 runs: virtually every run probe is answered
  // "definitely absent" by the bloom filter; the memtable is always
  // probed, plus at most a few false positives.
  EXPECT_GE(negatives, 390u);
  EXPECT_LE(probed, 110u);
}

TEST(LsmReadPathTest, DisabledBloomProbesEveryRun) {
  LsmOptions options = VolatileOptions();
  options.max_runs = 16;
  options.cache_bytes = 0;
  options.enable_bloom = false;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  FillRuns(store->get(), 50, 4);

  auto before = metrics::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        (*store)->Get(testutil::Numbered("nope-", i)).status().IsNotFound());
  }
  auto after = metrics::MetricsRegistry::Global().Snapshot();
  // Memtable + all 4 runs for each of the 100 reads.
  EXPECT_EQ(after.counter("storage.lsm.read.structures_probed") -
                before.counter("storage.lsm.read.structures_probed"),
            500u);
  EXPECT_EQ(after.counter("storage.bloom.probes") -
                before.counter("storage.bloom.probes"),
            0u);
}

TEST(LsmReadPathTest, RowCacheServesRepeatsAndStaysCoherent) {
  LsmOptions options = VolatileOptions();
  options.cache_bytes = 1 << 20;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hot", ToBytes(std::string_view("v1"))).ok());
  ASSERT_TRUE((*store)->Flush().ok());  // into a run: cache fills from runs

  auto s1 = metrics::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE((*store)->Get("hot").ok());  // run probe, populates cache
  auto s2 = metrics::MetricsRegistry::Global().Snapshot();
  auto hot = (*store)->Get("hot");  // cache hit: zero structures probed
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(ToString(*hot), "v1");
  auto s3 = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(s3.counter("storage.cache.hit.count") -
                s2.counter("storage.cache.hit.count"),
            1u);
  EXPECT_EQ(s3.counter("storage.lsm.read.structures_probed"),
            s2.counter("storage.lsm.read.structures_probed"));
  EXPECT_GT(s2.counter("storage.lsm.read.structures_probed"),
            s1.counter("storage.lsm.read.structures_probed"));

  // Write-through coherence: a Put must invalidate the cached row.
  ASSERT_TRUE((*store)->Put("hot", ToBytes(std::string_view("v2"))).ok());
  auto updated = (*store)->Get("hot");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(ToString(*updated), "v2");

  // Negative entries: a confirmed miss is served from cache on repeat.
  EXPECT_TRUE((*store)->Get("absent").status().IsNotFound());
  auto s4 = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE((*store)->Get("absent").status().IsNotFound());
  auto s5 = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(s5.counter("storage.cache.hit.count") -
                s4.counter("storage.cache.hit.count"),
            1u);

  // Deleting a cached key must not leave the stale row behind.
  ASSERT_TRUE((*store)->Delete("hot").ok());
  EXPECT_TRUE((*store)->Get("hot").status().IsNotFound());
}

// Regression: a cached *negative* entry (confirmed miss) must be
// invalidated by a later Put of that key — otherwise the store keeps
// answering NotFound for data it durably holds. Covers the direct Put,
// the WriteBatch path, and re-deletion back to a (fresh) negative entry.
TEST(LsmReadPathTest, NegativeCacheEntryDoesNotMaskLaterWrite) {
  LsmOptions options = VolatileOptions();
  options.cache_bytes = 1 << 20;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());

  // Confirm the miss twice so the second read is served by the cached
  // negative entry (hit counter advances).
  EXPECT_TRUE((*store)->Get("ghost").status().IsNotFound());
  auto s1 = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE((*store)->Get("ghost").status().IsNotFound());
  auto s2 = metrics::MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(s2.counter("storage.cache.hit.count") -
                s1.counter("storage.cache.hit.count"),
            1u);

  // The Put must evict that negative entry...
  ASSERT_TRUE((*store)->Put("ghost", ToBytes(std::string_view("alive"))).ok());
  auto revived = (*store)->Get("ghost");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(ToString(*revived), "alive");

  // ...including when the write arrives inside a WriteBatch.
  EXPECT_TRUE((*store)->Get("batch-ghost").status().IsNotFound());
  EXPECT_TRUE((*store)->Get("batch-ghost").status().IsNotFound());  // cached
  WriteBatch batch;
  batch.Put("batch-ghost", ToBytes(std::string_view("alive-too")));
  ASSERT_TRUE((*store)->Write(batch).ok());
  auto batched = (*store)->Get("batch-ghost");
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(ToString(*batched), "alive-too");

  // And a re-delete flips the (now positive) cached row back to absent.
  ASSERT_TRUE((*store)->Delete("ghost").ok());
  EXPECT_TRUE((*store)->Get("ghost").status().IsNotFound());
}

// Regression: a cached positive row must not survive a Delete carried in
// a WriteBatch alongside unrelated ops (the invalidation walks every op
// in the batch, not just single-key writes).
TEST(LsmReadPathTest, BatchDeleteInvalidatesCachedRow) {
  LsmOptions options = VolatileOptions();
  options.cache_bytes = 1 << 20;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("victim", ToBytes(std::string_view("v"))).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Get("victim").ok());  // populates the cache
  ASSERT_TRUE((*store)->Get("victim").ok());  // served from the cache

  WriteBatch batch;
  batch.Put("unrelated", ToBytes(std::string_view("x")));
  batch.Delete("victim");
  ASSERT_TRUE((*store)->Write(batch).ok());

  EXPECT_TRUE((*store)->Get("victim").status().IsNotFound());
  auto unrelated = (*store)->Get("unrelated");
  ASSERT_TRUE(unrelated.ok());
  EXPECT_EQ(ToString(*unrelated), "x");
}

TEST(LsmReadPathTest, SnapshotPinsViewAgainstLaterWrites) {
  auto store = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("old"))).ok());
  ASSERT_TRUE((*store)->Put("gone", ToBytes(std::string_view("x"))).ok());

  std::unique_ptr<KvSnapshot> snapshot = (*store)->GetSnapshot();
  uint64_t pinned = snapshot->Sequence();

  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("new"))).ok());
  ASSERT_TRUE((*store)->Put("later", ToBytes(std::string_view("y"))).ok());
  ASSERT_TRUE((*store)->Delete("gone").ok());
  EXPECT_GT((*store)->Sequence(), pinned);

  // The snapshot still serves the pinned state...
  auto old = snapshot->Get("k");
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(ToString(*old), "old");
  EXPECT_TRUE(snapshot->Get("later").status().IsNotFound());
  EXPECT_TRUE(snapshot->Get("gone").ok());
  // ...and so does its iterator.
  auto it = snapshot->NewIterator();
  std::map<std::string, std::string> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen[it->key()] = ToString(it->value());
  }
  EXPECT_EQ(seen, (std::map<std::string, std::string>{{"k", "old"},
                                                      {"gone", "x"}}));
  // The store itself sees the new state.
  auto live = (*store)->Get("k");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(ToString(*live), "new");
}

TEST(LsmReadPathTest, SnapshotSurvivesFlushAndCompaction) {
  LsmOptions options = VolatileOptions();
  options.memtable_flush_bytes = 512;
  options.max_runs = 2;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("stable", ToBytes(std::string_view("before"))).ok());
  std::unique_ptr<KvSnapshot> snapshot = (*store)->GetSnapshot();

  // Churn enough to flush several runs and compact them away.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)
                    ->Put(testutil::Numbered("churn-", i), Bytes(32))
                    .ok());
  }
  ASSERT_TRUE((*store)->Delete("stable").ok());
  ASSERT_TRUE((*store)->Flush().ok());

  auto pinned = snapshot->Get("stable");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(ToString(*pinned), "before");
  EXPECT_TRUE(snapshot->Get("churn-0").status().IsNotFound());
  EXPECT_TRUE((*store)->Get("stable").status().IsNotFound());
}

TEST(LsmReadPathTest, BackgroundCompactionOnPoolKeepsDataIntact) {
  ThreadPool pool(2);
  LsmOptions options;
  options.memtable_flush_bytes = 1024;
  options.max_runs = 3;
  options.compaction_pool = &pool;
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());

  std::map<std::string, Bytes> reference;
  crypto::Drbg rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string key = testutil::Numbered("bg", rng.NextBounded(300));
    if (rng.NextBounded(5) == 0) {
      ASSERT_TRUE((*store)->Delete(key).ok());
      reference.erase(key);
    } else {
      Bytes value = rng.Generate(1 + rng.NextBounded(30));
      ASSERT_TRUE((*store)->Put(key, value).ok());
      reference[key] = value;
    }
  }
  (*store)->WaitForCompaction();
  EXPECT_LE((*store)->RunCount(), options.max_runs + 1);
  for (const auto& [key, value] : reference) {
    auto got = (*store)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  for (int i = 300; i < 320; ++i) {
    EXPECT_TRUE((*store)->Get(testutil::Numbered("bg", i)).status().IsNotFound());
  }
}

TEST(LsmReadPathTest, FlushesDuringBackgroundMergeAreCompactedBeforeIdle) {
  // Regression: the pool task used to run one merge and go idle, so runs
  // flushed while the merge was unlocked were left over max_runs until
  // the next flush. The hook lands max_runs + 1 flushes mid-merge,
  // deterministically; the task must keep merging until under the limit.
  ThreadPool pool(1);
  LsmOptions options;
  options.memtable_flush_bytes = 1 << 20;  // flush only on Flush()
  options.max_runs = 3;
  options.compaction_pool = &pool;
  LsmKvStore* raw = nullptr;
  std::atomic<int> merges{0};
  options.compaction_merge_hook = [&] {
    if (merges.fetch_add(1) != 0) return;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(raw->Put(testutil::Numbered("mid", i), ToBytes(std::string_view("m"))).ok());
      ASSERT_TRUE(raw->Flush().ok());
    }
  };
  auto store = LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  raw = store->get();
  for (int i = 0; i < 4; ++i) {  // the fourth run schedules the merge
    ASSERT_TRUE((*store)->Put(testutil::Numbered("pre", i), ToBytes(std::string_view("p"))).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  (*store)->WaitForCompaction();
  EXPECT_GE(merges.load(), 2);
  EXPECT_LE((*store)->RunCount(), options.max_runs);
  for (int i = 0; i < 4; ++i) {
    auto pre = (*store)->Get(testutil::Numbered("pre", i));
    auto mid = (*store)->Get(testutil::Numbered("mid", i));
    ASSERT_TRUE(pre.ok() && mid.ok());
    EXPECT_EQ(ToString(*pre), "p");
    EXPECT_EQ(ToString(*mid), "m");
  }
}

// ---------------------------------------------------------------------------
// Durable SSTables: flush persistence, compaction crash recovery
// ---------------------------------------------------------------------------

TEST(LsmDurabilityTest, FlushedRunsSurviveReopenWithoutWal) {
  auto dir = std::filesystem::temp_directory_path() / "confide_lsm_sst";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  LsmOptions options = VolatileOptions();
  options.wal_dir = dir.string();
  {
    auto store = LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("flushed", ToBytes(std::string_view("v"))).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // Flush reset the WAL: before SSTable persistence this key would be
    // gone after a crash. The run on disk is now the only copy.
  }
  {
    RecoveryInfo info;
    auto store = LsmKvStore::Recover(options, &info);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(info.tables_loaded, 1u);
    EXPECT_EQ(info.batches_replayed, 0u);  // nothing left in the WAL
    auto got = (*store)->Get("flushed");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToString(*got), "v");
  }
  std::filesystem::remove_all(dir);
}

TEST(LsmDurabilityTest, SsTableRoundTripPreservesEntriesAndBloom) {
  auto dir = std::filesystem::temp_directory_path() / "confide_sst_roundtrip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<RunEntry> entries;
  entries.push_back({"a", ToBytes(std::string_view("1"))});
  entries.push_back({"b", std::nullopt});  // tombstone
  entries.push_back({"c", ToBytes(std::string_view("3"))});
  std::vector<std::string_view> keys = {"a", "b", "c"};
  BloomFilter bloom = BloomFilter::Build(keys, 10);
  std::string path = SsTablePath(dir.string(), 7);
  ASSERT_TRUE(WriteSsTable(path, entries, bloom).ok());

  auto contents = ReadSsTable(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->entries.size(), 3u);
  EXPECT_EQ(contents->entries[0].key, "a");
  ASSERT_TRUE(contents->entries[0].value.has_value());
  EXPECT_FALSE(contents->entries[1].value.has_value());
  EXPECT_FALSE(contents->bloom.empty());
  EXPECT_TRUE(contents->bloom.MayContain("a"));

  // Corruption must be detected, not silently served.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 20, SEEK_SET);
  std::fputc(0xFF, f);
  std::fclose(f);
  EXPECT_TRUE(ReadSsTable(path).status().code() == StatusCode::kCorruption);
  std::filesystem::remove_all(dir);
}

/// Crash/restart chaos: a compaction that dies at any fault site must
/// neither lose live keys nor resurrect deleted ones after reopen.
class CompactionCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CompactionCrashTest, KilledCompactionLosesNothingOnReopen) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("confide_compact_crash_") +
              std::string(GetParam()).substr(std::string(GetParam()).rfind('.') + 1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  LsmOptions options;
  options.memtable_flush_bytes = 512;
  options.max_runs = 2;
  options.wal_dir = dir.string();
  options.cache_bytes = 0;

  std::map<std::string, Bytes> reference;
  {
    auto store = LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok());
    // Every compaction attempt dies at the parameterized site (not
    // one-shot: the inline retries must all fail, as a crash would).
    fault::FaultPlan plan(1);
    plan.Arm(GetParam(), fault::Trigger{});
    crypto::Drbg rng(31);
    for (int i = 0; i < 400; ++i) {
      std::string key = testutil::Numbered("cc", rng.NextBounded(120));
      if (rng.NextBounded(4) == 0) {
        ASSERT_TRUE((*store)->Delete(key).ok());
        reference.erase(key);
      } else {
        Bytes value = rng.Generate(1 + rng.NextBounded(24));
        ASSERT_TRUE((*store)->Put(key, value).ok());
        reference[key] = value;
      }
    }
    // The armed site kept every compaction from completing.
    EXPECT_GT((*store)->RunCount(), options.max_runs);
    // Store destroyed here: simulated crash with compaction dead.
  }
  {
    RecoveryInfo info;
    auto store = LsmKvStore::Recover(options, &info);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_GT(info.tables_loaded, 0u);
    if (std::string(GetParam()) == "fault.storage.compaction.install") {
      // Crashing between the table write and the manifest install
      // strands orphans; recovery must have deleted them.
      EXPECT_GT(info.orphans_removed, 0u);
    }
    for (const auto& [key, value] : reference) {
      auto got = (*store)->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, value) << key;
    }
    for (int i = 0; i < 120; ++i) {
      std::string key = testutil::Numbered("cc", i);
      if (reference.count(key) == 0) {
        EXPECT_TRUE((*store)->Get(key).status().IsNotFound())
            << key << " resurrected";
      }
    }
    // And the reopened store compacts fine once the fault is gone.
    ASSERT_TRUE((*store)->Put("post-crash", Bytes(600)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_LE((*store)->RunCount(), options.max_runs + 1);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllSites, CompactionCrashTest,
                         ::testing::Values("fault.storage.compaction.start",
                                           "fault.storage.compaction.merge",
                                           "fault.storage.compaction.write",
                                           "fault.storage.compaction.install"));

// ---------------------------------------------------------------------------
// Block store
// ---------------------------------------------------------------------------

TEST(BlockStoreTest, AppendAndFetchByHeightAndHash) {
  auto kv = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(kv.ok());
  BlockStore blocks(std::shared_ptr<KvStore>(std::move(*kv)));

  Bytes block0 = ToBytes(std::string_view("genesis"));
  auto h0 = crypto::Sha256::Digest(block0);
  ASSERT_TRUE(blocks.Append(0, h0, block0).ok());
  Bytes block1 = ToBytes(std::string_view("block-1"));
  auto h1 = crypto::Sha256::Digest(block1);
  ASSERT_TRUE(blocks.Append(1, h1, block1).ok());

  EXPECT_EQ(blocks.NextHeight(), 2u);
  EXPECT_EQ(ToString(*blocks.GetByHeight(0)), "genesis");
  EXPECT_EQ(ToString(*blocks.GetByHash(h1)), "block-1");
  EXPECT_TRUE(blocks.GetByHeight(5).status().IsNotFound());
}

TEST(BlockStoreTest, RejectsNonContiguousHeights) {
  auto kv = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(kv.ok());
  BlockStore blocks(std::shared_ptr<KvStore>(std::move(*kv)));
  Bytes block = ToBytes(std::string_view("b"));
  EXPECT_FALSE(blocks.Append(3, crypto::Sha256::Digest(block), block).ok());
}

TEST(BlockStoreTest, SsdModelChargesLatency) {
  auto kv = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(kv.ok());
  SimClock clock;
  BlockStore blocks(std::shared_ptr<KvStore>(std::move(*kv)), &clock);
  Bytes block(4096, 0xbb);
  ASSERT_TRUE(blocks.Append(0, crypto::Sha256::Digest(block), block).ok());
  // Default model: 6 ms + 4 µs/KiB * 4 KiB = 6.016 ms.
  EXPECT_EQ(clock.NowNs(), 6'000'000u + 4 * 4'000u);
}


TEST(BlockStoreTest, RecoverTipRebuildsCursorsFromStore) {
  auto opened = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<KvStore> kv = std::move(*opened);
  {
    BlockStore blocks(kv);
    Bytes b0 = ToBytes(std::string_view("block0"));
    Bytes b1 = ToBytes(std::string_view("block1"));
    ASSERT_TRUE(blocks.Append(0, crypto::Sha256::Digest(b0), b0).ok());
    ASSERT_TRUE(blocks.Append(1, crypto::Sha256::Digest(b1), b1).ok());
  }
  // A fresh BlockStore over the same kv models a restart: cursors reset.
  BlockStore recovered(kv);
  EXPECT_EQ(recovered.NextHeight(), 0u);
  ASSERT_TRUE(recovered.RecoverTip().ok());
  EXPECT_EQ(recovered.NextHeight(), 2u);
  EXPECT_EQ(recovered.NextStagedHeight(), 2u);
  // Appending continues from the recovered tip.
  Bytes b2 = ToBytes(std::string_view("block2"));
  EXPECT_TRUE(recovered.Append(2, crypto::Sha256::Digest(b2), b2).ok());
}


namespace {

// Mirrors BlockStore's internal height-key layout so tests can damage
// stored records the way a partial disk write would.
std::string RawHeightKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "blk/h/" + HexEncode(ByteView(be, 8));
}

}  // namespace

TEST(BlockStoreTest, RecoverTipStopsAtFirstMissingHeight) {
  auto opened = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<KvStore> kv = std::move(*opened);
  {
    BlockStore blocks(kv);
    for (uint64_t h = 0; h < 3; ++h) {
      Bytes b = ToBytes(std::string_view("block"));
      ASSERT_TRUE(blocks.Append(h, crypto::Sha256::Digest(b), b).ok());
    }
  }
  // Lose the middle record (torn multi-record write). Heights 0 and 2
  // survive; the committed prefix is exactly [0, 1).
  ASSERT_TRUE(kv->Delete(RawHeightKey(1)).ok());

  BlockStore recovered(kv);
  ASSERT_TRUE(recovered.RecoverTip().ok());
  // The scan must stop at the hole: reporting height 3 would hand out a
  // chain whose middle block does not exist.
  EXPECT_EQ(recovered.NextHeight(), 1u);
  // The store keeps extending the true prefix, re-filling the hole.
  Bytes b1 = ToBytes(std::string_view("block1-again"));
  EXPECT_TRUE(recovered.Append(1, crypto::Sha256::Digest(b1), b1).ok());
}

TEST(BlockStoreTest, RecoverTipWithNoGenesisReportsEmptyChain) {
  auto opened = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<KvStore> kv = std::move(*opened);
  {
    BlockStore blocks(kv);
    for (uint64_t h = 0; h < 2; ++h) {
      Bytes b = ToBytes(std::string_view("block"));
      ASSERT_TRUE(blocks.Append(h, crypto::Sha256::Digest(b), b).ok());
    }
  }
  // Genesis record lost entirely: nothing is contiguous from 0.
  ASSERT_TRUE(kv->Delete(RawHeightKey(0)).ok());
  BlockStore recovered(kv);
  ASSERT_TRUE(recovered.RecoverTip().ok());
  EXPECT_EQ(recovered.NextHeight(), 0u);
}

TEST(BlockStoreTest, CorruptedTipRecordStillYieldsContiguousHeight) {
  auto opened = LsmKvStore::Open(VolatileOptions());
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<KvStore> kv = std::move(*opened);
  {
    BlockStore blocks(kv);
    for (uint64_t h = 0; h < 2; ++h) {
      Bytes b = ToBytes(std::string_view("block"));
      ASSERT_TRUE(blocks.Append(h, crypto::Sha256::Digest(b), b).ok());
    }
  }
  // Overwrite the tip payload with garbage. The height scan still counts
  // it (the record exists); it is the caller's deserialization of the tip
  // block that must fail loudly — covered by the chain-level recovery
  // test. What RecoverTip must never do is report a height beyond the
  // stored records.
  ASSERT_TRUE(kv->Put(RawHeightKey(1), ToBytes(std::string_view("garbage"))).ok());
  BlockStore recovered(kv);
  ASSERT_TRUE(recovered.RecoverTip().ok());
  EXPECT_EQ(recovered.NextHeight(), 2u);
  auto tip = recovered.GetByHeight(1);
  ASSERT_TRUE(tip.ok());
  EXPECT_EQ(ToString(ByteView(tip->data(), tip->size())), "garbage");
}

}  // namespace
}  // namespace confide::storage
