// The sharded write path: concurrent skiplist inserts, hash-routed
// memtable shards, the merged flush (N shards -> one SST, byte-identical
// to the single-shard build), WAL replay into a sharded memtable, and
// the positioned Seek (and one-query MultiSeek) that walks dense
// tombstone runs at O(files) instead of O(tombstones x files).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/scheduler.h"
#include "lsm/db.h"
#include "lsm/skiplist.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

DbOptions ShardDbOptions(const std::string& name, size_t shards) {
  DbOptions options;
  options.dir = "/tmp/proteus_shard_test_" + name;
  options.memtable_bytes = 1 << 20;
  options.sst_target_bytes = 4 << 20;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 8;  // flushes land in L0 untouched
  options.wal_sync = false;
  options.memtable_shards = shards;
  return options;
}

TEST(SkipListConcurrent, ParallelAddsProduceOneOrderedList) {
  SkipList list;
  const int kThreads = 4;
  const uint64_t kPerThread = 5000;
  // Unique (key, seqno) pairs across threads (the Db's leader guarantees
  // this in production); keys deliberately collide across threads so the
  // CAS retry path in Add() actually runs.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&list, t] {
      Rng rng(300 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = rng.NextBelow(1000);
        uint64_t seqno = static_cast<uint64_t>(t) * kPerThread + i + 1;
        list.Add(EncodeKeyBE(k), seqno,
                 "t" + std::to_string(t) + "#" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(list.size(), kThreads * kPerThread);
  // Every version made it in, in internal order: key ascending, seqno
  // strictly descending within a key, no duplicates and no losses.
  std::vector<std::tuple<std::string, uint64_t, std::string>> got;
  list.ForEach([&got](std::string_view key, uint64_t seqno,
                      std::string_view value) {
    got.emplace_back(std::string(key), seqno, std::string(value));
  });
  ASSERT_EQ(got.size(), kThreads * kPerThread);
  std::vector<bool> seen(kThreads * kPerThread + 1, false);
  for (size_t i = 1; i < got.size(); ++i) {
    const auto& [pk, ps, pv] = got[i - 1];
    const auto& [ck, cs, cv] = got[i];
    ASSERT_TRUE(pk < ck || (pk == ck && ps > cs))
        << "order violated at index " << i;
  }
  for (const auto& [key, seqno, value] : got) {
    ASSERT_GE(seqno, 1u);
    ASSERT_LE(seqno, kThreads * kPerThread);
    ASSERT_FALSE(seen[seqno]) << "seqno " << seqno << " stored twice";
    seen[seqno] = true;
    // The value names its writer thread and step: recompute the key the
    // writer used at that step and make sure nothing got torn.
    int t = static_cast<int>((seqno - 1) / kPerThread);
    uint64_t i = (seqno - 1) % kPerThread;
    ASSERT_EQ(value, "t" + std::to_string(t) + "#" + std::to_string(i));
    Rng rng(300 + t);
    uint64_t k = 0;
    for (uint64_t step = 0; step <= i; ++step) k = rng.NextBelow(1000);
    ASSERT_EQ(key, EncodeKeyBE(k)) << "seqno " << seqno;
  }
}

// Replays one deterministic single-threaded workload (overwrites and
// deletes included, so merge order matters) into a fresh Db.
void RunFlushWorkload(Db* db) {
  Rng rng(411);
  for (int op = 0; op < 3000; ++op) {
    uint64_t k = rng.NextBelow(500);
    if (rng.NextBelow(8) < 6) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(k), "op" + std::to_string(op)).ok());
    } else {
      ASSERT_TRUE(db->Delete(EncodeKeyBE(k)).ok());
    }
  }
}

std::map<std::string, std::string> ReadSstFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 4 || name.substr(name.size() - 4) != ".sst") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[name] = std::move(bytes);
  }
  return files;
}

TEST(ShardedMemtable, FlushOutputIsByteIdenticalAcrossShardCounts) {
  // The shard merge must reproduce the exact (key asc, seqno desc)
  // stream a single skiplist would have produced: same workload, same
  // seqnos, any shard count -> the same SST bytes on disk.
  std::map<std::string, std::string> reference;
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    auto options =
        ShardDbOptions("flush" + std::to_string(shards), shards);
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    RunFlushWorkload(db.get());
    ASSERT_TRUE(db->Flush().ok());
    db->WaitForBackground();
    auto files = ReadSstFiles(options.dir);
    ASSERT_FALSE(files.empty());
    if (shards == 1) {
      reference = std::move(files);
      continue;
    }
    ASSERT_EQ(files.size(), reference.size()) << shards << " shards";
    for (const auto& [name, bytes] : reference) {
      auto it = files.find(name);
      ASSERT_NE(it, files.end()) << name << " missing at " << shards;
      EXPECT_EQ(it->second, bytes)
          << name << " differs between 1 and " << shards << " shards";
    }
  }
}

TEST(ShardedMemtable, NWriterDifferentialAcrossShardCounts) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    auto options = ShardDbOptions("nw" + std::to_string(shards), shards);
    options.memtable_bytes = 64 << 10;  // force rotations mid-run
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    const int kWriters = 4;
    const uint64_t kOpsPerWriter = 2000;
    // Disjoint key spaces (k % kWriters == w) make each writer's final
    // map exact regardless of interleaving.
    std::map<std::string, std::string> ref[kWriters];
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&db = *db, &ref = ref[w], w] {
        Rng rng(500 + w);
        for (uint64_t i = 0; i < kOpsPerWriter; ++i) {
          uint64_t k = rng.NextBelow(400) * uint64_t{kWriters} + w;
          std::string key = EncodeKeyBE(k);
          if (rng.NextBelow(8) < 6) {
            std::string value =
                "w" + std::to_string(w) + "#" + std::to_string(i);
            ASSERT_TRUE(db.Put(key, value).ok());
            ref[key] = value;
          } else {
            ASSERT_TRUE(db.Delete(key).ok());
            ref.erase(key);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    db->WaitForBackground();

    std::map<std::string, std::string> merged;
    for (int w = 0; w < kWriters; ++w) {
      merged.insert(ref[w].begin(), ref[w].end());
    }
    for (uint64_t k = 0; k < 400 * kWriters; ++k) {
      std::string key = EncodeKeyBE(k);
      SeekResult r = db->Seek(key, key);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      auto it = merged.find(key);
      ASSERT_EQ(r.found, it != merged.end())
          << shards << " shards, key " << k;
      if (r.found) {
        ASSERT_EQ(r.value, it->second) << shards << " shards, key " << k;
      }
    }

    // Bookkeeping: one apply per op, histogram sized to the (power of
    // two) shard count, and live arena memory accounted.
    const DbStats s = db->stats();
    ASSERT_EQ(s.shard_applies.size(), shards);
    uint64_t applied = 0;
    for (uint64_t n : s.shard_applies) applied += n;
    EXPECT_EQ(applied, kWriters * kOpsPerWriter);
    EXPECT_EQ(s.puts + s.deletes, kWriters * kOpsPerWriter);
    EXPECT_GT(s.memtable_arena_bytes, 0u);
    if (shards >= 8) {
      // Hash routing should touch every shard with 8000 ops over 8
      // shards (each shard misses with prob ~(7/8)^1600 ~ 0).
      for (size_t i = 0; i < shards; ++i) {
        EXPECT_GT(s.shard_applies[i], 0u) << "shard " << i << " idle";
      }
    }
  }
}

TEST(ShardedMemtable, CrashReplayReproducesOrderIntoShardedMemtable) {
  auto options = ShardDbOptions("crash", 8);
  options.memtable_bytes = 8 << 20;  // all writes live in WAL at crash
  std::map<std::string, std::string> ref;
  uint64_t pre_crash_seqno = 0;
  uint64_t records = 0;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    Rng rng(611);
    // Heavy overwrites: replay in any order but seqno order would
    // resurface stale versions no matter which shard they route to.
    for (int op = 0; op < 5000; ++op) {
      uint64_t k = rng.NextBelow(200);
      std::string key = EncodeKeyBE(k);
      if (rng.NextBelow(10) < 8) {
        std::string value = "op" + std::to_string(op);
        ASSERT_TRUE(db->Put(key, value).ok());
        ref[key] = value;
      } else {
        ASSERT_TRUE(db->Delete(key).ok());
        ref.erase(key);
      }
      ++records;
    }
    pre_crash_seqno = db->LastSequence();
    db->TEST_CrashClose();
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  const DbStats s = db->stats();
  EXPECT_EQ(s.wal_replayed, records);
  EXPECT_EQ(db->LastSequence(), pre_crash_seqno);
  // Replay routed through the same hash as the live write path.
  ASSERT_EQ(s.shard_applies.size(), 8u);
  uint64_t applied = 0;
  for (uint64_t n : s.shard_applies) applied += n;
  EXPECT_EQ(applied, records);
  for (uint64_t k = 0; k < 200; ++k) {
    std::string key = EncodeKeyBE(k);
    SeekResult r = db->Seek(key, key);
    auto it = ref.find(key);
    ASSERT_EQ(r.found, it != ref.end()) << "key " << k;
    if (r.found) ASSERT_EQ(r.value, it->second) << "key " << k;
  }
}

TEST(SeekTombstones, DenseTombstoneRunCostsOneDescentPerFile) {
  auto options = ShardDbOptions("tomb", 4);
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k), "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  // Mass-delete everything but the last key; the tombstones stay in the
  // memtable, the values sit in the SST below them.
  for (uint64_t k = 0; k + 1 < kKeys; ++k) {
    ASSERT_TRUE(db->Delete(EncodeKeyBE(k)).ok());
  }
  db->ResetStats();

  SeekResult r = db->Seek(EncodeKeyBE(0), EncodeKeyBE(kKeys - 1));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, EncodeKeyBE(kKeys - 1));
  EXPECT_EQ(r.value, "v" + std::to_string(kKeys - 1));

  // The positioned cursor pays ONE index descent per file and walks
  // forward from there; before it, each of the 999 tombstones re-seeked
  // every file (sst_seeks would be ~999 here, not <= the file count).
  const DbStats s = db->stats();
  EXPECT_LE(s.sst_seeks, 4u) << "tombstone walk re-seeks the SSTs";
  EXPECT_LE(s.filter_checks, 4u) << "filter re-checked per tombstone";

  // A one-query MultiSeek walks the same run on the same read path, at
  // the same cost.
  db->ResetStats();
  std::vector<MultiSeekResult> results;
  db->MultiSeek({{EncodeKeyBE(0), EncodeKeyBE(kKeys - 1)}}, &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_TRUE(results[0].found);
  EXPECT_EQ(results[0].key, EncodeKeyBE(kKeys - 1));
  EXPECT_EQ(results[0].value, "v" + std::to_string(kKeys - 1));
  const DbStats m = db->stats();
  EXPECT_LE(m.sst_seeks, 4u) << "batched tombstone walk re-seeks the SSTs";
  EXPECT_LE(m.filter_checks, 4u) << "batched walk re-checks filters";
}

}  // namespace
}  // namespace proteus
