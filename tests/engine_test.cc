// The batched query engine: key-sorted plan properties, randomized
// MultiSeek ≡ sequential-Seek equivalence (tombstones, filters, across
// reopen), counter parity, the sample-queue feed, and QueryEngine's
// spec check.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/scheduler.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

DbOptions SmallDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_engine_test_" + name;
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  return options;
}

QueryBatch RandomBatch(Rng& rng, size_t n) {
  QueryBatch batch;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    uint64_t span = rng.NextBelow(8000);
    batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                     EncodeKeyBE(k + span)});
  }
  return batch;
}

// --- plan properties ---

TEST(SchedulerTest, PlansArePermutations) {
  Rng rng(17);
  QueryBatch batch = RandomBatch(rng, 100);
  std::vector<uint32_t> order;
  Scheduler::Plan(batch, ScheduleContext{}, &order);
  ASSERT_EQ(order.size(), batch.size());
  std::vector<uint32_t> sorted_order = order;
  std::sort(sorted_order.begin(), sorted_order.end());
  for (uint32_t i = 0; i < sorted_order.size(); ++i) {
    ASSERT_EQ(sorted_order[i], i) << "not a permutation";
  }
}

TEST(SchedulerTest, SortedOrdersByLowerBound) {
  Rng rng(19);
  QueryBatch batch = RandomBatch(rng, 200);
  // Repeat some lo keys (with different hi) so ties occur.
  for (size_t i = 0; i < 40; ++i) {
    batch.push_back({batch[i * 3].lo, EncodeKeyBE(i)});
  }
  std::vector<uint32_t> order;
  Scheduler::Plan(batch, ScheduleContext{}, &order);
  ASSERT_EQ(order.size(), batch.size());
  size_t ties = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const std::string& prev = batch[order[i - 1]].lo;
    const std::string& cur = batch[order[i]].lo;
    EXPECT_LE(prev, cur);
    if (prev == cur) {
      ++ties;
      EXPECT_LT(order[i - 1], order[i]) << "tie broke arrival order";
    }
  }
  EXPECT_GE(ties, 40u);
}

// --- MultiSeek ≡ Seek ---

// Runs random batches against a DB and asserts MultiSeek's results equal
// a sequential Seek loop's.
void CheckEquivalence(Db& db, Rng& rng, int batches, size_t batch_size) {
  for (int round = 0; round < batches; ++round) {
    QueryBatch batch = RandomBatch(rng, batch_size);
    std::vector<MultiSeekResult> results;
    db.MultiSeek(batch, &results);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      SeekResult seq = db.Seek(batch[i].lo, batch[i].hi);
      const MultiSeekResult& r = results[i];
      ASSERT_EQ(r.found, seq.found) << "round " << round << " query " << i;
      ASSERT_EQ(r.status.ok(), seq.status.ok());
      if (seq.found) {
        ASSERT_EQ(r.key, seq.key) << "query " << i;
        ASSERT_EQ(r.value, seq.value) << "query " << i;
      }
    }
  }
}

void FillRandom(Db& db, Rng& rng, int ops, double delete_frac) {
  for (int op = 0; op < ops; ++op) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(1000) < static_cast<uint64_t>(delete_frac * 1000)) {
      ASSERT_TRUE(db.Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'e');
      ASSERT_TRUE(db.Put(key, value).ok());
    }
    if (op % 2500 == 2499) {
      ASSERT_TRUE(db.Flush().ok());
    }
  }
}

TEST(MultiSeekTest, MatchesSeekWithoutFilters) {
  auto [db, st] = Db::Create(SmallDbOptions("plain"));
  ASSERT_TRUE(st.ok());
  Rng rng(21);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekWithFilters) {
  auto options = SmallDbOptions("filtered");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(22);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekAfterCompactionAndReopen) {
  auto options = SmallDbOptions("reopen");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    Rng rng(23);
    FillRandom(*db, rng, 12000, 0.25);
    ASSERT_TRUE(db->CompactAll().ok());
    CheckEquivalence(*db, rng, 10, 64);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Rng rng(24);
  CheckEquivalence(*db, rng, 10, 64);
}

TEST(MultiSeekTest, MatchesSeekAgainstReferenceMap) {
  // Differential check with a model map, so MultiSeek is validated
  // against ground truth and not just against Seek.
  auto options = SmallDbOptions("refmap");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  std::map<std::string, std::string> ref;
  Rng rng(25);
  for (int op = 0; op < 12000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(10) < 2) {
      ASSERT_TRUE(db->Delete(key).ok());
      ref.erase(key);
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'm');
      ASSERT_TRUE(db->Put(key, value).ok());
      ref[key] = value;
    }
  }
  for (int round = 0; round < 20; ++round) {
    QueryBatch batch = RandomBatch(rng, 64);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, &results);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto it = ref.lower_bound(batch[i].lo);
      bool ref_found = it != ref.end() && it->first <= batch[i].hi;
      ASSERT_EQ(results[i].found, ref_found) << "query " << i;
      if (ref_found) {
        ASSERT_EQ(results[i].key, it->first);
        ASSERT_EQ(results[i].value, it->second);
      }
    }
  }
}

TEST(MultiSeekTest, EmptyAndSingletonBatches) {
  auto [db, st] = Db::Create(SmallDbOptions("edge"));
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(db->Put(EncodeKeyBE(100), "x").ok());
  std::vector<MultiSeekResult> results;
  db->MultiSeek({}, &results);
  EXPECT_TRUE(results.empty());
  db->MultiSeek({{EncodeKeyBE(50), EncodeKeyBE(150)}}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].found);
  EXPECT_EQ(results[0].key, EncodeKeyBE(100));
  EXPECT_EQ(results[0].value, "x");
}

// --- counter parity ---

// A batch must consult the same filters and probe the same SSTs as its
// queries run one Seek at a time: the per-file counters feed observed
// FPR and drift detection, so a batch that re-primes a query inflates
// them. Tombstones matter here: a winner that is deleted resumes past
// the deleted key.
TEST(MultiSeekTest, CountersMatchSequentialSeeks) {
  auto options = SmallDbOptions("counters");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  options.adaptive_redesign = false;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(27);
  FillRandom(*db, rng, 12000, 0.25);
  db->WaitForBackground();

  // (checks, probes, false positives) of every live SST, flattened.
  auto file_counters = [&db = *db] {
    std::vector<uint64_t> out;
    for (const auto& info : db.DesignInfo()) {
      out.insert(out.end(), {info.checks, info.probes, info.false_positives});
    }
    return out;
  };
  auto minus = [](std::vector<uint64_t> a, const std::vector<uint64_t>& b) {
    for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
    return a;
  };
  uint64_t total_checks = 0;
  for (int round = 0; round < 10; ++round) {
    QueryBatch batch = RandomBatch(rng, 64);
    db->ResetStats();
    const std::vector<uint64_t> before = file_counters();
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, &results);
    const DbStats batched = db->stats();
    const std::vector<uint64_t> mid = file_counters();

    db->ResetStats();
    for (const auto& q : batch) db->Seek(q.lo, q.hi);
    const DbStats sequential = db->stats();
    const std::vector<uint64_t> after = file_counters();

    EXPECT_EQ(batched.filter_checks, sequential.filter_checks) << round;
    EXPECT_EQ(batched.filter_negatives, sequential.filter_negatives) << round;
    EXPECT_EQ(batched.sst_seeks, sequential.sst_seeks) << round;
    EXPECT_EQ(batched.false_positive_files, sequential.false_positive_files)
        << round;
    EXPECT_EQ(batched.empty_seeks, sequential.empty_seeks) << round;
    ASSERT_EQ(mid.size(), before.size());
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(minus(mid, before), minus(after, mid)) << round;
    total_checks += sequential.filter_checks;
  }
  EXPECT_GT(total_checks, 0u);
}

// --- sample-queue feed + stats ---

TEST(MultiSeekTest, EmptyQueriesFeedTheSampleQueue) {
  auto options = SmallDbOptions("queue");
  options.queue_options.sample_rate = 10;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k * 1000000), "v").ok());
  }
  QueryBatch batch;
  for (uint64_t i = 0; i < 100; ++i) {
    // Between keys: all empty.
    batch.push_back({EncodeKeyBE(i * 1000000 + 10), EncodeKeyBE(i * 1000000 + 20)});
  }
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, &results);
  for (const auto& r : results) ASSERT_FALSE(r.found);
  const DbStats s = db->stats();
  EXPECT_EQ(s.seeks, 100u);
  EXPECT_EQ(s.empty_seeks, 100u);
  // sample_rate=10: every 10th empty query lands in the queue.
  EXPECT_EQ(s.queue_sampled, 10u);
  EXPECT_EQ(db->SampledQueries().size(), 10u);
  EXPECT_EQ(db->query_queue().seen(), 100u);
}

TEST(QueryEngineTest, AcceptsOnlySortedAndRunsMultiSeek) {
  auto options = SmallDbOptions("engine");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(26);
  for (int op = 0; op < 6000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    ASSERT_TRUE(
        db->Put(EncodeKeyBE(k), "v" + std::string(60, 's')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  Status status;
  auto engine = QueryEngine::Create(db.get(), "sorted", &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  EXPECT_TRUE(status.ok());
  // The removed orders, and nonsense, surface as InvalidArgument.
  for (const char* spec : {"fifo", "grouped", "warp-speed"}) {
    EXPECT_EQ(QueryEngine::Create(db.get(), spec, &status), nullptr) << spec;
    EXPECT_TRUE(status.IsInvalidArgument()) << spec << status.ToString();
  }

  QueryBatch batch = RandomBatch(rng, 128);
  std::vector<MultiSeekResult> ran, direct;
  engine->Run(batch, &ran);
  db->MultiSeek(batch, &direct);
  ASSERT_EQ(ran.size(), batch.size());
  ASSERT_EQ(direct.size(), batch.size());
  uint64_t found = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(ran[i].found, direct[i].found) << i;
    EXPECT_EQ(ran[i].key, direct[i].key) << i;
    EXPECT_EQ(ran[i].value, direct[i].value) << i;
    EXPECT_TRUE(ran[i].status.ok()) << i;
    found += ran[i].found;
  }
  EXPECT_GT(found, 0u);
}

TEST(DbStatsTest, ObservedFileFprCountsFalsePositives) {
  DbStats s;
  EXPECT_EQ(s.ObservedFileFpr(), 0.0);
  s.sst_seeks = 8;
  s.false_positive_files = 2;
  EXPECT_DOUBLE_EQ(s.ObservedFileFpr(), 0.25);
}

}  // namespace
}  // namespace proteus
