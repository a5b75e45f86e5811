// perfbench: the repository benchmark. One seeded, single-process harness
// that runs a workload through the public API (Db, QueryEngine,
// FilterBuilder/RangeFilter), checks every answer against a reference, and
// prints its metrics. README.md in this directory explains the workloads
// and metrics; run.py builds this binary and drives it.
//
//   perfbench --workload read_short_hot --seed 1 --seconds 10 --trace 0
//             [--dir .bench_build/run]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every public call, writes them to <dir>/<workload>.spans.tsv, and prints
// the per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/filter_builder.h"
#include "core/range_filter.h"
#include "engine/query_engine.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "oracle.h"
#include "surf/surf.h"
#include "trace.h"
#include "util/simd.h"
#include "workload/datasets.h"
#include "workload/queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using proteus::Db;
using proteus::DbOptions;
using proteus::DbStats;
using proteus::EncodeKeyBE;
using proteus::QueryBatch;
using proteus::QueryDist;
using proteus::QuerySpec;
using proteus::RangeQuery;
using proteus::SeekResult;
using proteus::Status;
using proteus::StrRangeQuery;

constexpr size_t kKeys = 1'000'000;        // preloaded keys
constexpr double kIngestKeysPerSecond = 200'000;  // ingest writer's work
constexpr size_t kValueBytes = 128;
constexpr size_t kSamples = 20'000;        // sample-queue seed
constexpr size_t kQueries = size_t{1} << 18;  // read stream, cycled
constexpr size_t kVerifyQueries = size_t{1} << 16;
constexpr size_t kBatch = 64;
constexpr size_t kPointEvery = 16;  // every 16th query looks up a present key
constexpr size_t kOverlayPuts = 2000;
constexpr int kSetupRepeats = 2;
constexpr size_t kTraceBlock = 4096;  // seeks per traced/untraced block
// Calls per measurement window: each window's p99 has >= 10 samples
// beyond it.
constexpr size_t kSeekWindow = 16384;
constexpr size_t kBatchWindow = 1024;
constexpr size_t kPutWindow = 65536;
constexpr char kFilterSpec[] = "proteus:bpk=10";
constexpr char kScheduler[] = "sorted";

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  uint64_t cache_bytes;
  QuerySpec queries;      // the measured read stream (pre-shift for ingest)
  bool point_lookups;     // every kPointEvery-th query is a present key
  size_t warmup_queries;  // Seeks run at the end of set-up
  bool ingest;
};

QuerySpec ShortCorrelated() {
  QuerySpec s;
  s.dist = QueryDist::kCorrelated;
  s.range_max = uint64_t{1} << 8;
  s.corr_degree = uint64_t{1} << 10;
  return s;
}

QuerySpec LongUniform() {
  QuerySpec s;
  s.dist = QueryDist::kUniform;
  s.range_max = uint64_t{1} << 50;
  s.require_empty = false;
  return s;
}

// The ingest reader's stream after the shift: half short correlated
// lookups, half wide uniform ranges.
QuerySpec ShiftedSplit() {
  QuerySpec s;
  s.dist = QueryDist::kSplit;
  s.range_max = uint64_t{1} << 40;
  s.corr_degree = uint64_t{1} << 10;
  return s;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {.name = "read_short_hot",
       .cache_bytes = uint64_t{256} << 20,
       .queries = ShortCorrelated(),
       .point_lookups = true,
       .warmup_queries = kQueries,
       .ingest = false},
      {.name = "read_long_cold",
       .cache_bytes = uint64_t{8} << 20,
       .queries = LongUniform(),
       .point_lookups = false,
       .warmup_queries = 16384,
       .ingest = false},
      {.name = "ingest_mixed",
       .cache_bytes = uint64_t{256} << 20,
       .queries = ShortCorrelated(),
       .point_lookups = true,
       .warmup_queries = 16384,
       .ingest = true},
  };
  return kAll;
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = v;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      out->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--dir") {
      out->dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v);
      return false;
    }
  }
  if (!(out->seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs: everything comes from the seed.

struct Inputs {
  std::vector<uint64_t> keys;        // preload set, sorted
  std::vector<uint64_t> load_order;  // the same keys in write order
  std::vector<uint64_t> new_keys;    // ingest writer's keys, in write order
  std::vector<RangeQuery> samples;   // seeds the sample queue
  std::vector<RangeQuery> queries;   // measured read stream
  std::vector<RangeQuery> shifted;   // ingest: post-shift stream
  std::vector<RangeQuery> shifted_samples;  // ingest: post-shift samples
};

std::vector<StrRangeQuery> Encode(const std::vector<RangeQuery>& in) {
  std::vector<StrRangeQuery> out;
  out.reserve(in.size());
  for (const auto& q : in) out.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
  return out;
}

/// `n` distinct uniform 64-bit keys in random order.
std::vector<uint64_t> UniformKeys(size_t n, std::mt19937_64& rng) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    while (keys.size() < n) keys.push_back(rng());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

/// kSamples empty queries of the workload's own (pre-shift) stream, to
/// seed the sample queue: each tree's filters are designed for the reads
/// it then serves. A stream that allows non-empty ranges is drawn as is
/// and filtered, so the samples match the empty queries the queue will
/// record live (and the drift detector sees no shift).
std::vector<RangeQuery> EmptySamples(const std::vector<uint64_t>& keys,
                                     const QuerySpec& spec, uint64_t seed) {
  if (spec.require_empty) {
    return proteus::GenerateQueries(keys, spec, kSamples, seed);
  }
  std::vector<RangeQuery> out;
  for (uint64_t round = 0; out.size() < kSamples; ++round) {
    for (const auto& q : proteus::GenerateQueries(keys, spec, kQueries,
                                                  seed + (round << 32))) {
      if (out.size() < kSamples && proteus::RangeIsEmpty(keys, q.lo, q.hi)) {
        out.push_back(q);
      }
    }
  }
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, double seconds) {
  Inputs in;
  std::mt19937_64 rng(seed);
  const size_t new_keys =
      w.ingest ? static_cast<size_t>(kIngestKeysPerSecond * seconds) : 0;
  const std::vector<uint64_t> all = UniformKeys(kKeys + new_keys, rng);
  in.load_order.assign(all.begin(), all.begin() + kKeys);
  in.keys = in.load_order;
  std::sort(in.keys.begin(), in.keys.end());
  in.new_keys.assign(all.begin() + kKeys, all.end());

  in.samples = EmptySamples(in.keys, w.queries, seed + 1);
  in.queries = proteus::GenerateQueries(in.keys, w.queries, kQueries, seed + 2);
  if (w.point_lookups) {
    for (size_t i = 0; i < in.queries.size(); i += kPointEvery) {
      const uint64_t k = in.keys[rng() % in.keys.size()];
      in.queries[i] = {k, k};
    }
  }
  if (w.ingest) {
    in.shifted =
        proteus::GenerateQueries(in.keys, ShiftedSplit(), kQueries, seed + 3);
    in.shifted_samples =
        proteus::GenerateQueries(in.keys, ShiftedSplit(), kSamples, seed + 4);
  }
  return in;
}

std::vector<uint64_t> ExpectedDigests(const Oracle& oracle,
                                      const std::vector<RangeQuery>& qs) {
  std::vector<uint64_t> out;
  out.reserve(qs.size());
  for (const auto& q : qs) out.push_back(oracle.Expect(q.lo, q.hi));
  return out;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One closed-loop stream of timed calls, cut into windows of a fixed
/// number of calls. The rate and the percentiles are medians over the
/// windows, so a burst of outside noise that slows a few windows does not
/// move them. A trailing partial window is dropped unless it is the only
/// one.
class Stream {
 public:
  Stream(size_t window_calls, size_t ops_per_call)
      : window_calls_(window_calls), ops_per_call_(ops_per_call) {
    current_.reserve(window_calls);
  }

  /// Records one call that ran from `start_ns` to `end_ns`.
  void Add(int64_t start_ns, int64_t end_ns) {
    if (current_.empty()) window_begin_ns_ = start_ns;
    current_.push_back(static_cast<uint32_t>(
        std::clamp<int64_t>(end_ns - start_ns, 0, UINT32_MAX)));
    ++calls_;
    if (current_.size() == window_calls_) CloseWindow(end_ns);
    last_end_ns_ = end_ns;
  }

  /// Ends the stream's current segment: a partial window is closed only
  /// if no full window exists yet, otherwise dropped.
  void Cut() {
    if (!current_.empty() && qps_.empty()) CloseWindow(last_end_ns_);
    current_.clear();
  }

  double Qps() { Cut(); return Median(qps_); }
  double P50Us() { Cut(); return Median(p50_us_); }
  double P99Us() { Cut(); return Median(p99_us_); }
  uint64_t calls() const { return calls_; }
  size_t windows() const { return qps_.size(); }
  size_t window_calls() const { return window_calls_; }

 private:
  /// Nearest-rank percentile of the open window, in microseconds.
  double PercentileUs(double p) {
    size_t rank =
        static_cast<size_t>(std::ceil(p * static_cast<double>(current_.size())));
    rank = std::min(current_.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(current_.begin(),
                     current_.begin() + static_cast<ptrdiff_t>(rank),
                     current_.end());
    return static_cast<double>(current_[rank]) / 1e3;
  }

  void CloseWindow(int64_t end_ns) {
    const double seconds =
        static_cast<double>(std::max<int64_t>(end_ns - window_begin_ns_, 1)) /
        1e9;
    qps_.push_back(static_cast<double>(current_.size() * ops_per_call_) /
                   seconds);
    p50_us_.push_back(PercentileUs(0.50));
    p99_us_.push_back(PercentileUs(0.99));
    current_.clear();
  }

  size_t window_calls_;
  size_t ops_per_call_;
  std::vector<uint32_t> current_;  // latencies (ns) of the open window
  int64_t window_begin_ns_ = 0;
  int64_t last_end_ns_ = 0;
  uint64_t calls_ = 0;
  std::vector<double> qps_, p50_us_, p99_us_;  // one entry per window
};

/// Operations attempted and failed (wrong answer, non-OK Status, failed
/// Put) across the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A point-in-time copy of every counter the harness reads; counters are
/// always used as the difference of two of these over one phase.
struct Counters {
  DbStats db;
  proteus::BlockCache::Stats cache;
  proteus::WalWriter::Stats wal;

  static Counters Take(Db& db) {
    return {db.stats(), db.cache().stats(), db.wal_stats()};
  }
};

uint64_t At(const std::vector<uint64_t>& v, size_t i) {
  return i < v.size() ? v[i] : 0;
}

/// after - before, for the counters the metrics use.
struct Delta {
  uint64_t puts, seeks, filter_checks, filter_negatives, sst_seeks, fp_files;
  uint64_t flushes, compactions, filter_build_ns, write_stalls, stall_wait_us;
  uint64_t drift_detected, redesigns;
  uint64_t cache_hits, cache_misses, wal_syncs;
  std::vector<uint64_t> level_checks, level_seeks, level_fp;

  Delta(const Counters& b, const Counters& a) {
    puts = a.db.puts - b.db.puts;
    seeks = a.db.seeks - b.db.seeks;
    filter_checks = a.db.filter_checks - b.db.filter_checks;
    filter_negatives = a.db.filter_negatives - b.db.filter_negatives;
    sst_seeks = a.db.sst_seeks - b.db.sst_seeks;
    fp_files = a.db.false_positive_files - b.db.false_positive_files;
    flushes = a.db.flushes - b.db.flushes;
    compactions = a.db.compactions - b.db.compactions;
    filter_build_ns = a.db.filter_build_ns - b.db.filter_build_ns;
    write_stalls = a.db.write_stalls - b.db.write_stalls;
    stall_wait_us = a.db.stall_wait_us - b.db.stall_wait_us;
    drift_detected = a.db.drift_detected - b.db.drift_detected;
    redesigns = a.db.redesigns - b.db.redesigns;
    cache_hits = a.cache.hits - b.cache.hits;
    cache_misses = a.cache.misses - b.cache.misses;
    wal_syncs = a.wal.syncs - b.wal.syncs;
    const size_t levels = a.db.level_filter_checks.size();
    for (size_t l = 0; l < levels; ++l) {
      level_checks.push_back(At(a.db.level_filter_checks, l) -
                             At(b.db.level_filter_checks, l));
      level_seeks.push_back(At(a.db.level_sst_seeks, l) -
                            At(b.db.level_sst_seeks, l));
      level_fp.push_back(At(a.db.level_fp_files, l) - At(b.db.level_fp_files, l));
    }
  }

  Delta& operator+=(const Delta& o) {
    puts += o.puts;
    seeks += o.seeks;
    filter_checks += o.filter_checks;
    filter_negatives += o.filter_negatives;
    sst_seeks += o.sst_seeks;
    fp_files += o.fp_files;
    flushes += o.flushes;
    compactions += o.compactions;
    filter_build_ns += o.filter_build_ns;
    write_stalls += o.write_stalls;
    stall_wait_us += o.stall_wait_us;
    drift_detected += o.drift_detected;
    redesigns += o.redesigns;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    wal_syncs += o.wal_syncs;
    for (auto* v : {&level_checks, &level_seeks, &level_fp}) {
      v->resize(std::max(v->size(), o.level_checks.size()), 0);
    }
    for (size_t l = 0; l < o.level_checks.size(); ++l) {
      level_checks[l] += o.level_checks[l];
      level_seeks[l] += o.level_seeks[l];
      level_fp[l] += o.level_fp[l];
    }
    return *this;
  }

  /// False-positive files over empty-range filter checks (the formula of
  /// DbStats::LevelObservedFpr), at one level or summed over all levels.
  double Fpr(int only_level = -1) const {
    uint64_t fp = 0, empty = 0;
    for (size_t l = 0; l < level_checks.size(); ++l) {
      if (only_level >= 0 && static_cast<size_t>(only_level) != l) continue;
      const uint64_t tp = level_seeks[l] - level_fp[l];
      if (level_checks[l] <= tp) continue;
      fp += level_fp[l];
      empty += level_checks[l] - tp;
    }
    return empty == 0 ? 0.0
                      : static_cast<double>(fp) / static_cast<double>(empty);
  }
};

// ---------------------------------------------------------------------------
// Metrics output

/// Named metrics in the order they were set, printed as the result's
/// "metrics" object.
class Metrics {
 public:
  void Set(std::string name, double value, const char* unit) {
    entries_.push_back({std::move(name), value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (const Entry& e : entries_) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out += (out.size() == 1 ? "\"" : ", \"") + e.name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Oracle self-test: a tiny tree, real answers must pass and fabricated
// wrong ones must be flagged.

bool OracleSelfTest(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::vector<uint64_t> keys =
      proteus::GenerateKeys(proteus::Dataset::kUniform, 2000, 99);
  DbOptions o;
  o.dir = dir;
  o.memtable_bytes = 32u << 10;
  o.sst_target_bytes = 32u << 10;
  o.filter_policy = proteus::MakeFilterPolicy(kFilterSpec);
  bool ok = true;
  {
    auto [db, s] = Db::Create(o);
    if (db == nullptr) return false;
    for (uint64_t k : keys) {
      ok &= db->Put(EncodeKeyBE(k), proteus::MakeValuePayload(k, kValueBytes),
                    {.sync = false})
                .ok();
    }
    ok &= db->Flush().ok();
    Oracle oracle(&keys, kValueBytes);
    std::vector<RangeQuery> qs =
        proteus::GenerateQueries(keys, ShortCorrelated(), 300, 7);
    for (size_t i = 0; i < qs.size(); i += 3) qs[i] = {keys[i], keys[i]};
    const auto enc = Encode(qs);
    auto engine = proteus::QueryEngine::Create(db.get(), kScheduler);
    std::vector<proteus::MultiSeekResult> multi;
    engine->Run(enc, &multi);
    size_t found = 0;
    for (size_t i = 0; i < qs.size(); ++i) {
      const uint64_t expect = oracle.Expect(qs[i].lo, qs[i].hi);
      SeekResult r = db->Seek(enc[i].lo, enc[i].hi);
      const uint64_t seek_digest = Digest(r);
      ok &= seek_digest == expect;                 // real answer passes
      ok &= Digest(multi[i]) == seek_digest;       // MultiSeek == Seek
      if (r.found) {
        ++found;
        SeekResult wrong_key = r;
        wrong_key.key = EncodeKeyBE(proteus::DecodeKeyBE(r.key) + 1);
        ok &= Digest(wrong_key) != expect;
        SeekResult wrong_value = r;
        wrong_value.value[kValueBytes - 1] ^= 1;
        ok &= Digest(wrong_value) != expect;
        SeekResult missing = r;
        missing.found = false;
        ok &= Digest(missing) != expect;
      } else {
        SeekResult invented = r;
        invented.found = true;
        invented.key = enc[i].lo;
        invented.value = proteus::MakeValuePayload(qs[i].lo, kValueBytes);
        ok &= Digest(invented) != expect;
      }
      SeekResult failed = r;
      failed.status = Status::IOError("fabricated");
      ok &= Digest(failed) != expect;
    }
    ok &= found > 0 && found < qs.size();
    // The live oracle accepts a committed newer key and rejects one that
    // was never written.
    std::vector<uint64_t> inserted = {keys[10] + 1};
    Oracle inserted_oracle(&inserted, kValueBytes);
    SeekResult newer;
    newer.found = true;
    newer.key = EncodeKeyBE(keys[10] + 1);
    newer.value = proteus::MakeValuePayload(keys[10] + 1, kValueBytes);
    const uint64_t lo = keys[10] + 1, hi = keys[11];
    ok &= LiveAnswerOk(newer, lo, hi, oracle.Expect(lo, hi), oracle,
                       inserted_oracle);
    newer.key = EncodeKeyBE(keys[10] + 2);
    ok &= !LiveAnswerOk(newer, lo, hi, oracle.Expect(lo, hi), oracle,
                        inserted_oracle);
  }
  std::filesystem::remove_all(dir, ec);
  return ok;
}

// ---------------------------------------------------------------------------
// Set-up: Db::Create, preload, flush/compaction drain, L0 overlay, warm-up.

DbOptions MakeDbOptions(const Workload& w, const std::string& dir) {
  DbOptions o;
  o.dir = dir;
  o.memtable_bytes = 4u << 20;
  o.sst_target_bytes = 4u << 20;
  o.l1_size_bytes = 16u << 20;
  o.block_cache_bytes = w.cache_bytes;
  o.filter_policy = proteus::MakeFilterPolicy(kFilterSpec);
  // Only ingest_mixed runs the adaptive loop. Its sample queue records
  // every empty query, so the window follows the shift within the run (as
  // in examples/workload_shift.cc). The read workloads keep the default
  // rate and hold the tree fixed: without that, read_long_cold's live
  // window drifts from the seeded one and background redesigns rewrite
  // files in the middle of the read phases.
  if (w.ingest) o.queue_options.sample_rate = 1;
  o.adaptive_redesign = w.ingest;
  return o;
}

constexpr proteus::WriteOptions kNoSync{.sync = false};

struct SetupRun {
  std::unique_ptr<Db> db;
  double setup_s = 0, load_s = 0, compact_s = 0;
  Counters before;  // just after Create
  uint64_t user_bytes = 0;
};

/// One set-up; the preload Puts are timed into `puts`.
SetupRun SetUp(const Workload& w, const Inputs& in,
               const std::vector<StrRangeQuery>& queries,
               const std::string& dir, Stream* puts, SpanLog* log,
               Tally* tally) {
  SetupRun out;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // a leftover tree would be recovered
  ScopedSpan setup_span(log, SpanName::kSetup, true);
  const int64_t t0 = NowNs();
  auto [db, status] = Db::Create(MakeDbOptions(w, dir));
  if (db == nullptr) {
    std::fprintf(stderr, "Db::Create failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  out.before = Counters::Take(*db);
  std::vector<std::pair<std::string, std::string>> seed_queue;
  for (const auto& q : in.samples) {
    seed_queue.emplace_back(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
  }
  db->query_queue().Seed(seed_queue);

  auto put = [&](uint64_t k, Stream* timed) {
    const std::string key = EncodeKeyBE(k);
    const std::string value = proteus::MakeValuePayload(k, kValueBytes);
    Status s;
    const int64_t a = NowNs();
    {
      ScopedSpan span(log, SpanName::kPut, true);
      s = db->Put(key, value, kNoSync);
    }
    if (timed != nullptr) timed->Add(a, NowNs());
    ++tally->attempted;
    if (!s.ok()) ++tally->failed;
    out.user_bytes += key.size() + value.size();
  };

  const int64_t load0 = NowNs();
  for (uint64_t k : in.load_order) put(k, puts);
  out.load_s = static_cast<double>(NowNs() - load0) / 1e9;
  puts->Cut();

  const int64_t compact0 = NowNs();
  {
    ScopedSpan span(log, SpanName::kCompactAll, true);
    Status s = db->CompactAll();
    db->WaitForBackground();
    if (!s.ok()) ++tally->failed;
  }
  out.compact_s = static_cast<double>(NowNs() - compact0) / 1e9;

  // Two small L0 files and a live memtable over the sorted levels, so
  // reads cross every part of the tree. The overwrites keep each key's
  // value, so the reference is unchanged.
  for (size_t slice = 0; slice < 3; ++slice) {
    for (size_t i = slice; i < kOverlayPuts; i += 3) {
      put(in.keys[(i * 104729) % in.keys.size()], nullptr);
    }
    if (slice < 2) {
      ScopedSpan span(log, SpanName::kFlush, true);
      if (!db->Flush().ok()) ++tally->failed;
    }
  }
  db->WaitForBackground();

  for (size_t i = 0; i < w.warmup_queries; ++i) {
    const auto& q = queries[i % queries.size()];
    ScopedSpan span(log, SpanName::kSeek, true);
    db->Seek(q.lo, q.hi);
  }
  out.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.db = std::move(db);
  return out;
}

// ---------------------------------------------------------------------------
// Read phases

/// What a traced Seek phase measured about tracing itself.
struct TraceOverhead {
  double untraced_s = 0, traced_s = 0;
  uint64_t untraced_ops = 0, traced_ops = 0;

  double Pct() const {
    if (untraced_ops == 0 || traced_ops == 0) return 0.0;
    const double untraced = static_cast<double>(untraced_ops) / untraced_s;
    const double traced = static_cast<double>(traced_ops) / traced_s;
    return (untraced / traced - 1.0) * 100.0;
  }
};

/// Closed-loop Seek over `queries` (cycled) until `seconds` pass, timed
/// into `stream`. Every answer is checked against `expected`; `seen`
/// keeps each query's answer for the MultiSeek comparison. With a span
/// log, blocks of kTraceBlock seeks alternate untraced, traced, traced,
/// untraced, ... so a drift in speed cancels out of `overhead`. Returns
/// the counter delta of the phase.
Delta RunSeekPhase(Db& db, const std::vector<StrRangeQuery>& queries,
                   const std::vector<uint64_t>& expected,
                   std::vector<uint64_t>* seen, double seconds, Stream* stream,
                   SpanLog* log, TraceOverhead* overhead, Tally* tally) {
  const Counters before = Counters::Take(db);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  size_t i = 0;
  for (int64_t now = start; now < deadline;) {
    const bool traced = log != nullptr && ((i / kTraceBlock + 1) / 2) % 2 == 1;
    const int64_t block_start = now;
    const size_t block_first = i;
    const size_t block_end = (i / kTraceBlock + 1) * kTraceBlock;
    ScopedSpan phase_span(traced ? log : nullptr, SpanName::kPhase, true);
    for (; i < block_end && now < deadline; ++i) {
      const size_t qi = i % queries.size();
      const int64_t a = NowNs();
      SeekResult r;
      {
        ScopedSpan span(traced ? log : nullptr, SpanName::kSeek, true);
        r = db.Seek(queries[qi].lo, queries[qi].hi);
      }
      now = NowNs();
      stream->Add(a, now);
      const uint64_t d = Digest(r);
      (*seen)[qi] = d;
      ++tally->attempted;
      if (d != expected[qi]) ++tally->failed;
    }
    if (overhead != nullptr) {
      const double block_s = static_cast<double>(now - block_start) / 1e9;
      (traced ? overhead->traced_s : overhead->untraced_s) += block_s;
      (traced ? overhead->traced_ops : overhead->untraced_ops) += i - block_first;
    }
  }
  stream->Cut();
  return Delta(before, Counters::Take(db));
}

std::vector<QueryBatch> MakeBatches(const std::vector<StrRangeQuery>& queries) {
  std::vector<QueryBatch> out;
  for (size_t off = 0; off + kBatch <= queries.size(); off += kBatch) {
    out.emplace_back(queries.begin() + static_cast<ptrdiff_t>(off),
                     queries.begin() + static_cast<ptrdiff_t>(off + kBatch));
  }
  return out;
}

/// Closed-loop QueryEngine::Run over `batches` (cycled) until `seconds`
/// pass, timed into `stream` (latency per batch). Each answer must equal
/// the reference and the Seek answer for the same query, when the Seek
/// phase reached it.
void RunMultiSeekPhase(proteus::QueryEngine& engine,
                       const std::vector<QueryBatch>& batches,
                       const std::vector<uint64_t>& expected,
                       const std::vector<uint64_t>& seen, double seconds,
                       Stream* stream, SpanLog* log, Tally* tally) {
  std::vector<proteus::MultiSeekResult> results;
  ScopedSpan phase_span(log, SpanName::kPhase, true);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t now = start, b = 0; now < deadline; ++b) {
    const size_t bi = static_cast<size_t>(b) % batches.size();
    const int64_t a = NowNs();
    {
      ScopedSpan span(log, SpanName::kMultiSeekBatch, true);
      engine.Run(batches[bi], &results);
    }
    now = NowNs();
    stream->Add(a, now);
    for (size_t j = 0; j < results.size(); ++j) {
      const size_t qi = bi * kBatch + j;
      const uint64_t d = Digest(results[j]);
      ++tally->attempted;
      if (d != expected[qi] || (seen[qi] != kDigestUnseen && d != seen[qi])) {
        ++tally->failed;
      }
    }
  }
  stream->Cut();
}

/// The scheduler's share of a batch: Plan on the same batches, median of
/// three passes, in ns per query.
double PlanNsPerQuery(const proteus::Scheduler& scheduler,
                      const std::vector<QueryBatch>& batches) {
  std::vector<double> reps;
  std::vector<uint32_t> order;
  const proteus::ScheduleContext context;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t a = NowNs();
    for (const auto& batch : batches) scheduler.Plan(batch, context, &order);
    reps.push_back(static_cast<double>(NowNs() - a) /
                   static_cast<double>(batches.size() * kBatch));
  }
  return Median(reps);
}

// ---------------------------------------------------------------------------
// Core/model phase (traced run): Design and Build one filter over the
// workload's keys and samples, then probe it with the workload's queries.

struct CorePhase {
  double design_ms = 0, build_ms = 0, bits_per_key = 0;
  double modeled_fpr = 0, fpr = 0, probe_ns = 0, multiprobe_ns = 0;
};

CorePhase RunCorePhase(const std::vector<uint64_t>& keys,
                       const std::vector<RangeQuery>& samples,
                       const std::vector<RangeQuery>& queries, SpanLog* log,
                       Tally* tally) {
  CorePhase out;
  ScopedSpan phase_span(log, SpanName::kPhase, true);
  proteus::FilterBuilder builder(keys);
  builder.Sample(samples);
  int64_t a = NowNs();
  {
    ScopedSpan span(log, SpanName::kDesign);
    builder.Design();
  }
  out.design_ms = static_cast<double>(NowNs() - a) / 1e6;
  a = NowNs();
  std::unique_ptr<proteus::RangeFilter> filter;
  {
    ScopedSpan span(log, SpanName::kBuild);
    filter = builder.Build(kFilterSpec);
  }
  out.build_ms = static_cast<double>(NowNs() - a) / 1e6;
  if (filter == nullptr) {
    ++tally->failed;
    return out;
  }
  out.bits_per_key =
      static_cast<double>(filter->SizeBits()) / static_cast<double>(keys.size());
  out.modeled_fpr = filter->ModeledFpr().value_or(0.0);

  // Empty queries measure FPR; present-key point lookups must pass (a
  // false negative is a wrong answer), and MultiMayContain must agree
  // with MayContain.
  std::vector<uint64_t> lo, hi;
  std::vector<uint8_t> must_pass;
  for (const auto& q : queries) {
    const bool empty = proteus::RangeIsEmpty(keys, q.lo, q.hi);
    if (!empty && q.lo != q.hi) continue;
    lo.push_back(q.lo);
    hi.push_back(q.hi);
    must_pass.push_back(empty ? 0 : 1);
  }
  const size_t n = lo.size();
  uint64_t positives = 0, empties = 0;
  const size_t batched = n / kBatch * kBatch;
  std::vector<double> single, multi;
  std::vector<uint8_t> verdict(n), batch_verdict(batched);
  for (int rep = 0; rep < 3; ++rep) {
    a = NowNs();
    for (size_t i = 0; i < n; ++i) verdict[i] = filter->MayContain(lo[i], hi[i]);
    single.push_back(static_cast<double>(NowNs() - a) / static_cast<double>(n));
    a = NowNs();
    for (size_t off = 0; off < batched; off += kBatch) {
      filter->MultiMayContain(&lo[off], &hi[off], kBatch, &batch_verdict[off]);
    }
    multi.push_back(static_cast<double>(NowNs() - a) /
                    static_cast<double>(batched));
  }
  for (size_t i = 0; i < n; ++i) {
    ++tally->attempted;
    if ((must_pass[i] && !verdict[i]) ||
        (i < batched && batch_verdict[i] != verdict[i])) {
      ++tally->failed;
    }
    if (!must_pass[i]) {
      ++empties;
      positives += verdict[i];
    }
  }
  out.fpr = empties == 0 ? 0.0
                         : static_cast<double>(positives) /
                               static_cast<double>(empties);
  out.probe_ns = Median(single);
  out.multiprobe_ns = Median(multi);
  // One traced pass: a span around every probe call.
  for (size_t i = 0; i < std::min<size_t>(n, 65536); ++i) {
    ScopedSpan span(log, SpanName::kProbe, true);
    verdict[i] = filter->MayContain(lo[i], hi[i]);
  }
  for (size_t off = 0; off < batched; off += kBatch) {
    ScopedSpan span(log, SpanName::kProbe, true);
    filter->MultiMayContain(&lo[off], &hi[off], kBatch, &batch_verdict[off]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ingest phase: one writer Puts a fixed number of new keys while one
// reader Seeks; once half the keys are written, the reader's stream shifts
// from short correlated ranges to the split mix, so drift detection and
// redesign run beside flush and compaction. A fixed amount of work (not
// a fixed time) makes the quiesced tree the same size on every run.

struct IngestPhase {
  Delta delta;                  // live phase plus the drain
  std::vector<uint64_t> acked;  // keys whose Put returned OK
};

IngestPhase RunIngestPhase(Db& db, const Inputs& in,
                           const std::vector<uint64_t>& new_keys,
                           const std::vector<StrRangeQuery>& before_shift,
                           const std::vector<uint64_t>& before_expected,
                           const std::vector<StrRangeQuery>& after_shift,
                           const std::vector<uint64_t>& after_expected,
                           Stream* reads, Stream* writes, SpanLog* reader_log,
                           SpanLog* writer_log, Tally* tally) {
  const Oracle preload(&in.keys, kValueBytes);
  std::vector<uint64_t> new_sorted = new_keys;
  std::sort(new_sorted.begin(), new_sorted.end());
  const Oracle inserted(&new_sorted, kValueBytes);
  const Counters before = Counters::Take(db);
  std::atomic<size_t> written{0};
  std::atomic<bool> done{false};
  IngestPhase out{Delta(before, before), {}};
  out.acked.reserve(new_keys.size());
  Tally writer_tally;
  std::thread writer([&] {
    ScopedSpan phase_span(writer_log, SpanName::kPhase, true);
    for (uint64_t k : new_keys) {
      const std::string key = EncodeKeyBE(k);
      const std::string value = proteus::MakeValuePayload(k, kValueBytes);
      const int64_t a = NowNs();
      Status s;
      {
        ScopedSpan span(writer_log, SpanName::kPut, true);
        s = db.Put(key, value, kNoSync);
      }
      writes->Add(a, NowNs());
      ++writer_tally.attempted;
      if (s.ok()) {
        out.acked.push_back(k);
      } else {
        ++writer_tally.failed;
      }
      written.fetch_add(1, std::memory_order_relaxed);
    }
    done.store(true);
  });

  {
    ScopedSpan phase_span(reader_log, SpanName::kPhase, true);
    for (size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
      const bool shifted =
          written.load(std::memory_order_relaxed) * 2 >= new_keys.size();
      const auto& queries = shifted ? after_shift : before_shift;
      const auto& expected = shifted ? after_expected : before_expected;
      const auto& ints = shifted ? in.shifted : in.queries;
      const size_t qi = i % queries.size();
      const int64_t a = NowNs();
      SeekResult r;
      {
        ScopedSpan span(reader_log, SpanName::kSeek, true);
        r = db.Seek(queries[qi].lo, queries[qi].hi);
      }
      reads->Add(a, NowNs());
      ++tally->attempted;
      if (!LiveAnswerOk(r, ints[qi].lo, ints[qi].hi, expected[qi], preload,
                        inserted)) {
        ++tally->failed;
      }
    }
  }
  writer.join();
  reads->Cut();
  writes->Cut();
  // Drain: the memtable goes to L0 and maintenance runs until every
  // level is within its limit.
  if (!db.Flush().ok()) ++tally->failed;
  db.WaitForBackground();
  tally->attempted += writer_tally.attempted;
  tally->failed += writer_tally.failed;
  out.delta = Delta(before, Counters::Take(db));
  return out;
}

/// One single-threaded Seek per query, checked against `expected`; the
/// counters of this pass give the quiesced FPR.
Delta VerifyPass(Db& db, const std::vector<StrRangeQuery>& queries,
                 const std::vector<uint64_t>& expected,
                 std::vector<uint64_t>* seen, Tally* tally) {
  const Counters before = Counters::Take(db);
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t d = Digest(db.Seek(queries[i].lo, queries[i].hi));
    (*seen)[i] = d;
    ++tally->attempted;
    if (d != expected[i]) ++tally->failed;
  }
  return Delta(before, Counters::Take(db));
}

/// Everything ingest_mixed measures on one tree: the live phase over
/// `new_keys`, the drain, two quiesced passes and a MultiSeek phase of
/// `multiseek_s` (plus, traced, a Seek pass as long for the tracing
/// overhead). Returns the live and quiesced counter deltas.
struct IngestResult {
  Delta live, quiesced;
  size_t acked = 0;
  double live_s = 0, quiesce_s = 0;  // live phase + drain; quiesced passes
};

IngestResult IngestSlice(Db& db, proteus::QueryEngine& engine,
                         const Inputs& in, const std::vector<uint64_t>& new_keys,
                         const std::vector<StrRangeQuery>& queries,
                         const std::vector<uint64_t>& expected,
                         const std::vector<StrRangeQuery>& shifted,
                         const std::vector<uint64_t>& shifted_expected,
                         double multiseek_s, uint64_t seed, Stream* reads,
                         Stream* writes, Stream* multis, SpanLog* reader_log,
                         SpanLog* writer_log, SpanLog* multi_log,
                         SpanLog* seek_log, TraceOverhead* overhead,
                         Tally* tally) {
  const int64_t t0 = NowNs();
  IngestPhase live = RunIngestPhase(db, in, new_keys, queries, expected,
                                    shifted, shifted_expected, reads, writes,
                                    reader_log, writer_log, tally);
  // The quiesced reference: the preload plus every acknowledged write.
  // Every 16th query of the pass looks up one of those writes.
  std::vector<uint64_t> reference = live.acked;
  std::sort(reference.begin(), reference.end());
  reference.insert(reference.end(), in.keys.begin(), in.keys.end());
  std::inplace_merge(reference.begin(), reference.end() - in.keys.size(),
                     reference.end());
  const Oracle full(&reference, kValueBytes);
  const int64_t t1 = NowNs();
  std::vector<RangeQuery> verify(in.shifted.begin(),
                                 in.shifted.begin() + kVerifyQueries);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < verify.size() && !live.acked.empty();
       i += kPointEvery) {
    const uint64_t k = live.acked[rng() % live.acked.size()];
    verify[i] = {k, k};
  }
  const auto verify_str = Encode(verify);
  const auto verify_expected = ExpectedDigests(full, verify);
  std::vector<uint64_t> seen(verify.size(), kDigestUnseen);
  // The first pass lets the drift detector flag the filters the shift
  // left stale and maintenance redesign them; the second pass measures
  // the adapted tree.
  VerifyPass(db, verify_str, verify_expected, &seen, tally);
  db.WaitForBackground();
  IngestResult out{live.delta,
                   VerifyPass(db, verify_str, verify_expected, &seen, tally),
                   live.acked.size(), static_cast<double>(t1 - t0) / 1e9, 0};
  db.WaitForBackground();
  out.quiesce_s = static_cast<double>(NowNs() - t1) / 1e9;
  RunMultiSeekPhase(engine, MakeBatches(verify_str), verify_expected, seen,
                    multiseek_s, multis, multi_log, tally);
  if (seek_log->enabled()) {
    // Traced run: the tracing-overhead pass runs on the quiesced tree.
    Stream unused(kSeekWindow, 1);
    RunSeekPhase(db, verify_str, verify_expected, &seen, multiseek_s, &unused,
                 seek_log, overhead, tally);
  }
  return out;
}

// ---------------------------------------------------------------------------
// One run

double PerQuery(uint64_t count, uint64_t queries) {
  return queries == 0 ? 0.0
                      : static_cast<double>(count) / static_cast<double>(queries);
}

/// Sets <prefix>_qps, _p50_us and _p99_us from `stream` and logs them
/// with their sample counts.
void SetStreamMetrics(Metrics* m, const std::string& prefix, Stream* stream) {
  m->Set(prefix + "_qps", stream->Qps(), "1/s");
  m->Set(prefix + "_p50_us", stream->P50Us(), "us");
  m->Set(prefix + "_p99_us", stream->P99Us(), "us");
  std::printf("%-10s %10llu calls, %4zu windows of %6zu: median %12.0f "
              "ops/s  p50 %8.2f us  p99 %8.2f us\n",
              prefix.c_str(), static_cast<unsigned long long>(stream->calls()),
              stream->windows(), stream->window_calls(), stream->Qps(),
              stream->P50Us(), stream->P99Us());
}

void SetReadPathMetrics(Metrics* m, const Delta& d) {
  const uint64_t q = d.seeks;
  m->Set("lsm.filter_checks_per_query", PerQuery(d.filter_checks, q), "count");
  m->Set("lsm.filter_negative_ratio", PerQuery(d.filter_negatives, d.filter_checks),
         "ratio");
  m->Set("lsm.fp_files_per_query", PerQuery(d.fp_files, q), "count");
  m->Set("lsm.sst_seeks_per_query", PerQuery(d.sst_seeks, q), "count");
  m->Set("lsm.blocks_per_query", PerQuery(d.cache_hits + d.cache_misses, q),
         "count");
  m->Set("lsm.cache_misses_per_query", PerQuery(d.cache_misses, q), "count");
  m->Set("lsm.cache_hit_ratio",
         PerQuery(d.cache_hits, d.cache_hits + d.cache_misses), "ratio");
  for (int l = 0; l < 4; ++l) {
    m->Set("lsm.level_fpr.L" + std::to_string(l), d.Fpr(l), "ratio");
  }
}

void SetMaintenanceMetrics(Metrics* m, const Delta& d) {
  m->Set("lsm.flushes", static_cast<double>(d.flushes), "count");
  m->Set("lsm.compactions", static_cast<double>(d.compactions), "count");
  m->Set("lsm.filter_build_ms", static_cast<double>(d.filter_build_ns) / 1e6, "ms");
  m->Set("lsm.wal_syncs_per_put", PerQuery(d.wal_syncs, d.puts), "count");
  m->Set("lsm.write_stalls", static_cast<double>(d.write_stalls), "count");
  m->Set("lsm.stall_wait_ms", static_cast<double>(d.stall_wait_us) / 1e3, "ms");
  m->Set("lsm.drift_detected", static_cast<double>(d.drift_detected), "count");
  m->Set("lsm.redesigns", static_cast<double>(d.redesigns), "count");
}

void SetCoreMetrics(Metrics* m, const CorePhase& c) {
  m->Set("core.probe_ns", c.probe_ns, "ns");
  m->Set("core.multiprobe_ns", c.multiprobe_ns, "ns");
  m->Set("core.build_ms", c.build_ms, "ms");
  m->Set("model.design_ms", c.design_ms, "ms");
  m->Set("core.fpr", c.fpr, "ratio");
  m->Set("core.bits_per_key", c.bits_per_key, "bits");
  m->Set("model.modeled_fpr", c.modeled_fpr, "ratio");
  m->Set("model.fpr_gap", c.modeled_fpr > 0 ? c.fpr / c.modeled_fpr : 0.0,
         "ratio");
}

void SetTraceMetrics(Metrics* m, const std::vector<const SpanLog*>& logs,
                     double overhead_pct) {
  SpanSummary summary;
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) {
    summary.Add(*log);
    dropped += log->dropped();
  }
  std::printf("%-12s %-7s %10s %12s %12s\n", "span", "layer", "count",
              "total_ms", "self_ms");
  std::map<std::string, double> layer_self_ms;
  uint64_t spans = 0;
  for (size_t n = 0; n < summary.count.size(); ++n) {
    std::printf("%-12s %-7s %10llu %12.3f %12.3f\n", kSpanNames[n],
                kSpanLayers[n], static_cast<unsigned long long>(summary.count[n]),
                summary.total_ns[n] / 1e6, summary.self_ns[n] / 1e6);
    layer_self_ms[kSpanLayers[n]] += summary.self_ns[n] / 1e6;
    spans += summary.count[n];
  }
  for (const auto& [layer, ms] : layer_self_ms) {
    m->Set("trace." + layer + ".self_ms", ms, "ms");
  }
  m->Set("trace.spans", static_cast<double>(spans), "count");
  m->Set("trace.dropped_spans", static_cast<double>(dropped), "count");
  m->Set("trace.overhead_pct", overhead_pct, "%");
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& candidate : Workloads()) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  char config[512];
  std::snprintf(config, sizeof(config),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"simd_avx2\": %s, \"build_type\": \"%s\", "
                "\"nproc\": %u, \"filter\": \"%s\", \"scheduler\": \"%s\", "
                "\"keys\": %zu, \"value_bytes\": %zu, \"cache_mb\": %llu}",
                w->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0,
                proteus::SimdAvx2Enabled() ? "true" : "false",
                PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                kFilterSpec, kScheduler, kKeys, kValueBytes,
                static_cast<unsigned long long>(w->cache_bytes >> 20));
  std::printf("config %s\n", config);

  const int64_t run_start = NowNs();
  Tally tally;
  const bool self_test_ok = OracleSelfTest(args.dir + "/selftest");
  std::printf("oracle self-test: %s\n", self_test_ok ? "pass" : "FAIL");

  // Inputs and the reference (not part of set-up time).
  const Inputs in = MakeInputs(*w, args.seed, args.seconds);
  const std::vector<StrRangeQuery> queries = Encode(in.queries);
  const Oracle preload(&in.keys, kValueBytes);
  const std::vector<uint64_t> expected = ExpectedDigests(preload, in.queries);
  std::vector<StrRangeQuery> shifted;
  std::vector<uint64_t> shifted_expected;
  if (w->ingest) {
    shifted = Encode(in.shifted);
    shifted_expected = ExpectedDigests(preload, in.shifted);
  }

  std::printf("inputs: %.3f s\n", static_cast<double>(NowNs() - run_start) / 1e9);

  const bool trace = args.trace;
  SpanLog setup_log(trace, 1'400'000), seek_log(trace, 1'000'000);
  SpanLog multi_log(trace, 200'000), core_log(trace, 200'000);
  // The writer records one span per Put plus its phase span.
  SpanLog writer_log(trace, in.new_keys.size() + 1);
  SpanLog reader_log(trace, 1'000'000);
  const std::vector<const SpanLog*> logs = {&setup_log, &seek_log,
                                            &multi_log, &core_log,
                                            &writer_log, &reader_log};

  // Set-up runs kSetupRepeats times (once when traced), each from a wiped
  // directory, so setup_s is a median. Every tree gets a slice of the
  // workload's phases, so they sample the whole run rather than its last
  // seconds, and more than one tree built from the same inputs.
  const std::string db_dir = args.dir + "/db";
  const int repeats = trace ? 1 : kSetupRepeats;
  const double s = args.seconds;
  const std::vector<QueryBatch> batches = MakeBatches(queries);
  std::vector<uint64_t> seen(queries.size(), kDigestUnseen);
  std::vector<double> setup_s, load_s, compact_s;
  Stream seeks(kSeekWindow, 1), multis(kBatchWindow, kBatch), puts(kPutWindow, 1);
  Stream preload_puts(kPutWindow, 1);
  std::optional<Delta> read_delta, maint_delta;
  TraceOverhead overhead;
  Metrics e2e, layer;
  SetupRun setup;
  uint64_t user_bytes = 0;
  const size_t slice_keys = in.new_keys.size() / repeats;
  for (int r = 0; r < repeats; ++r) {
    setup.db.reset();
    setup = SetUp(*w, in, queries, db_dir, &preload_puts, &setup_log, &tally);
    setup_s.push_back(setup.setup_s);
    load_s.push_back(setup.load_s);
    compact_s.push_back(setup.compact_s);
    std::printf("setup %d: %.3f s (load %.3f s, compact %.3f s)\n", r,
                setup.setup_s, setup.load_s, setup.compact_s);
    Db& db = *setup.db;
    auto engine = proteus::QueryEngine::Create(&db, kScheduler);
    user_bytes = setup.user_bytes;
    Delta measured(setup.before, setup.before), maintenance = measured;
    if (!w->ingest) {
      measured = RunSeekPhase(db, queries, expected, &seen,
                              s * (trace ? 0.4 : 0.5) / repeats, &seeks,
                              trace ? &seek_log : nullptr, &overhead, &tally);
      RunMultiSeekPhase(*engine, batches, expected, seen,
                        s * (trace ? 0.3 : 0.5) / repeats, &multis,
                        &multi_log, &tally);
      // No writes after set-up: maintenance counters run from Create to
      // the end of the read phases, so a redesign during them would show.
      maintenance = Delta(setup.before, Counters::Take(db));
    } else {
      const std::vector<uint64_t> new_keys(
          in.new_keys.begin() + static_cast<ptrdiff_t>(r * slice_keys),
          in.new_keys.begin() + static_cast<ptrdiff_t>((r + 1) * slice_keys));
      const IngestResult ingest = IngestSlice(
          db, *engine, in, new_keys, queries, expected, shifted,
          shifted_expected, s * 0.4 / repeats, args.seed + r, &seeks, &puts,
          &multis, &reader_log, &writer_log, &multi_log, &seek_log, &overhead,
          &tally);
      measured = ingest.quiesced;
      maintenance = ingest.live;
      user_bytes += ingest.acked * (8 + kValueBytes);
      std::printf("ingest %d: %.3f s live + drain, %.3f s quiesced passes; "
                  "%zu acknowledged puts, %llu flushes, %llu compactions, "
                  "%llu drift flags, %llu redesigns\n",
                  r, ingest.live_s, ingest.quiesce_s, ingest.acked,
                  static_cast<unsigned long long>(ingest.live.flushes),
                  static_cast<unsigned long long>(ingest.live.compactions),
                  static_cast<unsigned long long>(ingest.live.drift_detected),
                  static_cast<unsigned long long>(ingest.live.redesigns));
    }
    read_delta = read_delta ? (*read_delta += measured) : measured;
    maint_delta = maint_delta ? (*maint_delta += maintenance) : maintenance;
  }
  Db& db = *setup.db;
  auto engine = proteus::QueryEngine::Create(&db, kScheduler);
  const double plan_ns = PlanNsPerQuery(engine->scheduler(), batches);
  CorePhase core;
  if (trace) {
    core = RunCorePhase(in.keys, w->ingest ? in.shifted_samples : in.samples,
                        w->ingest ? in.shifted : in.queries, &core_log, &tally);
  }
  SetStreamMetrics(&e2e, "seek", &seeks);
  SetStreamMetrics(&e2e, "multiseek", &multis);
  SetStreamMetrics(&e2e, "put", w->ingest ? &puts : &preload_puts);
  e2e.Set("fpr", read_delta->Fpr(), "ratio");
  e2e.Set("filter_bits_per_key",
          PerQuery(db.TotalFilterBits(), db.TotalKeys()), "bits");
  e2e.Set("sst_bytes_per_user_byte", PerQuery(db.TotalSstBytes(), user_bytes),
          "ratio");
  e2e.Set("setup_s", Median(setup_s), "s");

  SetReadPathMetrics(&layer, *read_delta);
  SetMaintenanceMetrics(&layer, *maint_delta);
  layer.Set("lsm.load_s", Median(load_s), "s");
  layer.Set("lsm.compact_s", Median(compact_s), "s");
  layer.Set("engine.plan_ns_per_query", plan_ns, "ns");
  SetCoreMetrics(&layer, core);
  if (trace) {
    SetTraceMetrics(&layer, logs, overhead.Pct());
    // One span file at a time: drop those of earlier traced runs.
    for (const auto& old : std::filesystem::directory_iterator(args.dir, ec)) {
      if (old.path().string().ends_with(".spans.tsv")) {
        std::filesystem::remove(old.path(), ec);
      }
    }
    const std::string path = args.dir + "/" + w->name + ".spans.tsv";
    if (!WriteSpans(path, logs, run_start, config)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }

  const int64_t close_start = NowNs();
  engine.reset();
  setup.db.reset();
  std::filesystem::remove_all(db_dir, ec);
  std::printf("close: %.3f s, run: %.3f s\n",
              static_cast<double>(NowNs() - close_start) / 1e9,
              static_cast<double>(NowNs() - run_start) / 1e9);

  e2e.Set("success_rate",
          tally.attempted == 0
              ? 0.0
              : 1.0 - static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted),
          "ratio");
  const bool correct = self_test_ok && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              (trace ? layer : e2e).Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
