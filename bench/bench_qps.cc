// Load generator for the batched query engine: sequential Seek versus
// MultiSeek at several batch sizes over a multi-SST tree, reporting
// throughput and p50/p99/p999 request latency.
//
// Modes:
//   closed loop (default): the next request is issued the moment the
//     previous one completes; latency is pure service time.
//   open loop (--rate=QPS): requests arrive on a fixed schedule whether
//     or not the engine has caught up, so latency includes queue delay —
//     the tail a real server would show at that offered load.
//   --server=HOST:PORT: drive a running example_server over the wire
//     protocol instead of the in-process engine (the DB flags are then
//     ignored; make the server's --keys match for a meaningful found%).
//
// Extra flags beyond bench_common's: --batch=1,16,64,256 (comma list;
// batch 1 runs the one-at-a-time Seek baseline), --rate=QPS,
// --cache-mb=N. --json=PATH dumps one record per (mode, batch) pair.
// MultiSeek always runs each batch in key-sorted order.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.h"
#include "engine/wire.h"
#include "lsm/db.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

double PercentileUs(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_us.size() - 1);
  return sorted_us[static_cast<size_t>(rank + 0.5)];
}

// --- wire-protocol client (for --server mode) ---

int ConnectTo(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t w = ::write(fd, data.data(), data.size());
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(w));
  }
  return true;
}

bool RecvExact(int fd, char* buf, size_t n) {
  while (n > 0) {
    ssize_t r = ::read(fd, buf, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    buf += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool RecvFrame(int fd, std::string* payload) {
  char header[4];
  if (!RecvExact(fd, header, 4)) return false;
  const uint32_t length = LoadFixed32(header);
  if (length > kWireMaxFrameBytes) return false;
  payload->resize(length);
  return length == 0 || RecvExact(fd, payload->data(), length);
}

bool ServerRoundTrip(int fd, const QueryBatch& batch,
                     std::vector<MultiSeekResult>* results) {
  std::string request, payload;
  WireEncodeMultiSeekRequest(batch, &request);
  return SendAll(fd, request) && RecvFrame(fd, &payload) &&
         WireDecodeResultsResponse(payload, results);
}

struct QpsArgs {
  std::vector<uint64_t> batches = {1, 16, 64, 256};
  double rate = 0.0;  // open-loop offered load in queries/sec; 0 = closed
  uint64_t cache_mb = 2;
  std::string server_host;
  uint16_t server_port = 0;
};

QpsArgs ParseQpsArgs(int argc, char** argv) {
  QpsArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--batch=", 8) == 0) {
      args.batches.clear();
      for (const char* p = a + 8; *p != '\0';) {
        args.batches.push_back(std::strtoull(p, const_cast<char**>(&p), 10));
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(a, "--rate=", 7) == 0) {
      args.rate = std::strtod(a + 7, nullptr);
    } else if (std::strncmp(a, "--cache-mb=", 11) == 0) {
      args.cache_mb = std::strtoull(a + 11, nullptr, 10);
    } else if (std::strncmp(a, "--server=", 9) == 0) {
      std::string hostport = a + 9;
      size_t colon = hostport.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--server needs HOST:PORT\n");
        std::exit(1);
      }
      args.server_host = hostport.substr(0, colon);
      args.server_port = static_cast<uint16_t>(
          std::strtoul(hostport.c_str() + colon + 1, nullptr, 10));
    }
  }
  if (args.batches.empty()) args.batches.push_back(1);
  return args;
}

struct RunResult {
  double qps = 0.0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  uint64_t found = 0;
  // In-process modes only: counter deltas across the run.
  uint64_t filter_negatives = 0, sst_seeks = 0, blocks_touched = 0;
};

/// One timed pass over `queries` in batches of `batch`. `issue` runs one
/// batch and returns how many queries it found. Open loop (rate > 0)
/// schedules batch i's arrival at i*batch/rate seconds and counts queue
/// delay into its latency.
template <typename IssueFn>
RunResult RunLoop(const std::vector<StrRangeQuery>& queries, uint64_t batch,
                  double rate, IssueFn&& issue) {
  RunResult out;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size() / batch + 1);
  Stopwatch wall;
  size_t batch_index = 0;
  for (size_t off = 0; off < queries.size(); off += batch, ++batch_index) {
    const size_t n = std::min<size_t>(batch, queries.size() - off);
    QueryBatch b(queries.begin() + off, queries.begin() + off + n);
    double arrival_ns = static_cast<double>(wall.ElapsedNanos());
    if (rate > 0) {
      arrival_ns =
          static_cast<double>(batch_index) * static_cast<double>(batch) /
          rate * 1e9;
      while (static_cast<double>(wall.ElapsedNanos()) < arrival_ns) {
        // Offered load is fixed: spin until this batch's scheduled
        // arrival (sleeping overshoots at microsecond gaps).
      }
      arrival_ns = std::min(arrival_ns,
                            static_cast<double>(wall.ElapsedNanos()));
    }
    out.found += issue(b);
    latencies_us.push_back(
        (static_cast<double>(wall.ElapsedNanos()) - arrival_ns) / 1e3);
  }
  const double seconds = wall.ElapsedSeconds();
  out.qps = seconds == 0 ? 0.0 : static_cast<double>(queries.size()) / seconds;
  std::sort(latencies_us.begin(), latencies_us.end());
  out.p50_us = PercentileUs(latencies_us, 0.50);
  out.p99_us = PercentileUs(latencies_us, 0.99);
  out.p999_us = PercentileUs(latencies_us, 0.999);
  return out;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  using namespace proteus;
  using bench::JsonSink;

  bench::Args common = bench::ParseArgs(argc, argv);
  QpsArgs qps = ParseQpsArgs(argc, argv);
  const uint64_t n_keys = common.KeysOr(200000, 10000000);
  const uint64_t n_queries = common.QueriesOr(40000, 1000000);
  const uint64_t n_samples = common.SamplesOr(20000, 20000);
  const std::string filter_spec =
      common.filter.empty() ? "proteus:bpk=14" : common.filter;

  auto keys = GenerateKeys(Dataset::kUniform, n_keys, common.seed);
  QuerySpec query_spec;
  query_spec.dist = QueryDist::kCorrelated;
  query_spec.range_max = uint64_t{1} << 8;
  query_spec.corr_degree = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, query_spec, n_samples, common.seed + 1);
  auto int_queries =
      GenerateQueries(keys, query_spec, n_queries, common.seed + 2);
  auto queries = bench::EncodeQueriesBE(int_queries);
  // A slice of present keys so found% is nonzero and the result path
  // (key/value copies, data-block reads) is exercised too.
  for (size_t i = 0; i < queries.size(); i += 16) {
    const uint64_t k = keys[(i * 7919) % keys.size()];
    queries[i] = {EncodeKeyBE(k), EncodeKeyBE(k)};
  }

  JsonSink sink;
  auto record = [&](const char* mode, uint64_t batch, const RunResult& r) {
    std::printf("%-10s batch=%-5llu qps=%10.0f  p50=%8.1fus  p99=%8.1fus  "
                "p999=%8.1fus  found=%llu\n",
                mode, static_cast<unsigned long long>(batch), r.qps, r.p50_us,
                r.p99_us, r.p999_us, static_cast<unsigned long long>(r.found));
    sink.Add()
        .Str("bench", "qps")
        .Str("mode", mode)
        .Num("batch", static_cast<double>(batch))
        .Num("queries", static_cast<double>(queries.size()))
        .Num("rate", qps.rate)
        .Num("qps", r.qps)
        .Num("p50_us", r.p50_us)
        .Num("p99_us", r.p99_us)
        .Num("p999_us", r.p999_us)
        .Num("found", static_cast<double>(r.found))
        .Num("filter_negatives", static_cast<double>(r.filter_negatives))
        .Num("sst_seeks", static_cast<double>(r.sst_seeks))
        .Num("blocks_touched", static_cast<double>(r.blocks_touched));
  };

  if (!qps.server_host.empty()) {
    // Remote mode: the server owns the DB; every batch size round-trips
    // the wire protocol on one connection.
    int fd = ConnectTo(qps.server_host, qps.server_port);
    if (fd < 0) {
      std::fprintf(stderr, "cannot connect to %s:%u\n",
                   qps.server_host.c_str(), qps.server_port);
      return 1;
    }
    bench::PrintHeader("qps over the wire");
    for (uint64_t batch : qps.batches) {
      std::vector<MultiSeekResult> results;
      RunResult r = RunLoop(queries, batch, qps.rate, [&](const QueryBatch& b) {
        if (!ServerRoundTrip(fd, b, &results)) {
          std::fprintf(stderr, "server round trip failed\n");
          std::exit(1);
        }
        uint64_t found = 0;
        for (const auto& res : results) found += res.found;
        return found;
      });
      record("wire", batch, r);
    }
    ::close(fd);
  } else {
    DbOptions options;
    options.dir = "/tmp/proteus_bench_qps";
    // A leftover tree from a previous run would be recovered and buried
    // under this run's puts, silently skewing every number below.
    std::error_code ec;
    std::filesystem::remove_all(options.dir, ec);
    options.memtable_bytes = 256u << 10;
    options.sst_target_bytes = 256u << 10;
    options.l1_size_bytes = 1u << 20;
    options.block_cache_bytes = qps.cache_mb << 20;
    options.filter_policy = bench::MakePolicyOrDie(filter_spec);
    auto [db_ptr, db_status] = Db::Create(options);
    if (!db_status.ok()) {
      std::fprintf(stderr, "db create failed: %s\n",
                   db_status.ToString().c_str());
      return 1;
    }
    Db& db = *db_ptr;
    std::vector<std::pair<std::string, std::string>> seed_queue;
    for (size_t i = 0; i < samples.size(); ++i) {
      seed_queue.push_back(
          {EncodeKeyBE(samples[i].lo), EncodeKeyBE(samples[i].hi)});
    }
    db.query_queue().Seed(seed_queue);
    for (uint64_t k : keys) db.Put(EncodeKeyBE(k), MakeValuePayload(k, 128));
    db.CompactAll();
    // A fresh memtable + two L0 files on top of the sorted levels, so
    // batches cross every age class the read path has.
    for (int slice = 0; slice < 3; ++slice) {
      for (size_t i = static_cast<size_t>(slice); i < 2000; i += 3) {
        const uint64_t k = keys[(i * 104729) % keys.size()];
        db.Put(EncodeKeyBE(k), MakeValuePayload(k, 128));
      }
      if (slice < 2) db.Flush();
    }

    bench::PrintHeader("qps: sequential Seek vs batched MultiSeek");
    std::vector<MultiSeekResult> results;
    auto run_mode = [&](const char* mode, uint64_t batch, auto&& issue) {
      // Same cache-warming pass before every mode, so batch sizes are
      // compared on steady cache state, not on run order.
      for (size_t i = 0; i < std::min<size_t>(queries.size(), 4000); ++i) {
        db.Seek(queries[i].lo, queries[i].hi);
      }
      db.ResetStats();
      const BlockCache::Stats cache_before = db.cache().stats();
      RunResult r = RunLoop(queries, batch, qps.rate, issue);
      const DbStats& s = db.stats();
      const BlockCache::Stats& cache_after = db.cache().stats();
      r.filter_negatives = s.filter_negatives;
      r.sst_seeks = s.sst_seeks;
      r.blocks_touched = (cache_after.hits - cache_before.hits) +
                         (cache_after.misses - cache_before.misses);
      record(mode, batch, r);
    };
    for (uint64_t batch : qps.batches) {
      if (batch == 0) continue;
      if (batch == 1) {
        run_mode("seek", 1, [&](const QueryBatch& b) {
          return static_cast<uint64_t>(db.Seek(b[0].lo, b[0].hi).found);
        });
      } else {
        run_mode("multiseek", batch, [&](const QueryBatch& b) {
          db.MultiSeek(b, &results);
          uint64_t found = 0;
          for (const auto& res : results) found += res.found;
          return found;
        });
      }
    }
  }

  if (!common.json_path.empty()) sink.WriteArrayOrDie(common.json_path);
  return 0;
}
