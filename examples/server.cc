// A standalone batch-query server: populates an LSM tree with uniform
// keys, then serves MultiSeek batches over the engine/wire.h framed
// protocol (see docs/ARCHITECTURE.md "Query engine") on a TCP port.
//
//   ./build/server --port=7707 --keys=200000
//
// Talk to it with bench_qps --server=127.0.0.1:7707, or any client that
// frames op-1 MultiSeek requests. Each batch runs in key-sorted order.
// A batch that hits a read error gets an Error frame. Ctrl-C shuts it
// down cleanly and prints the serving stats.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/server.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "workload/datasets.h"

namespace {

proteus::BatchServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace proteus;

  std::string host = "127.0.0.1";
  uint64_t port = 0, keys = 200000, value_bytes = 128;
  double bpk = 14.0;
  std::string dir = "/tmp/proteus_example_server";
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--host", &v)) {
      host = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      port = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--keys", &v)) {
      keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--value-bytes", &v)) {
      value_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--bpk", &v)) {
      bpk = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--dir", &v)) {
      dir = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host=H] [--port=N] [--keys=N]\n"
                   "          [--value-bytes=N] [--bpk=F] [--dir=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  DbOptions options;
  options.dir = dir;
  options.memtable_bytes = 1 << 20;
  options.sst_target_bytes = 1 << 20;
  options.l1_size_bytes = 4u << 20;
  if (bpk > 0) options.filter_policy = MakeProteusIntPolicy(bpk);
  auto [db_ptr, create_status] = Db::Create(options);
  if (db_ptr == nullptr) {
    std::fprintf(stderr, "db create failed: %s\n",
                 create_status.ToString().c_str());
    return 1;
  }
  Db& db = *db_ptr;

  std::printf("populating %s with %llu uniform keys...\n", dir.c_str(),
              static_cast<unsigned long long>(keys));
  auto key_values = GenerateKeys(Dataset::kUniform, keys, /*seed=*/42);
  for (uint64_t k : key_values) {
    Status s = db.Put(EncodeKeyBE(k), MakeValuePayload(k, value_bytes));
    if (!s.ok()) {
      std::fprintf(stderr, "Put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  db.CompactAll();

  ServerOptions server_options;
  server_options.host = host;
  server_options.port = static_cast<uint16_t>(port);
  BatchServer server(db_ptr.get(), server_options);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "Start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("serving on %s:%u; Ctrl-C to stop\n", host.c_str(),
              server.port());
  s = server.Serve();
  if (!s.ok()) {
    std::fprintf(stderr, "Serve failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const BatchServer::Stats& st = server.stats();
  std::printf(
      "served %llu batches (%llu queries) over %llu connections, "
      "%llu protocol errors\n",
      static_cast<unsigned long long>(st.batches_served),
      static_cast<unsigned long long>(st.queries_served),
      static_cast<unsigned long long>(st.connections_accepted),
      static_cast<unsigned long long>(st.protocol_errors));
  return 0;
}
