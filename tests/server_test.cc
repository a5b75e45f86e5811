// BatchServer smoke tests: concurrent loopback connections round-trip
// MultiSeek batches through the wire protocol and match direct Seek
// results; protocol errors get an error frame and a closed connection;
// read errors get an error frame on a connection that stays open.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "engine/server.h"
#include "engine/wire.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"
#include "util/serial.h"

namespace proteus {
namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
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

bool RecvFrame(int fd, std::string* payload) {
  char header[4];
  size_t got = 0;
  while (got < 4) {
    ssize_t r = ::read(fd, header + got, 4 - got);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  const uint32_t length = LoadFixed32(header);
  if (length > kWireMaxFrameBytes) return false;
  payload->resize(length);
  size_t off = 0;
  while (off < length) {
    ssize_t r = ::read(fd, payload->data() + off, length - off);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(r);
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  static DbOptions Options() {
    DbOptions options;
    options.dir = "/tmp/proteus_server_test";
    options.memtable_bytes = 64 << 10;
    options.sst_target_bytes = 128 << 10;
    options.block_size = 1024;
    options.filter_policy = MakeProteusIntPolicy(14.0);
    return options;
  }

  // A fresh compacted tree in Options().dir, held in db_.
  void BuildDb() {
    auto [db, create_status] = Db::Create(Options());
    ASSERT_TRUE(create_status.ok()) << create_status.ToString();
    db_ = std::move(db);
    Rng rng(31);
    for (int op = 0; op < 8000; ++op) {
      uint64_t k = rng.NextBelow(4000) * 1000;
      ASSERT_TRUE(
          db_->Put(EncodeKeyBE(k), "v" + std::to_string(op)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  // Serves db_ on an ephemeral port from a background thread.
  void ServeDb() {
    ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_ = std::make_unique<BatchServer>(db_.get(), server_options);
    Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_NE(server_->port(), 0);
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void StartServer() {
    BuildDb();
    ServeDb();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      if (serve_thread_.joinable()) serve_thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
  }

  std::unique_ptr<Db> db_;
  std::unique_ptr<BatchServer> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(ServerTest, PingPong) {
  StartServer();
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string request, payload;
  WireEncodePingRequest(&request);
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpPong);
  ::close(fd);
}

TEST_F(ServerTest, EightConcurrentConnectionsMatchDirectSeek) {
  StartServer();
  constexpr int kConnections = 8;
  constexpr int kBatchesPerConnection = 12;
  constexpr size_t kBatchSize = 48;
  std::atomic<int> failures{0};
  std::vector<std::vector<QueryBatch>> plans(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    Rng rng(100 + c);
    for (int b = 0; b < kBatchesPerConnection; ++b) {
      QueryBatch batch;
      for (size_t i = 0; i < kBatchSize; ++i) {
        uint64_t k = rng.NextBelow(4000) * 1000;
        uint64_t span = rng.NextBelow(5000);
        batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                         EncodeKeyBE(k + span)});
      }
      plans[c].push_back(std::move(batch));
    }
  }

  // All clients hold their connections open concurrently and stream
  // batches; the single-threaded server interleaves them.
  std::vector<std::vector<std::vector<MultiSeekResult>>> replies(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      int fd = ConnectLoopback(server_->port());
      if (fd < 0) {
        ++failures;
        return;
      }
      for (const QueryBatch& batch : plans[c]) {
        std::string request, payload;
        WireEncodeMultiSeekRequest(batch, &request);
        std::vector<MultiSeekResult> results;
        if (!SendAll(fd, request) || !RecvFrame(fd, &payload) ||
            !WireDecodeResultsResponse(payload, &results) ||
            results.size() != batch.size()) {
          ++failures;
          break;
        }
        replies[c].push_back(std::move(results));
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Serving is done; verify every reply against direct Seek on the DB.
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_EQ(replies[c].size(), plans[c].size()) << "connection " << c;
    for (size_t b = 0; b < plans[c].size(); ++b) {
      for (size_t i = 0; i < plans[c][b].size(); ++i) {
        SeekResult direct = db_->Seek(plans[c][b][i].lo, plans[c][b][i].hi);
        const MultiSeekResult& r = replies[c][b][i];
        ASSERT_EQ(r.found, direct.found) << "conn " << c << " batch " << b;
        if (direct.found) {
          ASSERT_EQ(r.key, direct.key);
          ASSERT_EQ(r.value, direct.value);
        }
      }
    }
  }
  EXPECT_GE(server_->stats().connections_accepted,
            static_cast<uint64_t>(kConnections));
  EXPECT_EQ(server_->stats().queries_served,
            static_cast<uint64_t>(kConnections) * kBatchesPerConnection *
                kBatchSize);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ServerTest, MalformedFrameGetsErrorAndClose) {
  StartServer();
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  // A framed payload with an unknown op.
  std::string request, payload;
  WireAppendFrame(&request, "\xAB bogus");
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpError);
  // The server closes after the error frame.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);

  // An oversized frame length is rejected without buffering 16 MiB.
  fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string huge;
  PutFixed32(&huge, kWireMaxFrameBytes + 1);
  ASSERT_TRUE(SendAll(fd, huge));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpError);
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

// A corrupt data block must reach the client as an error, not as an
// empty range, and must not cost it the connection.
TEST_F(ServerTest, ReadErrorGetsErrorFrameAndConnectionStaysOpen) {
  BuildDb();
  db_.reset();
  // Flip one byte inside the first data block of every SST, so any
  // query that reads a file's smallest keys hits a CRC mismatch.
  int flipped = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(Options().dir)) {
    if (entry.path().extension() != ".sst") continue;
    std::string content;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(content.size(), 16u);
    content[16] ^= 0x20;
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << content;
    ++flipped;
  }
  ASSERT_GT(flipped, 0);
  auto [db, open_status] = Db::Open(Options());
  ASSERT_NE(db, nullptr) << open_status.ToString();
  db_ = std::move(db);
  ServeDb();

  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string request, payload;
  WireEncodeMultiSeekRequest(
      {{EncodeKeyBE(0), EncodeKeyBE(4000 * 1000)}}, &request);
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpError);

  // Not a protocol violation: the same connection keeps serving.
  request.clear();
  WireEncodePingRequest(&request);
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpPong);
  ::close(fd);
  server_->Stop();
  serve_thread_.join();
  EXPECT_EQ(server_->stats().batches_served, 1u);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

}  // namespace
}  // namespace proteus
