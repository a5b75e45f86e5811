#include "lsm/db.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/filter.h"
#include "model/bpk_alloc.h"
#include "util/crc32c.h"
#include "util/posix_io.h"
#include "util/serial.h"
#include "util/timer.h"

namespace proteus {

// Abstract sorted stream of entry versions (key asc, seqno desc) feeding
// WriteSstFiles. tag()/user_value() are the decoded form regardless of
// the source's on-disk encoding.
class EntrySource {
 public:
  virtual ~EntrySource() = default;
  virtual bool Valid() const = 0;
  virtual std::string_view key() const = 0;
  virtual uint64_t seqno() const = 0;
  virtual uint8_t tag() const = 0;
  virtual std::string_view user_value() const = 0;
  virtual void Next() = 0;
  virtual Status status() const = 0;
};

namespace {

constexpr size_t kMaxLevels = 8;

// MANIFEST delta log (byte-accurate spec in docs/FORMAT.md): a sequence
// of CRC32C-framed records. The first record is always a full snapshot
// of the tree; each flush/compaction appends a delta (files added with
// their level, file ids retired); every manifest_compact_threshold
// deltas the log is atomically rewritten as one fresh snapshot.
//
//   record  := length u32 | crc32c(payload) u32 | payload[length]
//   snapshot payload := kind u8 (1) | magic u64 | version u64 |
//                       next_file_id u64 | last_seqno u64 |
//                       n_levels u64 | per level: n_files u64, file*
//   delta payload    := kind u8 (2) | next_file_id u64 |
//                       last_seqno u64 |
//                       n_added u64,  (level u64, file)* |
//                       n_deleted u64, (file_id u64)*
//   file := id u64 | smallest lp | largest lp | n_entries u64 |
//           file_size u64 |      (lp = u64 length + raw bytes)
//           design_epoch u64 | modeled_fpr f64 |
//           design_signature f64 | design_samples u64 |
//           checks u64 | probes u64 | false_positives u64
//           (f64 = IEEE-754 bit pattern as fixed u64; -1.0 = none)
//
// Version 4 is the only one read: a snapshot of any other version fails
// Open with NotSupported and leaves the file untouched.
constexpr uint64_t kManifestMagic = 0x494E414D544F5250ull;  // "PROTMANI"
constexpr uint64_t kManifestVersion = 4;
constexpr uint8_t kManifestRecordSnapshot = 1;
constexpr uint8_t kManifestRecordDelta = 2;

/// Frames a manifest record: length + CRC32C + payload.
std::string FrameRecord(std::string_view payload) {
  std::string out;
  out.reserve(8 + payload.size());
  AppendCrcFrame(&out, payload);
  return out;
}

void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double BitsToDouble(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

void WipeDbFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    const bool sst =
        name.size() > 4 && name.substr(name.size() - 4) == ".sst";
    // A plain "WAL" is an older generation's log: Open refuses it, but
    // Create wipes it like any other database file.
    const bool wal = name == "WAL" || name.rfind("WAL-", 0) == 0;
    if (sst || wal) ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::unlink((dir + "/MANIFEST").c_str());
  ::unlink((dir + "/MANIFEST.tmp").c_str());
}

/// Parses a WAL segment file name "WAL-<n>" into its segment number n.
/// Returns false for anything else.
bool ParseWalName(const std::string& name, uint64_t* number) {
  if (name.rfind("WAL-", 0) != 0) return false;
  const std::string digits = name.substr(4);
  if (digits.empty()) return false;
  char* end = nullptr;
  const uint64_t n = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) return false;
  *number = n;
  return true;
}

/// K-way merge over memtable shards (the flush path): each shard's
/// skiplist streams its own (key asc, seqno desc) order, and the merge
/// interleaves them back into ONE globally sorted stream. (key, seqno)
/// pairs are globally unique — the leader assigns each seqno once — so
/// the merge is deterministic and the SSTs it feeds are byte-identical
/// regardless of how many shards the writes were routed across. The
/// iterators point into skiplist nodes the caller keeps alive.
class MemTableMergeSource : public EntrySource {
 public:
  /// Add every shard of every immutable memtable, then Init().
  void Add(const SkipList* list) {
    Item item{SkipList::Iterator(list), kTagValue, {}};
    DecodeItem(&item);
    items_.push_back(std::move(item));
  }
  void Init() { FindBest(); }

  bool Valid() const override { return best_ >= 0; }
  std::string_view key() const override { return items_[best_].it.key(); }
  uint64_t seqno() const override { return items_[best_].it.seqno(); }
  uint8_t tag() const override { return items_[best_].tag; }
  std::string_view user_value() const override {
    return items_[best_].user_value;
  }
  void Next() override {
    Item& item = items_[best_];
    item.it.Next();
    DecodeItem(&item);
    FindBest();
  }
  Status status() const override { return Status::OK(); }

 private:
  struct Item {
    SkipList::Iterator it;
    uint8_t tag;
    std::string_view user_value;
  };

  void DecodeItem(Item* item) {
    // A malformed internal value cannot round-trip out of the arena
    // (writes always store tag|user); skip defensively like the old
    // materializing path did.
    while (item->it.Valid() &&
           !ParseInternalValue(item->it.value(), &item->tag,
                               &item->user_value)) {
      item->it.Next();
    }
  }

  void FindBest() {
    best_ = -1;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (!items_[i].it.Valid()) continue;
      if (best_ < 0) {
        best_ = static_cast<int>(i);
        continue;
      }
      const Item& a = items_[i];
      const Item& b = items_[static_cast<size_t>(best_)];
      const int c = a.it.key().compare(b.it.key());
      if (c < 0 || (c == 0 && a.it.seqno() > b.it.seqno())) {
        best_ = static_cast<int>(i);
      }
    }
  }

  std::vector<Item> items_;
  int best_ = -1;
};

/// K-way merge over SST iterators in (key asc, seqno desc, source age)
/// order. Equal (key, seqno) pairs across sources are ONE logical write
/// seen through several files (crash-replay overlap): only the newest
/// source's copy is emitted.
class MergeSource : public EntrySource {
 public:
  void Add(const SstReader* reader, int age) {
    items_.push_back(Item{SstReader::Iterator(reader), age, {}});
    DecodeItem(&items_.back());
  }
  void Init() { FindBest(); }

  bool Valid() const override { return best_ >= 0 && decode_error_.ok(); }
  std::string_view key() const override { return items_[best_].it.key(); }
  uint64_t seqno() const override { return items_[best_].parsed.seqno; }
  uint8_t tag() const override { return items_[best_].parsed.tag; }
  std::string_view user_value() const override {
    return items_[best_].parsed.user_value;
  }

  void Next() override {
    const std::string cur_key(items_[best_].it.key());
    const uint64_t cur_seq = items_[best_].parsed.seqno;
    for (auto& item : items_) {
      if (item.it.Valid() && item.it.key() == cur_key &&
          item.parsed.seqno == cur_seq) {
        item.it.Next();
        DecodeItem(&item);
      }
    }
    FindBest();
  }

  /// First failure across the inputs. A merge that ends with a non-OK
  /// status stopped early and MUST NOT be committed: the missing entries
  /// would otherwise be dropped and their file unlinked.
  Status status() const override {
    if (!decode_error_.ok()) return decode_error_;
    for (const auto& item : items_) {
      if (!item.it.status().ok()) return item.it.status();
    }
    return Status::OK();
  }

 private:
  struct Item {
    SstReader::Iterator it;
    int age;  // smaller = newer
    ParsedValue parsed;
  };

  void DecodeItem(Item* item) {
    if (!item->it.Valid()) return;
    if (!ParseSstValue(item->it.value(), &item->parsed)) {
      decode_error_ = Status::Corruption("SST value malformed during merge");
    }
  }

  void FindBest() {
    best_ = -1;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (!items_[i].it.Valid()) continue;
      if (best_ < 0) {
        best_ = static_cast<int>(i);
        continue;
      }
      const Item& a = items_[i];
      const Item& b = items_[static_cast<size_t>(best_)];
      const int c = a.it.key().compare(b.it.key());
      if (c < 0 ||
          (c == 0 && (a.parsed.seqno > b.parsed.seqno ||
                      (a.parsed.seqno == b.parsed.seqno && a.age < b.age)))) {
        best_ = static_cast<int>(i);
      }
    }
  }

  std::vector<Item> items_;
  Status decode_error_;
  int best_ = -1;
};

/// The MVCC garbage-collection filter: of each key's version run
/// (newest first), keeps the newest version per live-snapshot stripe and
/// drops the rest. With `drop_tombstones` (bottom-level compaction), a
/// key whose newest surviving version is a tombstone no snapshot
/// predates is dropped entirely — every live horizon sees it deleted.
class CollapseSource : public EntrySource {
 public:
  CollapseSource(EntrySource& in, std::vector<uint64_t> snapshots,
                 bool drop_tombstones)
      : in_(in),
        snapshots_(std::move(snapshots)),
        drop_tombstones_(drop_tombstones) {
    Advance();
  }

  bool Valid() const override { return valid_ && in_.status().ok(); }
  std::string_view key() const override { return in_.key(); }
  uint64_t seqno() const override { return in_.seqno(); }
  uint8_t tag() const override { return in_.tag(); }
  std::string_view user_value() const override { return in_.user_value(); }
  void Next() override {
    in_.Next();
    Advance();
  }
  Status status() const override { return in_.status(); }

 private:
  // Index of the first live snapshot >= seqno. Two versions of a key in
  // the same stripe are indistinguishable to every live horizon, so only
  // the newer one survives; a smaller stripe means some snapshot pins
  // the older version.
  size_t Stripe(uint64_t seqno) const {
    return static_cast<size_t>(
        std::lower_bound(snapshots_.begin(), snapshots_.end(), seqno) -
        snapshots_.begin());
  }
  bool NoSnapshotBelow(uint64_t seqno) const {
    return snapshots_.empty() || snapshots_.front() >= seqno;
  }

  void Advance() {
    valid_ = false;
    while (in_.Valid()) {
      const uint64_t sq = in_.seqno();
      if (!have_prev_ || in_.key() != prev_key_) {
        // Newest version of a new key.
        prev_key_.assign(in_.key());
        have_prev_ = true;
        prev_seqno_ = sq;
        prev_stripe_ = Stripe(sq);
        if (drop_tombstones_ && in_.tag() == kTagTombstone &&
            NoSnapshotBelow(sq)) {
          // The deletion is final for every live horizon; the shadow
          // state above makes the stripe test drop the older versions.
          in_.Next();
          continue;
        }
        valid_ = true;
        return;
      }
      // An older version of the same key.
      if (sq == prev_seqno_) {  // duplicate logical slot: newest source won
        in_.Next();
        continue;
      }
      const size_t stripe = Stripe(sq);
      if (stripe == prev_stripe_) {  // no snapshot between the two versions
        in_.Next();
        continue;
      }
      prev_seqno_ = sq;
      prev_stripe_ = stripe;
      valid_ = true;
      return;
    }
  }

  EntrySource& in_;
  const std::vector<uint64_t> snapshots_;  // sorted ascending
  const bool drop_tombstones_;
  bool valid_ = false;
  bool have_prev_ = false;
  std::string prev_key_;
  uint64_t prev_seqno_ = 0;
  size_t prev_stripe_ = 0;
};

/// A counter incremented from many threads without ordering needs.
struct RelaxedCounter {
  std::atomic<uint64_t> v{0};
  void operator++() { v.fetch_add(1, std::memory_order_relaxed); }
  void operator+=(uint64_t n) { v.fetch_add(n, std::memory_order_relaxed); }
  uint64_t load() const { return v.load(std::memory_order_relaxed); }
  void reset() { v.store(0, std::memory_order_relaxed); }
};

#define PROTEUS_DB_STAT_FIELDS(X)                                      \
  X(puts)                                                              \
  X(deletes)                                                           \
  X(seeks)                                                             \
  X(empty_seeks)                                                       \
  X(filter_checks)                                                     \
  X(filter_negatives)                                                  \
  X(sst_seeks)                                                         \
  X(false_positive_files)                                              \
  X(read_errors)                                                       \
  X(flushes)                                                           \
  X(compactions)                                                       \
  X(filter_build_ns)                                                   \
  X(filter_bits_built)                                                 \
  X(keys_filtered)                                                     \
  X(filter_loads)                                                      \
  X(filter_rebuilds)                                                   \
  X(wal_replayed)                                                      \
  X(wal_rotations)                                                     \
  X(manifest_deltas)                                                   \
  X(manifest_snapshots)                                                \
  X(queue_sampled)                                                     \
  X(write_stalls)                                                      \
  X(stall_wait_us)                                                     \
  X(drift_detected)                                                    \
  X(redesigns)

}  // namespace

// Relaxed-atomic mirror of DbStats; stats() copies it out field by field.
struct Db::AtomicStats {
#define PROTEUS_DB_STAT_DEF(name) RelaxedCounter name;
  PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_DEF)
#undef PROTEUS_DB_STAT_DEF

  // Per-level check / probe / false-positive breakdown (index = level).
  RelaxedCounter level_filter_checks[kMaxLevels];
  RelaxedCounter level_sst_seeks[kMaxLevels];
  RelaxedCounter level_fp_files[kMaxLevels];

  DbStats Snapshot() const {
    DbStats out;
#define PROTEUS_DB_STAT_COPY(name) out.name = name.load();
    PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_COPY)
#undef PROTEUS_DB_STAT_COPY
    size_t deepest = 0;
    for (size_t i = 0; i < kMaxLevels; ++i) {
      if (level_filter_checks[i].load() != 0 ||
          level_sst_seeks[i].load() != 0) {
        deepest = i + 1;
      }
    }
    out.level_filter_checks.resize(deepest);
    out.level_sst_seeks.resize(deepest);
    out.level_fp_files.resize(deepest);
    for (size_t i = 0; i < deepest; ++i) {
      out.level_filter_checks[i] = level_filter_checks[i].load();
      out.level_sst_seeks[i] = level_sst_seeks[i].load();
      out.level_fp_files[i] = level_fp_files[i].load();
    }
    return out;
  }

  void Reset() {
#define PROTEUS_DB_STAT_RESET(name) name.reset();
    PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_RESET)
#undef PROTEUS_DB_STAT_RESET
    for (size_t i = 0; i < kMaxLevels; ++i) {
      level_filter_checks[i].reset();
      level_sst_seeks[i].reset();
      level_fp_files[i].reset();
    }
  }
};

Db::FileMeta::~FileMeta() {
  reader.reset();  // close the fd before the path may be unlinked
  if (obsolete.load(std::memory_order_relaxed)) ::unlink(path.c_str());
}

Db::Db(DbOptions options, bool wipe_existing)
    : options_(std::move(options)),
      cache_(options_.block_cache_bytes),
      query_queue_(options_.queue_options),
      stats_(std::make_unique<AtomicStats>()) {
  ::mkdir(options_.dir.c_str(), 0755);
  auto v = std::make_shared<Version>();
  v->levels.resize(kMaxLevels);
  version_ = std::move(v);
  mem_ = std::make_shared<MemTableSet>(options_.memtable_shards);
  shard_applies_ =
      std::vector<std::atomic<uint64_t>>(mem_->shard_count());
  compact_cursor_.resize(kMaxLevels, 0);
  pool_ = std::make_unique<TaskPool>(
      std::max<size_t>(1, options_.background_threads));
  if (wipe_existing) {
    WipeDbFiles(options_.dir);
    if (options_.use_wal) {
      wal_ = std::make_unique<WalWriter>();
      wal_number_ = 1;
      mem_->wal_segment = 1;
      Status s = wal_->Open(WalSegmentPath(1));
      if (!s.ok()) {
        wal_.reset();
        wal_error_ = std::move(s);
      }
    }
  }
  // Open() (wipe_existing=false) builds the WAL writer in
  // ReplayWalSegments, after the existing segments have been replayed.
}

std::pair<std::unique_ptr<Db>, Status> Db::Create(DbOptions options) {
  std::unique_ptr<Db> db(new Db(std::move(options), /*wipe_existing=*/true));
  // Single-threaded here: wal_error_ needs no lock yet.
  if (!db->wal_error_.ok()) {
    Status s = db->wal_error_;
    db->crashed_.store(true, std::memory_order_relaxed);  // dtor: no flush
    return {nullptr, s};
  }
  return {std::move(db), Status::OK()};
}

std::pair<std::unique_ptr<Db>, Status> Db::Open(DbOptions options) {
  std::unique_ptr<Db> db(new Db(std::move(options), /*wipe_existing=*/false));
  Status s = db->RecoverAll();
  if (!s.ok()) {
    // Don't flush a half-recovered state on destruction.
    db->crashed_.store(true, std::memory_order_relaxed);
    return {nullptr, s};
  }
  return {std::move(db), Status::OK()};
}

Db::~Db() {
  closing_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> sl(stall_mu_);
  }
  stall_cv_.notify_all();
  if (pool_ != nullptr) pool_->Shutdown();
  if (!crashed_.load(std::memory_order_relaxed)) {
    // Lossless close: persist the memtables and the manifest. A failure
    // here cannot be returned; it is still recoverable from the WAL.
    Status s = Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "proteus: flush on close failed: %s\n",
                   s.ToString().c_str());
    }
    // The observed-FPR counters advance on reads, which append no
    // manifest records; one final snapshot carries the drift evidence
    // across a clean reopen. Best-effort: losing it only resets the
    // counters.
    std::lock_guard<std::mutex> mlock(maint_mu_);
    if (manifest_fd_ >= 0) {
      Status ps = WriteManifestSnapshot();
      if (!ps.ok()) {
        std::fprintf(stderr, "proteus: manifest snapshot on close failed: %s\n",
                     ps.ToString().c_str());
      }
    }
  }
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status Db::Put(std::string_view key, std::string_view value,
               const WriteOptions& options) {
  return WriteInternal(kTagValue, key, value, options);
}

Status Db::Delete(std::string_view key, const WriteOptions& options) {
  return WriteInternal(kTagTombstone, key, {}, options);
}

// Shared state of one batch's parallel memtable apply. Lives on the
// leader's stack for the duration of CommitBatch; the leader hands each
// follower a pointer (under write_mu_), every follower inserts its OWN
// entry into its memtable shard, and the last decrement of `pending`
// releases the leader to publish the commit point. The group must not be
// destroyed until pending hits zero — the leader's wait guarantees that,
// and followers notify while holding `mu` so the leader cannot observe
// pending == 0 and destroy the group mid-notify.
struct Db::ApplyGroup {
  MemTableSet* mem = nullptr;
  std::atomic<uint32_t> pending{0};
  std::mutex mu;
  std::condition_variable cv;
};

void Db::ApplyWriter(MemTableSet* mem, const Writer& w) {
  const size_t shard = mem->Add(w.key, w.seqno, w.tag, w.value);
  shard_applies_[shard].fetch_add(1, std::memory_order_relaxed);
  if (w.tag == kTagValue) {
    ++stats_->puts;
  } else {
    ++stats_->deletes;
  }
}

Status Db::WriteInternal(uint8_t tag, std::string_view key,
                         std::string_view value, const WriteOptions& wopts) {
  Writer w;
  w.tag = tag;
  w.key = key;
  w.value = value;
  w.sync = wopts.sync && options_.wal_sync;

  std::unique_lock<std::mutex> qlock(write_mu_);
  write_queue_.push_back(&w);
  // Wait until the leader enlists this write in its batch's parallel
  // memtable apply, a leader commits it outright, or we reach the front
  // and become the leader of everything queued behind us.
  write_cv_.wait(qlock, [&] {
    return w.done || w.apply != nullptr || write_queue_.front() == &w;
  });
  if (w.apply != nullptr && !w.done) {
    // Follower with work: the leader has WAL-appended the batch and is
    // waiting for the shard applies. Insert our own entry (outside the
    // queue lock — this is the parallel part), then report in.
    ApplyGroup* group = w.apply;
    qlock.unlock();
    ApplyWriter(group->mem, w);
    {
      // Decrement AND notify under the group mutex: the leader evaluates
      // its wait predicate holding it, so it cannot observe pending == 0
      // and destroy the group while any follower is still inside this
      // block — and a follower that has left it never touches the group
      // again.
      std::lock_guard<std::mutex> gl(group->mu);
      if (group->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        group->cv.notify_one();
      }
    }
    qlock.lock();
    write_cv_.wait(qlock, [&] { return w.done; });
  }
  if (w.done) return w.status;

  std::vector<Writer*> batch(write_queue_.begin(), write_queue_.end());
  qlock.unlock();

  bool need_maintenance = false;
  Status s = CommitBatch(batch, &need_maintenance);

  qlock.lock();
  for (size_t i = 0; i < batch.size(); ++i) write_queue_.pop_front();
  for (Writer* other : batch) {
    if (other == &w) continue;
    other->status = s;
    other->done = true;
  }
  qlock.unlock();
  // Wakes both the batch's followers and the next leader.
  write_cv_.notify_all();

  if (need_maintenance) MaybeScheduleMaintenance();
  return s;
}

Status Db::CommitBatch(const std::vector<Writer*>& batch,
                       bool* need_maintenance) {
  *need_maintenance = false;

  // Backpressure BEFORE entering the pipeline: while the flusher is
  // behind, stalling here keeps memory bounded without blocking readers
  // or the flusher itself.
  if (ImmCount() >= options_.max_immutable_memtables) {
    std::unique_lock<std::mutex> sl(stall_mu_);
    ++stats_->write_stalls;
    Stopwatch timer;
    stall_cv_.wait(sl, [&] {
      if (crashed_.load(std::memory_order_relaxed) ||
          closing_.load(std::memory_order_relaxed)) {
        return true;
      }
      {
        std::lock_guard<std::mutex> el(err_mu_);
        if (!bg_error_.ok()) return true;  // the flush will not come
      }
      return ImmCount() < options_.max_immutable_memtables;
    });
    stats_->stall_wait_us += timer.ElapsedNanos() / 1000;
  }

  {
    std::lock_guard<std::mutex> el(err_mu_);
    if (!bg_error_.ok()) return bg_error_;  // rejected: NOT visible
  }

  std::lock_guard<std::mutex> plock(pipeline_mu_);
  // Re-check under the pipeline lock: TEST_CrashClose resets wal_ (and
  // sets crashed_) while holding it.
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }
  if (options_.use_wal && wal_ == nullptr) return wal_error_;

  // Assign seqnos and build the one WAL append for the whole batch.
  const uint64_t first_seqno = next_seqno_;
  std::string buf;
  bool sync = false;
  for (Writer* w : batch) {
    w->seqno = next_seqno_++;
    sync = sync || w->sync;
    buf += EncodeWalRecord(
        w->tag == kTagValue ? kWalOpPutSeq : kWalOpDeleteSeq, w->seqno,
        w->key, w->value);
  }
  if (options_.use_wal) {
    Status s = wal_->Append(buf, batch.size(), sync);
    if (!s.ok()) {
      next_seqno_ = first_seqno;  // nothing consumed them: reuse
      return s;  // not applied: a rejected write stays invisible
    }
  }

  // Apply. The WAL already fixed the batch's order (seqnos); the
  // memtable inserts commute — each lands in its own key's position in
  // its own shard — so the followers apply their entries IN PARALLEL
  // while the leader applies its own. mem_ is stable here: it changes
  // only under pipeline_mu_ (held) plus view_mu_.
  MemPtr mem = mem_;
  Writer* const leader = batch.front();
  if (batch.size() > 1) {
    ApplyGroup group;
    group.mem = mem.get();
    group.pending.store(static_cast<uint32_t>(batch.size() - 1),
                        std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> ql(write_mu_);
      for (Writer* w : batch) {
        if (w != leader) w->apply = &group;
      }
    }
    write_cv_.notify_all();  // release the followers to their shards
    ApplyWriter(mem.get(), *leader);
    std::unique_lock<std::mutex> gl(group.mu);
    group.cv.wait(gl, [&] {
      return group.pending.load(std::memory_order_acquire) == 0;
    });
  } else {
    ApplyWriter(mem.get(), *leader);
  }
  // Publish: every apply of the batch happened before this store (the
  // followers' decrements synchronize with the leader's wait), so a
  // reader that acquires this seqno as its horizon can reach every entry
  // at or below it.
  last_seqno_.store(next_seqno_ - 1, std::memory_order_release);

  const bool mem_full =
      mem->bytes() >= static_cast<int64_t>(options_.memtable_bytes);
  const bool wal_full = options_.use_wal && wal_ != nullptr &&
                        wal_->file_bytes() >= options_.wal_segment_bytes;
  *need_maintenance = mem_full || wal_full;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Background maintenance
// ---------------------------------------------------------------------------

size_t Db::ImmCount() const {
  std::lock_guard<std::mutex> vl(view_mu_);
  return version_->imm.size();
}

Db::VersionPtr Db::CurrentVersion() const {
  std::lock_guard<std::mutex> vl(view_mu_);
  return version_;
}

std::vector<uint64_t> Db::LiveSnapshots() const {
  std::lock_guard<std::mutex> sl(snap_mu_);
  return std::vector<uint64_t>(live_snapshots_.begin(),
                               live_snapshots_.end());
}

std::shared_ptr<const Snapshot> Db::GetSnapshot() {
  const uint64_t seq = last_seqno_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> sl(snap_mu_);
    live_snapshots_.insert(seq);
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(seq), [this](const Snapshot* s) {
        {
          std::lock_guard<std::mutex> sl(snap_mu_);
          auto it = live_snapshots_.find(s->sequence());
          if (it != live_snapshots_.end()) live_snapshots_.erase(it);
        }
        delete s;
      });
}

bool Db::WorkPending() const {
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    if (!version_->imm.empty()) return true;
    if (mem_->bytes() >= static_cast<int64_t>(options_.memtable_bytes)) {
      return true;
    }
  }
  if (options_.use_wal && wal_ != nullptr &&
      wal_->file_bytes() >= options_.wal_segment_bytes) {
    return true;
  }
  VersionPtr v = CurrentVersion();
  if (static_cast<int>(v->levels[0].size()) >=
      options_.l0_compaction_trigger) {
    return true;
  }
  for (size_t level = 1; level + 1 < v->levels.size(); ++level) {
    if (LevelBytes(*v, level) > LevelLimitBytes(level)) return true;
  }
  if (options_.adaptive_redesign && AnyDriftFlagged(*v)) return true;
  return false;
}

void Db::MaybeScheduleMaintenance() {
  if (crashed_.load(std::memory_order_relaxed) ||
      closing_.load(std::memory_order_relaxed)) {
    return;
  }
  {
    // A failed background job must not retry in a loop; writes are
    // rejected until an explicit Flush()/CompactAll() clears the error.
    std::lock_guard<std::mutex> el(err_mu_);
    if (!bg_error_.ok()) return;
  }
  bool expected = false;
  if (!maint_scheduled_.compare_exchange_strong(expected, true)) return;
  if (!pool_->Submit([this] { BackgroundWork(); })) {
    maint_scheduled_.store(false);
  }
}

void Db::BackgroundWork() {
  std::lock_guard<std::mutex> mlock(maint_mu_);
  for (;;) {
    if (crashed_.load(std::memory_order_relaxed) ||
        closing_.load(std::memory_order_relaxed)) {
      break;
    }
    PrepareFlush(/*force=*/false);
    Status s = FlushImmLocked();
    if (s.ok()) s = MaybeCompactLocked();
    if (!s.ok()) {
      SetBackgroundError(s, /*clear_on_ok=*/false);
      break;
    }
    if (!WorkPending()) break;
  }
  maint_scheduled_.store(false);
  // Work can arrive between the WorkPending check and the flag clear;
  // re-check so it is not orphaned until the next write.
  if (WorkPending()) MaybeScheduleMaintenance();
}

void Db::WaitForBackground() {
  while (maint_scheduled_.load(std::memory_order_relaxed)) {
    pool_->Wait();
    std::this_thread::yield();
  }
  pool_->Wait();
}

bool Db::PrepareFlush(bool force) {
  std::lock_guard<std::mutex> plock(pipeline_mu_);
  MemPtr cur;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    cur = mem_;
  }
  if (cur->size() == 0) return false;
  if (!force) {
    bool trip =
        cur->bytes() >= static_cast<int64_t>(options_.memtable_bytes);
    if (!trip && options_.use_wal && wal_ != nullptr) {
      trip = wal_->file_bytes() >= options_.wal_segment_bytes;
    }
    if (!trip) return false;
  }
  // Rotate to a fresh WAL segment: the new memtable's writes start
  // there, so the old segments become deletable once the swapped-out
  // memtable reaches SSTs.
  if (options_.use_wal && wal_ != nullptr) {
    const uint64_t next = wal_number_ + 1;
    Status s = wal_->Open(WalSegmentPath(next));
    if (!s.ok()) {
      // The writer closed the old fd already; appends now fail. Surface
      // the environment failure instead of swapping anyway.
      SetBackgroundError(std::move(s), /*clear_on_ok=*/false);
      return false;
    }
    wal_number_ = next;
    ++stats_->wal_rotations;
  }
  auto fresh = std::make_shared<MemTableSet>(options_.memtable_shards);
  fresh->wal_segment = wal_number_;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    nv->imm.insert(nv->imm.begin(), cur);  // newest first
    version_ = std::move(nv);
    mem_ = std::move(fresh);
  }
  return true;
}

Status Db::FlushImmLocked() {
  std::vector<MemPtr> imm;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    imm = version_->imm;
  }
  if (imm.empty()) return Status::OK();

  // Merge every shard of every immutable memtable back into one sorted
  // (key asc, seqno desc) stream — no materialize-and-sort pass; the
  // iterators stream straight out of skiplist nodes `imm` keeps alive.
  MemTableMergeSource source;
  for (const MemPtr& m : imm) {
    for (size_t i = 0; i < m->shard_count(); ++i) {
      source.Add(&m->shard(i));
    }
  }
  source.Init();
  CollapseSource collapsed(source, LiveSnapshots(),
                           /*drop_tombstones=*/false);
  std::vector<FilePtr> files;
  Status s = WriteSstFiles(collapsed, /*target_level=*/0, ~size_t{0}, &files);
  if (!s.ok()) return s;

  ManifestEdit edit;
  for (const auto& f : files) edit.added.emplace_back(0, f);
  s = AppendManifestDelta(edit);
  if (!s.ok()) return s;

  // Install: the flushed memtables leave the version, their SSTs join
  // L0 (newer than everything already there).
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    for (const MemPtr& m : imm) {
      nv->imm.erase(std::remove(nv->imm.begin(), nv->imm.end(), m),
                    nv->imm.end());
    }
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      nv->levels[0].insert(nv->levels[0].begin(), *it);
    }
    version_ = std::move(nv);
  }
  ++stats_->flushes;
  {
    std::lock_guard<std::mutex> sl(stall_mu_);
  }
  stall_cv_.notify_all();

  // Only now are the old WAL segments redundant: their records live in
  // fsync'd SSTs referenced by a durable manifest record.
  DeleteObsoleteWalSegments();
  return Status::OK();
}

void Db::DeleteObsoleteWalSegments() {
  if (!options_.use_wal) return;
  uint64_t floor;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    floor = mem_->wal_segment;
    for (const MemPtr& m : version_->imm) {
      floor = std::min(floor, m->wal_segment);
    }
  }
  DIR* d = ::opendir(options_.dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    uint64_t number;
    if (!ParseWalName(e->d_name, &number)) continue;
    if (number < floor) {
      ::unlink((options_.dir + "/" + e->d_name).c_str());
    }
  }
  ::closedir(d);
}

void Db::SetBackgroundError(Status s, bool clear_on_ok) {
  const bool is_error = !s.ok();
  {
    std::lock_guard<std::mutex> el(err_mu_);
    if (s.ok()) {
      if (clear_on_ok) bg_error_ = Status::OK();
    } else {
      bg_error_ = std::move(s);
    }
  }
  if (is_error) {
    // Stalled writers must wake to observe the error.
    {
      std::lock_guard<std::mutex> sl(stall_mu_);
    }
    stall_cv_.notify_all();
  }
}

Status Db::Flush() {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }
  PrepareFlush(/*force=*/true);
  std::lock_guard<std::mutex> mlock(maint_mu_);
  Status s = FlushImmLocked();
  if (s.ok()) s = MaybeCompactLocked();
  SetBackgroundError(s, /*clear_on_ok=*/true);
  return s;
}

Status Db::CompactAll() {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }
  PrepareFlush(/*force=*/true);
  std::lock_guard<std::mutex> mlock(maint_mu_);
  Status s = FlushImmLocked();
  if (s.ok() && !CurrentVersion()->levels[0].empty()) s = CompactL0Locked();
  for (size_t level = 1; s.ok() && level + 1 < kMaxLevels; ++level) {
    while (s.ok() &&
           LevelBytes(*CurrentVersion(), level) > LevelLimitBytes(level)) {
      s = CompactLevelLocked(level);
    }
  }
  SetBackgroundError(s, /*clear_on_ok=*/true);
  return s;
}

// ---------------------------------------------------------------------------
// SST building (flush + compaction bodies; callers hold maint_mu_)
// ---------------------------------------------------------------------------

Status Db::FinishFile(SstWriter* writer, std::vector<std::string>* keys,
                      const std::string& path, int target_level,
                      FilePtr* out) {
  auto meta = std::make_shared<FileMeta>();
  meta->id = next_file_id_++;
  meta->path = path;
  meta->smallest = writer->smallest();
  meta->largest = writer->largest();
  meta->n_entries = writer->n_entries();
  meta->level = target_level;
  if (options_.filter_policy != nullptr) {
    FilterBuildContext ctx;
    ctx.level = target_level;
    ctx.bpk_override = MonkeyBpkForLevel(target_level, keys->size());
    // Capture the window state the design is about to consume — the
    // drift detector later compares the live window against it.
    const double design_signature = query_queue_.Signature();
    const uint64_t design_samples = query_queue_.sampled();
    Stopwatch timer;
    meta->filter =
        options_.filter_policy->Build(*keys, query_queue_.Snapshot(), ctx);
    stats_->filter_build_ns += timer.ElapsedNanos();
    if (meta->filter != nullptr) {
      meta->design_epoch = design_epoch_.load(std::memory_order_relaxed);
      meta->modeled_fpr = meta->filter->ModeledFpr().value_or(-1.0);
      meta->design_signature = design_signature;
      meta->design_samples = design_samples;
      stats_->filter_bits_built += meta->filter->SizeBits();
      stats_->keys_filtered += keys->size();
      // Persist the filter in the SST itself so reopening the database
      // deserializes it instead of rebuilding from keys.
      std::string blob;
      if (meta->filter->Serialize(&blob)) {
        writer->SetFilterBlock(std::move(blob), Filter::kVersion);
      }
    }
  }
  Status s = writer->Finish();
  if (!s.ok()) return s;
  meta->file_size = writer->file_size();
  meta->reader = std::make_unique<SstReader>();
  s = meta->reader->Open(path, meta->id, &cache_);
  if (!s.ok()) return s;
  meta->reader->ReleaseFilterBlock();  // meta->filter is the live copy
  if (meta->filter != nullptr) ChargeFilter(*meta);
  *out = std::move(meta);
  return Status::OK();
}

void Db::ChargeFilter(const FileMeta& meta) {
  cache_.AddPinnedBytes(meta.id, meta.filter->SizeBits() / 8);
}

Status Db::WriteSstFiles(EntrySource& entries, int target_level,
                         size_t max_data_bytes, std::vector<FilePtr>* out) {
  SstWriter::Options wopts;
  wopts.block_size = options_.block_size;
  wopts.compress = target_level >= options_.compress_min_level;
  while (entries.Valid()) {
    std::string path =
        options_.dir + "/" + std::to_string(next_file_id_) + ".sst";
    SstWriter writer(path, wopts);
    std::vector<std::string> keys;  // distinct user keys, for the filter
    size_t data_bytes = 0;
    std::string last_key;
    while (entries.Valid()) {
      // Cut files only at user-key boundaries: splitting a version run
      // would make two adjacent sorted-level files overlap at a point.
      if (data_bytes >= max_data_bytes && entries.key() != last_key) break;
      const std::string value =
          MakeSstValueV4(entries.tag(), entries.seqno(),
                         entries.user_value());
      writer.Add(entries.key(), value);
      if (keys.empty() || keys.back() != entries.key()) {
        keys.emplace_back(entries.key());
      }
      data_bytes += entries.key().size() + value.size();
      last_key.assign(entries.key());
      entries.Next();
    }
    // An input that stopped on a read error invalidates the merge: fail
    // before this (incomplete) file can be finished and committed.
    Status in = entries.status();
    if (!in.ok()) return in;
    if (writer.n_entries() == 0) continue;
    FilePtr meta;
    Status s = FinishFile(&writer, &keys, path, target_level, &meta);
    if (!s.ok()) return s;
    out->push_back(std::move(meta));
  }
  return entries.status();
}

uint64_t Db::LevelLimitBytes(size_t level) const {
  double limit = static_cast<double>(options_.l1_size_bytes);
  for (size_t i = 1; i < level; ++i) limit *= options_.level_size_multiplier;
  return static_cast<uint64_t>(limit);
}

uint64_t Db::LevelBytes(const Version& v, size_t level) {
  uint64_t total = 0;
  for (const auto& f : v.levels[level]) total += f->file_size;
  return total;
}

bool Db::LevelsBelowEmpty(const Version& v, size_t first_level) {
  for (size_t level = first_level; level < v.levels.size(); ++level) {
    if (!v.levels[level].empty()) return false;
  }
  return true;
}

void Db::RetireFile(const FilePtr& f) {
  // The file object may outlive this call (in-flight ReadViews hold the
  // Version that references it); the unlink happens in ~FileMeta once
  // the last reference drops.
  f->obsolete.store(true, std::memory_order_relaxed);
  cache_.EraseFile(f->id);
}

Status Db::CompactL0Locked() {
  VersionPtr base = CurrentVersion();
  const auto& l0 = base->levels[0];
  if (l0.empty()) return Status::OK();
  ++stats_->compactions;
  std::string smallest = l0[0]->smallest;
  std::string largest = l0[0]->largest;
  for (const auto& f : l0) {
    smallest = std::min(smallest, f->smallest);
    largest = std::max(largest, f->largest);
  }
  MergeSource merge;
  int age = 0;
  for (const auto& f : l0) merge.Add(f->reader.get(), age++);
  std::vector<FilePtr> l1_keep;
  std::vector<FilePtr> removed;
  for (const auto& f : base->levels[1]) {
    if (f->largest < smallest || f->smallest > largest) {
      l1_keep.push_back(f);
    } else {
      merge.Add(f->reader.get(), age++);
    }
  }
  merge.Init();
  CollapseSource entries(merge, LiveSnapshots(),
                         /*drop_tombstones=*/LevelsBelowEmpty(*base, 2));
  std::vector<FilePtr> outputs;
  Status s = WriteSstFiles(entries, /*target_level=*/1,
                           options_.sst_target_bytes, &outputs);
  if (!s.ok()) return s;

  ManifestEdit edit;
  for (const auto& f : l0) {
    edit.deleted.push_back(f->id);
    removed.push_back(f);
  }
  for (const auto& f : base->levels[1]) {
    bool kept = false;
    for (const auto& k : l1_keep) {
      if (k->id == f->id) {
        kept = true;
        break;
      }
    }
    if (!kept) {
      edit.deleted.push_back(f->id);
      removed.push_back(f);
    }
  }
  for (auto& f : outputs) {
    edit.added.emplace_back(1, f);
    l1_keep.push_back(std::move(f));
  }
  std::sort(l1_keep.begin(), l1_keep.end(),
            [](const FilePtr& a, const FilePtr& b) {
              return a->smallest < b->smallest;
            });

  s = AppendManifestDelta(edit);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    nv->levels[0].clear();
    nv->levels[1] = std::move(l1_keep);
    version_ = std::move(nv);
  }
  // Obsolete files go away only after the delta retiring them is
  // durable — a crash in between must find a consistent (older) tree.
  for (const auto& f : removed) RetireFile(f);
  return Status::OK();
}

Status Db::CompactLevelLocked(size_t level) {
  VersionPtr base = CurrentVersion();
  if (base->levels[level].empty() || level + 1 >= kMaxLevels) {
    return Status::OK();
  }
  ++stats_->compactions;
  const size_t pick = compact_cursor_[level] % base->levels[level].size();
  compact_cursor_[level] = pick + 1;
  FilePtr input = base->levels[level][pick];

  MergeSource merge;
  merge.Add(input->reader.get(), 0);
  std::vector<FilePtr> next_keep;
  std::vector<FilePtr> removed;
  for (const auto& f : base->levels[level + 1]) {
    if (f->largest < input->smallest || f->smallest > input->largest) {
      next_keep.push_back(f);
    } else {
      merge.Add(f->reader.get(), 1);
    }
  }
  merge.Init();
  CollapseSource entries(
      merge, LiveSnapshots(),
      /*drop_tombstones=*/LevelsBelowEmpty(*base, level + 2));
  std::vector<FilePtr> outputs;
  Status s = WriteSstFiles(entries, static_cast<int>(level + 1),
                           options_.sst_target_bytes, &outputs);
  if (!s.ok()) return s;

  ManifestEdit edit;
  for (const auto& f : base->levels[level + 1]) {
    bool kept = false;
    for (const auto& k : next_keep) {
      if (k->id == f->id) {
        kept = true;
        break;
      }
    }
    if (!kept) {
      edit.deleted.push_back(f->id);
      removed.push_back(f);
    }
  }
  edit.deleted.push_back(input->id);
  removed.push_back(input);
  for (auto& f : outputs) {
    edit.added.emplace_back(level + 1, f);
    next_keep.push_back(std::move(f));
  }
  std::sort(next_keep.begin(), next_keep.end(),
            [](const FilePtr& a, const FilePtr& b) {
              return a->smallest < b->smallest;
            });

  s = AppendManifestDelta(edit);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    auto& src = nv->levels[level];
    src.erase(std::remove_if(src.begin(), src.end(),
                             [&](const FilePtr& f) { return f == input; }),
              src.end());
    nv->levels[level + 1] = std::move(next_keep);
    version_ = std::move(nv);
  }
  for (const auto& f : removed) RetireFile(f);
  return Status::OK();
}

Status Db::MaybeCompactLocked() {
  if (static_cast<int>(CurrentVersion()->levels[0].size()) >=
      options_.l0_compaction_trigger) {
    Status s = CompactL0Locked();
    if (!s.ok()) return s;
  }
  for (size_t level = 1; level + 1 < kMaxLevels; ++level) {
    while (LevelBytes(*CurrentVersion(), level) > LevelLimitBytes(level)) {
      Status s = CompactLevelLocked(level);
      if (!s.ok()) return s;
    }
  }
  if (options_.adaptive_redesign) return MaybeRedesignLocked();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Adaptive redesign (drift-triggered single-file rewrites)
// ---------------------------------------------------------------------------

bool Db::AnyDriftFlagged(const Version& v) {
  for (const auto& level : v.levels) {
    for (const auto& f : level) {
      if (f->drift_flagged.load(std::memory_order_relaxed) &&
          !f->obsolete.load(std::memory_order_relaxed)) {
        return true;
      }
    }
  }
  return false;
}

Status Db::MaybeRedesignLocked() {
  // Each pass retires exactly one flagged file and installs replacements
  // with fresh (unflagged) designs, so the loop terminates.
  for (;;) {
    VersionPtr base = CurrentVersion();
    size_t level = 0;
    FilePtr victim;
    for (size_t l = 0; l < base->levels.size() && victim == nullptr; ++l) {
      for (const auto& f : base->levels[l]) {
        if (f->drift_flagged.load(std::memory_order_relaxed) &&
            !f->obsolete.load(std::memory_order_relaxed)) {
          level = l;
          victim = f;
          break;
        }
      }
    }
    if (victim == nullptr) return Status::OK();
    Status s = RedesignFileLocked(level, victim);
    if (!s.ok()) return s;
  }
}

Status Db::RedesignFileLocked(size_t level, const FilePtr& input) {
  // A redesign is a same-level, same-data rewrite: the point is the new
  // filter, built by re-running Sample() -> Design() -> Build() against
  // the live query window (and the current per-level budget). Bump the
  // epoch first so the replacement's provenance outranks the original.
  design_epoch_.fetch_add(1, std::memory_order_relaxed);

  MergeSource merge;
  merge.Add(input->reader.get(), 0);
  merge.Init();
  // Never drop tombstones here: unlike a real compaction this rewrite
  // sees only one file, and other L0 files or deeper levels may still
  // hold the older versions a tombstone shadows.
  CollapseSource entries(merge, LiveSnapshots(), /*drop_tombstones=*/false);
  std::vector<FilePtr> outputs;
  Status s = WriteSstFiles(entries, static_cast<int>(level),
                           /*max_data_bytes=*/~size_t{0}, &outputs);
  if (!s.ok()) return s;

  ManifestEdit edit;
  edit.deleted.push_back(input->id);
  for (const auto& f : outputs) edit.added.emplace_back(level, f);
  s = AppendManifestDelta(edit);
  if (!s.ok()) return s;

  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    auto& files = nv->levels[level];
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i] == input) {
        // Positional splice keeps L0's newest-first recency order; a
        // sorted level is re-sorted below anyway.
        files.erase(files.begin() + i);
        files.insert(files.begin() + i, outputs.begin(), outputs.end());
        break;
      }
    }
    if (level >= 1) {
      std::sort(files.begin(), files.end(),
                [](const FilePtr& a, const FilePtr& b) {
                  return a->smallest < b->smallest;
                });
    }
    version_ = std::move(nv);
  }
  RetireFile(input);
  ++stats_->redesigns;
  return Status::OK();
}

double Db::MonkeyBpkForLevel(int target_level, uint64_t incoming_keys) const {
  if (options_.bpk_policy != BpkPolicy::kMonkey ||
      options_.filter_policy == nullptr) {
    return 0.0;
  }
  const double global_bpk = options_.filter_policy->SpecBpk();
  if (global_bpk <= 0.0) return 0.0;  // no tunable budget to split

  VersionPtr v = CurrentVersion();
  std::vector<LevelLoad> loads(v->levels.size());
  for (size_t level = 0; level < v->levels.size(); ++level) {
    uint64_t level_keys = 0;
    for (const auto& f : v->levels[level]) level_keys += f->n_entries;
    loads[level].keys = level_keys;
    // Every L0 file is probed by every query that reaches L0; a sorted
    // level is probed at most once. Weight L0's false positives by its
    // file count so the allocator prices the fan-out.
    loads[level].probe_weight =
        level == 0 ? static_cast<double>(
                         std::max<size_t>(v->levels[0].size(), 1))
                   : 1.0;
  }
  auto& target = loads[static_cast<size_t>(target_level)];
  target.keys += incoming_keys;  // the file being built counts too
  if (target_level == 0) target.probe_weight += 1.0;

  std::vector<double> split = MonkeyBpkSplit(global_bpk, loads);
  return split[static_cast<size_t>(target_level)];
}

void Db::NoteFilterChecks(const FileMeta& f, uint64_t n) {
  f.checks.fetch_add(n, std::memory_order_relaxed);
  const auto level = static_cast<size_t>(f.level);
  if (level < kMaxLevels) stats_->level_filter_checks[level] += n;
}

void Db::NoteSstProbe(const FileMeta& f) {
  f.probes.fetch_add(1, std::memory_order_relaxed);
  const auto level = static_cast<size_t>(f.level);
  if (level < kMaxLevels) ++stats_->level_sst_seeks[level];
}

void Db::NoteFalsePositive(const FileMeta& f) {
  f.false_positives.fetch_add(1, std::memory_order_relaxed);
  const auto level = static_cast<size_t>(f.level);
  if (level < kMaxLevels) ++stats_->level_fp_files[level];

  if (!options_.adaptive_redesign || f.filter == nullptr) return;
  if (f.drift_flagged.load(std::memory_order_relaxed)) return;

  DriftSignal sig;
  sig.checks = f.checks.load(std::memory_order_relaxed);
  sig.probes = f.probes.load(std::memory_order_relaxed);
  sig.false_positives = f.false_positives.load(std::memory_order_relaxed);
  // Cheap pre-gate before touching the queue's mutex.
  if (sig.probes < options_.drift.min_probes) return;
  sig.modeled_fpr = f.modeled_fpr;
  sig.design_signature = f.design_signature;
  sig.live_signature = query_queue_.Signature();
  const uint64_t sampled = query_queue_.sampled();
  sig.window_samples =
      sampled > f.design_samples ? sampled - f.design_samples : 0;
  if (DetectDrift(sig, options_.drift) == DriftReason::kNone) return;

  bool expected = false;
  if (f.drift_flagged.compare_exchange_strong(expected, true,
                                              std::memory_order_relaxed)) {
    ++stats_->drift_detected;
    MaybeScheduleMaintenance();
  }
}

std::vector<Db::SstDesignInfo> Db::DesignInfo() const {
  VersionPtr v = CurrentVersion();
  std::vector<SstDesignInfo> out;
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      SstDesignInfo info;
      info.file_id = f->id;
      info.level = f->level;
      info.design_epoch = f->design_epoch;
      info.modeled_fpr = f->modeled_fpr;
      info.design_signature = f->design_signature;
      info.design_samples = f->design_samples;
      info.checks = f->checks.load(std::memory_order_relaxed);
      info.probes = f->probes.load(std::memory_order_relaxed);
      info.false_positives =
          f->false_positives.load(std::memory_order_relaxed);
      info.filter_bits = f->filter != nullptr ? f->filter->SizeBits() : 0;
      info.drift_flagged = f->drift_flagged.load(std::memory_order_relaxed);
      out.push_back(std::move(info));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// MANIFEST delta log
// ---------------------------------------------------------------------------

void Db::EncodeFileMeta(std::string* out, const FileMeta& f) {
  PutFixed64(out, f.id);
  PutLengthPrefixed(out, f.smallest);
  PutLengthPrefixed(out, f.largest);
  PutFixed64(out, f.n_entries);
  PutFixed64(out, f.file_size);
  // Design provenance + observed-FPR counters. Persisting the probe
  // counters keeps drift evidence accumulating across clean reopens.
  PutFixed64(out, f.design_epoch);
  PutFixed64(out, DoubleBits(f.modeled_fpr));
  PutFixed64(out, DoubleBits(f.design_signature));
  PutFixed64(out, f.design_samples);
  PutFixed64(out, f.checks.load(std::memory_order_relaxed));
  PutFixed64(out, f.probes.load(std::memory_order_relaxed));
  PutFixed64(out, f.false_positives.load(std::memory_order_relaxed));
}

bool Db::DecodeFileMeta(std::string_view* cursor, FileMeta* f) {
  if (!GetFixed64(cursor, &f->id) ||
      !GetLengthPrefixed(cursor, &f->smallest) ||
      !GetLengthPrefixed(cursor, &f->largest) ||
      !GetFixed64(cursor, &f->n_entries) ||
      !GetFixed64(cursor, &f->file_size)) {
    return false;
  }
  uint64_t modeled_bits, signature_bits, checks, probes, fps;
  if (!GetFixed64(cursor, &f->design_epoch) ||
      !GetFixed64(cursor, &modeled_bits) ||
      !GetFixed64(cursor, &signature_bits) ||
      !GetFixed64(cursor, &f->design_samples) ||
      !GetFixed64(cursor, &checks) || !GetFixed64(cursor, &probes) ||
      !GetFixed64(cursor, &fps)) {
    return false;
  }
  f->modeled_fpr = BitsToDouble(modeled_bits);
  f->design_signature = BitsToDouble(signature_bits);
  f->checks.store(checks, std::memory_order_relaxed);
  f->probes.store(probes, std::memory_order_relaxed);
  f->false_positives.store(fps, std::memory_order_relaxed);
  return true;
}

Status Db::WriteManifestSnapshot(const ManifestEdit* pending) {
  VersionPtr v = CurrentVersion();
  // Fold in a not-yet-installed edit: manifest writes precede the
  // in-memory install, so the current version lags by one edit here.
  std::vector<std::vector<FilePtr>> levels = v->levels;
  if (pending != nullptr) {
    for (auto& level : levels) {
      level.erase(std::remove_if(level.begin(), level.end(),
                                 [&](const FilePtr& f) {
                                   return std::find(pending->deleted.begin(),
                                                    pending->deleted.end(),
                                                    f->id) !=
                                          pending->deleted.end();
                                 }),
                  level.end());
    }
    for (const auto& [lvl, f] : pending->added) {
      // L0 is newest-first; a flushed file is newer than everything
      // already there. L1+ get re-sorted by key at recovery.
      if (lvl == 0) {
        levels[lvl].insert(levels[lvl].begin(), f);
      } else {
        levels[lvl].push_back(f);
      }
    }
  }
  std::string payload;
  payload.push_back(static_cast<char>(kManifestRecordSnapshot));
  PutFixed64(&payload, kManifestMagic);
  PutFixed64(&payload, kManifestVersion);
  PutFixed64(&payload, next_file_id_);
  PutFixed64(&payload, last_seqno_.load(std::memory_order_acquire));
  PutFixed64(&payload, levels.size());
  for (const auto& level : levels) {
    PutFixed64(&payload, level.size());
    for (const auto& f : level) EncodeFileMeta(&payload, *f);
  }
  const std::string framed = FrameRecord(payload);

  const std::string tmp = ManifestPath() + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::IOError(Errno("cannot create " + tmp));
  Status s = WriteAllFd(fd, framed, "manifest write");
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IOError(Errno("manifest fsync failed"));
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), ManifestPath().c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(Errno("cannot rename manifest into place"));
  }
  SyncDir(options_.dir);
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
  manifest_fd_ = ::open(ManifestPath().c_str(), O_WRONLY | O_APPEND);
  if (manifest_fd_ < 0) {
    return Status::IOError(Errno("cannot reopen manifest for append"));
  }
  manifest_deltas_since_snapshot_ = 0;
  ++stats_->manifest_snapshots;
  return Status::OK();
}

Status Db::AppendManifestDelta(const ManifestEdit& edit) {
  // New SSTs named by this edit are fsync'd; make their directory
  // entries durable before the manifest starts referring to them.
  if (!edit.added.empty()) SyncDir(options_.dir);
  if (manifest_fd_ < 0 ||
      manifest_deltas_since_snapshot_ + 1 >
          options_.manifest_compact_threshold) {
    // First write, or time to fold the delta history into one record.
    // The snapshot must carry this edit too — it is not yet installed.
    return WriteManifestSnapshot(&edit);
  }
  std::string payload;
  payload.push_back(static_cast<char>(kManifestRecordDelta));
  PutFixed64(&payload, next_file_id_);
  PutFixed64(&payload, last_seqno_.load(std::memory_order_acquire));
  PutFixed64(&payload, edit.added.size());
  for (const auto& [level, f] : edit.added) {
    PutFixed64(&payload, level);
    EncodeFileMeta(&payload, *f);
  }
  PutFixed64(&payload, edit.deleted.size());
  for (uint64_t id : edit.deleted) PutFixed64(&payload, id);

  Status s = WriteAllFd(manifest_fd_, FrameRecord(payload), "manifest write");
  if (s.ok() && ::fdatasync(manifest_fd_) != 0) {
    s = Status::IOError(Errno("manifest fdatasync failed"));
  }
  if (!s.ok()) {
    // The append may have left a torn frame at the tail. Appending more
    // deltas after it would put good records beyond the point where
    // recovery stops reading — so drop the append fd: the NEXT manifest
    // write takes the manifest_fd_ < 0 branch above and rewrites a full
    // snapshot (atomic rename), which both discards the debris and
    // re-records every file this failed edit added.
    ::close(manifest_fd_);
    manifest_fd_ = -1;
    return s;
  }
  ++manifest_deltas_since_snapshot_;
  ++stats_->manifest_deltas;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery (single-threaded: runs before the Db is shared)
// ---------------------------------------------------------------------------

Status Db::RecoverManifest(bool* needs_rewrite) {
  *needs_rewrite = false;
  std::string content;
  bool found = false;
  Status read = ReadFileToString(ManifestPath(), &content, &found);
  if (!read.ok()) return read;
  if (!found || content.empty()) return Status::OK();  // empty db

  std::vector<std::vector<FilePtr>> levels(kMaxLevels);
  uint64_t recovered_next_id = 1;
  uint64_t recovered_last_seqno = 0;
  bool torn_tail = false;
  size_t records = 0;
  size_t deltas_since_snapshot = 0;
  size_t offset = 0;
  while (offset < content.size()) {
    if (offset + 8 > content.size()) {
      torn_tail = true;  // header cut short: crash mid-append
      break;
    }
    const uint32_t length = LoadFixed32(content.data() + offset);
    const uint32_t crc = LoadFixed32(content.data() + offset + 4);
    if (offset + 8 + length > content.size()) {
      torn_tail = true;  // payload cut short: crash mid-append
      break;
    }
    std::string_view payload(content.data() + offset + 8, length);
    if (Crc32c(payload) != crc) {
      // A complete frame whose bytes changed is damage, not a torn
      // write — torn appends truncate, they do not rewrite history.
      return Status::Corruption("manifest record CRC mismatch at offset " +
                                std::to_string(offset));
    }
    std::string_view cursor = payload;
    if (cursor.empty()) {
      return Status::Corruption("empty manifest record");
    }
    const uint8_t kind = static_cast<uint8_t>(cursor.front());
    cursor.remove_prefix(1);

    if (kind == kManifestRecordSnapshot) {
      uint64_t magic, version, n_levels;
      if (!GetFixed64(&cursor, &magic) || magic != kManifestMagic) {
        return Status::Corruption("bad manifest magic");
      }
      if (!GetFixed64(&cursor, &version) || version != kManifestVersion) {
        return Status::NotSupported("unsupported manifest version");
      }
      if (!GetFixed64(&cursor, &recovered_next_id) ||
          !GetFixed64(&cursor, &recovered_last_seqno) ||
          !GetFixed64(&cursor, &n_levels) || n_levels > kMaxLevels) {
        return Status::Corruption("corrupt manifest snapshot header");
      }
      for (auto& level : levels) level.clear();  // snapshot replaces state
      for (uint64_t level = 0; level < n_levels; ++level) {
        uint64_t n_files;
        if (!GetFixed64(&cursor, &n_files)) {
          return Status::Corruption("corrupt manifest level header");
        }
        for (uint64_t i = 0; i < n_files; ++i) {
          auto meta = std::make_shared<FileMeta>();
          if (!DecodeFileMeta(&cursor, meta.get())) {
            return Status::Corruption("corrupt manifest file entry");
          }
          meta->path =
              options_.dir + "/" + std::to_string(meta->id) + ".sst";
          meta->level = static_cast<int>(level);
          levels[level].push_back(std::move(meta));
        }
      }
      deltas_since_snapshot = 0;
    } else if (kind == kManifestRecordDelta) {
      if (records == 0) {
        return Status::Corruption("manifest does not start with a snapshot");
      }
      uint64_t n_added, n_deleted;
      if (!GetFixed64(&cursor, &recovered_next_id) ||
          !GetFixed64(&cursor, &recovered_last_seqno) ||
          !GetFixed64(&cursor, &n_added)) {
        return Status::Corruption("corrupt manifest delta header");
      }
      for (uint64_t i = 0; i < n_added; ++i) {
        uint64_t level;
        auto meta = std::make_shared<FileMeta>();
        if (!GetFixed64(&cursor, &level) || level >= kMaxLevels ||
            !DecodeFileMeta(&cursor, meta.get())) {
          return Status::Corruption("corrupt manifest delta add");
        }
        meta->path = options_.dir + "/" + std::to_string(meta->id) + ".sst";
        meta->level = static_cast<int>(level);
        if (level == 0) {
          // L0 deltas list newest first, matching the in-memory order.
          levels[0].insert(levels[0].begin(), std::move(meta));
        } else {
          levels[level].push_back(std::move(meta));
        }
      }
      if (!GetFixed64(&cursor, &n_deleted)) {
        return Status::Corruption("corrupt manifest delta header");
      }
      for (uint64_t i = 0; i < n_deleted; ++i) {
        uint64_t id;
        if (!GetFixed64(&cursor, &id)) {
          return Status::Corruption("corrupt manifest delta delete");
        }
        bool erased = false;
        for (auto& level : levels) {
          for (size_t j = 0; j < level.size(); ++j) {
            if (level[j]->id == id) {
              level.erase(level.begin() + j);
              erased = true;
              break;
            }
          }
          if (erased) break;
        }
        if (!erased) {
          return Status::Corruption("manifest delta retires unknown file " +
                                    std::to_string(id));
        }
      }
      ++deltas_since_snapshot;
    } else {
      return Status::Corruption("unknown manifest record kind");
    }
    if (!cursor.empty()) {
      return Status::Corruption("trailing bytes in manifest record");
    }
    ++records;
    offset += 8 + length;
  }

  if (records == 0) {
    // Non-empty file with no intact record: this is not crash debris
    // (appends preserve the snapshot prefix), it is damage.
    return Status::Corruption("manifest has no intact snapshot record");
  }

  // Levels >= 1 must be sorted by smallest key (deltas append).
  for (size_t level = 1; level < kMaxLevels; ++level) {
    std::sort(levels[level].begin(), levels[level].end(),
              [](const FilePtr& a, const FilePtr& b) {
                return a->smallest < b->smallest;
              });
  }

  uint64_t max_id = 0;
  uint64_t max_epoch = 0;
  for (const auto& level : levels) {
    for (const auto& f : level) {
      Status s = LoadFile(f);
      if (!s.ok()) return s;
      max_id = std::max(max_id, f->id);
      max_epoch = std::max(max_epoch, f->design_epoch);
    }
  }
  next_file_id_ = std::max(recovered_next_id, max_id + 1);
  // New designs must outrank every recovered one.
  design_epoch_.store(max_epoch + 1, std::memory_order_relaxed);
  manifest_deltas_since_snapshot_ = deltas_since_snapshot;
  last_seqno_.store(recovered_last_seqno, std::memory_order_relaxed);
  next_seqno_ = recovered_last_seqno + 1;

  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    nv->levels = std::move(levels);
    version_ = std::move(nv);
  }

  // A torn tail must be rewritten as one clean snapshot before any delta
  // is appended; leaving the append fd closed routes the next manifest
  // write through WriteManifestSnapshot.
  *needs_rewrite = torn_tail;
  if (!*needs_rewrite) {
    manifest_fd_ = ::open(ManifestPath().c_str(), O_WRONLY | O_APPEND);
    if (manifest_fd_ < 0) {
      return Status::IOError(Errno("cannot reopen manifest for append"));
    }
  }
  return Status::OK();
}

Status Db::LoadFile(const FilePtr& meta) {
  meta->reader = std::make_unique<SstReader>();
  Status s = meta->reader->Open(meta->path, meta->id, &cache_);
  if (!s.ok()) return s;
  const bool wants_filters = options_.filter_policy != nullptr &&
                             options_.filter_policy->Name() != "none";
  if (wants_filters) {
    meta->filter = meta->reader->LoadFilter();
    if (meta->filter != nullptr) {
      ++stats_->filter_loads;
    } else {
      // Missing, truncated, bit-flipped, or format-incompatible filter
      // block: rebuild from the file's keys instead of failing the open.
      // If a data block is unreadable the key list is incomplete and a
      // filter built on it would return false negatives — leave the
      // file unfiltered instead (seeks probe it directly and surface
      // the block damage as read errors).
      std::vector<std::string> keys;
      keys.reserve(meta->n_entries);
      const bool all_keys = meta->reader->ForEach(
          [&keys](std::string_view k, std::string_view) {
            if (keys.empty() || keys.back() != k) keys.emplace_back(k);
          });
      if (all_keys) {
        // The recovery-time tree is still being assembled, so no
        // per-level budget override here — the spec's own bpk applies.
        FilterBuildContext ctx;
        ctx.level = meta->level;
        Stopwatch timer;
        meta->filter =
            options_.filter_policy->Build(keys, query_queue_.Snapshot(), ctx);
        stats_->filter_build_ns += timer.ElapsedNanos();
        if (meta->filter != nullptr) {
          ++stats_->filter_rebuilds;
          stats_->filter_bits_built += meta->filter->SizeBits();
          stats_->keys_filtered += keys.size();
          // The rebuilt filter replaces the persisted design; its manifest
          // provenance (modeled FPR in particular) no longer applies.
          meta->modeled_fpr = meta->filter->ModeledFpr().value_or(-1.0);
        }
      }
    }
  }
  meta->reader->ReleaseFilterBlock();  // live filter holds the memory now
  if (meta->filter != nullptr) ChargeFilter(*meta);
  return Status::OK();
}

Status Db::ReplayWalSegments() {
  // Enumerate segments. A plain "WAL" file is an older generation's log
  // (seqno-less records): refuse it before anything on disk changes.
  std::vector<std::pair<uint64_t, std::string>> segments;
  bool old_wal = false;
  DIR* d = ::opendir(options_.dir.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      uint64_t number;
      if (ParseWalName(e->d_name, &number)) {
        segments.emplace_back(number, options_.dir + "/" + e->d_name);
      }
      old_wal = old_wal || std::strcmp(e->d_name, "WAL") == 0;
    }
    ::closedir(d);
  }
  if (old_wal) {
    return Status::NotSupported("unsupported WAL format: " + options_.dir +
                                "/WAL");
  }
  std::sort(segments.begin(), segments.end());

  uint64_t max_seq = last_seqno_.load(std::memory_order_relaxed);
  uint64_t replayed = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    uint64_t valid_bytes = 0;
    bool torn = false;
    Status s = WalReplay(
        segments[i].second,
        [&](uint8_t op, uint64_t seqno, std::string_view key,
            std::string_view value) {
          const uint8_t tag = op == kWalOpPutSeq ? kTagValue : kTagTombstone;
          max_seq = std::max(max_seq, seqno);
          // Replay routes through the same key hash as the live write
          // path: shard placement need not survive a restart, only the
          // (key, seqno) versions themselves.
          const size_t shard = mem_->Add(key, seqno, tag, value);
          shard_applies_[shard].fetch_add(1, std::memory_order_relaxed);
          ++stats_->wal_replayed;
          ++replayed;
        },
        &valid_bytes, &torn);
    if (!s.ok()) return s;
    if (torn) {
      if (i + 1 < segments.size()) {
        // Rotation only ever follows clean appends, so a torn frame in
        // the middle of the log is damage, not crash debris.
        return Status::Corruption("torn record in non-final WAL segment " +
                                  segments[i].second);
      }
      // The torn record was never acknowledged; cut it so the log ends
      // at a record boundary before we append to it again.
      if (::truncate(segments[i].second.c_str(),
                     static_cast<off_t>(valid_bytes)) != 0) {
        return Status::IOError(Errno("cannot truncate torn WAL tail"));
      }
    }
  }

  last_seqno_.store(max_seq, std::memory_order_relaxed);
  next_seqno_ = max_seq + 1;

  if (!options_.use_wal) {
    // A log left by a previous use_wal run was just replayed into the
    // memtable (honoring its acknowledged writes); this session keeps
    // no log, so the files must go — otherwise a later use_wal=true
    // open would replay the stale history on top of newer state. Flush
    // the replayed records FIRST: they were durably acknowledged, and
    // unlinking their only copy before SSTs hold them would let a
    // crash during this session revoke that acknowledgement.
    if (replayed > 0) {
      PrepareFlush(/*force=*/true);
      std::lock_guard<std::mutex> mlock(maint_mu_);
      Status fs = FlushImmLocked();
      if (!fs.ok()) return fs;
    }
    for (const auto& [number, path] : segments) ::unlink(path.c_str());
    return Status::OK();
  }

  // Reuse the highest existing segment for appends (a crash loop must
  // not mint a new file per reopen); the replayed records keep every
  // existing segment pinned until the memtable flushes.
  uint64_t active = 1;
  std::string active_path = WalSegmentPath(1);
  if (!segments.empty()) {
    active = segments.back().first;
    active_path = segments.back().second;
  }
  wal_ = std::make_unique<WalWriter>();
  Status s = wal_->Open(active_path);
  if (!s.ok()) return s;
  wal_number_ = active;
  mem_->wal_segment = segments.empty() ? active : segments.front().first;
  return Status::OK();
}

Status Db::RecoverAll() {
  bool needs_rewrite = false;
  Status s = RecoverManifest(&needs_rewrite);
  if (!s.ok()) return s;
  s = ReplayWalSegments();
  if (!s.ok()) return s;
  if (needs_rewrite && manifest_fd_ < 0) {
    // Replace snapshot+deltas+debris with one clean snapshot record.
    s = WriteManifestSnapshot();
    if (!s.ok()) return s;
  }
  RemoveOrphanSsts();
  return Status::OK();
}

void Db::RemoveOrphanSsts() {
  VersionPtr v = CurrentVersion();
  DIR* d = ::opendir(options_.dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() <= 4 || name.substr(name.size() - 4) != ".sst") continue;
    const std::string stem = name.substr(0, name.size() - 4);
    char* end = nullptr;
    const uint64_t id = std::strtoull(stem.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;  // not one of ours
    bool referenced = false;
    for (const auto& level : v->levels) {
      for (const auto& f : level) {
        if (f->id == id) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) ::unlink((options_.dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::unlink((options_.dir + "/MANIFEST.tmp").c_str());  // staging debris
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Db::ReadView Db::AcquireReadView(const ReadOptions& ro) const {
  ReadView view;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    view.mem = mem_;
    view.version = version_;
  }
  // Pin the structures BEFORE reading the horizon: the leader publishes
  // last_seqno_ with release after the memtable apply, so every seqno at
  // or below the acquired horizon is reachable through this view.
  view.snapshot = ro.snapshot != nullptr
                      ? ro.snapshot->sequence()
                      : last_seqno_.load(std::memory_order_acquire);
  return view;
}

SeekResult Db::Seek(std::string_view lo, std::string_view hi,
                    const ReadOptions& options) {
  const QueryBounds query{lo, hi};
  const uint32_t order = 0;
  SeekResult r;
  SeekBatch(AcquireReadView(options), &query, &order, 1, &r);
  return r;
}

void Db::SeekBatch(const ReadView& view, const QueryBounds* queries,
                   const uint32_t* order, size_t n, SeekResult* results) {
  stats_->seeks += n;
  const Version& version = *view.version;

  // Every source keeps a POSITIONED candidate across tombstone winners:
  // when the newest visible version at the front is a tombstone, only
  // the sources standing ON the deleted key advance (from where they
  // are — no fresh index descent), so a run of N consecutive tombstones
  // costs O(files + N) instead of N full multi-level restarts. The
  // winner rule: smallest key; among versions of that key the highest
  // seqno. Sources are bound and considered newest-first, so an equal
  // (key, seqno) — one write seen through two sources after a
  // crash-replay overlap — goes to the first one seen.
  struct Cand {
    bool valid = false;
    std::string key, value;
    uint64_t seqno = 0;
    bool tombstone = false;
  };

  // Memtable sources: skiplist descents are cheap, so repositioning is
  // just a fresh SeekGeq at the advanced cursor.
  struct MemSrc {
    const MemTableSet* mem;
    Cand cand;
  };

  // SST sources are sorted runs: each L0 file alone (L0 files overlap
  // freely) and each sorted level whole. A run enters at the query's
  // entry file (the first whose largest key >= lo) and walks on file by
  // file as the cursor outruns each one. Each file's filter is
  // consulted ONCE per query (sound permanently: a negative for
  // [lo, hi] covers every subrange the advancing cursor can ask about);
  // its first probe is an index-descent Seek, every later one a forward
  // SkipTo. `verdict` is the pre-pass's answer for the entry file, or
  // kUnprimed for a file the run reaches later and checks itself.
  enum : uint8_t { kNegative = 0, kPass = 1, kUnprimed = 2 };
  struct RunSrc {
    const FilePtr* files = nullptr;  // ascending, non-overlapping
    size_t n_files = 0;
    size_t idx = 0;  // the file the run stands in
    uint8_t verdict = kUnprimed;
    bool seeked = false;     // cursor holds a position
    bool found_any = false;  // at least one probe landed in range
    SstReader::RangeCursor cur;
    Cand cand;
  };

  // Bind the sources once; each query resets their state in place.
  std::vector<MemSrc> mems;
  mems.reserve(1 + version.imm.size());
  mems.push_back({view.mem.get(), {}});
  for (const MemPtr& m : version.imm) mems.push_back({m.get(), {}});
  std::vector<RunSrc> runs;
  runs.reserve(version.levels[0].size() + version.levels.size());
  auto add_run = [&runs](const FilePtr* files, size_t n_files) {
    runs.emplace_back();
    runs.back().files = files;
    runs.back().n_files = n_files;
  };
  for (const FilePtr& f : version.levels[0]) add_run(&f, 1);
  for (size_t level = 1; level < version.levels.size(); ++level) {
    const std::vector<FilePtr>& files = version.levels[level];
    if (!files.empty()) add_run(files.data(), files.size());
  }
  const size_t n_runs = runs.size();

  // Consults f's filter on the first `count` (clip_lo, clip_hi) ranges,
  // leaving the verdicts in `pass`, with every check's accounting.
  std::vector<std::string_view> clip_lo(n), clip_hi(n);
  std::vector<uint8_t> pass(n);
  auto clip = [&](size_t g, const FileMeta& f, std::string_view lo,
                  std::string_view hi) {
    clip_lo[g] = std::max(lo, std::string_view(f.smallest));
    clip_hi[g] = std::min(hi, std::string_view(f.largest));
  };
  auto check_filter = [&](const FileMeta& f, size_t count) {
    stats_->filter_checks += count;
    if (f.filter == nullptr) {
      std::fill_n(pass.begin(), count, kPass);
      return;
    }
    NoteFilterChecks(f, count);
    // A lone range skips the batch path's per-call setup.
    if (count == 1) {
      pass[0] = f.filter->MayContain(clip_lo[0], clip_hi[0]) ? kPass
                                                             : kNegative;
    } else {
      f.filter->MultiMayContain(clip_lo.data(), clip_hi.data(), count,
                                pass.data());
    }
    for (size_t g = 0; g < count; ++g) {
      if (pass[g] == kNegative) ++stats_->filter_negatives;
    }
  };

  // Filter pre-pass: exactly the checks the merge's priming step makes
  // (each run's entry file, when it starts at or below hi), grouped per
  // file so one MultiMayContain call answers every query of the batch
  // that primes there. primes[qi * n_runs + r] holds query qi's entry
  // file in run r and that file's verdict.
  struct Prime {
    size_t entry;
    uint8_t verdict;
  };
  std::vector<Prime> primes(n * n_runs);
  // (entry file, scheduled position): sorting groups a run's queries by
  // entry file, in scheduled order within each file.
  std::vector<std::pair<size_t, size_t>> assigned;
  assigned.reserve(n);
  for (size_t r = 0; r < n_runs; ++r) {
    const FilePtr* files = runs[r].files;
    const size_t n_files = runs[r].n_files;
    assigned.clear();
    for (size_t i = 0; i < n; ++i) {
      const QueryBounds& q = queries[order[i]];
      const size_t idx = static_cast<size_t>(
          std::lower_bound(files, files + n_files, q.lo,
                           [](const FilePtr& f, std::string_view key) {
                             return f->largest < key;
                           }) -
          files);
      primes[order[i] * n_runs + r] = {idx, kUnprimed};
      if (idx < n_files && files[idx]->smallest <= q.hi) {
        assigned.emplace_back(idx, i);
      }
    }
    std::sort(assigned.begin(), assigned.end());
    for (size_t a = 0; a < assigned.size();) {
      const FileMeta& f = *files[assigned[a].first];
      size_t end = a;
      for (; end < assigned.size() && assigned[end].first == assigned[a].first;
           ++end) {
        const QueryBounds& q = queries[order[assigned[end].second]];
        clip(end - a, f, q.lo, q.hi);
      }
      check_filter(f, end - a);
      for (size_t g = a; g < end; ++g) {
        primes[order[assigned[g].second] * n_runs + r].verdict = pass[g - a];
      }
      a = end;
    }
  }

  // The merge, one query at a time in scheduled order. `hi` and
  // `first_error` belong to the query being answered.
  std::string_view hi;
  Status* first_error = nullptr;
  auto position_mem = [&](MemSrc& src, std::string_view lo) {
    src.cand.valid = false;
    SkipList::Entry entry;
    uint8_t tag;
    std::string_view user;
    if (src.mem->SeekGeq(lo, view.snapshot, &entry) && entry.key <= hi &&
        ParseInternalValue(entry.value, &tag, &user)) {
      src.cand.valid = true;
      src.cand.key.assign(entry.key);
      src.cand.value.assign(user);
      src.cand.seqno = entry.seqno;
      src.cand.tombstone = tag == kTagTombstone;
    }
  };
  auto enter_file = [&](RunSrc& src, uint8_t verdict) {
    src.verdict = verdict;
    src.seeked = src.found_any = false;
    src.cur.Init(src.files[src.idx]->reader.get(), BlockReadOptions{},
                 view.snapshot);
  };
  // Positions the run's current file at its smallest visible entry in
  // [lo, hi]; false when it has none (filter negative, exhausted, read
  // error).
  auto position_file = [&](RunSrc& src, std::string_view lo) {
    const FileMeta& f = *src.files[src.idx];
    if (f.largest < lo) return false;
    if (src.verdict == kUnprimed) {
      clip(0, f, lo, hi);
      check_filter(f, 1);
      src.verdict = pass[0];
    }
    if (src.verdict == kNegative) return false;
    Status read_status;
    int rc;
    if (!src.seeked) {
      ++stats_->sst_seeks;
      NoteSstProbe(f);
      rc = src.cur.Seek(lo, hi, &read_status);
      src.seeked = true;
    } else {
      rc = src.cur.SkipTo(lo, hi, &read_status);
    }
    if (rc == 0) {
      src.found_any = true;
      const SstReader::SeekEntry& se = src.cur.entry();
      src.cand.valid = true;
      src.cand.key = se.key;
      src.cand.value = se.value;
      src.cand.seqno = se.seqno;
      src.cand.tombstone = se.tombstone;
      return true;
    }
    if (rc == 1) {
      if (!src.found_any && f.filter != nullptr) {
        ++stats_->false_positive_files;  // filter passed, file had nothing
        NoteFalsePositive(f);
      }
    } else {
      ++stats_->read_errors;
      if (first_error->ok()) *first_error = std::move(read_status);
    }
    return false;
  };
  auto position_run = [&](RunSrc& src, std::string_view lo) {
    src.cand.valid = false;
    // Files starting past hi end the walk: the rest of the run is too.
    while (src.idx < src.n_files && src.files[src.idx]->smallest <= hi) {
      if (position_file(src, lo)) return;
      if (++src.idx < src.n_files) enter_file(src, kUnprimed);
    }
  };

  std::string cursor;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t qi = order[i];
    const QueryBounds& q = queries[qi];
    SeekResult& r = results[qi];
    hi = q.hi;
    first_error = &r.status;

    // Prime every source at lo, then loop: pick the best candidate; a
    // tombstone winner advances the cursor and repositions ONLY the
    // sources standing on the deleted key.
    for (auto& src : mems) position_mem(src, q.lo);
    for (size_t s = 0; s < n_runs; ++s) {
      const Prime& prime = primes[qi * n_runs + s];
      RunSrc& src = runs[s];
      src.idx = prime.entry;
      if (src.idx < src.n_files) enter_file(src, prime.verdict);
      position_run(src, q.lo);
    }

    for (;;) {
      const Cand* best = nullptr;
      auto consider = [&](const Cand& c) {
        if (!c.valid) return;
        if (best == nullptr || c.key < best->key ||
            (c.key == best->key && c.seqno > best->seqno)) {
          best = &c;
        }
      };
      for (const auto& src : mems) consider(src.cand);
      for (const auto& src : runs) consider(src.cand);

      if (best == nullptr) break;
      if (!best->tombstone) {
        r.found = true;
        r.key.assign(best->key);
        r.value.assign(best->value);
        break;
      }
      // The newest visible version in range is a tombstone: advance past
      // the deleted key. Only sources whose candidate IS that key are
      // stale (every other candidate already sits beyond the new cursor).
      cursor.assign(best->key);
      cursor.push_back('\0');
      for (auto& src : mems) {
        if (src.cand.valid && src.cand.key < cursor) position_mem(src, cursor);
      }
      for (auto& src : runs) {
        if (src.cand.valid && src.cand.key < cursor) position_run(src, cursor);
      }
    }
    // Empty results feed the sample queue with the ORIGINAL bounds, not
    // a tombstone-advanced cursor.
    if (!r.found) {
      ++stats_->empty_seeks;
      if (query_queue_.OnEmptyQuery(q.lo, q.hi)) ++stats_->queue_sampled;
    }
  }
}

void Db::MultiSeek(const QueryBatch& batch,
                   std::vector<MultiSeekResult>* results,
                   const ReadOptions& options) {
  const size_t n = batch.size();
  results->assign(n, MultiSeekResult{});
  if (n == 0) return;

  // ONE view and horizon for the whole batch: its answers are mutually
  // consistent even while writers commit concurrently.
  const ReadView view = AcquireReadView(options);

  std::vector<uint32_t> order;
  Scheduler::Plan(batch, ScheduleContext{}, &order);

  std::vector<QueryBounds> queries(n);
  for (size_t i = 0; i < n; ++i) queries[i] = {batch[i].lo, batch[i].hi};
  SeekBatch(view, queries.data(), order.data(), n, results->data());
}

Status Db::VerifyChecksums() const {
  VersionPtr v = CurrentVersion();
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      Status s = f->reader->VerifyChecksums();
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

DbStats Db::stats() const {
  DbStats out = stats_->Snapshot();
  out.shard_applies.reserve(shard_applies_.size());
  for (const auto& c : shard_applies_) {
    out.shard_applies.push_back(c.load(std::memory_order_relaxed));
  }
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    out.memtable_arena_bytes = mem_->ArenaBytes();
    for (const MemPtr& m : version_->imm) {
      out.memtable_arena_bytes += m->ArenaBytes();
    }
  }
  return out;
}

void Db::ResetStats() {
  stats_->Reset();
  for (auto& c : shard_applies_) c.store(0, std::memory_order_relaxed);
}

WalWriter::Stats Db::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : WalWriter::Stats{};
}

Status Db::background_error() const {
  std::lock_guard<std::mutex> el(err_mu_);
  return bg_error_;
}

std::vector<size_t> Db::LevelFileCounts() const {
  VersionPtr v = CurrentVersion();
  std::vector<size_t> out;
  for (const auto& level : v->levels) out.push_back(level.size());
  return out;
}

uint64_t Db::TotalSstBytes() const {
  VersionPtr v = CurrentVersion();
  uint64_t total = 0;
  for (const auto& level : v->levels) {
    for (const auto& f : level) total += f->file_size;
  }
  return total;
}

uint64_t Db::TotalFilterBits() const {
  VersionPtr v = CurrentVersion();
  uint64_t total = 0;
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      if (f->filter != nullptr) total += f->filter->SizeBits();
    }
  }
  return total;
}

uint64_t Db::TotalKeys() const {
  ReadView view;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    view.mem = mem_;
    view.version = version_;
  }
  uint64_t total = view.mem->size();
  for (const MemPtr& m : view.version->imm) total += m->size();
  for (const auto& level : view.version->levels) {
    for (const auto& f : level) total += f->n_entries;
  }
  return total;
}

void Db::TEST_CrashClose() {
  crashed_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> sl(stall_mu_);
  }
  stall_cv_.notify_all();
  pool_->Shutdown();  // join any in-flight maintenance first
  std::lock_guard<std::mutex> plock(pipeline_mu_);
  std::lock_guard<std::mutex> vl(view_mu_);
  wal_.reset();  // closes the fd; the file stays as-is on disk
  // kill -9 takes the memtables
  mem_ = std::make_shared<MemTableSet>(options_.memtable_shards);
  auto nv = std::make_shared<Version>(*version_);
  nv->imm.clear();
  version_ = std::move(nv);
  if (manifest_fd_ >= 0) {
    ::close(manifest_fd_);
    manifest_fd_ = -1;
  }
}

}  // namespace proteus
