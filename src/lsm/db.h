// miniLSM — the storage engine standing in for RocksDB in Sections 6–7
// (see DESIGN.md substitutions).
//
// Architecture (mirroring the paper's description of RocksDB):
//  * a multi-version skiplist MemTable buffering writes (every version
//    carries the sequence number its write committed at),
//  * a write-ahead log (src/lsm/wal.h): every Put/Delete is CRC-framed,
//    stamped with its seqno, and group-committed to a WAL segment before
//    it is acknowledged, so a process kill between flushes loses nothing,
//  * L0 SST files flushed from immutable memtables on a background
//    thread (overlapping ranges, newest first),
//  * levels L1..Lmax of range-partitioned, non-overlapping SST files
//    with leveled compaction (size ratio between levels), also run in
//    the background,
//  * a per-SST filter built at flush/compaction time by the configured
//    FilterPolicy from the SST's keys and the sample query queue,
//  * an LRU block cache for data blocks; index blocks and filters stay
//    pinned in memory (Section 6.2's tuning),
//  * closed Seek(lo, hi): consult every overlapping SST's filter first,
//    then fetch the smallest key >= lo only from files whose filter
//    passes (Section 6.1, "Range Query Implementation").
//
// Concurrency & MVCC (docs/ARCHITECTURE.md "Threading & MVCC"):
//  * Writers queue behind a group-commit leader that assigns monotonic
//    sequence numbers and appends the whole batch to the WAL in one
//    critical section — WAL order, seqno order, and crash-replay order
//    are identical. The memtable APPLY is parallel: the active memtable
//    is a MemTableSet of concurrent skiplist shards (key-hash routed,
//    DbOptions::memtable_shards), and after the WAL append each batch
//    follower inserts its own entry into its shard concurrently; the
//    leader publishes last_seqno_ only after every apply lands, so
//    readers never see a committed horizon with holes.
//  * Readers never take the writer path's locks: Seek/MultiSeek pin an
//    immutable view (active memtable + a copy-on-write Version of the
//    immutable memtables and SST levels) under one brief mutex, then run
//    lock-free. Retired SSTs stay readable until the last view drops.
//  * GetSnapshot() pins a sequence horizon: a reader carrying it sees
//    exactly the versions committed at or before that point, regardless
//    of concurrent writes, flushes, or compactions. Compaction keeps the
//    newest version per live-snapshot stripe and drops the rest.
//  * Flush and compaction run on a background TaskPool; writers stall
//    (bounded immutable-memtable count) instead of doing maintenance
//    inline. stats().write_stalls / stall_wait_us account for it.
//
// Durability contract (docs/FORMAT.md has the byte-level formats):
//  * Put/Delete return only after their WAL record is fsync'd (group
//    commit batches concurrent writers into one fsync); Db::Open replays
//    the WAL segments into the memtable, dropping at most a torn (never
//    acknowledged) tail record.
//  * Every flush/compaction appends a CRC-framed delta record to the
//    append-only MANIFEST (compacted back to a single snapshot record
//    every manifest_compact_threshold deltas); obsolete SSTs are
//    unlinked only after the delta that retires them is durable and no
//    in-flight read still holds them.
//  * SSTs carry a CRC32C per data block in the index handle; a
//    flipped byte surfaces as a Corruption status (SeekResult::status,
//    VerifyChecksums), never as silently wrong bytes.
//
// All public methods are thread-safe unless noted. Write failures
// surface as proteus::Status from Put/Delete/Flush/Open.

#ifndef PROTEUS_LSM_DB_H_
#define PROTEUS_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/scheduler.h"
#include "lsm/block_cache.h"
#include "lsm/drift.h"
#include "lsm/filter_policy.h"
#include "lsm/ikey.h"
#include "lsm/memtable.h"
#include "lsm/query_queue.h"
#include "lsm/skiplist.h"
#include "lsm/sst.h"
#include "lsm/task_pool.h"
#include "lsm/wal.h"
#include "util/status.h"

namespace proteus {

class Db;

/// Abstract sorted stream of entry versions (key asc, seqno desc) — the
/// input of SST building. Implementations live in db.cc (memtable dumps,
/// k-way SST merges, the snapshot-aware collapse filter).
class EntrySource;

/// A pinned sequence horizon from Db::GetSnapshot(). Reads carrying one
/// (ReadOptions::snapshot) see exactly the state as of this sequence —
/// later commits are invisible, and compaction keeps the versions the
/// snapshot needs until the handle is released. The Db must outlive
/// every snapshot taken from it.
class Snapshot {
 public:
  uint64_t sequence() const { return seqno_; }

 private:
  friend class Db;
  explicit Snapshot(uint64_t seqno) : seqno_(seqno) {}
  const uint64_t seqno_;
};

/// Per-read knobs for Seek/MultiSeek.
struct ReadOptions {
  /// Read as of this pinned horizon; null reads the latest committed
  /// state (the default).
  const Snapshot* snapshot = nullptr;
};

/// Per-write knobs for Put/Delete.
struct WriteOptions {
  /// fdatasync the WAL batch before acknowledging. The effective sync is
  /// `sync && DbOptions::wal_sync`, so a database opened with
  /// wal_sync=false never syncs regardless of this flag.
  bool sync = true;
};

/// How the filter budget is spread across levels (DbOptions::bpk_policy).
enum class BpkPolicy {
  /// Every SST gets the filter spec's own bits-per-key.
  kFixed,
  /// Monkey-style: the same global budget, split across levels by
  /// marginal false-positive reduction per bit (model/bpk_alloc.h).
  /// Needs a filter spec with an explicit bpk parameter; other specs
  /// silently behave like kFixed.
  kMonkey,
};

struct DbOptions {
  std::string dir = "/tmp/proteus_db";
  size_t memtable_bytes = 8u << 20;
  size_t sst_target_bytes = 16u << 20;  // per compaction-output file
  size_t block_size = 4096;
  uint64_t block_cache_bytes = 64u << 20;
  int l0_compaction_trigger = 4;
  uint64_t l1_size_bytes = 64u << 20;
  double level_size_multiplier = 10.0;
  /// Levels >= this are compressed (the paper leaves L0/L1 raw and
  /// compresses deeper levels; Section 6.1).
  int compress_min_level = 2;
  /// Write-ahead logging. With use_wal off, durability regresses to the
  /// pre-WAL contract (clean close is lossless, kill -9 loses the
  /// memtable). wal_sync=false acknowledges after the OS write but
  /// before fdatasync (group commit still batches the writes).
  bool use_wal = true;
  bool wal_sync = true;
  /// A WAL segment reaching this size triggers a memtable flush (and a
  /// rotation to a fresh segment), bounding crash-replay time even when
  /// the memtable itself is under memtable_bytes.
  size_t wal_segment_bytes = 8u << 20;
  /// Writers stall once this many immutable memtables await flushing —
  /// the backpressure that keeps an outrun flusher from buffering
  /// unbounded memory. stats().write_stalls counts the stalls.
  size_t max_immutable_memtables = 2;
  /// Threads in the background maintenance pool (flush + compaction).
  size_t background_threads = 2;
  /// Concurrent skiplist shards per memtable (rounded up to a power of
  /// two, max 256). Writes route by user-key hash; batch followers apply
  /// to their shards in parallel. 1 = the single-skiplist layout.
  size_t memtable_shards = 4;
  /// MANIFEST delta records appended since the last full snapshot before
  /// the log is compacted back into one snapshot record.
  size_t manifest_compact_threshold = 16;
  std::shared_ptr<FilterPolicy> filter_policy;  // null = no filters
  SampleQueryQueue::Options queue_options;
  /// Per-level filter budget allocation (see BpkPolicy).
  BpkPolicy bpk_policy = BpkPolicy::kFixed;
  /// Continuous self-design: background maintenance rewrites an SST in
  /// place — re-running Sample() -> Design() -> Build() with the live
  /// query window — once the drift detector flags its filter as designed
  /// for a workload that no longer exists (stats().redesigns counts the
  /// rewrites). Off = every design is frozen at first build.
  bool adaptive_redesign = true;
  /// Thresholds for the drift detector (src/lsm/drift.h).
  DriftOptions drift;
};

/// A point-in-time copy of the Db's counters (stats() snapshots the
/// internal relaxed atomics — the counters are mutated concurrently by
/// readers, the write leader, and background maintenance).
struct DbStats {
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t seeks = 0;
  uint64_t empty_seeks = 0;
  uint64_t filter_checks = 0;
  uint64_t filter_negatives = 0;
  uint64_t sst_seeks = 0;             // files actually probed on disk
  uint64_t false_positive_files = 0;  // filter passed, file had nothing
  uint64_t read_errors = 0;   // data-block CRC/checksum failures in Seek
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t filter_build_ns = 0;
  uint64_t filter_bits_built = 0;
  uint64_t keys_filtered = 0;   // keys covered by built filters
  uint64_t filter_loads = 0;    // filters deserialized from SST blocks
  uint64_t filter_rebuilds = 0;  // recovery fallbacks: block missing/corrupt
  uint64_t wal_replayed = 0;     // records re-applied by Db::Open
  uint64_t wal_rotations = 0;    // segment files rotated in
  uint64_t manifest_deltas = 0;     // delta records appended
  uint64_t manifest_snapshots = 0;  // snapshot rewrites (incl. compaction)
  uint64_t queue_sampled = 0;    // empty queries recorded in the sample queue
  uint64_t write_stalls = 0;     // writer batches that hit the imm limit
  uint64_t stall_wait_us = 0;    // total time writers spent stalled
  uint64_t drift_detected = 0;   // SSTs flagged by the drift detector
  uint64_t redesigns = 0;        // drift-triggered single-file rewrites

  /// Entries applied per memtable shard (index = shard id, cumulative
  /// across memtable rotations, including WAL replay). A flat histogram
  /// means the key-hash routing is spreading the write load.
  std::vector<uint64_t> shard_applies;
  /// Bytes reserved by the live memtables' arenas (active + immutable).
  uint64_t memtable_arena_bytes = 0;

  /// Per-level breakdown of filter checks / sst_seeks /
  /// false_positive_files (index = level; sized to the deepest level
  /// that saw filter traffic). Checks count only files that have a
  /// filter.
  std::vector<uint64_t> level_filter_checks;
  std::vector<uint64_t> level_sst_seeks;
  std::vector<uint64_t> level_fp_files;

  /// Observed per-file FPR: of the filter passes that led to an SST
  /// probe, the fraction that found nothing in range — the live
  /// counterpart of the CPFPR model's predicted FPR.
  double ObservedFileFpr() const {
    return sst_seeks == 0 ? 0.0
                          : static_cast<double>(false_positive_files) /
                                static_cast<double>(sst_seeks);
  }

  /// One level's live FPR: false positives over the filter checks whose
  /// range was empty at that level (checks minus true-positive probes) —
  /// directly comparable to the designs' modeled FPR.
  double LevelObservedFpr(size_t level) const {
    if (level >= level_filter_checks.size()) return 0.0;
    const uint64_t tp = level_sst_seeks[level] - level_fp_files[level];
    if (level_filter_checks[level] <= tp) return 0.0;
    return static_cast<double>(level_fp_files[level]) /
           static_cast<double>(level_filter_checks[level] - tp);
  }
};

/// One range query's outcome: the smallest live key in [lo, hi] visible
/// at the read's snapshot horizon, or found=false. The first data-block
/// read error encountered (Corruption/IOError) lands in `status`, so a
/// caller can tell "key absent" from "file unreadable" (the result may
/// then be stale if the damaged file held a newer version).
struct SeekResult {
  bool found = false;
  std::string key;
  std::string value;
  Status status;
};

/// MultiSeek answers each query with exactly the Seek() result.
using MultiSeekResult = SeekResult;

class Db {
 public:
  /// Creates a FRESH database in `options.dir`, wiping any SST files,
  /// manifest, and WAL segments left there. Use Open() to resume an
  /// existing database. Returns {nullptr, error} when the directory or
  /// WAL cannot be set up.
  static std::pair<std::unique_ptr<Db>, Status> Create(DbOptions options);

  /// Reopens a database previously closed (or killed) in `options.dir`:
  /// replays the MANIFEST delta log, reattaches every SST, reloads
  /// persisted filter blocks (stats().filter_loads; rebuilt from keys
  /// only when a block is missing or corrupt), and replays the WAL
  /// segments into the memtable at their recorded seqnos
  /// (stats().wal_replayed) — so recovery reproduces the exact pre-crash
  /// write order. A missing manifest yields an empty database; a corrupt
  /// manifest record or unreadable SST fails Open with a non-OK status
  /// rather than silently dropping data. A torn WAL or MANIFEST tail —
  /// crash debris from an unacknowledged write — is truncated away, not
  /// an error. Input of an older format generation (a MANIFEST snapshot
  /// that is not version 4, an SST footer that is not v4, a plain `WAL`
  /// file, a WAL record with op 1 or 2) fails Open with NotSupported and
  /// leaves the directory untouched.
  static std::pair<std::unique_ptr<Db>, Status> Open(DbOptions options);

  /// Flushes the memtable and persists the manifest, so a subsequent
  /// Open() sees every key without WAL replay. Joins the background
  /// maintenance pool first.
  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// Inserts a new version of `key`. Returns once the write is durable
  /// in the WAL (see WriteOptions::sync) and applied to the memtable; a
  /// non-OK status means the write was rejected and is NOT visible.
  /// Concurrent callers are batched by a group-commit leader that also
  /// assigns the write's sequence number. If background maintenance has
  /// failed, the sticky background_error() rejects writes until an
  /// explicit Flush()/CompactAll() succeeds.
  Status Put(std::string_view key, std::string_view value,
             const WriteOptions& options = {});

  /// Removes a key (writes a tombstone version that shadows older ones
  /// and is dropped by bottom-level compaction once no snapshot needs
  /// it). Same durability as Put.
  Status Delete(std::string_view key, const WriteOptions& options = {});

  /// Pins the current sequence horizon. Reads passing the returned
  /// snapshot in ReadOptions see the database exactly as of this call;
  /// flushes and compactions preserve the pinned versions until the
  /// handle is released (dropped). The Db must outlive the handle.
  std::shared_ptr<const Snapshot> GetSnapshot();

  /// Closed Seek: finds the smallest live key in [lo, hi] visible at the
  /// read's snapshot horizon (options.snapshot, or the latest committed
  /// state). Empty results feed the sample query queue. Safe to call
  /// concurrently with writes and background maintenance. A one-query
  /// MultiSeek: both run the same read path.
  SeekResult Seek(std::string_view lo, std::string_view hi,
                  const ReadOptions& options = {});

  /// Batched Seek: answers every query in `batch` with exactly the
  /// Seek() results, and counts the same filter checks and SST probes.
  /// The batch amortizes the pinned view, the binding of the tree's
  /// sources, and the filter verdicts: every query's first check of a
  /// file comes from one MultiMayContain call per file. SST probes then
  /// run per query in key-sorted order (engine/scheduler.h), so one
  /// file's data blocks stay hot across neighbouring queries. The whole
  /// batch resolves against ONE pinned view and one snapshot horizon,
  /// so its answers are mutually consistent even while writers commit
  /// concurrently.
  void MultiSeek(const QueryBatch& batch,
                 std::vector<MultiSeekResult>* results,
                 const ReadOptions& options = {});

  /// Forces a flush of the memtable (and any triggered compactions),
  /// synchronously. Success clears a pending background error (the
  /// stuck data is durable now); failure sets it.
  Status Flush();

  /// The sticky failure from background flush/compaction. While non-OK,
  /// Put/Delete are rejected (nothing new becomes visible); a successful
  /// explicit Flush()/CompactAll() clears it.
  Status background_error() const;

  /// Compacts until every level is within its size limit and L0 is empty
  /// (the paper's "wait for all background compactions" setup step).
  Status CompactAll();

  /// Blocks until no background maintenance is queued or running.
  void WaitForBackground();

  /// Reads every data block of every SST, verifying per-block CRCs and
  /// in-block checksums. First damage found is returned as Corruption.
  Status VerifyChecksums() const;

  /// Highest committed sequence number (what a new snapshot would pin).
  uint64_t LastSequence() const {
    return last_seqno_.load(std::memory_order_acquire);
  }

  SampleQueryQueue& query_queue() { return query_queue_; }
  const SampleQueryQueue& query_queue() const { return query_queue_; }

  /// The live workload sample the next flush's filters will be built
  /// from (the queue's current snapshot).
  std::vector<std::pair<std::string, std::string>> SampledQueries() const {
    return query_queue_.Snapshot();
  }

  DbStats stats() const;
  void ResetStats();
  BlockCache& cache() { return cache_; }

  /// WAL group-commit counters (zeros when use_wal is off). Cumulative
  /// across segment rotations.
  WalWriter::Stats wal_stats() const;

  /// Files per level (diagnostics / tests).
  std::vector<size_t> LevelFileCounts() const;
  uint64_t TotalSstBytes() const;
  uint64_t TotalFilterBits() const;
  /// Live entry versions: memtable + immutable memtables + SST entries.
  uint64_t TotalKeys() const;

  /// Test hook: simulate kill -9. Joins background maintenance, drops
  /// the memtables, and closes the WAL without flushing; the destructor
  /// then does nothing. Acknowledged writes must come back through WAL
  /// replay on the next Open().
  void TEST_CrashClose();

  /// Test hook: the live WAL writer (null when use_wal is off).
  WalWriter* TEST_wal() { return wal_.get(); }

  /// Design provenance and live probe counters of one resident SST
  /// (diagnostics / tests; snapshot of concurrently updated counters).
  struct SstDesignInfo {
    uint64_t file_id = 0;
    int level = 0;
    uint64_t design_epoch = 0;       // 0 = no design (built unfiltered)
    double modeled_fpr = -1.0;       // model's promise (< 0: none)
    double design_signature = -1.0;  // query-window signature at design
    uint64_t design_samples = 0;     // queue.sampled() at design time
    uint64_t checks = 0;             // filter consultations
    uint64_t probes = 0;             // filter passes that probed the SST
    uint64_t false_positives = 0;    // of those, probes finding nothing
    uint64_t filter_bits = 0;
    bool drift_flagged = false;

    /// Live FPR: false positives over empty-range checks (see
    /// drift.h's ObservedFpr; same formula).
    double ObservedFpr() const {
      const uint64_t true_positives = probes - false_positives;
      if (checks <= true_positives) return 0.0;
      return static_cast<double>(false_positives) /
             static_cast<double>(checks - true_positives);
    }
  };

  /// One entry per live SST, L0 first.
  std::vector<SstDesignInfo> DesignInfo() const;

 private:
  struct FileMeta {
    uint64_t id = 0;
    std::string path;
    std::string smallest, largest;
    uint64_t n_entries = 0;
    uint64_t file_size = 0;
    std::unique_ptr<SstReader> reader;
    std::unique_ptr<SstFilter> filter;
    // The level the file lives at (set at install/recovery) — feeds the
    // per-level stats and lets a redesign rewrite in place.
    int level = 0;
    // Design provenance, persisted in the MANIFEST (negative doubles =
    // not available; design_epoch 0 = built without a filter).
    uint64_t design_epoch = 0;
    double modeled_fpr = -1.0;
    double design_signature = -1.0;
    uint64_t design_samples = 0;
    // Live observed-FPR evidence, updated lock-free by readers and
    // persisted at manifest snapshots so drift detection survives
    // reopen. drift_flagged latches the detector's verdict until a
    // background redesign retires the file.
    mutable std::atomic<uint64_t> checks{0};
    mutable std::atomic<uint64_t> probes{0};
    mutable std::atomic<uint64_t> false_positives{0};
    mutable std::atomic<bool> drift_flagged{false};
    // Retired by a compaction: unlink on destruction. The last ReadView
    // holding the containing Version keeps the file readable until then.
    std::atomic<bool> obsolete{false};
    ~FileMeta();
  };
  using FilePtr = std::shared_ptr<FileMeta>;

  using MemPtr = std::shared_ptr<MemTableSet>;

  /// An immutable picture of everything except the active memtable.
  /// Swapped atomically (under view_mu_); never mutated in place.
  struct Version {
    std::vector<MemPtr> imm;  // newest first
    // levels[0]: newest-first overlapping files; levels[n>=1]: sorted by
    // smallest key, non-overlapping.
    std::vector<std::vector<FilePtr>> levels;
  };
  using VersionPtr = std::shared_ptr<const Version>;

  /// What one read operation pins: the structures it walks and the
  /// sequence horizon it resolves visibility against.
  struct ReadView {
    MemPtr mem;
    VersionPtr version;
    uint64_t snapshot = kMaxSequence;
  };

  /// Shared state of one batch's parallel memtable apply, owned by the
  /// leader's stack frame (defined in db.cc).
  struct ApplyGroup;

  /// One queued write, owned by the caller's stack frame.
  struct Writer {
    uint8_t tag;  // kTagValue | kTagTombstone
    std::string_view key, value;
    bool sync;
    uint64_t seqno = 0;
    Status status;
    bool done = false;
    /// Set (under write_mu_) by the leader after the WAL append: the
    /// follower applies its own entry to the memtable and decrements the
    /// group's pending count instead of idling until commit.
    ApplyGroup* apply = nullptr;
  };

  /// One atomic change to the LSM tree, as recorded in the MANIFEST
  /// delta log: files added (with their level) and file ids retired.
  struct ManifestEdit {
    std::vector<std::pair<uint64_t, FilePtr>> added;
    std::vector<uint64_t> deleted;
  };

  Db(DbOptions options, bool wipe_existing);

  Status WriteInternal(uint8_t tag, std::string_view key,
                       std::string_view value, const WriteOptions& wopts);
  /// Leader body: stall, assign seqnos, WAL append, parallel memtable
  /// apply (followers insert their own entries), commit-point publish.
  Status CommitBatch(const std::vector<Writer*>& batch, bool* need_maintenance);
  /// Inserts one writer's entry into `mem` and bumps its shard counter.
  void ApplyWriter(MemTableSet* mem, const Writer& w);

  ReadView AcquireReadView(const ReadOptions& ro) const;

  /// One query's bounds as the read core sees them.
  struct QueryBounds {
    std::string_view lo, hi;
  };

  /// The read path behind Seek and MultiSeek: answers queries[order[0..n)]
  /// in that order into results[qi], all against `view`. Binds the
  /// sources (memtables, L0 files, levels) once, batches the filter
  /// checks of each query's priming step per file, then runs the
  /// positioned-cursor merge query by query. Counts the seeks, read
  /// errors and empty results (which feed the sample queue with the
  /// query's own bounds).
  void SeekBatch(const ReadView& view, const QueryBounds* queries,
                 const uint32_t* order, size_t n, SeekResult* results);

  /// Writes SSTs from a sorted (key asc, seqno desc) entry stream;
  /// builds their filters. File boundaries never split a key's version
  /// run, so sorted levels stay point-disjoint. Tombstone dropping and
  /// snapshot-stripe collapse happen upstream (the CollapseSource the
  /// callers wrap around their merge).
  Status WriteSstFiles(EntrySource& entries, int target_level,
                       size_t max_data_bytes, std::vector<FilePtr>* out);

  Status FinishFile(SstWriter* writer, std::vector<std::string>* keys,
                    const std::string& path, int target_level, FilePtr* out);

  /// The Monkey per-level bits-per-key for a file of `incoming_keys`
  /// keys landing at `target_level`, or 0 (no override) under kFixed /
  /// no tunable budget. Prices the current tree shape plus the incoming
  /// file through model/bpk_alloc.h.
  double MonkeyBpkForLevel(int target_level, uint64_t incoming_keys) const;

  /// Read-path accounting: `f`'s filter answered `n` queries.
  void NoteFilterChecks(const FileMeta& f, uint64_t n);
  /// A filter pass probed `f` on disk.
  void NoteSstProbe(const FileMeta& f);
  /// ... and the probe found nothing in range (a false positive). Feeds
  /// the drift detector; a firing latches f.drift_flagged and wakes
  /// background maintenance.
  void NoteFalsePositive(const FileMeta& f);

  /// Charges the filter's pinned bytes to the block cache.
  void ChargeFilter(const FileMeta& meta);

  /// Live snapshot horizons, sorted ascending (compaction input).
  std::vector<uint64_t> LiveSnapshots() const;

  // --- write-stall / trigger plumbing ---
  size_t ImmCount() const;
  bool WorkPending() const;
  void MaybeScheduleMaintenance();
  void BackgroundWork();
  /// Swaps the active memtable into the immutable list and rotates the
  /// WAL segment, if the memtable is non-empty and (force or a size
  /// trigger fired). Returns true when a swap happened.
  bool PrepareFlush(bool force);
  void SetBackgroundError(Status s, bool clear_on_ok);

  // --- MANIFEST delta log ---
  std::string ManifestPath() const { return options_.dir + "/MANIFEST"; }
  std::string WalSegmentPath(uint64_t n) const {
    return options_.dir + "/WAL-" + std::to_string(n);
  }
  /// Appends one CRC-framed delta record (fsync'd); rewrites the log as
  /// a single snapshot every manifest_compact_threshold deltas.
  Status AppendManifestDelta(const ManifestEdit& edit);
  /// Atomically replaces the MANIFEST with one snapshot of the tree.
  /// `pending` (may be null) is an edit not yet installed in the
  /// current version — manifest writes happen before the in-memory
  /// install, so a snapshot taken mid-edit must fold it in or the
  /// edit's files vanish from the recovered state.
  Status WriteManifestSnapshot(const ManifestEdit* pending = nullptr);
  /// Rebuilds the tree (and filters) from the MANIFEST delta log, then
  /// replays the WAL segments into the memtable.
  Status RecoverAll();
  Status RecoverManifest(bool* needs_rewrite);
  Status ReplayWalSegments();
  /// Unlinks *.sst files the recovered manifest does not reference —
  /// debris of a crash between a manifest append and the matching
  /// unlink (or SST write); without this each crash leaks disk forever.
  void RemoveOrphanSsts();

  /// Reattaches one recovered SST: opens the reader, loads the persisted
  /// filter block, or rebuilds the filter from keys as a fallback.
  Status LoadFile(const FilePtr& meta);

  /// MANIFEST file-entry codec, design provenance and observed-FPR
  /// counters included.
  static void EncodeFileMeta(std::string* out, const FileMeta& f);
  static bool DecodeFileMeta(std::string_view* cursor, FileMeta* f);

  // Maintenance bodies; callers hold maint_mu_.
  Status FlushImmLocked();
  Status MaybeCompactLocked();
  Status CompactL0Locked();
  Status CompactLevelLocked(size_t level);
  /// Rewrites every drift-flagged SST in place (same level, same data),
  /// rebuilding its filter from the live query window.
  Status MaybeRedesignLocked();
  Status RedesignFileLocked(size_t level, const FilePtr& input);
  static bool AnyDriftFlagged(const Version& v);
  void DeleteObsoleteWalSegments();
  uint64_t LevelLimitBytes(size_t level) const;
  static uint64_t LevelBytes(const Version& v, size_t level);
  static bool LevelsBelowEmpty(const Version& v, size_t first_level);
  VersionPtr CurrentVersion() const;
  void RetireFile(const FilePtr& f);  // cache eviction + deferred unlink

  // Counter mirror of DbStats in relaxed atomics (hot-path increments
  // from reader, writer, and maintenance threads).
  struct AtomicStats;

  DbOptions options_;
  BlockCache cache_;
  SampleQueryQueue query_queue_;

  // ------------------------------------------------------------------
  // Lock hierarchy (acquire strictly downward; never upward):
  //   maint_mu_  >  pipeline_mu_  >  stall_mu_  >  view_mu_
  // Leaf locks (held only alone): write_mu_, snap_mu_, err_mu_ — except
  // that the stall predicate reads view_mu_ and err_mu_ while holding
  // stall_mu_, which the ordering above already permits.
  // ------------------------------------------------------------------

  // Serializes flush/compaction bodies and all MANIFEST I/O. Only
  // maintenance (and recovery, which is single-threaded) touches levels.
  std::mutex maint_mu_;

  // Excludes the write leader's {WAL append + memtable apply} against
  // the flusher's {WAL rotate + memtable swap}. Readers never take it.
  std::mutex pipeline_mu_;

  // Write queue: arrival order = commit order. The front writer is the
  // group-commit leader.
  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::deque<Writer*> write_queue_;

  // Writers wait here when the immutable-memtable limit is hit; flush
  // completion signals it.
  std::mutex stall_mu_;
  std::condition_variable stall_cv_;

  // Guards the pointers only (contents are immutable or internally
  // synchronized). Readers copy mem_/version_ under it and move on.
  mutable std::mutex view_mu_;
  MemPtr mem_;
  VersionPtr version_;

  // Seqno assignment: next_seqno_ belongs to the write leader (under
  // pipeline_mu_) and recovery; last_seqno_ publishes the newest
  // committed seqno to readers.
  uint64_t next_seqno_ = 1;
  std::atomic<uint64_t> last_seqno_{0};

  mutable std::mutex snap_mu_;
  std::multiset<uint64_t> live_snapshots_;

  mutable std::mutex err_mu_;
  Status bg_error_;   // sticky: rejects writes until an explicit Flush
  Status wal_error_;  // WAL could not be opened

  std::unique_ptr<WalWriter> wal_;  // one object across segment rotations
  uint64_t wal_number_ = 0;         // active segment (pipeline_mu_)

  std::unique_ptr<TaskPool> pool_;
  std::atomic<bool> maint_scheduled_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> closing_{false};

  // Per-shard apply counters (sized to the rounded shard count at
  // construction; memtable rotations reuse the same shard count).
  std::vector<std::atomic<uint64_t>> shard_applies_;

  uint64_t next_file_id_ = 1;           // maint_mu_ / recovery
  // Stamped into every built filter's provenance; bumped by each
  // redesign wave, so tests can tell a rebuilt filter from its ancestor.
  // Starts at 1: epoch 0 marks a file built without a filter.
  std::atomic<uint64_t> design_epoch_{1};
  std::vector<size_t> compact_cursor_;  // round-robin pick per level
  int manifest_fd_ = -1;
  size_t manifest_deltas_since_snapshot_ = 0;

  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_DB_H_
