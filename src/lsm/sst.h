// SST (Static Sorted Table) files: writer, reader, and file metadata.
//
// Layout (format v4 — the byte-accurate spec lives in docs/FORMAT.md):
//   [compressed data block]*  [compressed index block]  [filter block]
//   [footer]
// The index block maps each data block's last key to a 20-byte handle
// (offset u64, size u64, crc32c u32). The CRC covers the block's on-disk
// bytes — compression tag included, raw and RLE blocks alike — so a
// damaged block is rejected before decompression ever looks at it. The
// filter block is the SstFilter::Serialize wire form of the file's range
// filter (absent when the file was written without one).
//
// Files are multi-version: a user key may appear in several
// consecutive entries, newest (highest seqno) first, and every value is
// encoded as `tag u8 | seqno u64 | user bytes` (ikey.h). The reader's
// RangeCursor resolves visibility against a snapshot sequence horizon.
//
// Footer (fixed width, 72 bytes): index_offset, index_size, n_entries,
// filter_offset, filter_size, filter_format, filter_checksum, version
// sentinel, magic. v4 is the only generation this code reads or writes:
// a file whose sentinel is not "PROTFTV4" fails Open with NotSupported.
//
// As in the paper's tuned RocksDB (Section 6.1), index and filter stay
// pinned in memory: SstReader keeps the parsed index block and the raw
// filter block. Data blocks are read from disk on demand through the LRU
// block cache; pinned filter bytes are charged against the same cache
// budget (BlockCache::AddPinnedBytes).

#ifndef PROTEUS_LSM_SST_H_
#define PROTEUS_LSM_SST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/filter_policy.h"
#include "util/status.h"

namespace proteus {

struct SstStats {
  uint64_t blocks_written = 0;
  uint64_t bytes_written = 0;
};

/// Per-read knobs of a data-block read. The handle CRC is always checked.
struct BlockReadOptions {
  // Look the block up in (and insert it into) the block cache.
  // Compaction and VerifyChecksums set this false: they must observe the
  // on-disk bytes, not a previously verified copy.
  bool use_cache = true;
};

class SstWriter {
 public:
  struct Options {
    size_t block_size = 4096;   // uncompressed target
    bool compress = true;       // RLE data blocks
  };

  SstWriter(std::string path, Options options);

  /// Keys must arrive in non-decreasing order; equal keys are a version
  /// run (newest seqno first — the caller's merge order).
  void Add(std::string_view key, std::string_view value);

  /// Attaches the serialized filter (SstFilter::Serialize output) to be
  /// persisted as the file's filter block. Must precede Finish().
  /// `format` is the filter wire-format version recorded in the footer so
  /// readers can reject blobs they do not understand without parsing them.
  void SetFilterBlock(std::string blob, uint64_t format);

  /// Writes index + filter block + footer, fsyncs, and closes the file.
  Status Finish();

  uint64_t n_entries() const { return n_entries_; }
  uint64_t file_size() const { return offset_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  const SstStats& stats() const { return stats_; }

 private:
  void FlushBlock();

  std::string path_;
  Options options_;
  std::string file_buffer_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string filter_block_;
  uint64_t filter_format_ = 0;
  uint64_t offset_ = 0;
  uint64_t n_entries_ = 0;
  std::string smallest_, largest_, last_key_in_block_;
  SstStats stats_;
};

class SstReader {
 public:
  /// Opens the file and pins the index block (and any filter block) in
  /// memory. Returns Corruption for a damaged footer/index, NotSupported
  /// for a footer of another format generation, and IOError when the OS
  /// fails the read. A damaged or out-of-bounds filter block
  /// does NOT fail Open — the data remains readable and the caller falls
  /// back to rebuilding the filter (has_filter_block() reports false).
  Status Open(const std::string& path, uint64_t file_id, BlockCache* cache);

  uint64_t n_entries() const { return n_entries_; }
  uint64_t n_blocks() const { return index_.n_entries(); }

  /// True when the file carried a filter block with a bounds-sane handle
  /// and a wire-format version this build understands.
  bool has_filter_block() const { return !filter_block_.empty(); }
  const std::string& filter_block() const { return filter_block_; }
  uint64_t filter_format() const { return filter_format_; }

  /// Deserializes the pinned filter block into a live SstFilter without
  /// rebuilding from keys. Returns null (fills `status`) when the file
  /// has no filter block or the blob is corrupt — callers treat that as
  /// a rebuild-from-keys fallback, never a crash.
  std::unique_ptr<SstFilter> LoadFilter(Status* status = nullptr) const;

  /// Frees the raw blob once the live filter has been materialized (or a
  /// rebuild decided on), so filter memory is not held twice.
  void ReleaseFilterBlock() {
    filter_block_.clear();
    filter_block_.shrink_to_fit();
  }

  /// One resolved entry out of SeekInRange: the user key, the newest
  /// visible version's user bytes, and that version's tag/seqno.
  struct SeekEntry {
    std::string key;
    std::string value;  // user bytes (tag and seqno already stripped)
    uint64_t seqno = 0;
    bool tombstone = false;
  };

  /// Finds the newest version visible at `snapshot` (seqno <= snapshot)
  /// of the smallest key in [lo, hi]. Versions newer than the snapshot
  /// are skipped; a key whose every version is invisible is skipped
  /// entirely. Usually touches one data block; skipping invisible
  /// entries can carry the scan into the next block(s).
  /// Returns 0 = found, 1 = none in range, -1 = corruption/IO error
  /// (the block failed its CRC or checksum; details in `status`).
  /// A one-shot RangeCursor::Seek.
  int SeekInRange(std::string_view lo, std::string_view hi, uint64_t snapshot,
                  const BlockReadOptions& opts, SeekEntry* out,
                  Status* status = nullptr) const;

  /// A positioned SeekInRange: one Seek() descends the index, then
  /// SkipTo() re-positions FORWARD from where the cursor stands instead
  /// of descending again. The Db's read path keeps one RangeCursor per
  /// SST source, so walking a run of consecutive tombstones costs one
  /// index descent per file total — not one per tombstone.
  class RangeCursor {
   public:
    RangeCursor() = default;

    void Init(const SstReader* reader, const BlockReadOptions& opts,
              uint64_t snapshot) {
      reader_ = reader;
      opts_ = opts;
      snapshot_ = snapshot;
    }

    /// Positions at the newest visible version of the smallest key in
    /// [lo, hi]. Returns 0 = found (entry() is valid), 1 = nothing in
    /// range, -1 = read error (details in `status`).
    int Seek(std::string_view lo, std::string_view hi, Status* status);

    /// Same contract as Seek(), but resumes from the current position —
    /// valid only after a Seek() on this cursor, with `lo` at or past
    /// the previous result's key (the Db's tombstone cursor only grows).
    int SkipTo(std::string_view lo, std::string_view hi, Status* status);

    const SeekEntry& entry() const { return entry_; }

   private:
    int ScanForward(std::string_view lo, std::string_view hi,
                    Status* status);

    const SstReader* reader_ = nullptr;
    BlockReadOptions opts_;
    uint64_t snapshot_ = ~uint64_t{0};
    size_t block_ = 0;    // index of the block the cursor stands in
    size_t pos_ = 0;      // entry index within block_
    bool loaded_ = false; // blockr_ holds block_'s contents
    BlockReader blockr_;
    SeekEntry entry_;
  };

  /// Reads every data block (bypassing the cache), verifying the
  /// per-block CRC32C and the in-block checksum. Returns the first
  /// failure as a Corruption/IOError status.
  Status VerifyChecksums() const;

  /// Streams all entries in order (compaction path; bypasses the cache).
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    for (size_t b = 0; b < index_.n_entries(); ++b) {
      BlockReader block;
      if (!ReadDataBlock(b, &block, kNoCacheRead).ok()) return false;
      for (size_t i = 0; i < block.n_entries(); ++i) {
        fn(block.KeyAt(i), block.ValueAt(i));
      }
    }
    return true;
  }

  const std::string& path() const { return path_; }

  /// Streaming cursor over all entries in key order (compaction merge).
  /// A data block that fails its CRC/checksum STOPS the iterator
  /// (Valid() goes false) and is reported through status() — silently
  /// skipping a block here would let compaction drop keys and then
  /// unlink the only copy. Callers must check status() once Valid()
  /// turns false.
  class Iterator {
   public:
    explicit Iterator(const SstReader* reader) : reader_(reader) {
      LoadBlock();
    }
    bool Valid() const { return valid_; }
    const Status& status() const { return status_; }
    std::string_view key() const { return block_.KeyAt(entry_); }
    std::string_view value() const { return block_.ValueAt(entry_); }
    void Next() {
      if (++entry_ >= block_.n_entries()) {
        ++block_index_;
        LoadBlock();
      }
    }

   private:
    void LoadBlock() {
      entry_ = 0;
      valid_ = false;
      while (block_index_ < reader_->n_blocks()) {
        Status s = reader_->ReadDataBlock(block_index_, &block_,
                                          kNoCacheRead);
        if (!s.ok()) {
          status_ = std::move(s);
          return;  // stop: do NOT skip past unreadable entries
        }
        if (block_.n_entries() > 0) {
          valid_ = true;
          return;
        }
        ++block_index_;
      }
    }

    const SstReader* reader_;
    size_t block_index_ = 0;
    size_t entry_ = 0;
    bool valid_ = false;
    Status status_;
    BlockReader block_;
  };

 private:
  friend class Iterator;
  // Compaction/verification reads: always verified, never cached.
  static constexpr BlockReadOptions kNoCacheRead{/*use_cache=*/false};
  struct BlockHandle {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  bool ParseHandle(size_t block_index, BlockHandle* out) const;
  Status ReadDataBlock(size_t block_index, BlockReader* out,
                       const BlockReadOptions& opts) const;
  bool ReadRaw(uint64_t offset, uint64_t size, std::string* out) const;

  std::string path_;
  int fd_ = -1;
  uint64_t file_id_ = 0;
  uint64_t n_entries_ = 0;
  BlockCache* cache_ = nullptr;
  BlockReader index_;  // entries: last_key -> 20-byte block handle
  std::string filter_block_;
  uint64_t filter_format_ = 0;

 public:
  ~SstReader();
  SstReader() = default;
  SstReader(const SstReader&) = delete;
  SstReader& operator=(const SstReader&) = delete;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_SST_H_
