// Span recording for the traced benchmark run (--trace 1).
//
// The harness wraps each call it makes into the library's public API in a
// span: name, start, end, parent span and request id. Spans stay in memory
// (one SpanLog per thread, so recording takes no lock) and are written to a
// file when the run ends. Self time, the per-layer table and the span
// counts are computed from the recorded spans.
//
// A log holds at most `capacity` spans; beyond that a span is counted as
// dropped and not recorded, so a long traced phase cannot exhaust memory.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Every span the harness records. Phase spans belong to the harness
/// itself; the rest wrap one public call into a library layer.
enum class SpanName : uint8_t {
  kSetup,           // bench: one Create + preload + drain + warm-up
  kPhase,           // bench: one measured phase (seek, multiseek, ingest...)
  kPut,             // lsm: Db::Put
  kFlush,           // lsm: Db::Flush
  kCompactAll,      // lsm: Db::CompactAll + WaitForBackground
  kSeek,            // lsm: Db::Seek
  kMultiSeekBatch,  // engine: QueryEngine::Run on one batch
  kDesign,          // model: FilterBuilder::Design (CPFPR)
  kBuild,           // core: FilterBuilder::Build
  kProbe,           // core: RangeFilter::MayContain / MultiMayContain
  kCount,
};

inline constexpr std::array<const char*, static_cast<size_t>(SpanName::kCount)>
    kSpanNames = {"setup", "phase",     "put",    "flush", "compact_all",
                  "seek",  "multiseek", "design", "build", "probe"};
inline constexpr std::array<const char*, static_cast<size_t>(SpanName::kCount)>
    kSpanLayers = {"bench", "bench",  "lsm",   "lsm",  "lsm",
                   "lsm",   "engine", "model", "core", "core"};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;   // index in the same log, or kNoSpan
  uint32_t request = 0;  // per-log request id; children share the parent's
  SpanName name = SpanName::kPhase;
};

class SpanLog {
 public:
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  SpanLog(bool enabled, size_t capacity) : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
    capacity_ = enabled_ ? capacity : 0;
  }

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span. `new_request` starts a
  /// fresh request id; otherwise the span inherits its parent's.
  uint32_t Open(SpanName name, bool new_request) {
    if (!enabled_) return kNoSpan;
    const uint32_t parent = stack_.empty() ? kNoSpan : stack_.back();
    uint32_t id = kNoSpan;
    if (spans_.size() < capacity_) {
      id = static_cast<uint32_t>(spans_.size());
      SpanRecord r;
      r.parent = parent;
      r.name = name;
      r.request = (new_request || parent == kNoSpan) ? ++requests_
                                                     : spans_[parent].request;
      r.start_ns = NowNs();
      spans_.push_back(r);
    } else {
      ++dropped_;
    }
    stack_.push_back(id);
    return id;
  }

  void Close(uint32_t id) {
    if (!enabled_) return;
    if (id != kNoSpan) spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  size_t capacity_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> stack_;  // open spans, innermost last
  uint32_t requests_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span; a null or disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, bool new_request = false)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) id_ = log_->Open(name, new_request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_ = SpanLog::kNoSpan;
};

/// Per span name: how many spans, their total and self time (duration
/// minus the time covered by their recorded children).
struct SpanSummary {
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> count{};
  std::array<double, static_cast<size_t>(SpanName::kCount)> total_ns{};
  std::array<double, static_cast<size_t>(SpanName::kCount)> self_ns{};

  void Add(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent != SpanLog::kNoSpan) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto n = static_cast<size_t>(spans[i].name);
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++count[n];
      total_ns[n] += dur;
      self_ns[n] += dur - child_ns[i];
    }
  }
};

/// Writes every recorded span as one tab-separated line:
///   log  id  parent  request  name  start_ns  end_ns
/// (parent -1 = a root span; times are relative to `epoch_ns`). Returns
/// false on an I/O error.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs,
                       int64_t epoch_ns, const std::string& header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f, "log\tid\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%u\t%s\t%lld\t%lld\n", t, i,
                   s.parent == SpanLog::kNoSpan
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   s.request, kSpanNames[static_cast<size_t>(s.name)],
                   static_cast<long long>(s.start_ns - epoch_ns),
                   static_cast<long long>(s.end_ns - epoch_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
