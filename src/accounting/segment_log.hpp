// Spillable columnar record log: the storage behind every UsageDatabase
// stream.
//
// Records append into an open segment whose per-user posting lists are
// kept up to date on append. With a positive segment cap the open segment
// seals when it fills: it is written straight into its file image (header,
// raw record array, then a CSR posting index of sorted user keys, offsets
// and rows) in one heap buffer. Sealed segments past a small residency
// budget spill that image to disk as one flat file and are mapped back
// read-only with mmap, so the page cache — not the heap — holds cold
// history and the database scales past RSS. Hot recent segments and the
// open segment stay resident. With cap 0 (the default) the open segment
// never seals: one resident, contiguous array.
//
// Per-user window gathers are O(log k + hits) per touched segment when the
// segment is end-sorted (segments outside [min_end, max_end) are skipped
// entirely), and results are emitted in append order. Record references
// handed out by a query stay valid until the next append (a seal may spill
// an older segment and unmap nothing — spilling replaces the heap image
// with a file mapping that lives until the log is destroyed — but the open
// segment's buffer is reused across seals).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "des/time.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"

namespace tg {

struct SegmentLogConfig {
  /// Records per segment before the open segment seals. 0 = one unbounded
  /// open segment (no sealing, no spilling — plain in-memory growth).
  std::uint32_t segment_records = 0;
  /// Directory for spilled segment files; empty = sealed segments stay in
  /// memory. The directory must exist and outlive the log.
  std::string spill_dir;
};

struct SegmentLogStats {
  std::uint64_t appended = 0;
  std::uint64_t sealed = 0;
  std::uint64_t spilled = 0;
  std::uint64_t spilled_bytes = 0;
  /// Segments that failed to spill (I/O error) and stayed resident.
  std::uint64_t spill_failures = 0;
};

namespace seg_detail {

/// Read-only whole-file mapping (RAII). Empty until open() succeeds.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { close(); }
  MappedFile(MappedFile&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      close();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only; false (and stays empty) on any failure.
  bool open(const std::string& path);
  void close();

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writes `bytes` to `path` (replacing it); false on any failure.
bool write_file(const std::string& path, const void* bytes, std::size_t len);

/// On-disk segment layout: this header, then 64-byte-aligned sections at
/// the recorded byte offsets. All integers little-endian host format — the
/// file is a same-machine spill artifact, not an interchange format.
struct SegmentFileHeader {
  static constexpr std::uint64_t kMagic = 0x314747455347544eULL;  // "NTGSEG1"
  std::uint64_t magic = kMagic;
  std::uint32_t record_size = 0;
  std::uint32_t count = 0;          ///< records
  std::uint32_t user_count = 0;     ///< distinct posting keys
  std::uint32_t posting_rows = 0;   ///< rows across all posting lists
  std::uint32_t flags = 0;          ///< bit 0: records end-time-sorted
  std::uint32_t reserved = 0;
  std::int64_t min_end = 0;
  std::int64_t max_end = 0;
  std::uint64_t off_records = 0;
  std::uint64_t off_keys = 0;
  std::uint64_t off_offsets = 0;
  std::uint64_t off_rows = 0;
};

[[nodiscard]] constexpr std::uint64_t align64(std::uint64_t n) {
  return (n + 63u) & ~std::uint64_t{63};
}

}  // namespace seg_detail

/// Append-only chunked store of one record stream. `Record` must expose
/// `UserId user` and `SimTime end_time` members and be trivially copyable
/// (segments are raw-copied to disk and mmap-read back).
template <class Record>
class SegmentLog {
  static_assert(std::is_trivially_copyable_v<Record>,
                "spilled segments are raw byte images of the record array");
  static_assert(alignof(Record) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "a resident image is a heap byte buffer holding the records");

 public:
  SegmentLog() : SegmentLog(SegmentLogConfig{}, "records") {}
  SegmentLog(SegmentLogConfig config, std::string stream_tag)
      : config_(config), tag_(std::move(stream_tag)) {
    if (config_.segment_records > 0) {
      open_records_.reserve(config_.segment_records);
    }
  }

  /// Appends one record (sealing/spilling first if the open segment is
  /// full) and returns a reference to the stored copy, valid until the
  /// next append.
  const Record& append(const Record& r) {
    if (config_.segment_records > 0 &&
        open_records_.size() >= config_.segment_records) {
      seal();
    }
    const auto row = static_cast<std::uint32_t>(open_records_.size());
    if (open_records_.empty() || r.end_time < open_min_end_) {
      open_min_end_ = r.end_time;
    }
    if (!open_records_.empty() && r.end_time < open_records_.back().end_time) {
      open_sorted_ = false;
    }
    open_max_end_ = std::max(open_max_end_, r.end_time);
    open_records_.push_back(r);
    if (r.user.valid()) {
      const auto slot = static_cast<std::size_t>(r.user.value());
      if (slot >= open_postings_.size()) open_postings_.resize(slot + 1);
      open_postings_[slot].push_back(row);
      user_limit_ = std::max(user_limit_, r.user.value() + 1);
    }
    ++stats_.appended;
    return open_records_.back();
  }

  [[nodiscard]] std::size_t size() const { return stats_.appended; }
  [[nodiscard]] bool empty() const { return stats_.appended == 0; }
  /// One past the largest valid user id appended (0 if none).
  [[nodiscard]] UserId::rep user_limit() const { return user_limit_; }
  [[nodiscard]] const SegmentLogStats& stats() const { return stats_; }
  [[nodiscard]] const SegmentLogConfig& config() const { return config_; }

  /// The whole stream as one contiguous array, in append order. Only while
  /// nothing has sealed — always for a cap-0 log that was never
  /// checkpointed.
  [[nodiscard]] std::span<const Record> records() const {
    TG_REQUIRE(sealed_.empty(), "contiguous access to the "
                                    << tag_
                                    << " stream requires a log that has "
                                       "sealed nothing");
    return open_records_;
  }

  /// Seals the open segment (if any) and spills every sealed segment to
  /// config.spill_dir regardless of the residency budget, so the log's
  /// entire history is on disk and a later process can reopen it with
  /// recover_from_spill(). Returns true when every segment reached disk;
  /// false with no spill_dir or on any I/O failure (failed segments stay
  /// resident and queryable). Appending after a checkpoint is fine — the
  /// next checkpoint writes only the segments sealed since.
  bool checkpoint() {
    if (config_.spill_dir.empty()) return false;
    if (!open_records_.empty()) seal();
    bool ok = true;
    for (std::size_t i = 0; i < sealed_.size(); ++i) {
      Sealed& s = sealed_[i];
      if (s.spilled()) continue;
      if (spill(s, i)) {
        s.spill_failed = false;
      } else {
        if (!s.spill_failed) {
          s.spill_failed = true;
          ++stats_.spill_failures;
        }
        ok = false;
      }
    }
    return ok;
  }

  /// Restart recovery: scans config.spill_dir for "<tag>-<seq>.tgseg"
  /// files written by an earlier process (checkpoint() or regular
  /// spilling), starting at seq 0 and stopping at the first gap. Each file
  /// is mapped read-only and validated (see validate()) before its
  /// immutable view is bound — the recovered log answers the same
  /// queries over the spilled history and accepts new appends after it.
  /// Must be called on a fresh, empty log. Returns the number of segments
  /// recovered. Throws PreconditionError on a corrupt file.
  std::size_t recover_from_spill() {
    TG_REQUIRE(empty() && sealed_.empty(),
               "recover_from_spill requires a fresh, empty log");
    TG_REQUIRE(!config_.spill_dir.empty(),
               "recover_from_spill needs config.spill_dir");
    for (std::size_t seq = 0;; ++seq) {
      const std::string path = spill_path(seq);
      seg_detail::MappedFile map;
      if (!map.open(path)) break;  // first gap ends the sealed prefix
      validate(map.data(), map.size(), path);
      Sealed s;
      s.view = bind_view(map.data());
      s.map = std::move(map);
      const View& v = s.view;
      if (v.user_count > 0) {
        user_limit_ = std::max<UserId::rep>(
            user_limit_,
            static_cast<UserId::rep>(v.keys[v.user_count - 1] + 1));
      }
      stats_.appended += v.count;
      ++stats_.sealed;
      ++stats_.spilled;
      stats_.spilled_bytes += s.map.size();
      sealed_.push_back(std::move(s));
    }
    return sealed_.size();
  }

  /// `user`'s records with end time in [from, to), in append order.
  template <class Fn>
  void for_each_of(UserId user, SimTime from, SimTime to, Fn&& fn) const {
    if (from >= to || !user.valid()) return;
    const auto key = static_cast<std::uint32_t>(user.value());
    for (const Sealed& s : sealed_) {
      const View& v = s.view;
      if (v.max_end < from || v.min_end >= to) continue;
      const std::uint32_t* end = v.keys + v.user_count;
      const std::uint32_t* k = std::lower_bound(v.keys, end, key);
      if (k == end || *k != key) continue;
      const auto u = static_cast<std::size_t>(k - v.keys);
      emit_rows(v.records, v.rows + v.offsets[u], v.rows + v.offsets[u + 1],
                v.end_sorted, from <= v.min_end && v.max_end < to, from, to,
                fn);
    }
    if (open_records_.empty() || open_max_end_ < from || open_min_end_ >= to ||
        key >= open_postings_.size()) {
      return;
    }
    const std::vector<std::uint32_t>& rows = open_postings_[key];
    emit_rows(open_records_.data(), rows.data(), rows.data() + rows.size(),
              open_sorted_, from <= open_min_end_ && open_max_end_ < to, from,
              to, fn);
  }

  /// All of `user`'s records, in append order.
  template <class Fn>
  void for_each_of(UserId user, Fn&& fn) const {
    for_each_of(user, std::numeric_limits<SimTime>::min(), kMaxSimTime,
                std::forward<Fn>(fn));
  }

  /// Records with end time in [from, to), in append order.
  template <class Fn>
  void for_each_ending_in(SimTime from, SimTime to, Fn&& fn) const {
    if (from >= to) return;
    for (const Sealed& s : sealed_) {
      const View& v = s.view;
      if (v.max_end < from || v.min_end >= to) continue;
      emit_range(v.records, v.count, v.end_sorted, from, to, fn);
    }
    if (open_records_.empty() || open_max_end_ < from || open_min_end_ >= to) {
      return;
    }
    emit_range(open_records_.data(), open_records_.size(), open_sorted_, from,
               to, fn);
  }

  /// Every record, in append order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Sealed& s : sealed_) {
      for (std::uint32_t i = 0; i < s.view.count; ++i) fn(s.view.records[i]);
    }
    for (const Record& r : open_records_) fn(r);
  }

 private:
  /// Sealed segments kept resident (heap-backed) before the oldest spills.
  /// The open segment is always resident on top of this budget.
  static constexpr std::size_t kResidentSegments = 2;

  /// Immutable pointer view over one sealed segment's file image, resident
  /// or mapped.
  struct View {
    const Record* records = nullptr;
    std::uint32_t count = 0;
    const std::uint32_t* keys = nullptr;  ///< sorted distinct user ids
    std::uint32_t user_count = 0;
    const std::uint32_t* offsets = nullptr;  ///< CSR, [user_count + 1]
    const std::uint32_t* rows = nullptr;
    bool end_sorted = true;
    SimTime min_end = 0;
    SimTime max_end = 0;
  };

  struct Sealed {
    View view;
    /// The segment's file image while it is resident; released once it
    /// spills and the view points into the mapping.
    std::vector<std::byte> image;
    seg_detail::MappedFile map;
    bool spill_failed = false;

    [[nodiscard]] bool spilled() const { return map.data() != nullptr; }
  };

  /// Emits records[row] for the rows in [first, last) (append order) whose
  /// end time falls in [from, to). `covered` says the whole segment lies in
  /// the window, so every row qualifies; otherwise, when the records are
  /// end-sorted the rows are too and the window bounds are binary-searched.
  template <class Fn>
  static void emit_rows(const Record* records, const std::uint32_t* first,
                        const std::uint32_t* last, bool end_sorted,
                        bool covered, SimTime from, SimTime to, Fn& fn) {
    if (covered) {
      for (; first != last; ++first) fn(records[*first]);
      return;
    }
    if (end_sorted) {
      const auto end_less = [records](std::uint32_t row, SimTime t) {
        return records[row].end_time < t;
      };
      first = std::lower_bound(first, last, from, end_less);
      last = std::lower_bound(first, last, to, end_less);
      for (; first != last; ++first) fn(records[*first]);
      return;
    }
    for (; first != last; ++first) {
      const Record& r = records[*first];
      if (r.end_time >= from && r.end_time < to) fn(r);
    }
  }

  /// Emits the records in [records, records + count) whose end time falls
  /// in [from, to), in append order: one binary-searched stretch when the
  /// array is end-sorted, a filtered scan otherwise.
  template <class Fn>
  static void emit_range(const Record* records, std::size_t count,
                         bool end_sorted, SimTime from, SimTime to, Fn& fn) {
    const Record* first = records;
    const Record* last = records + count;
    if (end_sorted) {
      const auto end_less = [](const Record& r, SimTime t) {
        return r.end_time < t;
      };
      first = std::lower_bound(first, last, from, end_less);
      last = std::lower_bound(first, last, to, end_less);
      for (; first != last; ++first) fn(*first);
      return;
    }
    for (; first != last; ++first) {
      if (first->end_time >= from && first->end_time < to) fn(*first);
    }
  }

  [[nodiscard]] std::string spill_path(std::size_t seq) const {
    return config_.spill_dir + "/" + tag_ + "-" + std::to_string(seq) +
           ".tgseg";
  }

  /// A view of the segment file image at `base`, every field taken from
  /// its header.
  static View bind_view(const std::byte* base) {
    seg_detail::SegmentFileHeader h;
    std::memcpy(&h, base, sizeof(h));
    const auto words = [base](std::uint64_t off) {
      return reinterpret_cast<const std::uint32_t*>(base + off);
    };
    View v;
    v.records = reinterpret_cast<const Record*>(base + h.off_records);
    v.count = h.count;
    v.keys = words(h.off_keys);
    v.user_count = h.user_count;
    v.offsets = words(h.off_offsets);
    v.rows = words(h.off_rows);
    v.end_sorted = (h.flags & 1u) != 0;
    v.min_end = h.min_end;
    v.max_end = h.max_end;
    return v;
  }

  /// Rejects a segment file image that would make a query read outside it
  /// or answer wrongly: a truncated header, bad magic or record size, a
  /// section that is misaligned or does not lie inside the file (64-bit
  /// arithmetic that cannot overflow), CSR offsets that are not a monotone
  /// partition of the rows, keys that are not strictly increasing user
  /// ids, a record whose end time lies outside [min_end, max_end] or breaks
  /// the end-sorted flag, a posting whose rows do not strictly increase or
  /// index another user's records, or postings that do not cover every
  /// record with a valid user. Throws PreconditionError.
  static void validate(const std::byte* base, std::uint64_t size,
                       const std::string& path) {
    using seg_detail::SegmentFileHeader;
    TG_REQUIRE(size >= sizeof(SegmentFileHeader),
               "truncated segment file " << path);
    SegmentFileHeader h;
    std::memcpy(&h, base, sizeof(h));
    TG_REQUIRE(h.magic == SegmentFileHeader::kMagic,
               "bad magic in segment file " << path);
    TG_REQUIRE(h.record_size == sizeof(Record),
               "segment file " << path << " holds records of "
                               << h.record_size << " bytes, expected "
                               << sizeof(Record));
    const auto section = [&](const char* name, std::uint64_t off,
                             std::uint64_t bytes) {
      TG_REQUIRE(off % 64 == 0 && off >= sizeof(SegmentFileHeader) &&
                     off <= size && bytes <= size - off,
                 "segment file " << path << ": " << name << " section at "
                                 << off << " (" << bytes
                                 << " bytes) is misaligned or outside the "
                                 << size << "-byte file");
    };
    constexpr std::uint64_t kWord = sizeof(std::uint32_t);
    section("records", h.off_records, std::uint64_t{h.count} * sizeof(Record));
    section("keys", h.off_keys, std::uint64_t{h.user_count} * kWord);
    section("offsets", h.off_offsets,
            (std::uint64_t{h.user_count} + 1) * kWord);
    section("rows", h.off_rows, std::uint64_t{h.posting_rows} * kWord);
    const View v = bind_view(base);
    TG_REQUIRE(v.offsets[0] == 0 && v.offsets[h.user_count] == h.posting_rows,
               "segment file " << path
                               << ": posting offsets do not span the "
                               << h.posting_rows << " rows");
    constexpr auto kMaxKey =
        static_cast<std::uint32_t>(std::numeric_limits<UserId::rep>::max());
    for (std::uint32_t u = 0; u < h.user_count; ++u) {
      TG_REQUIRE(v.offsets[u] <= v.offsets[u + 1],
                 "segment file " << path << ": posting offset " << u + 1
                                 << " decreases");
      TG_REQUIRE(v.keys[u] < kMaxKey && (u == 0 || v.keys[u - 1] < v.keys[u]),
                 "segment file " << path << ": user key " << u
                                 << " is out of order or not a user id");
    }
    std::uint32_t with_user = 0;
    for (std::uint32_t i = 0; i < v.count; ++i) {
      const SimTime end = v.records[i].end_time;
      TG_REQUIRE(end >= v.min_end && end <= v.max_end &&
                     (!v.end_sorted || i == 0 ||
                      v.records[i - 1].end_time <= end),
                 "segment file " << path << ": record " << i << " ends at "
                                 << end << ", outside [" << v.min_end << ", "
                                 << v.max_end
                                 << "] or against the end-sorted flag");
      if (v.records[i].user.valid()) ++with_user;
    }
    TG_REQUIRE(with_user == h.posting_rows,
               "segment file " << path << ": " << h.posting_rows
                               << " posting rows for " << with_user
                               << " records with a user");
    for (std::uint32_t u = 0; u < h.user_count; ++u) {
      for (std::uint32_t i = v.offsets[u]; i < v.offsets[u + 1]; ++i) {
        const std::uint32_t row = v.rows[i];
        TG_REQUIRE(row < h.count && (i == v.offsets[u] || v.rows[i - 1] < row),
                   "segment file " << path << ": posting row " << i
                                   << " is past " << h.count
                                   << " records or out of order");
        const UserId owner = v.records[row].user;
        TG_REQUIRE(owner.valid() &&
                       static_cast<std::uint32_t>(owner.value()) == v.keys[u],
                   "segment file " << path << ": posting row " << i
                                   << " indexes a record of another user");
      }
    }
  }

  /// Writes the open segment's file image — header, records, then the CSR
  /// index compacted from the dense open postings — into one heap buffer,
  /// binds the view into it and empties the open segment, which keeps its
  /// buffers.
  void seal() {
    using seg_detail::align64;
    constexpr std::uint64_t kWord = sizeof(std::uint32_t);
    seg_detail::SegmentFileHeader h;
    h.record_size = static_cast<std::uint32_t>(sizeof(Record));
    h.count = static_cast<std::uint32_t>(open_records_.size());
    for (const auto& p : open_postings_) {
      h.posting_rows += static_cast<std::uint32_t>(p.size());
      if (!p.empty()) ++h.user_count;
    }
    h.flags = open_sorted_ ? 1u : 0u;
    h.min_end = open_min_end_;
    h.max_end = open_max_end_;
    h.off_records = align64(sizeof(h));
    h.off_keys = align64(h.off_records + h.count * sizeof(Record));
    h.off_offsets = align64(h.off_keys + h.user_count * kWord);
    h.off_rows = align64(h.off_offsets + (h.user_count + 1) * kWord);
    Sealed s;
    s.image.resize(h.off_rows + h.posting_rows * kWord);
    const auto put = [&s](std::uint64_t off, const void* src, std::size_t n) {
      std::memcpy(s.image.data() + off, src, n);
    };
    put(0, &h, sizeof(h));
    put(h.off_records, open_records_.data(), h.count * sizeof(Record));
    // Dense slots iterate ascending, so keys come out sorted; offset 0 is
    // the zero the buffer starts with.
    std::uint32_t key = 0;
    std::uint32_t row = 0;
    for (std::size_t u = 0; u < open_postings_.size(); ++u) {
      const auto& p = open_postings_[u];
      if (p.empty()) continue;
      const auto id = static_cast<std::uint32_t>(u);
      put(h.off_keys + key * kWord, &id, kWord);
      put(h.off_rows + row * kWord, p.data(), p.size() * kWord);
      row += static_cast<std::uint32_t>(p.size());
      ++key;
      put(h.off_offsets + key * kWord, &row, kWord);
    }
    s.view = bind_view(s.image.data());
    sealed_.push_back(std::move(s));
    ++stats_.sealed;

    open_records_.clear();
    for (auto& p : open_postings_) p.clear();
    open_sorted_ = true;
    open_min_end_ = 0;
    open_max_end_ = std::numeric_limits<SimTime>::min();
    maybe_spill();
  }

  void maybe_spill() {
    if (config_.spill_dir.empty()) return;
    // Spill oldest-first until the residency budget holds; hot recent
    // segments stay heap-backed.
    std::size_t resident = 0;
    for (const Sealed& s : sealed_) {
      if (!s.spilled() && !s.spill_failed) ++resident;
    }
    for (std::size_t i = 0;
         i < sealed_.size() && resident > kResidentSegments; ++i) {
      Sealed& s = sealed_[i];
      if (s.spilled() || s.spill_failed) continue;
      if (spill(s, i)) {
        --resident;
      } else {
        s.spill_failed = true;
        ++stats_.spill_failures;
      }
    }
  }

  /// Writes the segment's image to its file, maps the file and points the
  /// view into the mapping, releasing the image. On failure the image
  /// stays resident.
  [[nodiscard]] bool spill(Sealed& s, std::size_t seq) {
    const std::string path = spill_path(seq);
    if (!seg_detail::write_file(path, s.image.data(), s.image.size())) {
      return false;
    }
    seg_detail::MappedFile map;
    if (!map.open(path) || map.size() < s.image.size()) return false;
    s.view = bind_view(map.data());
    s.map = std::move(map);
    ++stats_.spilled;
    stats_.spilled_bytes += s.image.size();
    std::vector<std::byte>().swap(s.image);
    return true;
  }

  SegmentLogConfig config_;
  std::string tag_;
  std::vector<Sealed> sealed_;
  std::vector<Record> open_records_;
  /// Dense per-user posting lists for the open segment, maintained on
  /// append (no lazy rebuild: the open segment is the ingest hot path).
  std::vector<std::vector<std::uint32_t>> open_postings_;
  bool open_sorted_ = true;
  SimTime open_min_end_ = 0;
  SimTime open_max_end_ = std::numeric_limits<SimTime>::min();
  UserId::rep user_limit_ = 0;
  SegmentLogStats stats_;
};

}  // namespace tg
