// Spillable columnar record log: the storage behind every UsageDatabase
// stream.
//
// Records append into an open segment whose per-user posting lists are
// kept up to date on append. With a positive segment cap the open segment
// seals when it fills: its postings compact into an immutable CSR index
// (sorted user keys, offsets, rows, plus an end-time permutation when the
// segment is not end-sorted). Sealed segments past a small residency
// budget spill to disk as one flat file (raw record array + CSR posting
// index) and are mapped back read-only with mmap, so the page cache — not
// the heap — holds cold history and the database scales past RSS. Hot
// recent segments and the open segment stay resident. With cap 0 (the
// default) the open segment never seals: one resident, contiguous array.
//
// Per-user window gathers are O(log k + hits) per touched segment when the
// segment is end-sorted (segments outside [min_end, max_end) are skipped
// entirely), and results are emitted in append order. Record references
// handed out by a query stay valid until the next append (a seal may spill
// an older segment and unmap nothing — spilling replaces heap vectors with
// a file mapping that lives until the log is destroyed — but the open
// segment's buffer is reused across seals).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
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
  /// Sealed segments kept resident (heap-backed) before the oldest spills.
  /// The open segment is always resident on top of this budget.
  std::size_t resident_segments = 2;
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
  std::uint64_t off_by_end = 0;     ///< 0 when end-sorted (section absent)
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
  /// immutable view is rebuilt — the recovered log answers the same
  /// queries over the spilled history and accepts new appends after it.
  /// Must be called on a fresh, empty log. Returns the number of segments
  /// recovered. Throws PreconditionError on a corrupt file.
  std::size_t recover_from_spill() {
    TG_REQUIRE(empty() && sealed_.empty(),
               "recover_from_spill requires a fresh, empty log");
    TG_REQUIRE(!config_.spill_dir.empty(),
               "recover_from_spill needs config.spill_dir");
    using seg_detail::SegmentFileHeader;
    for (std::size_t seq = 0;; ++seq) {
      const std::string path = spill_path(seq);
      seg_detail::MappedFile map;
      if (!map.open(path)) break;  // first gap ends the sealed prefix
      TG_REQUIRE(map.size() >= sizeof(SegmentFileHeader),
                 "truncated segment file " << path);
      SegmentFileHeader h;
      std::memcpy(&h, map.data(), sizeof(h));
      validate(h, map.data(), map.size(), path);
      Sealed s;
      s.view.count = h.count;
      s.view.user_count = h.user_count;
      s.view.end_sorted = (h.flags & 1u) != 0;
      s.view.min_end = h.min_end;
      s.view.max_end = h.max_end;
      bind_view(s.view, h, map.data());
      s.map = std::move(map);
      if (h.user_count > 0) {
        user_limit_ = std::max<UserId::rep>(
            user_limit_,
            static_cast<UserId::rep>(s.view.keys[h.user_count - 1] + 1));
      }
      stats_.appended += h.count;
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
    std::vector<std::uint32_t> scratch;
    for (const Sealed& s : sealed_) {
      const View& v = s.view;
      if (v.max_end < from || v.min_end >= to) continue;
      if (v.end_sorted || (from <= v.min_end && v.max_end < to)) {
        emit_range(v.records, v.count, v.end_sorted, from, to, fn);
        continue;
      }
      // Unsorted and cut by the window: binary-search the by-end
      // permutation, then restore append order.
      const auto end_less = [&v](std::uint32_t row, SimTime t) {
        return v.records[row].end_time < t;
      };
      const std::uint32_t* first =
          std::lower_bound(v.by_end, v.by_end + v.count, from, end_less);
      const std::uint32_t* last =
          std::lower_bound(first, v.by_end + v.count, to, end_less);
      scratch.assign(first, last);
      std::sort(scratch.begin(), scratch.end());
      for (const std::uint32_t row : scratch) fn(v.records[row]);
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
  /// Immutable pointer view over one sealed segment; targets either the
  /// segment's heap vectors or its file mapping.
  struct View {
    const Record* records = nullptr;
    std::uint32_t count = 0;
    const std::uint32_t* keys = nullptr;  ///< sorted distinct user ids
    std::uint32_t user_count = 0;
    const std::uint32_t* offsets = nullptr;  ///< CSR, [user_count + 1]
    const std::uint32_t* rows = nullptr;
    const std::uint32_t* by_end = nullptr;  ///< null when end_sorted
    bool end_sorted = true;
    SimTime min_end = 0;
    SimTime max_end = 0;
  };

  struct Sealed {
    View view;
    // Heap backing; swapped empty once the segment spills.
    std::vector<Record> records;
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint32_t> by_end;
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

  /// Points `v`'s arrays at the sections of a segment file image.
  static void bind_view(View& v, const seg_detail::SegmentFileHeader& h,
                        const std::byte* base) {
    const auto words = [base](std::uint64_t off) {
      return reinterpret_cast<const std::uint32_t*>(base + off);
    };
    v.records = reinterpret_cast<const Record*>(base + h.off_records);
    v.keys = words(h.off_keys);
    v.offsets = words(h.off_offsets);
    v.rows = words(h.off_rows);
    v.by_end = v.end_sorted ? nullptr : words(h.off_by_end);
  }

  /// Rejects a segment file that would make a query read outside it: bad
  /// magic or record size, a section that is misaligned or does not lie
  /// inside the file (64-bit arithmetic that cannot overflow), CSR offsets
  /// that are not a monotone partition of the rows, keys that are not
  /// strictly increasing user ids, a row or by-end entry past the record
  /// count, or an inverted end-time range. Throws PreconditionError.
  static void validate(const seg_detail::SegmentFileHeader& h,
                       const std::byte* base, std::uint64_t size,
                       const std::string& path) {
    using seg_detail::SegmentFileHeader;
    TG_REQUIRE(h.magic == SegmentFileHeader::kMagic,
               "bad magic in segment file " << path);
    TG_REQUIRE(h.record_size == sizeof(Record),
               "segment file " << path << " holds records of "
                               << h.record_size << " bytes, expected "
                               << sizeof(Record));
    const bool end_sorted = (h.flags & 1u) != 0;
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
    if (!end_sorted) {
      section("by_end", h.off_by_end, std::uint64_t{h.count} * kWord);
    }
    TG_REQUIRE(h.count == 0 || h.min_end <= h.max_end,
               "segment file " << path << ": min_end " << h.min_end
                               << " > max_end " << h.max_end);
    View v;
    v.end_sorted = end_sorted;
    bind_view(v, h, base);
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
    for (std::uint32_t i = 0; i < h.posting_rows; ++i) {
      TG_REQUIRE(v.rows[i] < h.count, "segment file "
                                          << path << ": posting row " << i
                                          << " indexes past " << h.count
                                          << " records");
    }
    for (std::uint32_t i = 0; v.by_end != nullptr && i < h.count; ++i) {
      TG_REQUIRE(v.by_end[i] < h.count, "segment file "
                                            << path << ": by-end entry " << i
                                            << " indexes past " << h.count
                                            << " records");
    }
  }

  void seal() {
    Sealed s;
    s.records = std::move(open_records_);
    s.view.count = static_cast<std::uint32_t>(s.records.size());
    s.view.min_end = open_min_end_;
    s.view.max_end = open_max_end_;
    s.view.end_sorted = open_sorted_;
    // Compact the dense open postings into the CSR (keys, offsets, rows)
    // triple; dense slots iterate ascending, so keys come out sorted.
    std::uint32_t total_rows = 0;
    for (const auto& p : open_postings_) {
      total_rows += static_cast<std::uint32_t>(p.size());
      if (!p.empty()) ++s.view.user_count;
    }
    s.keys.reserve(s.view.user_count);
    s.offsets.reserve(s.view.user_count + 1);
    s.rows.reserve(total_rows);
    s.offsets.push_back(0);
    for (std::size_t u = 0; u < open_postings_.size(); ++u) {
      const auto& p = open_postings_[u];
      if (p.empty()) continue;
      s.keys.push_back(static_cast<std::uint32_t>(u));
      s.rows.insert(s.rows.end(), p.begin(), p.end());
      s.offsets.push_back(static_cast<std::uint32_t>(s.rows.size()));
    }
    if (!s.view.end_sorted) {
      s.by_end.resize(s.records.size());
      std::iota(s.by_end.begin(), s.by_end.end(), 0u);
      std::stable_sort(s.by_end.begin(), s.by_end.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return s.records[a].end_time < s.records[b].end_time;
                       });
    }
    s.view.records = s.records.data();
    s.view.keys = s.keys.data();
    s.view.offsets = s.offsets.data();
    s.view.rows = s.rows.data();
    s.view.by_end = s.view.end_sorted ? nullptr : s.by_end.data();
    sealed_.push_back(std::move(s));
    ++stats_.sealed;

    // Recycle the open segment's buffers.
    open_records_.clear();
    open_records_.reserve(config_.segment_records);
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
         i < sealed_.size() && resident > config_.resident_segments; ++i) {
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

  [[nodiscard]] bool spill(Sealed& s, std::size_t seq) {
    using seg_detail::align64;
    seg_detail::SegmentFileHeader h;
    h.record_size = static_cast<std::uint32_t>(sizeof(Record));
    h.count = s.view.count;
    h.user_count = s.view.user_count;
    h.posting_rows = static_cast<std::uint32_t>(s.rows.size());
    h.flags = s.view.end_sorted ? 1u : 0u;
    h.min_end = s.view.min_end;
    h.max_end = s.view.max_end;
    h.off_records = align64(sizeof(h));
    h.off_keys = align64(h.off_records + h.count * sizeof(Record));
    h.off_offsets = align64(h.off_keys + h.user_count * sizeof(std::uint32_t));
    h.off_rows =
        align64(h.off_offsets + (h.user_count + 1) * sizeof(std::uint32_t));
    std::uint64_t end = h.off_rows + h.posting_rows * sizeof(std::uint32_t);
    if (!s.view.end_sorted) {
      h.off_by_end = align64(end);
      end = h.off_by_end + h.count * sizeof(std::uint32_t);
    }
    std::vector<std::byte> blob(static_cast<std::size_t>(end), std::byte{0});
    const auto put = [&](std::uint64_t off, const void* src, std::size_t n) {
      if (n > 0) std::memcpy(blob.data() + off, src, n);
    };
    put(0, &h, sizeof(h));
    put(h.off_records, s.records.data(), h.count * sizeof(Record));
    put(h.off_keys, s.keys.data(), h.user_count * sizeof(std::uint32_t));
    put(h.off_offsets, s.offsets.data(),
        (h.user_count + 1) * sizeof(std::uint32_t));
    put(h.off_rows, s.rows.data(), h.posting_rows * sizeof(std::uint32_t));
    if (!s.view.end_sorted) {
      put(h.off_by_end, s.by_end.data(), h.count * sizeof(std::uint32_t));
    }
    const std::string path = spill_path(seq);
    if (!seg_detail::write_file(path, blob.data(), blob.size())) return false;
    seg_detail::MappedFile map;
    if (!map.open(path) || map.size() < blob.size()) return false;
    // Rebind the view into the mapping, then release the heap backing.
    bind_view(s.view, h, map.data());
    s.map = std::move(map);
    std::vector<Record>().swap(s.records);
    std::vector<std::uint32_t>().swap(s.keys);
    std::vector<std::uint32_t>().swap(s.offsets);
    std::vector<std::uint32_t>().swap(s.rows);
    std::vector<std::uint32_t>().swap(s.by_end);
    ++stats_.spilled;
    stats_.spilled_bytes += blob.size();
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
