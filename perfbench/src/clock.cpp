#include "clock.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <string>

namespace perfbench {

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), {}, {}});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id, const Stamp& start, const Stamp& end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].start = start;
  spans_[static_cast<std::size_t>(id)].end = end;
  stack_.pop_back();
}

double Tracer::total_cpu(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.end.cpu - s.start.cpu;
  }
  return total;
}

std::vector<double> Tracer::durations_cpu(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end.cpu - s.start.cpu);
  }
  return out;
}

std::vector<Interval> Tracer::self_times() const {
  std::vector<Interval> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = between(spans_[i].start, spans_[i].end);
  }
  // Children never overlap each other (one thread, strictly nested), so
  // the time they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    Interval& p = self[static_cast<std::size_t>(s.parent)];
    p.cpu -= s.end.cpu - s.start.cpu;
    p.wall -= s.end.wall - s.start.wall;
  }
  return self;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const std::vector<Interval> self = self_times();
  const auto old_precision = out.precision(15);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"cpu_start\":" << s.start.cpu
        << ",\"cpu_end\":" << s.end.cpu << ",\"wall_start\":" << s.start.wall
        << ",\"wall_end\":" << s.end.wall << ",\"self_cpu\":" << self[i].cpu
        << ",\"self_wall\":" << self[i].wall << "}\n";
  }
  out.precision(old_precision);
}

void Tracer::write_summary(std::ostream& out) const {
  struct Row {
    std::size_t count = 0;
    Interval total;
    Interval self;
  };
  const std::vector<Interval> self = self_times();
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total += between(spans_[i].start, spans_[i].end);
    r.self += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self.cpu > b.second.self.cpu;
  });
  out << "span                              count    cpu_s  self_cpu_s"
         "   wall_s  self_wall_s\n";
  char line[160];
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-32s %6zu %9.4f %10.4f %9.4f %11.4f\n",
                  name.c_str(), r.count, r.total.cpu, r.self.cpu, r.total.wall,
                  r.self.wall);
    out << line;
  }
}

}  // namespace perfbench
