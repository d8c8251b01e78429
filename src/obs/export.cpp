#include "obs/export.hpp"

#include <charconv>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace tg::obs {

namespace {

/// Metric names are dot-separated identifiers and event names come from
/// to_string tables, so escaping only needs to be defensive, not complete.
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_trace_event_jsonl(std::ostream& out, const TraceEvent& e) {
  out << "{\"t\":" << e.sim_time << ",\"cat\":\"" << to_string(e.category)
      << "\",\"ev\":\"" << to_string(e.point) << "\",\"ph\":\""
      << to_string(e.phase) << "\",\"depth\":" << static_cast<int>(e.depth)
      << ",\"id\":" << e.id << ",\"a\":" << e.a << ",\"b\":" << e.b << "}\n";
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  TG_CHECK(ec == std::errc(), "double formatting failed");
  return std::string(buf, ptr);
}

void write_trace_jsonl(const TraceBuffer& trace, std::ostream& out) {
  out << "{\"trace\":\"tgsim\",\"events\":" << trace.size()
      << ",\"dropped\":" << trace.dropped()
      << ",\"capacity\":" << trace.capacity() << "}\n";
  trace.for_each(
      [&out](const TraceEvent& e) { write_trace_event_jsonl(out, e); });
}

void write_metrics_jsonl(const MetricsRegistry& registry, std::ostream& out) {
  for (const MetricsRegistry::Sample& s : registry.snapshot()) {
    out << "{\"metric\":";
    write_json_string(out, s.name);
    out << ",\"kind\":\"" << to_string(s.kind)
        << "\",\"value\":" << format_double(s.value) << "}\n";
  }
}

namespace {

template <class Source, class WriteFn>
void write_file(const Source& source, const std::string& path,
                WriteFn write) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TG_REQUIRE(out.is_open(), "cannot open '" << path << "' for writing");
  write(source, out);
  out.flush();
  TG_REQUIRE(out.good(), "write to '" << path << "' failed");
}

}  // namespace

void write_trace_file(const TraceBuffer& trace, const std::string& path) {
  write_file(trace, path, write_trace_jsonl);
}

void write_metrics_file(const MetricsRegistry& registry,
                        const std::string& path) {
  write_file(registry, path, write_metrics_jsonl);
}

}  // namespace tg::obs
