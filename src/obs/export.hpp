// Trace and metrics exporters: JSON-lines.
//
// Byte-stable by construction — doubles are rendered with std::to_chars
// (shortest round-trip form, locale-independent), rows are emitted in a
// deterministic order (ring order for traces, name order for metrics),
// and nothing here consults a wall clock.
#pragma once

#include <iosfwd>
#include <string>

namespace tg::obs {

class MetricsRegistry;
class TraceBuffer;

/// One `{"t":...,"cat":...,"ev":...}` object per event, oldest first,
/// preceded by a `{"trace":...}` header carrying capacity/drop counts.
void write_trace_jsonl(const TraceBuffer& trace, std::ostream& out);

/// One `{"metric":...,"kind":...,"value":...}` object per metric, sorted
/// by name.
void write_metrics_jsonl(const MetricsRegistry& registry, std::ostream& out);

/// Writes JSON-lines to `path`. Throws PreconditionError if the file
/// cannot be opened or written.
void write_trace_file(const TraceBuffer& trace, const std::string& path);
void write_metrics_file(const MetricsRegistry& registry,
                        const std::string& path);

/// Renders a double in shortest round-trip form ("1e+300"-style exponents
/// included); integral values print without a trailing ".0".
[[nodiscard]] std::string format_double(double v);

}  // namespace tg::obs
