#ifndef SERIGRAPH_OBS_REPORT_H_
#define SERIGRAPH_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace serigraph {

/// Minimal streaming JSON writer (objects, arrays, scalar values) used
/// for machine-readable run reports and other tool output. Produces
/// compact (non-pretty) JSON; keys and string values are escaped.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Starts a key inside an object; follow with a value or Begin*().
  JsonWriter& Key(const std::string& key);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(double value);
  JsonWriter& Value(bool value);
  JsonWriter& Value(const std::string& value);
  /// Without this overload a string literal would take the pointer->bool
  /// standard conversion and serialize as `true`.
  JsonWriter& Value(const char* value) { return Value(std::string(value)); }
  /// Splices pre-serialized JSON (e.g. WaitForEdgesJson output) in value
  /// position; the caller guarantees it is well-formed.
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();

  std::string out_;
  /// Whether a comma is needed before the next element, per nesting level.
  std::vector<bool> needs_comma_{false};
  bool after_key_ = false;
};

/// Renders `metrics` in the Prometheus text exposition format with
/// `# TYPE` hints. Metric names are sanitized (dots and other invalid
/// characters become underscores) and prefixed `serigraph_`. Histogram
/// families (a base name carrying all of .p50/.p95/.max/.count/.sum, the
/// MetricRegistry::Snapshot flattening) render as a `summary` with
/// quantile labels plus `_count`/`_sum` and a `_max` gauge; names in the
/// builtin gauge set (docs/METRICS.md "Type" column) render as `gauge`;
/// everything else is a `counter`.
std::string MetricsToPrometheusText(
    const std::map<std::string, int64_t>& metrics);

/// `# HELP` text for a metric's registry base name (e.g.
/// "engine.barrier_wait_us"), sourced from the docs/METRICS.md table at
/// build time (scripts/gen_metrics_help.py). Empty string when the name
/// is undocumented or the build had no Python to run the generator.
const char* MetricHelpFor(const std::string& name);

/// Marks a synthetic series name served on /metrics without a
/// MetricRegistry entry. Expands to the name itself; it exists so
/// scripts/lint_protocol.py can cross-check these literals against
/// docs/METRICS.md exactly like Get{Counter,Gauge,Histogram} literals —
/// every name served must be documented.
#define SG_OBS_SERVED_METRIC(name) (name)

/// The full `/metrics` exposition: MetricsToPrometheusText(metrics)
/// plus the synthetic `serigraph_build_info` gauge (commit/build-type/
/// sanitizer labels from GetBuildInfo()) and `process_uptime_seconds`.
/// `extra` appends additional synthetic counter series by registry-style
/// name (sanitized and prefixed like everything else); callers must use
/// documented names.
std::string MetricsToPrometheusExposition(
    const std::map<std::string, int64_t>& metrics,
    const std::map<std::string, int64_t>& extra = {});

/// Writes `content` to `path` (overwrite).
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_REPORT_H_
