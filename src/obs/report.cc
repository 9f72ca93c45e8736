#include "obs/report.h"

#include <cstdio>
#include <cstring>

#include "obs/flightrec.h"
#include "obs/trace.h"

namespace serigraph {

namespace {

void AppendEscaped(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (needs_comma_.back()) out_ += ',';
  needs_comma_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(out_, key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& value) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  MaybeComma();
  out_ += json;
  return *this;
}

namespace {

std::string SanitizePromName(const std::string& name) {
  std::string sanitized = "serigraph_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    sanitized += ok ? c : '_';
  }
  return sanitized;
}

/// Metric names exported as `gauge` (point-in-time or peak values; the
/// docs/METRICS.md "Type" column is the authoritative list). Everything
/// not a gauge and not part of a histogram family is a `counter`.
bool IsGaugeMetric(const std::string& name) {
  static const char* kGauges[] = {
      "pregel.max_concurrent_executions",
      "net.peak_inbox_depth",
      "mem.peak_rss_kb",
      "store.arena_chunks",
      "store.arena_nodes_in_use",
      "store.arena_node_capacity",
      "store.max_chain_len",
  };
  for (const char* g : kGauges) {
    if (name == g) return true;
  }
  return false;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// HELP text generated from the docs/METRICS.md table at build time
/// (scripts/gen_metrics_help.py → metrics_help.inc in the build tree).
struct MetricHelpEntry {
  const char* name;
  const char* help;
};
const MetricHelpEntry kMetricHelp[] = {
#include "metrics_help.inc"
    {nullptr, nullptr},
};

/// Appends "# HELP <prom> <text>\n" when `name` is documented.
void MaybeEmitHelp(std::string& out, const std::string& name,
                   const std::string& prom) {
  const char* help = MetricHelpFor(name);
  if (help[0] == '\0') return;
  out += "# HELP " + prom + " ";
  // Prometheus HELP escaping: backslash and newline only.
  for (const char* p = help; *p != '\0'; ++p) {
    if (*p == '\\') {
      out += "\\\\";
    } else if (*p == '\n') {
      out += "\\n";
    } else {
      out += *p;
    }
  }
  out += '\n';
}

}  // namespace

const char* MetricHelpFor(const std::string& name) {
  for (const MetricHelpEntry* e = kMetricHelp; e->name != nullptr; ++e) {
    if (name == e->name) return e->help;
  }
  return "";
}

std::string MetricsToPrometheusText(
    const std::map<std::string, int64_t>& metrics) {
  // Histogram families: MetricRegistry::Snapshot flattens each histogram
  // into name.p50/.p95/.max/.count/.sum; a base name carrying all five
  // renders as one Prometheus summary instead of five opaque counters.
  static const char* kHistSuffixes[] = {".p50", ".p95", ".max", ".count",
                                        ".sum"};
  std::map<std::string, int> family_parts;
  for (const auto& [name, value] : metrics) {
    (void)value;
    for (const char* suffix : kHistSuffixes) {
      if (EndsWith(name, suffix)) {
        family_parts[name.substr(0, name.size() - strlen(suffix))]++;
      }
    }
  }

  std::string out;
  auto emit_line = [&out](const std::string& name, int64_t value,
                          const char* labels = "") {
    out += name;
    out += labels;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };

  std::string emitted_family;  // base of the family just emitted
  for (const auto& [name, value] : metrics) {
    // Is this key part of a complete histogram family?
    std::string base;
    for (const char* suffix : kHistSuffixes) {
      if (EndsWith(name, suffix)) {
        std::string candidate = name.substr(0, name.size() - strlen(suffix));
        auto it = family_parts.find(candidate);
        if (it != family_parts.end() && it->second == 5) base = candidate;
        break;
      }
    }
    if (!base.empty()) {
      if (base == emitted_family) continue;  // family already written
      emitted_family = base;
      const std::string prom = SanitizePromName(base);
      auto get = [&metrics, &base](const char* suffix) {
        return metrics.at(base + suffix);
      };
      MaybeEmitHelp(out, base, prom);
      out += "# TYPE " + prom + " summary\n";
      emit_line(prom, get(".p50"), "{quantile=\"0.5\"}");
      emit_line(prom, get(".p95"), "{quantile=\"0.95\"}");
      emit_line(prom + "_count", get(".count"));
      emit_line(prom + "_sum", get(".sum"));
      out += "# TYPE " + prom + "_max gauge\n";
      emit_line(prom + "_max", get(".max"));
      continue;
    }
    const std::string prom = SanitizePromName(name);
    MaybeEmitHelp(out, name, prom);
    out += "# TYPE " + prom;
    out += IsGaugeMetric(name) ? " gauge\n" : " counter\n";
    emit_line(prom, value);
  }
  return out;
}

std::string MetricsToPrometheusExposition(
    const std::map<std::string, int64_t>& metrics,
    const std::map<std::string, int64_t>& extra) {
  std::string out = MetricsToPrometheusText(metrics);

  const BuildInfo build = GetBuildInfo();
  const std::string build_info = SG_OBS_SERVED_METRIC("serigraph_build_info");
  MaybeEmitHelp(out, build_info, build_info);
  out += "# TYPE " + build_info + " gauge\n";
  out += build_info + "{commit=\"" + build.commit + "\",build_type=\"" +
         build.build_type + "\",sanitizer=\"" + build.sanitizer + "\"} 1\n";

  const std::string uptime = SG_OBS_SERVED_METRIC("process_uptime_seconds");
  MaybeEmitHelp(out, uptime, uptime);
  out += "# TYPE " + uptime + " gauge\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %.3f\n", uptime.c_str(),
                static_cast<double>(Tracer::NowMicros()) / 1e6);
  out += buf;

  for (const auto& [name, value] : extra) {
    const std::string prom = SanitizePromName(name);
    MaybeEmitHelp(out, name, prom);
    out += "# TYPE " + prom + " counter\n";
    out += prom + ' ' + std::to_string(value) + '\n';
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open output file " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_err = std::fclose(f);
  if (written != content.size() || close_err != 0) {
    return Status::IoError("short write to output file " + path);
  }
  return Status::OK();
}

}  // namespace serigraph
