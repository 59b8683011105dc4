// Point-in-time capture of the metrics registry, serializable as JSON (the
// registry's canonical machine format) or Prometheus text exposition
// format 0.0.4 (for scraping). Capturing decouples "read every metric under
// the registry lock" from "format it": both exporters render the same
// frozen values, so a scrape and a JSON dump taken together always agree.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace gm::util {
class Cli;
}

namespace gm::obs {

struct MetricsSnapshot {
  struct DistRow {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0, min = 0.0, max = 0.0, variance = 0.0, sum = 0.0;
    Quantiles q;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<DistRow> distributions;
  std::map<std::string, std::string> help;

  static MetricsSnapshot capture(const Metrics& m);

  /// {"counters":{...},"gauges":{...},"distributions":{name:{count,mean,
  /// min,max,variance,p50,p90,p95,p99}}} — non-finite values render as
  /// null.
  void write_json(std::ostream& os) const;

  /// Prometheus text exposition format: metric names are sanitized
  /// ([a-zA-Z0-9_:] only) and prefixed "gpumem_"; counters gain a "_total"
  /// suffix, distributions render as summaries with quantile labels plus
  /// _sum/_count.
  void write_prometheus(std::ostream& os) const;

  /// "json", "prom"/"prometheus", or "tsv" -> true; anything else false.
  /// (TSV delegates back to Metrics::write_tsv at the call site.)
  static bool is_known_format(const std::string& fmt);
};

/// The --trace-out, --metrics-out and --metrics-format flags every binary
/// shares, exported from the global Registry.
struct ExportFlags {
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";

  static void describe(util::Cli& cli);
  /// Throws util::InputError on an unknown format; turns the global
  /// Registry on when an output is asked for.
  static ExportFlags read(const util::Cli& cli);
  /// Writes each asked-for file, one line per file to `log`; throws
  /// util::InputError when one will not open.
  void write(std::ostream& log) const;
};

}  // namespace gm::obs
