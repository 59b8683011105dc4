#include "obs/snapshot.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/registry.h"
#include "util/cli.h"

namespace gm::obs {
namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

/// Prometheus numbers: NaN is legal in the text format (unlike JSON).
void write_prom_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

/// Sanitizes a registry name ("serve.queue_seconds") into a Prometheus
/// metric name ("gpumem_serve_queue_seconds").
std::string prom_name(const std::string& name) {
  std::string out = "gpumem_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prom_header(std::ostream& os, const std::string& pname,
                       const std::map<std::string, std::string>& help,
                       const std::string& raw_name, const char* type) {
  if (const auto it = help.find(raw_name); it != help.end()) {
    std::string h = it->second;
    for (char& c : h) {
      if (c == '\n') c = ' ';
    }
    os << "# HELP " << pname << ' ' << h << '\n';
  }
  os << "# TYPE " << pname << ' ' << type << '\n';
}

}  // namespace

MetricsSnapshot MetricsSnapshot::capture(const Metrics& m) {
  MetricsSnapshot snap;
  m.visit(
      [&](const std::string& name, const Counter& c) {
        snap.counters.emplace_back(name, c.value());
      },
      [&](const std::string& name, const Gauge& g) {
        snap.gauges.emplace_back(name, g.value());
      },
      [&](const std::string& name, const Distribution& d) {
        DistRow row;
        row.name = name;
        const util::Summary s = d.summary();
        row.count = s.count();
        row.mean = s.mean();
        row.min = s.min();
        row.max = s.max();
        row.variance = s.variance();
        row.sum = s.count() == 0 ? 0.0
                                 : s.mean() * static_cast<double>(s.count());
        row.q = d.quantiles();
        snap.distributions.push_back(std::move(row));
      });
  snap.help = m.help();
  return snap;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) os << ",";
    first = false;
    write_escaped(os, name);
    os << ":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) os << ",";
    first = false;
    write_escaped(os, name);
    os << ":";
    write_number(os, v);
  }
  os << "},\"distributions\":{";
  first = true;
  for (const DistRow& d : distributions) {
    if (!first) os << ",";
    first = false;
    write_escaped(os, d.name);
    os << ":{\"count\":" << d.count << ",\"mean\":";
    write_number(os, d.mean);
    os << ",\"min\":";
    write_number(os, d.min);
    os << ",\"max\":";
    write_number(os, d.max);
    os << ",\"variance\":";
    write_number(os, d.variance);
    os << ",\"p50\":";
    write_number(os, d.q.p50);
    os << ",\"p90\":";
    write_number(os, d.q.p90);
    os << ",\"p95\":";
    write_number(os, d.q.p95);
    os << ",\"p99\":";
    write_number(os, d.q.p99);
    os << "}";
  }
  os << "}}";
}

void MetricsSnapshot::write_prometheus(std::ostream& os) const {
  for (const auto& [name, v] : counters) {
    std::string pname = prom_name(name);
    // Prometheus convention: counters end in _total.
    if (pname.size() < 6 ||
        pname.compare(pname.size() - 6, 6, "_total") != 0) {
      pname += "_total";
    }
    write_prom_header(os, pname, help, name, "counter");
    os << pname << ' ' << v << '\n';
  }
  for (const auto& [name, v] : gauges) {
    const std::string pname = prom_name(name);
    write_prom_header(os, pname, help, name, "gauge");
    os << pname << ' ';
    write_prom_number(os, v);
    os << '\n';
  }
  for (const DistRow& d : distributions) {
    const std::string pname = prom_name(d.name);
    write_prom_header(os, pname, help, d.name, "summary");
    if (d.count > 0) {
      const std::pair<const char*, double> qs[] = {
          {"0.5", d.q.p50}, {"0.9", d.q.p90}, {"0.95", d.q.p95},
          {"0.99", d.q.p99}};
      for (const auto& [label, value] : qs) {
        os << pname << "{quantile=\"" << label << "\"} ";
        write_prom_number(os, value);
        os << '\n';
      }
    }
    os << pname << "_sum ";
    write_prom_number(os, d.sum);
    os << '\n';
    os << pname << "_count " << d.count << '\n';
  }
}

bool MetricsSnapshot::is_known_format(const std::string& fmt) {
  return fmt == "json" || fmt == "prom" || fmt == "prometheus" ||
         fmt == "tsv";
}

void ExportFlags::describe(util::Cli& cli) {
  cli.describe("trace-out",
               "record the run and write a Chrome-trace JSON here (open in "
               "chrome://tracing or ui.perfetto.dev)");
  cli.describe("metrics-out", "write run metrics here (see --metrics-format)");
  cli.describe("metrics-format",
               "metrics-out format: json (default), prom (Prometheus text "
               "exposition), or tsv");
}

ExportFlags ExportFlags::read(const util::Cli& cli) {
  ExportFlags f{cli.get("trace-out", ""), cli.get("metrics-out", ""),
                cli.get("metrics-format", "json")};
  if (!MetricsSnapshot::is_known_format(f.metrics_format)) {
    throw util::InputError("unknown --metrics-format '" + f.metrics_format +
                           "' (json, prom, tsv)");
  }
  if (!f.trace_out.empty() || !f.metrics_out.empty()) {
    Registry::global().set_enabled(true);
  }
  return f;
}

void ExportFlags::write(std::ostream& log) const {
  const auto open = [](const std::string& path, const char* flag) {
    std::ofstream f(path);
    if (!f) throw util::InputError(std::string("cannot open --") + flag +
                                   " file " + path);
    return f;
  };
  Registry& reg = Registry::global();
  if (!trace_out.empty()) {
    std::ofstream f = open(trace_out, "trace-out");
    reg.trace().write_chrome_json(f);
    log << "[obs] trace (" << reg.trace().size() << " spans) written to "
        << trace_out << '\n';
  }
  if (!metrics_out.empty()) {
    std::ofstream f = open(metrics_out, "metrics-out");
    if (metrics_format == "tsv") {
      reg.metrics().write_tsv(f);
    } else if (metrics_format == "json") {
      MetricsSnapshot::capture(reg.metrics()).write_json(f);
    } else {
      MetricsSnapshot::capture(reg.metrics()).write_prometheus(f);
    }
    log << "[obs] metrics written to " << metrics_out << " ("
        << metrics_format << ")\n";
  }
}

}  // namespace gm::obs
