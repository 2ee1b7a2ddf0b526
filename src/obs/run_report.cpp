#include "obs/run_report.h"

#include <ostream>
#include <sstream>
#include <string_view>

#include "report/json.h"
#include "report/table.h"

namespace synscan::obs {
namespace {

constexpr std::string_view kSchema = "synscan.run_report/1";

void write_timing_json(std::ostream& os, const TimingData& timing) {
  os << "{\"count\":" << timing.count << ",\"wall_us\":" << timing.wall_us
     << ",\"cpu_us\":" << timing.cpu_us << ",\"max_wall_us\":" << timing.max_wall_us
     << "}";
}

void write_histogram_json(std::ostream& os, const HistogramData& histogram) {
  os << "{\"count\":" << histogram.count << ",\"sum\":" << histogram.sum
     << ",\"min\":" << histogram.min << ",\"max\":" << histogram.max << ",\"buckets\":{";
  bool first = true;
  for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
    if (histogram.buckets[i] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << i << "\":" << histogram.buckets[i];
  }
  os << "}}";
}

}  // namespace

void publish(MetricsRegistry& registry, const telescope::SensorCounters& counters) {
  registry.counter("sensor.scan_probes").add(counters.scan_probes);
  registry.counter("sensor.backscatter").add(counters.backscatter);
  registry.counter("sensor.xmas_or_null").add(counters.xmas_or_null);
  registry.counter("sensor.other_tcp").add(counters.other_tcp);
  registry.counter("sensor.udp").add(counters.udp);
  registry.counter("sensor.icmp").add(counters.icmp);
  registry.counter("sensor.not_monitored").add(counters.not_monitored);
  registry.counter("sensor.ingress_blocked").add(counters.ingress_blocked);
  registry.counter("sensor.malformed").add(counters.malformed);
  registry.counter("sensor.spoofed_source").add(counters.spoofed_source);
}

void publish(MetricsRegistry& registry, const core::TrackerCounters& counters) {
  registry.counter("tracker.probes").add(counters.probes);
  registry.counter("tracker.campaigns").add(counters.campaigns);
  registry.counter("tracker.subthreshold_flows").add(counters.subthreshold_flows);
  registry.counter("tracker.subthreshold_packets").add(counters.subthreshold_packets);
  registry.counter("tracker.expired_flows").add(counters.expired_flows);
  registry.counter("tracker.sweeps").add(counters.sweeps);
  registry.counter("tracker.flow_reuses").add(counters.flow_reuses);
  registry.counter("tracker.dest_promotions").add(counters.dest_promotions);
  registry.counter("tracker.port_promotions").add(counters.port_promotions);
  registry.counter("tracker.table_rehashes").add(counters.table_rehashes);
  registry.gauge("tracker.peak_open_flows")
      .record_max(static_cast<std::int64_t>(counters.peak_open_flows));
}

RunReport RunReport::capture(std::string label, const core::PipelineResult* result,
                             MetricsRegistry& registry) {
  if (result != nullptr) {
    publish(registry, result->sensor);
    publish(registry, result->tracker);
  }
  RunReport report;
  report.label = std::move(label);
  report.metrics = registry.snapshot();
  return report;
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\"schema\":\"" << kSchema << "\",\"label\":\"" << report::json_escape(label)
     << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : metrics.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : metrics.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":" << value;
  }
  os << "},\"timings\":{";
  first = true;
  for (const auto& [name, timing] : metrics.timings) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":";
    write_timing_json(os, timing);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":";
    write_histogram_json(os, histogram);
  }
  os << "}}";
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string RunReport::to_table() const {
  std::ostringstream os;
  if (!label.empty()) os << "run report: " << label << "\n";

  if (!metrics.counters.empty() || !metrics.gauges.empty()) {
    report::Table values({"metric", "value"});
    for (const auto& [name, value] : metrics.counters) {
      values.add_row({name, std::to_string(value)});
    }
    for (const auto& [name, value] : metrics.gauges) {
      values.add_row({name + " (gauge)", std::to_string(value)});
    }
    os << values;
  }

  if (!metrics.timings.empty()) {
    report::Table timings({"stage", "spans", "wall ms", "cpu ms", "max ms"});
    for (const auto& [name, timing] : metrics.timings) {
      timings.add_row({name, std::to_string(timing.count),
                       report::fixed(static_cast<double>(timing.wall_us) / 1000.0, 2),
                       report::fixed(static_cast<double>(timing.cpu_us) / 1000.0, 2),
                       report::fixed(static_cast<double>(timing.max_wall_us) / 1000.0, 2)});
    }
    os << "-- stage timings --\n" << timings;
  }

  if (!metrics.histograms.empty()) {
    report::Table histograms({"metric", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, histogram] : metrics.histograms) {
      histograms.add_row({name, std::to_string(histogram.count),
                          report::fixed(histogram.mean(), 1),
                          std::to_string(histogram.quantile(0.50)),
                          std::to_string(histogram.quantile(0.90)),
                          std::to_string(histogram.quantile(0.99)),
                          std::to_string(histogram.max)});
    }
    os << "-- distributions --\n" << histograms;
  }
  return os.str();
}

}  // namespace synscan::obs
