/// \file main.cpp
/// perfbench --workload <paper_cold|serve_whatif|exact_fabric> --seed <n>
///           --seconds <s> --trace <0|1> [--span-file <path>]
///
/// Runs one workload through the real serving stack, checks every answer,
/// prints human-readable lines and, last, one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
/// report the per-layer metrics and write the recorded spans.

#include <cstdlib>
#include <iostream>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "server/protocol.hpp"

namespace {

using perfbench::Metric;
using perfbench::number;

/// Every run reports all of these, in this order (BENCHMARK.json lists
/// the same names).  Per-layer metrics a workload does not exercise read 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"jobset_s", "s"},
    {"ok_share", "share"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"sweep.cold_submit_s.p50", "s"},
    {"blif.parse_s", "s"},
    {"flow.synth_s", "s"},
    {"flow.probs_s", "s"},
    {"probs.wasted_s", "s"},
    {"probs.exact_ratio", "ratio"},
    {"flow.exact_prob_circuits", "count"},
    {"flow.evaluator_s", "s"},
    {"flow.assign_ma_s", "s"},
    {"flow.assign_mp_s", "s"},
    {"flow.mp_saving_pct", "%"},
    {"search.evaluations", "count"},
    {"search.batch_walks", "count"},
    {"search.batched_trials", "count"},
    {"search.nodes_expanded", "count"},
    {"search.bnb_s", "s"},
    {"flow.map_s", "s"},
    {"flow.measure_s", "s"},
    {"map.mp_cells_total", "count"},
    {"server.queue_ms.p50", "ms"},
    {"server.queue_ms.p99", "ms"},
    {"server.service_hit_ms.p50", "ms"},
    {"server.service_rebuild_ms.p50", "ms"},
    {"session.hit_ratio", "ratio"},
    {"session.map_rebuilds", "count"},
    {"session.measure_rebuilds", "count"},
    {"wire.overhead_ms.p50", "ms"},
    {"wire.overhead_s", "s"},
    {"generator.late_ms.max", "ms"},
    {"serve.p50_ms.low", "ms"},
    {"serve.p50_ms.mid", "ms"},
    {"serve.p50_ms.high", "ms"},
    {"serve.p99_ms.low", "ms"},
    {"serve.p99_ms.mid", "ms"},
    {"serve.p99_ms.high", "ms"},
    {"serve.max_rps", "1/s"},
    {"exact.local_s", "s"},
    {"exact.fabric_s", "s"},
    {"dist.search_s", "s"},
    {"dist.nodes_ratio", "ratio"},
    {"dist.units_issued", "count"},
    {"dist.units_stolen", "count"},
    {"dist.units_reissued", "count"},
    {"dist.worker_units_failed", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

int usage() {
  std::cerr << "usage: perfbench --workload paper_cold|serve_whatif|exact_fabric "
               "--seed N --seconds S --trace 0|1 [--span-file PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  perfbench::Result result;
  try {
    if (args.workload == "paper_cold")
      perfbench::run_paper_cold(args, result);
    else if (args.workload == "serve_whatif")
      perfbench::run_serve_whatif(args, result);
    else if (args.workload == "exact_fabric")
      perfbench::run_exact_fabric(args, result);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "perfbench: no request was attempted\n";
    return 1;
  }

  std::map<std::string, Metric> printed;
  if (args.trace) {
    result.set("trace.spans", static_cast<double>(perfbench::spans().size()),
               "count");
    for (const auto& [name, totals] : perfbench::spans().totals())
      result.note("span " + name + ": n=" + std::to_string(totals.count) +
                  " total=" + number(totals.total_s) +
                  " s self=" + number(totals.self_s) + " s");
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = result.metrics.find(name);
      printed[name] = it != result.metrics.end() ? it->second : Metric{0.0, unit};
    }
    if (!args.span_file.empty()) perfbench::spans().write(args.span_file);
  } else {
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    result.set("ok_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "share");
    for (const auto& [name, unit] : kEndToEnd) {
      const auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        std::cerr << "perfbench: workload did not report " << name << "\n";
        return 1;
      }
      printed[name] = it->second;
    }
  }

  for (const std::string& line : result.notes) std::cout << line << "\n";
  for (const auto& [name, metric] : printed)
    std::cout << "metric " << name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  std::string json = "{\"correct\":";
  json += result.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.attempted);
  json += ",\"failed\":" + std::to_string(result.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : printed) {
    if (!first) json += ',';
    first = false;
    dominosyn::protocol::append_json_string(json, name);
    json += ":{\"value\":" + number(metric.value) + ",\"unit\":";
    dominosyn::protocol::append_json_string(json, metric.unit);
    json += '}';
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.correct ? 0 : 1;
}
