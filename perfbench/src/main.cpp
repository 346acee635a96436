// perfbench — the repository benchmark program.
//
//   perfbench --workload build|fault|service --seed N --seconds S --trace 0|1
//             [--tiny] [--oracle FILE]
//   perfbench --record-oracle
//
// Runs one workload for about S seconds, checks its outputs, and prints
// human-readable report lines followed by one JSON object on the last line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload alternates traced and untraced runs and the metrics are the
// per-layer ones its layers produce, including each layer's span self time
// and the tracing overhead (run.py adds the rest of BENCHMARK.json's
// per-layer set as 0). Exit code: 0 if every check passed, 1 if an output was wrong,
// 2 on a usage or set-up error (no result printed).
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>

#include "oracle.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build|fault|service --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--tiny] [--oracle FILE]\n"
               "       perfbench --record-oracle\n");
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(
    const std::map<std::string, std::pair<double, std::string>>& metrics,
    std::string& json) {
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", vu.first);
    json += first ? "" : ", ";
    json += json_string(name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(vu.second) + "}";
    first = false;
  }
}

/// Span self times per layer (seconds per traced run), span count, and the
/// span dump written under the scratch directory.
void report_spans(const Options& opt, Outcome& out) {
  const std::vector<SpanRecord> spans = SpanRecorder::instance().collect();
  std::set<std::uint32_t> runs;
  for (const SpanRecord& s : spans) runs.insert(s.run_id);
  const double per_run = runs.empty() ? 1.0 : double(runs.size());
  const std::array<double, kNumLayers> self =
      SpanRecorder::self_seconds(spans);
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    out.layer(std::string("span.") + layer_name(static_cast<Layer>(l)) +
                  "_self_s",
              self[l] / per_run, "s");
  }
  out.layer("trace.spans", static_cast<double>(spans.size()) / per_run,
            "count");
  const std::string path =
      std::string(kOutDir) + "/spans-" + opt.workload + ".tsv";
  SpanRecorder::write(spans, path);
  out.note("spans: " + std::to_string(spans.size()) + " in " +
           std::to_string(runs.size()) + " traced runs, written to " + path);
}

/// Steal and total CPU ticks of the whole machine from /proc/stat (zeros
/// where it is unavailable). Steal is time the hypervisor ran other guests
/// on this machine's virtual CPUs.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  double steal = 0, total = 0;
  if (!(in >> label) || label != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(in >> ticks)) return {0, 0};
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

int run(const Options& opt) {
  mkdir(kOutDir, 0755);
  Outcome out;
  const auto [steal0, total0] = cpu_steal_ticks();
  if (opt.workload == "build") {
    out = run_build(opt);
  } else if (opt.workload == "fault") {
    out = run_fault(opt);
  } else if (opt.workload == "service") {
    out = run_service(opt);
  } else {
    usage();
  }
  const auto [steal1, total1] = cpu_steal_ticks();
  const double steal =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  out.layer("host.steal_ratio", steal, "ratio");
  char line[96];
  std::snprintf(line, sizeof line,
                "host: %.2f%% of CPU time stolen by the hypervisor during the "
                "run", 100.0 * steal);
  out.note(line);
  if (opt.trace) report_spans(opt, out);
  const auto& metrics = opt.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, vu] : metrics) {
    if (!std::isfinite(vu.first)) out.fail(1, "metric " + name + " not finite");
  }

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const auto& [name, vu] : out.end_to_end) {
    std::printf("# e2e %s = %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const std::string& e : out.errors) {
    std::printf("# FAILED: %s\n", e.c_str());
  }
  const bool correct = out.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed: %s\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted),
                 out.errors.empty() ? "" : out.errors.front().c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  print_metrics(metrics, json);
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = next();
      } else if (a == "--seed") {
        opt.seed = std::stoull(next());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(next());
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        const std::string t = next();
        if (t != "0" && t != "1") usage();
        opt.trace = t == "1";
        have_trace = true;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--oracle") {
        opt.oracle_path = next();
      } else if (a == "--record-oracle") {
        return record_oracle();
      } else {
        usage();
      }
    } catch (const std::logic_error&) {
      usage();  // malformed number
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage();
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
