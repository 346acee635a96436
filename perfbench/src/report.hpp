// Shared plumbing of the benchmark program: command-line options, the result
// of one workload run, sample statistics, host facts, and the engine-counter
// summaries every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/bdd_manager.hpp"

namespace perfbench {

// The benchmark uses the engine's namespaces (core::, circuit::) directly.
using namespace pbdd;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs (mult-6, hdec-8, one short service pass) for self-tests.
  bool tiny = false;
  /// Recorded oracle values (see oracle.hpp).
  std::string oracle_path = "perfbench/oracle.txt";
};

/// Scratch directory for snapshots, checkpoints and span dumps, relative to
/// the repository root perfbench runs from.
inline constexpr const char* kOutDir = ".bench_out";

/// What one workload run hands back to main(): the counts the contract
/// asks for, both metric sets, and human-readable report lines.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// name -> (value, unit); emitted in insertion-independent (sorted) order.
  std::map<std::string, std::pair<double, std::string>> end_to_end;
  std::map<std::string, std::pair<double, std::string>> per_layer;
  std::vector<std::string> notes;

  void fail(std::uint64_t count, const std::string& why) {
    failed += count;
    if (errors.size() < 32) errors.push_back(why);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// ---- Sample statistics -----------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

// ---- Host guard ------------------------------------------------------------

/// Number of workers every parallel measurement uses, and the least number of
/// active workers and of usable CPUs a 4-worker measurement may run with.
inline constexpr unsigned kWorkers = 4;

/// CPUs this process may run on: the smallest of its affinity mask, nproc
/// and hardware_concurrency.
[[nodiscard]] unsigned usable_cpus();

/// Counts `ops` failed operations unless `mgr` runs kWorkers active workers
/// on at least kWorkers usable CPUs: 4 workers sharing fewer CPUs, or a
/// short-handed 4-worker manager, is not a 4-worker result.
void guard_active_workers(const core::BddManager& mgr, std::uint64_t ops,
                          const char* what, Outcome& out);
/// Record nproc, hardware_concurrency, usable CPUs and the engine's active
/// workers.
void report_host(unsigned active_workers, Outcome& out);

// ---- Set-up time -----------------------------------------------------------

/// Cold set-ups per run; setup_s is the median of their totals.
inline constexpr unsigned kSetupReps = 31;

/// Seconds one set-up took, in all and in its circuit steps.
struct SetupSample {
  double total_s = 0, gen_s = 0, order_s = 0;
};

/// Runs `setup` kSetupReps times, each in a fresh child process forked
/// before the workload starts any thread, and returns what each reported.
/// Every sample is then a cold start, as a user's first manager is: fresh
/// pages and fresh threads, whatever this process allocated before.
/// Throws if a child fails.
[[nodiscard]] std::vector<SetupSample> cold_setups(
    const std::function<SetupSample()>& setup);
/// Emit setup_s, circuit.gen_s and circuit.order_s (medians).
void report_setup(const std::vector<SetupSample>& samples, Outcome& out);

// ---- Engine counters -------------------------------------------------------

/// Per-layer numbers of one manager's statistics (one round, or a whole
/// service run). Phase times are summed over workers and inclusive: the
/// engine's reduction timer also covers stolen work run inside resolve().
struct CoreSample {
  double expansion_s = 0, reduction_s = 0;
  double max_worker_expansion_s = 0, max_worker_reduction_s = 0;
  double lock_wait_s = 0;
  double reduction_stalls = 0, ops_performed = 0, nodes_created = 0;
  double cache_hit_ratio = 0, shared_cache_hits = 0;
  double gc_runs = 0, gc_s = 0, gc_mark_s = 0, gc_fix_s = 0, gc_rehash_s = 0;
  // runtime layer
  double active_workers = 0, groups_stolen = 0, tasks_stolen = 0;
  double contexts_pushed = 0, batch_dep_stalls = 0, worker_balance = 0;
};
[[nodiscard]] CoreSample core_sample(const core::BddManager& mgr);
/// Emit the per-round medians of every core.* and runtime.* field (except
/// runtime.speedup_4w, which the workload computes from paired rounds).
void report_core(const std::vector<CoreSample>& rounds, Outcome& out);

/// Node-count canonicity checksum: an order-sensitive FNV-style mix of the
/// per-output node counts. Equal BDDs give equal checksums under any
/// engine configuration and in the depth-first package.
template <typename Manager, typename Handle>
[[nodiscard]] std::uint64_t canonicity_checksum(
    Manager& mgr, const std::vector<Handle>& outs) {
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const Handle& o : outs) {
    checksum = (checksum ^ mgr.node_count(o)) * 0x100000001b3ULL;
  }
  return checksum;
}

/// Time-bounded round loop: keeps starting rounds while the next one is
/// expected to end within half a round of the budget (at least
/// `min_rounds`).
class RoundClock {
 public:
  RoundClock(double budget_s, unsigned min_rounds)
      : start_(Clock::now()), budget_s_(budget_s), min_(min_rounds) {}
  [[nodiscard]] bool another(const std::vector<double>& round_s) const;
  [[nodiscard]] double elapsed() const { return seconds_since(start_); }

 private:
  Clock::time_point start_;
  double budget_s_;
  unsigned min_;
};

}  // namespace perfbench
