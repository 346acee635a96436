#include "report.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

unsigned usable_cpus() {
  unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc > 0) cpus = std::min(cpus, static_cast<unsigned>(nproc));
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    cpus = std::min(cpus, static_cast<unsigned>(CPU_COUNT(&mask)));
  }
  return cpus;
}

void guard_active_workers(const core::BddManager& mgr, std::uint64_t ops,
                          const char* what, Outcome& out) {
  if (mgr.active_workers() < kWorkers) {
    out.fail(ops, std::string(what) + ": ran with " +
                      std::to_string(mgr.active_workers()) +
                      " active workers, need " + std::to_string(kWorkers));
  }
  if (usable_cpus() < kWorkers) {
    out.fail(ops, std::string(what) + ": " + std::to_string(kWorkers) +
                      " workers shared " + std::to_string(usable_cpus()) +
                      " usable CPUs, need " + std::to_string(kWorkers));
  }
}

void report_host(unsigned active_workers, Outcome& out) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hc = std::thread::hardware_concurrency();
  out.layer("host.nproc", static_cast<double>(nproc), "count");
  out.layer("host.hardware_concurrency", hc, "count");
  out.layer("host.usable_cpus", usable_cpus(), "count");
  out.layer("host.active_workers", active_workers, "count");
  out.note("host: nproc " + std::to_string(nproc) + ", hardware_concurrency " +
           std::to_string(hc) + ", usable CPUs " +
           std::to_string(usable_cpus()) + ", active workers " +
           std::to_string(active_workers));
}

std::vector<SetupSample> cold_setups(
    const std::function<SetupSample()>& setup) {
  std::fflush(nullptr);  // a child must not write this process's buffers
  std::vector<SetupSample> samples;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    int fd[2];
    if (pipe(fd) != 0) throw std::runtime_error("set-up: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("set-up: fork failed");
    if (pid == 0) {
      close(fd[0]);
      SetupSample sample;
      bool ok = true;
      try {
        sample = setup();
      } catch (...) {
        ok = false;
      }
      ok = ok && write(fd[1], &sample, sizeof sample) == sizeof sample;
      _exit(ok ? 0 : 1);
    }
    close(fd[1]);
    SetupSample sample;
    const ssize_t got = read(fd[0], &sample, sizeof sample);
    close(fd[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != sizeof sample || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up: child process failed");
    }
    samples.push_back(sample);
  }
  return samples;
}

void report_setup(const std::vector<SetupSample>& samples, Outcome& out) {
  std::vector<double> total, gen, order;
  for (const SetupSample& s : samples) {
    total.push_back(s.total_s);
    gen.push_back(s.gen_s);
    order.push_back(s.order_s);
  }
  out.e2e("setup_s", median(total), "s");
  out.layer("circuit.gen_s", median(gen), "s");
  out.layer("circuit.order_s", median(order), "s");
}

CoreSample core_sample(const core::BddManager& mgr) {
  const core::ManagerStats st = mgr.stats();
  const core::WorkerStats& t = st.total;
  CoreSample s;
  s.expansion_s = t.expansion_ns * 1e-9;
  s.reduction_s = t.reduction_ns * 1e-9;
  s.lock_wait_s = t.lock_wait_ns * 1e-9;
  s.reduction_stalls = static_cast<double>(t.reduction_stalls);
  s.ops_performed = static_cast<double>(t.ops_performed);
  s.nodes_created = static_cast<double>(t.nodes_created);
  s.cache_hit_ratio =
      t.cache_lookups == 0 ? 0.0 : double(t.cache_hits) / t.cache_lookups;
  s.shared_cache_hits = static_cast<double>(t.cache_shared_hits);
  s.gc_runs = static_cast<double>(st.gc_runs);
  s.gc_s = t.gc_ns * 1e-9;
  s.gc_mark_s = t.gc_mark_ns * 1e-9;
  s.gc_fix_s = t.gc_fix_ns * 1e-9;
  s.gc_rehash_s = t.gc_rehash_ns * 1e-9;
  s.active_workers = mgr.active_workers();
  s.groups_stolen = static_cast<double>(t.groups_stolen);
  s.tasks_stolen = static_cast<double>(t.tasks_stolen);
  s.contexts_pushed = static_cast<double>(t.contexts_pushed);
  s.batch_dep_stalls = static_cast<double>(t.batch_dep_stalls);
  std::uint64_t sum_ops = 0, max_ops = 0;
  const std::size_t active =
      std::min<std::size_t>(mgr.active_workers(), st.per_worker.size());
  for (std::size_t w = 0; w < st.per_worker.size(); ++w) {
    const core::WorkerStats& ws = st.per_worker[w];
    s.max_worker_expansion_s =
        std::max(s.max_worker_expansion_s, ws.expansion_ns * 1e-9);
    s.max_worker_reduction_s =
        std::max(s.max_worker_reduction_s, ws.reduction_ns * 1e-9);
    if (w < active) {
      sum_ops += ws.ops_performed;
      max_ops = std::max(max_ops, ws.ops_performed);
    }
  }
  s.worker_balance =
      max_ops == 0 ? 0.0 : double(sum_ops) / (double(active) * max_ops);
  return s;
}

void report_core(const std::vector<CoreSample>& rounds, Outcome& out) {
  const auto med = [&](double CoreSample::*field) {
    std::vector<double> v;
    for (const CoreSample& s : rounds) v.push_back(s.*field);
    return median(std::move(v));
  };
  out.layer("core.expansion_s", med(&CoreSample::expansion_s), "s");
  out.layer("core.reduction_s", med(&CoreSample::reduction_s), "s");
  out.layer("core.max_worker_expansion_s",
            med(&CoreSample::max_worker_expansion_s), "s");
  out.layer("core.max_worker_reduction_s",
            med(&CoreSample::max_worker_reduction_s), "s");
  out.layer("core.lock_wait_s", med(&CoreSample::lock_wait_s), "s");
  out.layer("core.reduction_stalls", med(&CoreSample::reduction_stalls),
            "count");
  out.layer("core.ops_performed", med(&CoreSample::ops_performed), "count");
  out.layer("core.nodes_created", med(&CoreSample::nodes_created), "count");
  out.layer("core.cache_hit_ratio", med(&CoreSample::cache_hit_ratio),
            "ratio");
  out.layer("core.shared_cache_hits", med(&CoreSample::shared_cache_hits),
            "count");
  out.layer("core.gc_runs", med(&CoreSample::gc_runs), "count");
  out.layer("core.gc_s", med(&CoreSample::gc_s), "s");
  out.layer("core.gc_mark_s", med(&CoreSample::gc_mark_s), "s");
  out.layer("core.gc_fix_s", med(&CoreSample::gc_fix_s), "s");
  out.layer("core.gc_rehash_s", med(&CoreSample::gc_rehash_s), "s");
  out.layer("runtime.active_workers", med(&CoreSample::active_workers),
            "count");
  out.layer("runtime.groups_stolen", med(&CoreSample::groups_stolen),
            "count");
  out.layer("runtime.tasks_stolen", med(&CoreSample::tasks_stolen), "count");
  out.layer("runtime.contexts_pushed", med(&CoreSample::contexts_pushed),
            "count");
  out.layer("runtime.batch_dep_stalls", med(&CoreSample::batch_dep_stalls),
            "count");
  out.layer("runtime.worker_balance", med(&CoreSample::worker_balance),
            "ratio");
}

bool RoundClock::another(const std::vector<double>& round_s) const {
  const unsigned done = static_cast<unsigned>(round_s.size());
  if (done < min_) return true;
  const double typical = median(round_s);
  // Start the round if it should end within half a round of the budget:
  // runs then end nearer the budget on average, and with a steadier count.
  return elapsed() + typical / 2 <= budget_s_;
}

}  // namespace perfbench
