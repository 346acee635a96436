// Calls into the engine that the build and fault workloads share, each under
// a span of the layer it enters.
#pragma once

#include <memory>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// A Seq manager (single worker, sequential mode) or a kWorkers manager.
[[nodiscard]] inline core::Config engine_config(bool seq) {
  core::Config c;
  c.workers = seq ? 1 : kWorkers;
  c.sequential_mode = seq;
  return c;
}

[[nodiscard]] inline std::unique_ptr<core::BddManager> make_manager(
    unsigned vars, bool seq) {
  Span span(Layer::kCore, "core::BddManager::BddManager");
  return std::make_unique<core::BddManager>(vars, engine_config(seq));
}

inline void drop_manager(std::unique_ptr<core::BddManager>& mgr) {
  Span span(Layer::kCore, "core::BddManager::~BddManager");
  mgr.reset();
}

template <typename Handles>
[[nodiscard]] std::uint64_t checksum_of(core::BddManager& mgr,
                                        const Handles& outs) {
  Span span(Layer::kCore, "core::BddManager::node_count");
  return canonicity_checksum(mgr, outs);
}

/// Engine phase time (expansion + reduction + GC) of worker 0, which is the
/// thread that calls into the manager.
[[nodiscard]] inline std::uint64_t caller_engine_ns(
    const core::BddManager& mgr) {
  const core::ManagerStats stats = mgr.stats();
  const core::WorkerStats& w = stats.per_worker.at(0);
  return w.expansion_ns + w.reduction_ns + w.gc_ns;
}

/// Run `call` (which issues engine batches on `mgr`) under a span of `layer`
/// and return its wall time. When traced, the span gets a synthetic core
/// child covering the caller's engine phase time during the call.
template <typename Call>
double timed_engine_call(core::BddManager& mgr, Layer layer, const char* name,
                         Call call) {
  Span span(layer, name);
  const bool traced = SpanRecorder::instance().enabled();
  const std::uint64_t before = traced ? caller_engine_ns(mgr) : 0;
  const Clock::time_point t0 = Clock::now();
  call();
  const double wall = seconds_since(t0);
  if (traced) {
    span.add_child(Layer::kCore, "core: engine phases (worker 0)",
                   caller_engine_ns(mgr) - before);
  }
  return wall;
}

}  // namespace perfbench
