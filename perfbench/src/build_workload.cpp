// `build`: all outputs of mult-10 (C6288-class multiplier, order_dfs) built
// with circuit::build_parallel, once on a Seq manager and once at 4 workers
// per round. The two sides of a round run back to back and alternate which
// goes first, so runtime.speedup_4w compares builds made under the same host
// conditions. The 4-worker outputs are then saved as an export-roots
// snapshot and restored into a fresh 4-worker manager, kSnapshotReps times.
//
// The circuit is fixed; the seed only decides which side of the first pair
// runs first.
#include <unistd.h>

#include <cstdio>
#include <string>

#include "circuit/builder.hpp"
#include "circuit/ordering.hpp"
#include "engine_calls.hpp"
#include "oracle.hpp"
#include "snapshot/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Save + restore cycles per round.
constexpr unsigned kSnapshotReps = 6;

}  // namespace

Outcome run_build(const Options& opt) {
  Outcome out;
  const std::string name = build_circuit_name(opt.tiny);
  const std::uint64_t expected = std::stoull(
      Oracle::load(opt.oracle_path).get("build." + name + ".df_checksum"));

  // ---- Set-up: generate + binarize, order_dfs, construct both managers ----
  const std::vector<SetupSample> setups = cold_setups([&] {
    SetupSample s;
    const Clock::time_point t0 = Clock::now();
    const circuit::Circuit c = build_circuit(opt.tiny);
    s.gen_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    const std::vector<unsigned> o = circuit::order_dfs(c);
    s.order_s = seconds_since(t1);
    const unsigned n = static_cast<unsigned>(c.inputs().size());
    auto seq = make_manager(n, true);
    auto par = make_manager(n, false);
    s.total_s = seconds_since(t0);
    return s;
  });
  circuit::Circuit bin;
  std::vector<unsigned> order;
  {
    Span span(Layer::kCircuit, "circuit::multiplier+binarized");
    bin = build_circuit(opt.tiny);
  }
  {
    Span span(Layer::kCircuit, "circuit::order_dfs");
    order = circuit::order_dfs(bin);
  }
  const unsigned vars = static_cast<unsigned>(bin.inputs().size());
  out.note("build: " + name + ", " + std::to_string(vars) + " inputs, " +
           std::to_string(bin.outputs().size()) +
           " outputs; the circuit ignores --seed, which only picks the side "
           "that goes first in each pair");

  const std::string snap_path = std::string(kOutDir) + "/build-" +
                                std::to_string(::getpid()) + ".snap";
  const auto check = [&](std::uint64_t sum, const char* what) {
    if (sum != expected) {
      out.fail(1, std::string(what) + " checksum " + std::to_string(sum) +
                      " != depth-first " + std::to_string(expected));
    }
  };

  std::vector<double> round_s, par_s, seq_s, peak_mb, speedup;
  std::vector<double> traced_par_s, untraced_par_s;
  std::vector<double> save_s, restore_s, mark_s, layout_s, write_s, read_s,
      rebuild_s, snap_bytes, adopted, snap_rate;
  std::vector<CoreSample> cores;
  circuit::BuildStats par_stats;
  unsigned active = 0;
  std::uint32_t run_id = 0;

  // Traced rounds alternate with untraced ones; at least one of each.
  RoundClock clock(opt.seconds, opt.trace ? 2 : 1);
  for (unsigned round = 0; clock.another(round_s); ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    if (traced) SpanRecorder::instance().enable(++run_id);
    const Clock::time_point round_start = Clock::now();
    Span round_span(Layer::kBench, "bench: build round");
    double seq_wall = 0, par_wall = 0;

    const auto run_seq = [&] {
      auto mgr = make_manager(vars, true);
      std::vector<core::Bdd> outs;
      circuit::BuildStats stats;
      seq_wall = timed_engine_call(*mgr, Layer::kCircuit,
                                   "circuit::build_parallel", [&] {
        outs = circuit::build_parallel(*mgr, bin, order, &stats);
      });
      out.attempted += 1;
      check(checksum_of(*mgr, outs), "Seq build");
      outs.clear();
      drop_manager(mgr);
    };

    const auto run_par = [&] {
      auto mgr = make_manager(vars, false);
      active = mgr->active_workers();
      std::vector<core::Bdd> outs;
      par_wall = timed_engine_call(*mgr, Layer::kCircuit,
                                   "circuit::build_parallel", [&] {
        outs = circuit::build_parallel(*mgr, bin, order, &par_stats);
      });
      out.attempted += 1;
      guard_active_workers(*mgr, 1, "4-worker build", out);
      cores.push_back(core_sample(*mgr));
      peak_mb.push_back(mgr->peak_bytes() / (1024.0 * 1024.0));
      check(checksum_of(*mgr, outs), "4-worker build");

      // Export-roots snapshot of the outputs, restored at 4 workers, several
      // times: one save + restore is ~25 ms, too short to time alone.
      std::vector<snapshot::NamedRoot> roots;
      for (std::size_t i = 0; i < outs.size(); ++i) {
        roots.push_back({"o" + std::to_string(i), outs[i]});
      }
      snapshot::SaveOptions so;
      so.mode = snapshot::SaveMode::kExportRoots;
      snapshot::RestoreStats first_restore;
      for (unsigned rep = 0; rep < kSnapshotReps; ++rep) {
        out.attempted += 2;
        snapshot::SaveStats ss;
        {
          Span span(Layer::kSnapshot, "snapshot::save");
          const Clock::time_point t0 = Clock::now();
          ss = snapshot::save(*mgr, snap_path, roots, so);
          save_s.push_back(seconds_since(t0));
        }
        snapshot::RestoreResult rr;
        {
          Span span(Layer::kSnapshot, "snapshot::restore");
          const Clock::time_point t0 = Clock::now();
          rr = snapshot::restore(snap_path, engine_config(false));
          restore_s.push_back(seconds_since(t0));
        }
        std::remove(snap_path.c_str());
        guard_active_workers(*rr.manager, 1, "4-worker restore", out);
        // The first restore of a round is checked node by node (~120 ms);
        // the others must materialize the same nodes and roots.
        if (rep == 0) {
          first_restore = rr.stats;
          std::vector<core::Bdd> restored;
          for (snapshot::NamedRoot& r : rr.roots) restored.push_back(r.bdd);
          check(checksum_of(*rr.manager, restored), "restored roots");
        } else if (rr.stats.nodes != first_restore.nodes ||
                   rr.stats.roots != first_restore.roots) {
          out.fail(1, "restore " + std::to_string(rep) + " materialized " +
                          std::to_string(rr.stats.nodes) + " nodes, " +
                          std::to_string(rr.stats.roots) +
                          " roots; the first restore of the round " +
                          std::to_string(first_restore.nodes) + ", " +
                          std::to_string(first_restore.roots));
        }
        rr.roots.clear();
        drop_manager(rr.manager);

        mark_s.push_back(ss.mark_ns * 1e-9);
        layout_s.push_back(ss.layout_ns * 1e-9);
        write_s.push_back(ss.write_ns * 1e-9);
        read_s.push_back(rr.stats.read_ns * 1e-9);
        rebuild_s.push_back(rr.stats.build_ns * 1e-9);
        snap_bytes.push_back(static_cast<double>(ss.bytes));
        adopted.push_back(rr.stats.levels == 0
                              ? 0.0
                              : double(rr.stats.levels_adopted) /
                                    rr.stats.levels);
        // Snapshot bytes written plus read back per second of save + restore.
        const double rate = 2.0 * static_cast<double>(ss.bytes) /
                            (save_s.back() + restore_s.back());
        if (!traced) snap_rate.push_back(rate);
      }
      roots.clear();
      outs.clear();
      drop_manager(mgr);
    };

    if ((opt.seed + round) % 2 == 0) {
      run_seq();
      run_par();
    } else {
      run_par();
      run_seq();
    }
    seq_s.push_back(seq_wall);
    par_s.push_back(par_wall);
    (traced ? traced_par_s : untraced_par_s).push_back(par_wall);
    speedup.push_back(seq_wall / par_wall);
    if (traced) SpanRecorder::instance().disable();
    round_s.push_back(seconds_since(round_start));
  }

  // End-to-end numbers come from untraced rounds only.
  std::vector<double> e2e_par, e2e_seq, e2e_peak;
  for (std::size_t r = 0; r < par_s.size(); ++r) {
    if (opt.trace && r % 2 == 1) continue;
    e2e_par.push_back(par_s[r]);
    e2e_seq.push_back(seq_s[r]);
    e2e_peak.push_back(peak_mb[r]);
  }
  const double build_med = median(e2e_par);
  report_setup(setups, out);
  out.e2e("build_s", build_med, "s");
  out.e2e("seq_build_s", median(e2e_seq), "s");
  out.e2e("peak_mb", median(e2e_peak), "MiB");
  out.e2e("throughput_per_s", median(snap_rate), "1/s");

  report_host(active, out);
  report_core(cores, out);
  out.layer("runtime.speedup_4w", median(speedup), "ratio");
  out.layer("circuit.batches", static_cast<double>(par_stats.batches), "count");
  out.layer("circuit.gate_ops", static_cast<double>(par_stats.gate_ops),
            "count");
  out.layer("snapshot.save_s", median(save_s), "s");
  out.layer("snapshot.restore_s", median(restore_s), "s");
  out.layer("snapshot.mark_s", median(mark_s), "s");
  out.layer("snapshot.layout_s", median(layout_s), "s");
  out.layer("snapshot.write_s", median(write_s), "s");
  out.layer("snapshot.read_s", median(read_s), "s");
  out.layer("snapshot.rebuild_s", median(rebuild_s), "s");
  out.layer("snapshot.bytes", median(snap_bytes), "bytes");
  out.layer("snapshot.adopted_ratio", median(adopted), "ratio");
  if (opt.trace) {
    out.layer("trace.overhead_ratio",
              median(traced_par_s) / median(untraced_par_s), "ratio");
  }

  char line[256];
  std::snprintf(line, sizeof line,
                "build: %zu rounds; build_s %.4f s, seq_build_s %.4f s, "
                "save_s %.4f s, restore_s %.4f s, snapshot %.1f MB/s, "
                "speedup %.3fx",
                par_s.size(), build_med, median(e2e_seq), median(save_s),
                median(restore_s), median(snap_rate) * 1e-6,
                median(speedup));
  out.note(line);
  for (std::size_t r = 0; r < par_s.size(); ++r) {
    std::snprintf(line, sizeof line,
                  "build: round %zu%s: 4-worker %.4f s, Seq %.4f s, "
                  "round %.3f s",
                  r, opt.trace && r % 2 == 1 ? " (traced)" : "", par_s[r],
                  seq_s[r], round_s[r]);
    out.note(line);
  }
  return out;
}

}  // namespace perfbench
