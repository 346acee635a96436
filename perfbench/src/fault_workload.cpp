// `fault`: a stuck-at campaign over every net of hdec-24 (Hamming SEC
// decoder, the C499/C1355 class) — FaultCampaign::build_golden then run —
// once at 4 workers and once on a Seq manager per round. The two sides of a
// round run back to back and alternate which goes first. Both campaign
// reports' SHA-256 footers must equal the digest recorded from a 1-worker
// run, and both golden output sets must have equal canonicity checksums.
//
// The circuit is fixed; the seed only decides which side of the first pair
// runs first.
#include <cstdio>
#include <string>

#include "circuit/ordering.hpp"
#include "engine_calls.hpp"
#include "fault/fault.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// One campaign on a fresh manager and what the round needs from it.
struct CampaignRun {
  double golden_s = 0, run_s = 0;
  fault::CampaignStats stats;
  std::string digest;
  std::uint64_t golden_checksum = 0;
  double peak_mb = 0;
  unsigned active_workers = 0;
  CoreSample core;
  std::vector<double> wave_ms;
};

CampaignRun run_campaign(const circuit::Circuit& bin,
                         const std::vector<unsigned>& order, bool seq,
                         Outcome& out) {
  CampaignRun r;
  auto mgr = make_manager(static_cast<unsigned>(bin.inputs().size()), seq);
  r.active_workers = mgr->active_workers();
  std::vector<fault::NetFaultResult> results;
  {
    fault::FaultCampaign campaign(*mgr, bin, order);
    r.golden_s =
        timed_engine_call(*mgr, Layer::kFault,
                          "fault::FaultCampaign::build_golden",
                          [&] { campaign.build_golden(); });
    r.golden_checksum = checksum_of(*mgr, campaign.golden_outputs());
    fault::FaultSimOptions fo;
    Clock::time_point wave_start;
    fo.wave_callback = [&](std::size_t) {
      const Clock::time_point now = Clock::now();
      r.wave_ms.push_back(
          std::chrono::duration<double, std::milli>(now - wave_start).count());
      wave_start = now;
    };
    r.run_s = timed_engine_call(*mgr, Layer::kFault,
                                "fault::FaultCampaign::run", [&] {
      wave_start = Clock::now();
      results = campaign.run(fo);
    });
    r.stats = campaign.stats();
  }
  if (!seq) {
    guard_active_workers(*mgr, r.stats.faults_evaluated, "4-worker campaign",
                         out);
  }
  r.core = core_sample(*mgr);
  r.peak_mb = mgr->peak_bytes() / (1024.0 * 1024.0);
  drop_manager(mgr);
  Span span(Layer::kFault, "fault::render_report");
  r.digest = report_digest(campaign_report(bin, results));
  return r;
}

}  // namespace

Outcome run_fault(const Options& opt) {
  Outcome out;
  const std::string name = fault_circuit_name(opt.tiny);
  const std::string expected =
      Oracle::load(opt.oracle_path).get("fault." + name + ".sha256");

  // ---- Set-up: generate + binarize, order_dfs, construct the manager ----
  const std::vector<SetupSample> setups = cold_setups([&] {
    SetupSample s;
    const Clock::time_point t0 = Clock::now();
    const circuit::Circuit c = fault_circuit(opt.tiny);
    s.gen_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    const std::vector<unsigned> o = circuit::order_dfs(c);
    s.order_s = seconds_since(t1);
    auto mgr = make_manager(static_cast<unsigned>(c.inputs().size()), false);
    s.total_s = seconds_since(t0);
    return s;
  });
  circuit::Circuit bin;
  std::vector<unsigned> order;
  {
    Span span(Layer::kCircuit, "circuit::hamming_decoder+binarized");
    bin = fault_circuit(opt.tiny);
  }
  {
    Span span(Layer::kCircuit, "circuit::order_dfs");
    order = circuit::order_dfs(bin);
  }
  std::uint64_t gate_ops = 0;
  for (std::uint32_t id = 0; id < bin.num_gates(); ++id) {
    switch (bin.gate(id).type) {
      case circuit::GateType::Input:
      case circuit::GateType::Const0:
      case circuit::GateType::Const1:
      case circuit::GateType::Buf:
        break;
      default:
        ++gate_ops;
    }
  }
  out.note("fault: " + name + ", " + std::to_string(bin.inputs().size()) +
           " inputs, " +
           std::to_string(fault::enumerate_fault_sites(bin).size()) +
           " nets; the circuit ignores --seed, which only picks the side "
           "that goes first in each pair");

  std::vector<double> round_s, par_s, seq_s, speedup;
  std::vector<double> traced_par_s, untraced_par_s;
  std::vector<double> golden_s, run_s, faults_per_s, peak_mb, wave_ms,
      utilization, waves, batches, cone_ops, miter_ops, golden_batches;
  std::vector<CoreSample> cores;
  unsigned active = 0;
  std::uint32_t run_id = 0;

  const auto check = [&](const CampaignRun& r, const char* side) {
    out.attempted += r.stats.faults_evaluated;
    if (r.digest != expected) {
      out.fail(r.stats.faults_evaluated,
               std::string(side) + " campaign report sha256 " + r.digest +
                   " != recorded 1-worker digest " + expected);
    }
    if (r.stats.cancelled || r.stats.nets_resolved != r.stats.nets) {
      out.fail(1, std::string(side) + " campaign did not resolve every net");
    }
  };

  RoundClock clock(opt.seconds, opt.trace ? 2 : 1);
  for (unsigned round = 0; clock.another(round_s); ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    if (traced) SpanRecorder::instance().enable(++run_id);
    const Clock::time_point round_start = Clock::now();
    Span round_span(Layer::kBench, "bench: fault round");
    CampaignRun seq, par;
    if ((opt.seed + round) % 2 == 0) {
      seq = run_campaign(bin, order, true, out);
      par = run_campaign(bin, order, false, out);
    } else {
      par = run_campaign(bin, order, false, out);
      seq = run_campaign(bin, order, true, out);
    }
    check(seq, "Seq");
    check(par, "4-worker");
    active = par.active_workers;
    out.attempted += 1;
    if (seq.golden_checksum != par.golden_checksum) {
      out.fail(1, "Seq golden checksum " +
                      std::to_string(seq.golden_checksum) +
                      " != 4-worker golden checksum " +
                      std::to_string(par.golden_checksum));
    }

    const double par_wall = par.golden_s + par.run_s;
    const double seq_wall = seq.golden_s + seq.run_s;
    par_s.push_back(par_wall);
    seq_s.push_back(seq_wall);
    (traced ? traced_par_s : untraced_par_s).push_back(par_wall);
    speedup.push_back(seq_wall / par_wall);
    faults_per_s.push_back(par.stats.faults_evaluated / par_wall);
    golden_s.push_back(par.golden_s);
    run_s.push_back(par.run_s);
    peak_mb.push_back(par.peak_mb);
    cores.push_back(par.core);
    wave_ms.insert(wave_ms.end(), par.wave_ms.begin(), par.wave_ms.end());
    utilization.push_back(mean(par.stats.wave_utilization));
    waves.push_back(static_cast<double>(par.stats.waves));
    batches.push_back(static_cast<double>(par.stats.batches));
    cone_ops.push_back(static_cast<double>(par.stats.cone_ops));
    miter_ops.push_back(static_cast<double>(par.stats.miter_ops));
    golden_batches.push_back(static_cast<double>(par.stats.golden_batches));
    if (traced) SpanRecorder::instance().disable();
    round_s.push_back(seconds_since(round_start));
  }

  // End-to-end numbers come from untraced rounds only.
  std::vector<double> e2e_par, e2e_seq, e2e_peak, e2e_rate;
  for (std::size_t r = 0; r < par_s.size(); ++r) {
    if (opt.trace && r % 2 == 1) continue;
    e2e_par.push_back(par_s[r]);
    e2e_seq.push_back(seq_s[r]);
    e2e_peak.push_back(peak_mb[r]);
    e2e_rate.push_back(faults_per_s[r]);
  }
  report_setup(setups, out);
  out.e2e("build_s", median(e2e_par), "s");
  out.e2e("seq_build_s", median(e2e_seq), "s");
  out.e2e("peak_mb", median(e2e_peak), "MiB");
  out.e2e("throughput_per_s", median(e2e_rate), "1/s");

  report_host(active, out);
  report_core(cores, out);
  out.layer("runtime.speedup_4w", median(speedup), "ratio");
  out.layer("circuit.batches", median(golden_batches), "count");
  out.layer("circuit.gate_ops", static_cast<double>(gate_ops), "count");
  out.layer("fault.golden_s", median(golden_s), "s");
  out.layer("fault.run_s", median(run_s), "s");
  out.layer("fault.waves", median(waves), "count");
  out.layer("fault.batches", median(batches), "count");
  out.layer("fault.cone_ops", median(cone_ops), "count");
  out.layer("fault.miter_ops", median(miter_ops), "count");
  out.layer("fault.utilization_mean", median(utilization), "ratio");
  out.layer("fault.faults_per_s", median(faults_per_s), "1/s");
  out.layer("fault.wave_p99_ms", quantile(wave_ms, 0.99), "ms");
  if (opt.trace) {
    out.layer("trace.overhead_ratio",
              median(traced_par_s) / median(untraced_par_s), "ratio");
  }

  char line[256];
  std::snprintf(line, sizeof line,
                "fault: %zu rounds; faults_per_s %.2f, campaign %.4f s "
                "(Seq %.4f s, speedup %.3fx), golden %.4f s, run %.4f s, "
                "peak %.1f MiB, %zu waves timed",
                par_s.size(), median(e2e_rate), median(e2e_par),
                median(e2e_seq), median(speedup), median(golden_s),
                median(run_s), median(e2e_peak), wave_ms.size());
  out.note(line);
  return out;
}

}  // namespace perfbench
