// `service`: a BddService with 4 engine workers and 2 closed-loop client
// threads (run on an rt::WorkerPool), each owning one session. Each pass
// builds a seeded pick from a mix of small circuits level by level through
// submit(), one request per level, with a seeded variable rotation. About one
// read (read_root: eval or sat_count on the session's own roots) follows
// every three builds. Roots are released at the end of each pass, and the
// service checkpoints every kCheckpointEvery batches to a scratch path.
//
// Oracle: after the clients stop and the service is quiesced, every output
// root of each session's last pass must have the sat_count of a Seq rebuild
// of the same circuit under the same variable mapping.
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "runtime/worker_pool.hpp"
#include "service/bdd_service.hpp"
#include "spans.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Two clients keep one request queued while another executes. With four,
/// clients plus dispatcher outnumber the 4 CPUs the engine's workers need,
/// and the figures measure the host's scheduler more than the service.
constexpr unsigned kClients = 2;
constexpr std::uint64_t kCheckpointEvery = 256;
/// Timed Seq builds of the whole circuit mix (about 0.5 s in all), spread
/// over kSlices slices of the run.
constexpr unsigned kSeqReps = 192;
constexpr unsigned kSlices = 16;
constexpr double kReadsPerBuild = 1.0 / 3.0;

std::vector<circuit::Circuit> make_mix() {
  std::vector<circuit::Circuit> mix;
  mix.push_back(circuit::multiplier(4).binarized());
  mix.push_back(circuit::ripple_adder(8).binarized());
  mix.push_back(circuit::comparator(8).binarized());
  mix.push_back(circuit::parity_tree(12).binarized());
  mix.push_back(circuit::hamming_encoder(8).binarized());
  mix.push_back(circuit::priority_encoder(12).binarized());
  return mix;
}

/// One pass's identity: which circuit, under which variable mapping, and
/// where its outputs sit in the session's root registry.
struct PassRecord {
  std::size_t circuit = 0;
  std::vector<unsigned> input_vars;
  /// SIZE_MAX for an output that is an input variable (nothing built).
  std::vector<std::size_t> output_roots;
  bool complete = false;  ///< every request of the pass succeeded
};

/// Samples of one client in one phase.
struct ClientLog {
  std::vector<double> latency_us;  ///< every request; failures are +inf
  std::vector<double> build_us, read_us, queue_us, exec_us, pass_s;
  std::uint64_t requests = 0, ok = 0, failed = 0;
  std::uint64_t gate_ops = 0;  ///< operations of successful build requests
  std::vector<std::string> errors;
  PassRecord last;
};

struct Phase {
  bool traced = false;
  bool final_phase = false;
  Clock::time_point deadline;
  /// Successful requests per second of each slice.
  std::vector<double> slice_rates;
  std::vector<ClientLog> logs = std::vector<ClientLog>(kClients);
};

class Client {
 public:
  Client(service::BddService& svc, service::SessionId sid,
         const std::vector<circuit::Circuit>& mix, std::uint64_t seed,
         unsigned index)
      : svc_(svc), sid_(sid), mix_(mix),
        rng_(seed * 0x9e3779b97f4a7c15ULL + index + 1) {}

  /// Passes until the phase deadline (one pass per call in tiny mode). The
  /// last pass of the final slice of the final phase keeps its roots for
  /// the oracle.
  void run(const Phase& phase, ClientLog& log, bool tiny) {
    do {
      const Clock::time_point t0 = Clock::now();
      PassRecord pass = one_pass(log);
      log.pass_s.push_back(seconds_since(t0));
      const bool more = !tiny && Clock::now() < phase.deadline;
      if (!more && phase.final_phase && pass.complete) {
        log.last = std::move(pass);
        return;
      }
      Span span(Layer::kService, "service::release_session_roots");
      svc_.release_session_roots(sid_);
      registered_ = 0;
      if (!more) return;
    } while (true);
  }

 private:
  PassRecord one_pass(ClientLog& log) {
    Span pass_span(Layer::kBench, "bench: client pass");
    PassRecord pass;
    pass.circuit = rng_.next() % mix_.size();
    const circuit::Circuit& circ = mix_[pass.circuit];
    const unsigned vars = svc_.config().num_vars;
    const unsigned rotation = static_cast<unsigned>(rng_.next() % vars);
    std::vector<core::Bdd> value(circ.num_gates());
    for (std::size_t i = 0; i < circ.inputs().size(); ++i) {
      pass.input_vars.push_back(static_cast<unsigned>((i + rotation) % vars));
      value[circ.inputs()[i]] = svc_.var(pass.input_vars.back());
    }
    std::vector<std::size_t> root_of(circ.num_gates(), SIZE_MAX);

    const std::vector<std::uint32_t> levels = circ.levels();
    std::uint32_t max_level = 0;
    for (const std::uint32_t l : levels) max_level = std::max(max_level, l);
    for (std::uint32_t level = 0; level <= max_level; ++level) {
      std::vector<core::BatchOp> ops;
      std::vector<std::uint32_t> targets;
      for (std::uint32_t id = 0; id < circ.num_gates(); ++id) {
        if (levels[id] != level) continue;
        const circuit::Gate& g = circ.gate(id);
        switch (g.type) {
          case circuit::GateType::Input:
            break;
          case circuit::GateType::Const0:
            value[id] = svc_.zero();
            break;
          case circuit::GateType::Const1:
            value[id] = svc_.one();
            break;
          case circuit::GateType::Buf:
            value[id] = value[g.fanins[0]];
            root_of[id] = root_of[g.fanins[0]];
            break;
          case circuit::GateType::Not:
            // No unary request op: NAND with itself is the complement.
            ops.push_back({Op::Nand, value[g.fanins[0]], value[g.fanins[0]]});
            targets.push_back(id);
            break;
          default:
            ops.push_back({circuit::gate_op(g.type), value[g.fanins[0]],
                           value[g.fanins[1]]});
            targets.push_back(id);
            break;
        }
      }
      if (ops.empty()) continue;
      if (!build_request(std::move(ops), targets, value, root_of, log)) {
        return pass;  // incomplete: the failure is counted
      }
      read_debt_ += kReadsPerBuild;
      for (; read_debt_ >= 1.0; read_debt_ -= 1.0) read_request(log);
    }
    for (const std::uint32_t o : circ.outputs()) {
      pass.output_roots.push_back(root_of[o]);
    }
    pass.complete = true;
    return pass;
  }

  bool build_request(std::vector<core::BatchOp> ops,
                     const std::vector<std::uint32_t>& targets,
                     std::vector<core::Bdd>& value,
                     std::vector<std::size_t>& root_of, ClientLog& log) {
    Span span(Layer::kService, "service::submit");
    const Clock::time_point t0 = Clock::now();
    service::RequestResult res = svc_.submit(sid_, std::move(ops)).get();
    const double us = seconds_since(t0) * 1e6;
    span.add_child(Layer::kCore, "core: batch execution (dispatcher)",
                   static_cast<std::uint64_t>(res.exec_ns.count()));
    ++log.requests;
    log.queue_us.push_back(res.queue_ns.count() * 1e-3);
    log.exec_us.push_back(res.exec_ns.count() * 1e-3);
    if (res.status != service::RequestStatus::kOk) {
      ++log.failed;
      log.latency_us.push_back(std::numeric_limits<double>::infinity());
      log.build_us.push_back(std::numeric_limits<double>::infinity());
      if (log.errors.size() < 4) {
        log.errors.push_back(std::string("build request ") +
                             service::request_status_name(res.status) + " " +
                             res.error);
      }
      return false;
    }
    ++log.ok;
    log.gate_ops += targets.size();
    log.latency_us.push_back(us);
    log.build_us.push_back(us);
    for (std::size_t k = 0; k < targets.size(); ++k) {
      value[targets[k]] = std::move(res.roots[k]);
      root_of[targets[k]] = registered_ + k;
    }
    registered_ += targets.size();
    return true;
  }

  void read_request(ClientLog& log) {
    if (registered_ == 0) return;
    const std::string name = "s" + std::to_string(sid_) + "/r" +
                             std::to_string(rng_.next() % registered_);
    const bool eval = (reads_++ % 2) == 0;
    std::vector<bool> assignment;
    if (eval) {
      const std::uint64_t bits = rng_.next();
      for (unsigned v = 0; v < svc_.config().num_vars; ++v) {
        assignment.push_back(((bits >> (v % 64)) & 1) != 0);
      }
    }
    Span span(Layer::kService, "service::read_root");
    const Clock::time_point t0 = Clock::now();
    const service::BddService::ReadAnswer ans = svc_.read_root(
        name,
        eval ? service::BddService::ReadKind::kEval
             : service::BddService::ReadKind::kSatCount,
        assignment);
    const double us = seconds_since(t0) * 1e6;
    ++log.requests;
    if (!ans.ok) {
      ++log.failed;
      log.latency_us.push_back(std::numeric_limits<double>::infinity());
      log.read_us.push_back(std::numeric_limits<double>::infinity());
      if (log.errors.size() < 4) log.errors.push_back("read: " + ans.error);
      return;
    }
    ++log.ok;
    log.latency_us.push_back(us);
    log.read_us.push_back(us);
  }

  service::BddService& svc_;
  service::SessionId sid_;
  const std::vector<circuit::Circuit>& mix_;
  util::Xoshiro256 rng_;
  std::size_t registered_ = 0;  ///< roots registered in the current pass
  double read_debt_ = 0.0;
  std::uint64_t reads_ = 0;
};

std::vector<double> gather(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& l : logs) {
    all.insert(all.end(), (l.*field).begin(), (l.*field).end());
  }
  return all;
}

/// A service with its circuit mix and one open session per client.
struct Deployment {
  std::vector<circuit::Circuit> mix;
  std::unique_ptr<service::BddService> svc;
  std::vector<service::SessionId> sessions;
};

/// Generate the mix, construct the service and open the sessions, timed
/// into `sample`.
Deployment deploy(const std::string& ckpt_path, SetupSample& sample) {
  Deployment d;
  const Clock::time_point t0 = Clock::now();
  {
    Span span(Layer::kCircuit, "circuit: generate + binarize mix");
    d.mix = make_mix();
  }
  sample.gen_s = seconds_since(t0);
  unsigned vars = 0;
  for (const circuit::Circuit& c : d.mix) {
    vars = std::max(vars, static_cast<unsigned>(c.inputs().size()));
  }
  service::ServiceConfig cfg;
  cfg.num_vars = vars;
  cfg.engine.workers = kWorkers;
  cfg.queue_capacity = 64;
  cfg.checkpoint_every_batches = kCheckpointEvery;
  cfg.checkpoint_path = ckpt_path;
  {
    Span span(Layer::kService, "service::BddService::BddService");
    d.svc = std::make_unique<service::BddService>(cfg);
  }
  for (unsigned c = 0; c < kClients; ++c) {
    Span span(Layer::kService, "service::open_session");
    d.sessions.push_back(d.svc->open_session());
  }
  sample.total_s = seconds_since(t0);
  for (const service::SessionId sid : d.sessions) {
    if (sid == service::kInvalidSession) {
      throw std::runtime_error("service refused a session");
    }
  }
  return d;
}

}  // namespace

Outcome run_service(const Options& opt) {
  Outcome out;
  const std::string ckpt_path = std::string(kOutDir) + "/service-" +
                                std::to_string(::getpid()) + ".ckpt";

  // ---- Set-up: circuit mix, service construction, sessions ----
  const std::vector<SetupSample> setups = cold_setups([&] {
    SetupSample s;
    const Deployment d = deploy(ckpt_path, s);
    return s;
  });
  SetupSample unused;
  Deployment d = deploy(ckpt_path, unused);
  const std::vector<circuit::Circuit>& mix = d.mix;
  std::unique_ptr<service::BddService>& svc = d.svc;
  const std::vector<service::SessionId>& sessions = d.sessions;
  const unsigned vars = svc->config().num_vars;
  out.note("service: " + std::to_string(kClients) + " clients, " +
           std::to_string(mix.size()) + " circuits, " + std::to_string(vars) +
           " variables, checkpoint every " + std::to_string(kCheckpointEvery) +
           " batches");

  // Seq reference: the whole mix under the identity mapping on fresh Seq
  // managers, so the figure does not depend on the seeded picks.
  core::Config seq_config;
  seq_config.sequential_mode = true;
  std::vector<double> seq_s;
  const auto seq_builds = [&](unsigned reps) {
    for (unsigned rep = 0; rep < reps; ++rep) {
      core::BddManager seq(vars, seq_config);
      const Clock::time_point t0 = Clock::now();
      for (const circuit::Circuit& circ : mix) {
        std::vector<unsigned> identity(circ.inputs().size());
        for (unsigned i = 0; i < identity.size(); ++i) identity[i] = i;
        (void)circuit::build_parallel(seq, circ, identity);
      }
      seq_s.push_back(seconds_since(t0));
    }
  };

  std::vector<Client> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back(*svc, sessions[c], mix, opt.seed, c);
  }
  rt::WorkerPool pool(kClients);

  // Untraced phase (the whole budget without --trace 1); with tracing, a
  // traced phase follows on the same sessions. Each phase runs in slices;
  // before each slice of the untraced phase, with the clients stopped, a
  // share of the Seq reference builds runs, so a burst of host noise hits
  // a few of them instead of all.
  std::vector<Phase> phases(opt.trace ? 2 : 1);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    Phase& phase = phases[p];
    phase.traced = opt.trace && p == 1;
    const double budget =
        opt.seconds / static_cast<double>(phases.size() * kSlices);
    for (unsigned slice = 0; slice < kSlices; ++slice) {
      if (p == 0) seq_builds(kSeqReps / kSlices);
      phase.final_phase = p + 1 == phases.size() && slice + 1 == kSlices;
      if (phase.traced) SpanRecorder::instance().enable(1);
      std::uint64_t ok_before = 0;
      for (const ClientLog& l : phase.logs) ok_before += l.ok;
      const Clock::time_point t0 = Clock::now();
      phase.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget));
      {
        Span span(Layer::kRuntime, "runtime::WorkerPool::run");
        pool.run([&](unsigned worker) {
          clients[worker].run(phase, phase.logs[worker], opt.tiny);
        });
      }
      const double slice_s = seconds_since(t0);
      std::uint64_t ok_after = 0;
      for (const ClientLog& l : phase.logs) ok_after += l.ok;
      phase.slice_rates.push_back((ok_after - ok_before) / slice_s);
      if (phase.traced) SpanRecorder::instance().disable();
    }
  }

  // ---- Quiesce, then check the last pass of every session ----
  CoreSample core;
  double peak_mb = 0;
  svc->quiesce_and([&](core::BddManager& mgr) {
    core = core_sample(mgr);
    peak_mb = mgr.peak_bytes() / (1024.0 * 1024.0);
    guard_active_workers(mgr, 1, "service engine", out);
  });
  const service::ServiceMetrics m = svc->metrics();

  const Phase& last_phase = phases.back();
  for (unsigned c = 0; c < kClients; ++c) {
    const PassRecord& pass = last_phase.logs[c].last;
    out.attempted += 1;
    if (!pass.complete) {
      out.fail(1, "client " + std::to_string(c) + " ended without a pass");
      continue;
    }
    core::BddManager seq(vars, seq_config);
    std::vector<double> expected;
    for (const core::Bdd& o :
         circuit::build_parallel(seq, mix[pass.circuit], pass.input_vars)) {
      expected.push_back(seq.sat_count(o));
    }
    for (std::size_t k = 0; k < pass.output_roots.size(); ++k) {
      if (pass.output_roots[k] == SIZE_MAX) continue;
      const std::string name = "s" + std::to_string(sessions[c]) + "/r" +
                               std::to_string(pass.output_roots[k]);
      const service::BddService::ReadAnswer ans = svc->read_root(
          name, service::BddService::ReadKind::kSatCount);
      out.attempted += 1;
      if (!ans.ok || ans.sat != expected[k]) {
        out.fail(1, "session " + std::to_string(sessions[c]) + " output " +
                        std::to_string(k) + ": sat_count " +
                        std::to_string(ans.sat) + " != Seq rebuild " +
                        std::to_string(expected[k]) + " " + ans.error);
      }
    }
  }
  for (const service::SessionId sid : sessions) svc->close_session(sid);
  clients.clear();
  svc.reset();
  std::remove(ckpt_path.c_str());

  // ---- Metrics: end to end from the untraced phase ----
  const Phase& e2e = phases.front();
  std::uint64_t requests = 0;
  for (const Phase& phase : phases) {
    for (const ClientLog& l : phase.logs) {
      out.attempted += l.requests;
      if (l.failed > 0) {
        out.fail(l.failed, l.errors.empty() ? "request failed" : l.errors[0]);
      }
    }
  }
  for (const ClientLog& l : e2e.logs) {
    requests += l.requests;
  }
  const std::vector<double> latency = gather(e2e.logs, &ClientLog::latency_us);
  // The median slice rate: a burst of host noise slows a few slices, not
  // the figure.
  const double rate = median(e2e.slice_rates);
  report_setup(setups, out);
  out.e2e("build_s", median(gather(e2e.logs, &ClientLog::pass_s)), "s");
  out.e2e("seq_build_s", median(seq_s), "s");
  {
    char q[160];
    std::snprintf(q, sizeof q,
                  "service: Seq mix build p10 %.3f ms, p50 %.3f ms, "
                  "p90 %.3f ms",
                  quantile(seq_s, 0.1) * 1e3, quantile(seq_s, 0.5) * 1e3,
                  quantile(seq_s, 0.9) * 1e3);
    out.note(q);
  }
  out.e2e("peak_mb", peak_mb, "MiB");
  out.e2e("throughput_per_s", rate, "1/s");

  report_host(static_cast<unsigned>(core.active_workers), out);
  report_core({core}, out);
  // Per pass: build requests issued and gate operations they carried.
  std::uint64_t batches = 0, gate_ops = 0;
  for (const ClientLog& l : e2e.logs) {
    batches += l.build_us.size();
    gate_ops += l.gate_ops;
  }
  const double passes =
      static_cast<double>(gather(e2e.logs, &ClientLog::pass_s).size());
  out.layer("circuit.batches", batches / passes, "count");
  out.layer("circuit.gate_ops", gate_ops / passes, "count");
  out.layer("snapshot.bytes",
            m.snapshots_saved == 0
                ? 0.0
                : double(m.snapshot_bytes_written) / m.snapshots_saved,
            "bytes");
  out.layer("service.latency_p50_us", quantile(latency, 0.50), "us");
  out.layer("service.latency_p99_us", quantile(latency, 0.99), "us");
  out.layer("service.queue_wait_p50_us",
            quantile(gather(e2e.logs, &ClientLog::queue_us), 0.50), "us");
  out.layer("service.queue_wait_p99_us",
            quantile(gather(e2e.logs, &ClientLog::queue_us), 0.99), "us");
  out.layer("service.exec_p50_us",
            quantile(gather(e2e.logs, &ClientLog::exec_us), 0.50), "us");
  out.layer("service.exec_p99_us",
            quantile(gather(e2e.logs, &ClientLog::exec_us), 0.99), "us");
  out.layer("service.build_p99_us",
            quantile(gather(e2e.logs, &ClientLog::build_us), 0.99), "us");
  out.layer("service.read_p99_us",
            quantile(gather(e2e.logs, &ClientLog::read_us), 0.99), "us");
  out.layer("service.deferrals", static_cast<double>(m.deferrals), "count");
  out.layer("service.governor_gcs", static_cast<double>(m.governor_gcs),
            "count");
  out.layer("service.rejected_or_shed",
            static_cast<double>(m.rejected_queue_full + m.rejected_quota +
                                m.rejected_demand + m.shed),
            "count");
  out.layer("service.snapshots_saved", static_cast<double>(m.snapshots_saved),
            "count");
  out.layer("service.checkpoint_pause_p95_ms", m.snapshot_pause_ns_p95 * 1e-6,
            "ms");
  out.layer("service.checkpoint_pause_max_ms", m.snapshot_pause_ns_max * 1e-6,
            "ms");
  if (opt.trace) {
    out.layer("trace.overhead_ratio",
              rate / median(phases.back().slice_rates), "ratio");
  }

  char line[320];
  std::snprintf(line, sizeof line,
                "service: %llu requests, %.0f passes; requests_per_s %.1f, "
                "latency_p50_us %.2f, latency_p99_us %.2f, %llu checkpoints",
                static_cast<unsigned long long>(requests), passes, rate,
                quantile(latency, 0.50), quantile(latency, 0.99),
                static_cast<unsigned long long>(m.snapshots_saved));
  out.note(line);
  std::string slices = "service: requests_per_s by slice:";
  for (const double r : e2e.slice_rates) {
    slices += " " + std::to_string(static_cast<long long>(r));
  }
  out.note(slices);
  return out;
}

}  // namespace perfbench
