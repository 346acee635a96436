#include "oracle.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/bdd_manager.hpp"
#include "df/df_manager.hpp"
#include "fault/report.hpp"

namespace perfbench {

Oracle Oracle::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read oracle file " + path);
  Oracle o;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key)) continue;
    if (!(fields >> value) || (fields >> extra)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected `key value`");
    }
    o.values_[key] = value;
  }
  return o;
}

const std::string& Oracle::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("oracle value not recorded: " + key);
  }
  return it->second;
}

namespace {
constexpr unsigned build_width(bool tiny) { return tiny ? 6 : 10; }
constexpr unsigned fault_data_bits(bool tiny) { return tiny ? 8 : 24; }
}  // namespace

std::string build_circuit_name(bool tiny) {
  return "mult-" + std::to_string(build_width(tiny));
}

circuit::Circuit build_circuit(bool tiny) {
  return circuit::multiplier(build_width(tiny)).binarized();
}

std::string fault_circuit_name(bool tiny) {
  return "hdec-" + std::to_string(fault_data_bits(tiny));
}

circuit::Circuit fault_circuit(bool tiny) {
  return circuit::hamming_decoder(fault_data_bits(tiny)).binarized();
}

std::uint64_t df_checksum(const circuit::Circuit& bin,
                          const std::vector<unsigned>& order) {
  df::DfManager mgr(static_cast<unsigned>(bin.inputs().size()));
  const std::vector<df::DfBdd> outs =
      circuit::build_sequential<df::DfManager, df::DfBdd>(mgr, bin, order);
  return canonicity_checksum(mgr, outs);
}

std::string campaign_report(const circuit::Circuit& bin,
                            const std::vector<fault::NetFaultResult>& results) {
  fault::ReportInfo info;
  info.circuit = bin.name();
  info.inputs = bin.inputs().size();
  info.outputs = bin.outputs().size();
  info.gates = bin.num_gates();
  info.total_nets = fault::enumerate_fault_sites(bin).size();
  info.reported_nets = results.size();
  return fault::render_report(info, results);
}

std::string report_digest(const std::string& report) {
  static constexpr std::string_view kPrefix = "# sha256 ";
  const std::size_t at = report.rfind(kPrefix);
  if (at == std::string::npos) return {};
  std::string digest = report.substr(at + kPrefix.size());
  while (!digest.empty() && (digest.back() == '\n' || digest.back() == '\r')) {
    digest.pop_back();
  }
  return digest;
}

int record_oracle() {
  std::printf("# Correctness oracles of the repository benchmark.\n"
              "# Regenerate with: perfbench --record-oracle\n");
  for (const bool tiny : {false, true}) {
    const circuit::Circuit bin = build_circuit(tiny);
    const std::uint64_t sum = df_checksum(bin, circuit::order_dfs(bin));
    std::printf("build.%s.df_checksum %llu\n",
                build_circuit_name(tiny).c_str(),
                static_cast<unsigned long long>(sum));
  }
  for (const bool tiny : {false, true}) {
    const circuit::Circuit bin = fault_circuit(tiny);
    core::BddManager mgr(static_cast<unsigned>(bin.inputs().size()));
    fault::FaultCampaign campaign(mgr, bin, circuit::order_dfs(bin));
    const std::string report = campaign_report(bin, campaign.run());
    std::printf("fault.%s.sha256 %s\n", fault_circuit_name(tiny).c_str(),
                report_digest(report).c_str());
  }
  return 0;
}

}  // namespace perfbench
