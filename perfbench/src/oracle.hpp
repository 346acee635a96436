// Correctness oracles recorded in perfbench/oracle.txt.
//
// The file holds `key value` lines (`#` starts a comment):
//   build.<circuit>.df_checksum  canonicity checksum the depth-first package
//                                (src/df) gives for the circuit's outputs
//   fault.<circuit>.sha256       SHA-256 footer of the campaign report a
//                                1-worker manager produces
// `perfbench --record-oracle` recomputes every value from scratch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "fault/fault.hpp"
#include "report.hpp"

namespace perfbench {

class Oracle {
 public:
  /// Throws std::runtime_error if the file is missing or malformed.
  static Oracle load(const std::string& path);
  /// Value of `key`; throws std::runtime_error if it is not recorded.
  [[nodiscard]] const std::string& get(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Circuits of the build and fault workloads (binarized) and their names,
/// by size class.
[[nodiscard]] std::string build_circuit_name(bool tiny);
[[nodiscard]] circuit::Circuit build_circuit(bool tiny);
[[nodiscard]] std::string fault_circuit_name(bool tiny);
[[nodiscard]] circuit::Circuit fault_circuit(bool tiny);

/// Canonicity checksum of the circuit's outputs built by the depth-first
/// package under `order`.
[[nodiscard]] std::uint64_t df_checksum(const circuit::Circuit& bin,
                                        const std::vector<unsigned>& order);

/// Canonical fault report of a campaign's results, and its footer digest.
[[nodiscard]] std::string campaign_report(
    const circuit::Circuit& bin,
    const std::vector<fault::NetFaultResult>& results);
[[nodiscard]] std::string report_digest(const std::string& report);

/// Print a fresh oracle file (depth-first checksums, 1-worker digests) to
/// stdout. Returns the process exit code.
int record_oracle();

}  // namespace perfbench
