// The benchmark's own span recorder (the program under test is not touched).
//
// A Span wraps one call into a layer's public function. Each record keeps
// its name, layer, start, end, parent and the id of the traced run it belongs
// to. Records live in per-thread buffers while the run is measured and are
// written out once it ends. Parents are tracked per thread, so a span opened
// inside another on the same thread becomes its child.
//
// Engine work that runs inside a circuit, fault or service call cannot be
// wrapped from outside the program; for those calls the workload adds a
// synthetic `core` child whose duration is the engine's own phase time for
// the call (see add_child). Synthetic children are clamped to the room left
// in the parent, so a parent's self time is never negative and self time plus
// children always equals the parent's duration.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,  ///< the benchmark's own code (rounds, clients)
  kCircuit,
  kCore,
  kRuntime,
  kFault,
  kSnapshot,
  kService,
};
inline constexpr std::size_t kNumLayers = 7;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kBench;
  bool synthetic = false;
  std::uint16_t thread = 0;
  std::uint32_t run_id = 0;
  std::uint64_t id = 0;      ///< unique across threads: thread << 40 | index
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Start recording spans of traced run `run_id` (spans opened while
  /// disabled are not recorded).
  void enable(std::uint32_t run_id);
  void disable();
  [[nodiscard]] bool enabled() const noexcept;

  /// Every record of every thread, in per-thread order. Call only when no
  /// span is open anywhere.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Self time per layer over `spans`, in seconds: a span's duration minus
  /// its children's durations, summed by layer.
  [[nodiscard]] static std::array<double, kNumLayers> self_seconds(
      const std::vector<SpanRecord>& spans);

  /// Write `spans` as tab-separated text (one header line, one span a line).
  static void write(const std::vector<SpanRecord>& spans,
                    const std::string& path);
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(Layer layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record a synthetic child of this span that covers `ns` nanoseconds of
  /// it (engine time measured by the engine's own counters). Clamped to the
  /// part of the span not yet covered by other children; placed at the end
  /// of the span when the span closes.
  void add_child(Layer layer, const char* name, std::uint64_t ns);

 private:
  struct Pending {
    Layer layer;
    const char* name;
    std::uint64_t ns;
  };
  bool armed_ = false;
  std::size_t index_ = 0;  ///< position in this thread's buffer
  std::vector<Pending> synthetic_;
};

}  // namespace perfbench
