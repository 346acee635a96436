#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint16_t thread = 0;
  std::vector<SpanRecord> records;
  /// Nanoseconds of each record already covered by (closed) children.
  std::vector<std::uint64_t> covered;
  std::vector<std::size_t> open;  ///< stack of open record indices
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_run_id{0};
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
thread_local ThreadBuffer* t_buffer = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint16_t>(g_buffers.size());
  }
  return *t_buffer;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCircuit: return "circuit";
    case Layer::kCore: return "core";
    case Layer::kRuntime: return "runtime";
    case Layer::kFault: return "fault";
    case Layer::kSnapshot: return "snapshot";
    case Layer::kService: return "service";
  }
  return "?";
}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::enable(std::uint32_t run_id) {
  g_run_id.store(run_id, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void SpanRecorder::disable() {
  g_enabled.store(false, std::memory_order_release);
}

bool SpanRecorder::enabled() const noexcept {
  return g_enabled.load(std::memory_order_acquire);
}

std::vector<SpanRecord> SpanRecorder::collect() const {
  std::lock_guard lock(g_mutex);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->records.begin(), b->records.end());
  }
  return all;
}

std::array<double, kNumLayers> SpanRecorder::self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::uint64_t> children(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) {
      throw std::logic_error("span with an unknown parent");
    }
    children[it->second] += s.end_ns - s.start_ns;
  }
  std::array<double, kNumLayers> self{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    const std::uint64_t own = dur >= children[i] ? dur - children[i] : 0;
    self[static_cast<std::size_t>(spans[i].layer)] += own * 1e-9;
  }
  return self;
}

void SpanRecorder::write(const std::vector<SpanRecord>& spans,
                         const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "id\tparent\trun\tthread\tlayer\tsynthetic\tname\tstart_ns\tend_ns\n";
  for (const SpanRecord& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.run_id << '\t' << s.thread
        << '\t' << layer_name(s.layer) << '\t' << (s.synthetic ? 1 : 0)
        << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

Span::Span(Layer layer, const char* name) {
  if (!g_enabled.load(std::memory_order_acquire)) return;
  ThreadBuffer& b = buffer();
  armed_ = true;
  index_ = b.records.size();
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  r.thread = b.thread;
  r.run_id = g_run_id.load(std::memory_order_relaxed);
  r.id = (std::uint64_t{b.thread} << 40) | (index_ + 1);
  r.parent = b.open.empty() ? 0 : b.records[b.open.back()].id;
  b.records.push_back(r);
  b.covered.push_back(0);
  b.open.push_back(index_);
  b.records[index_].start_ns = now_ns();
}

void Span::add_child(Layer layer, const char* name, std::uint64_t ns) {
  if (armed_) synthetic_.push_back({layer, name, ns});
}

Span::~Span() {
  if (!armed_) return;
  const std::uint64_t end = now_ns();
  ThreadBuffer& b = *t_buffer;
  b.records[index_].end_ns = end;
  b.open.pop_back();
  const std::uint64_t dur = end - b.records[index_].start_ns;
  const std::uint64_t room = dur - std::min(dur, b.covered[index_]);
  // Lay the synthetic children end to end, finishing where the span ends.
  std::uint64_t total = 0;
  for (Pending& p : synthetic_) {
    p.ns = std::min(p.ns, room - total);
    total += p.ns;
  }
  std::uint64_t at = end - total;
  const SpanRecord parent = b.records[index_];
  for (const Pending& p : synthetic_) {
    SpanRecord c;
    c.name = p.name;
    c.layer = p.layer;
    c.synthetic = true;
    c.thread = parent.thread;
    c.run_id = parent.run_id;
    c.id = (std::uint64_t{b.thread} << 40) | (b.records.size() + 1);
    c.parent = parent.id;
    c.start_ns = at;
    c.end_ns = at + p.ns;
    at += p.ns;
    b.records.push_back(c);
    b.covered.push_back(0);
  }
  if (!b.open.empty()) b.covered[b.open.back()] += dur;
}

}  // namespace perfbench
