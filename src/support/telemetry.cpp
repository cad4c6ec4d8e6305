#include "support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "support/assert.hpp"
#include "support/json_writer.hpp"

namespace conflux::telemetry {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TelemetryBoard::reset(int nranks) {
  CONFLUX_EXPECTS(nranks >= 0);
  slots_.clear();
  slots_.resize(static_cast<std::size_t>(nranks));
  // Pre-reserve so the first steps of a run do not pay vector growth on
  // the hot path (growth later is still allowed; enabled mode only
  // promises "cheap", disabled mode promises "free").
  for (Slot& s : slots_) {
    s.spans.reserve(256);
    s.waits.reserve(256);
    s.open.reserve(8);
  }
  epoch_ = now_ns();
  vclock_ = nullptr;
}

std::uint64_t TelemetryBoard::stamp_ns(int rank) const {
  if (vclock_ != nullptr)
    return static_cast<std::uint64_t>(vclock_[static_cast<std::size_t>(rank)] *
                                      1e9);
  return now_ns() - epoch_;
}

TelemetryBoard::Slot& TelemetryBoard::slot(int rank) {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks());
  return slots_[static_cast<std::size_t>(rank)];
}

const TelemetryBoard::Slot& TelemetryBoard::slot(int rank) const {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks());
  return slots_[static_cast<std::size_t>(rank)];
}

void TelemetryBoard::open_span(int rank, const char* name, int step) {
  Slot& s = slot(rank);
  Span span;
  span.name = name;
  span.step = step;
  span.depth = static_cast<int>(s.open.size());
  span.parent = s.open.empty() ? -1 : s.open.back();
  span.begin_ns = stamp_ns(rank);
  s.open.push_back(static_cast<int>(s.spans.size()));
  s.spans.push_back(span);
}

void TelemetryBoard::close_span(int rank) {
  Slot& s = slot(rank);
  CONFLUX_EXPECTS(!s.open.empty());
  Span& span = s.spans[static_cast<std::size_t>(s.open.back())];
  span.end_ns = stamp_ns(rank);
  s.open.pop_back();
}

void TelemetryBoard::add_bytes(int rank, std::uint64_t bytes) {
  Slot& s = slot(rank);
  if (!s.open.empty())
    s.spans[static_cast<std::size_t>(s.open.back())].bytes += bytes;
}

void TelemetryBoard::record_wait(int rank, int src, std::uint64_t tag,
                                 std::uint64_t begin_abs_ns,
                                 std::uint64_t end_abs_ns,
                                 std::uint64_t bytes) {
  Slot& s = slot(rank);
  WaitSample w;
  w.src = src;
  w.tag = tag;
  if (vclock_ != nullptr) {
    // Virtual time: the fabric passes epoch-relative virtual ns directly.
    w.begin_ns = begin_abs_ns;
  } else {
    w.begin_ns = begin_abs_ns >= epoch_ ? begin_abs_ns - epoch_ : 0;
  }
  w.ns = end_abs_ns >= begin_abs_ns ? end_abs_ns - begin_abs_ns : 0;
  w.bytes = bytes;
  s.waits.push_back(w);
  if (!s.open.empty())
    s.spans[static_cast<std::size_t>(s.open.back())].wait_ns += w.ns;
}

void TelemetryBoard::set_queue_hwm(int rank, int hwm) {
  slot(rank).queue_hwm = std::max(slot(rank).queue_hwm, hwm);
}

const std::vector<Span>& TelemetryBoard::rank_spans(int r) const {
  return slot(r).spans;
}

const std::vector<WaitSample>& TelemetryBoard::rank_waits(int r) const {
  return slot(r).waits;
}

int TelemetryBoard::queue_hwm(int r) const { return slot(r).queue_hwm; }

bool TelemetryBoard::balanced() const {
  for (const Slot& s : slots_) {
    if (!s.open.empty()) return false;
    for (const Span& span : s.spans)
      if (span.end_ns == 0 && span.begin_ns != 0) return false;
  }
  return true;
}

double TelemetryBoard::wall_seconds() const {
  std::uint64_t last = 0;
  for (const Slot& s : slots_) {
    for (const Span& span : s.spans)
      last = std::max(last, std::max(span.begin_ns, span.end_ns));
    for (const WaitSample& w : s.waits)
      last = std::max(last, w.begin_ns + w.ns);
  }
  return static_cast<double>(last) / 1e9;
}

double TelemetryBoard::busy_seconds(int r) const {
  const Slot& s = slot(r);
  std::uint64_t covered = 0;
  std::uint64_t waited = 0;
  for (const Span& span : s.spans) {
    if (span.depth == 0 && span.end_ns >= span.begin_ns)
      covered += span.end_ns - span.begin_ns;
    waited += span.wait_ns;
  }
  return covered >= waited ? static_cast<double>(covered - waited) / 1e9 : 0.0;
}

double TelemetryBoard::blocked_seconds(int r) const {
  const Slot& s = slot(r);
  std::uint64_t waited = 0;
  for (const WaitSample& w : s.waits) waited += w.ns;
  return static_cast<double>(waited) / 1e9;
}

std::map<std::string, PhaseTotal> TelemetryBoard::phase_totals() const {
  std::map<std::string, PhaseTotal> totals;
  std::vector<std::uint64_t> child_ns;
  for (const Slot& s : slots_) {
    // Sum each span's children into its slot so self time = dur - children.
    child_ns.assign(s.spans.size(), 0);
    for (const Span& span : s.spans)
      if (span.parent >= 0 && span.end_ns >= span.begin_ns)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.begin_ns;
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const Span& span = s.spans[i];
      if (span.end_ns < span.begin_ns) continue;
      const std::uint64_t dur = span.end_ns - span.begin_ns;
      const std::uint64_t self = dur >= child_ns[i] ? dur - child_ns[i] : 0;
      PhaseTotal& t = totals[span.name];
      t.seconds += static_cast<double>(self) / 1e9;
      t.wait_seconds += static_cast<double>(span.wait_ns) / 1e9;
      t.bytes += span.bytes;
      t.count += 1;
    }
  }
  return totals;
}

// --- Chrome-trace export ----------------------------------------------------

struct ChromeTraceWriter::Impl {
  explicit Impl(std::ostream& os) : json(os) {}
  support::JsonWriter json;
  bool finished = false;
};

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : impl_(new Impl(os)) {
  impl_->json.begin_object();
  impl_->json.key("traceEvents");
  impl_->json.begin_array();
}

ChromeTraceWriter::~ChromeTraceWriter() {
  finish();
  delete impl_;
}

void ChromeTraceWriter::finish() {
  if (impl_->finished) return;
  impl_->finished = true;
  impl_->json.end_array();
  impl_->json.kv("displayTimeUnit", "ms");
  impl_->json.end_object();
}

void ChromeTraceWriter::add_process(int pid, const std::string& name,
                                    const TelemetryBoard& board) {
  CONFLUX_EXPECTS(!impl_->finished);
  support::JsonWriter& j = impl_->json;
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };

  j.begin_object();
  j.kv("name", "process_name");
  j.kv("ph", "M");
  j.kv("pid", pid);
  j.key("args");
  j.begin_object();
  j.kv("name", name);
  j.end_object();
  j.end_object();

  for (int r = 0; r < board.nranks(); ++r) {
    j.begin_object();
    j.kv("name", "thread_name");
    j.kv("ph", "M");
    j.kv("pid", pid);
    j.kv("tid", r);
    j.key("args");
    j.begin_object();
    j.kv("name", "rank " + std::to_string(r));
    j.end_object();
    j.end_object();

    for (const Span& span : board.rank_spans(r)) {
      if (span.end_ns < span.begin_ns) continue;
      j.begin_object();
      j.kv("name", span.name);
      j.kv("cat", "phase");
      j.kv("ph", "X");
      j.kv("ts", us(span.begin_ns));
      j.kv("dur", us(span.end_ns - span.begin_ns));
      j.kv("pid", pid);
      j.kv("tid", r);
      j.key("args");
      j.begin_object();
      if (span.step >= 0) j.kv("step", span.step);
      j.kv("bytes", span.bytes);
      j.kv("wait_us", us(span.wait_ns));
      j.end_object();
      j.end_object();
    }
    for (const WaitSample& w : board.rank_waits(r)) {
      // Sub-microsecond parks are noise at trace scale; skip them to keep
      // the file proportionate (they remain in blocked_seconds()).
      if (w.ns < 1000) continue;
      j.begin_object();
      j.kv("name", "wait");
      j.kv("cat", "wait");
      j.kv("ph", "X");
      j.kv("ts", us(w.begin_ns));
      j.kv("dur", us(w.ns));
      j.kv("pid", pid);
      j.kv("tid", r);
      j.key("args");
      j.begin_object();
      j.kv("src", w.src);
      j.kv("tag", w.tag);
      j.kv("bytes", w.bytes);
      j.end_object();
      j.end_object();
    }
  }
}

}  // namespace conflux::telemetry
