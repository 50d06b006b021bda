#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the benchmark's own calls into the library's
// public functions (nothing inside src/ is instrumented). Each span holds
// its name ("<layer>.<function>"), start and end, the span that caused it
// and the workload item it belongs to; the list is written once, at the
// end of the run, as Chrome trace-event JSON (Perfetto opens it).
//
// With tracing off every call returns immediately and nothing is stored,
// which is how the untraced (end-to-end) measurements run.

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// JSON string literal for `s` (quotes included).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// Seconds since the tracer was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Open a span under the innermost open one. `item` < 0 inherits the
  /// parent's item. `args` is a comma-separated list of JSON members
  /// ("\"tech\":\"two_level\"") attached to the event. Returns the span id,
  /// or -1 when tracing is off.
  int open(const std::string& name, long item = -1, const std::string& args = "") {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (item < 0 && parent >= 0) item = spans_[parent].item;
    spans_.push_back({name, now(), -1.0, parent, item, args});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Record an already finished span under the innermost open one (sweep
  /// jobs, whose interval is known only when the job retires). Safe to
  /// call from another thread while the opener waits.
  void add(const std::string& name, double start, double end, long item,
           const std::string& args) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, start, end, parent, item, args});
  }

  /// Write every span as Chrome trace-event JSON ("X" events, times in
  /// microseconds). Overlapping sibling spans (concurrent sweep jobs) are
  /// spread over separate tracks so viewers can draw them. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<double> track_end;  // end time of the last span per track
    std::vector<int> track_of(spans_.size(), 0);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int track = 0;
      if (s.parent >= 0 && overlaps_sibling(i)) {
        track = 1;
        while (track < static_cast<int>(track_end.size()) &&
               track_end[track] > s.start)
          ++track;
        if (track >= static_cast<int>(track_end.size())) track_end.resize(track + 1);
        track_end[track] = s.end;
      } else if (s.parent >= 0) {
        track = track_of[s.parent];
      }
      track_of[i] = track;
      const std::string name = json_string(s.name);
      const std::string layer = json_string(s.name.substr(0, s.name.find('.')));
      std::fprintf(f,
                   "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"item\":%ld%s%s}}",
                   i == 0 ? "" : ",", name.c_str(), layer.c_str(), track,
                   s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent, s.item,
                   s.args.empty() ? "" : ",", s.args.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
    long item = -1;
    std::string args;
  };

  /// True when span i overlaps another span with the same parent.
  bool overlaps_sibling(std::size_t i) const {
    const Span& s = spans_[i];
    for (std::size_t j = 0; j < spans_.size(); ++j) {
      const Span& o = spans_[j];
      if (j != i && o.parent == s.parent && o.start < s.end && s.start < o.end)
        return true;
    }
    return false;
  }

  const bool on_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_ and stack_
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, long item = -1,
        const std::string& args = "")
      : tracer_(tracer), id_(tracer.open(name, item, args)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
