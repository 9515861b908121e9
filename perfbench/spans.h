// In-memory span recorder for the benchmark's traced mode.
//
// Spans wrap the benchmark's own calls into the library's public functions
// (no span lives inside the library). Every span is opened and closed on the
// benchmark's main thread, so spans nest strictly: a parent is open while
// its children run, and siblings never overlap. That makes a span's self
// time its duration minus the sum of its direct children's durations.
//
// Spans are kept in memory and written once, as one JSON file, at exit.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;       // index into records(), -1 for a root span
    uint64_t request = 0;  // the workload operation the span belongs to
    double child_s = 0;    // summed duration of direct children
  };

  /// Per-name call count and summed self time over every closed span.
  struct Totals {
    uint64_t calls = 0;
    double self_s = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request = 0)
        : tracer_(tracer),
          index_(tracer.enabled_ ? tracer.Open(name, request) : -1) {}
    ~Scope() {
      if (index_ >= 0) tracer_.Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  const std::vector<Record>& records() const { return records_; }

  std::map<std::string, Totals> TotalsByName() const {
    std::map<std::string, Totals> out;
    for (const Record& r : records_) {
      Totals& t = out[r.name];
      t.calls += 1;
      t.self_s += (r.end - r.start) - r.child_s;
    }
    return out;
  }

  /// Writes {"spans":[{name,start_s,end_s,parent,request,self_s},...]} with
  /// times relative to the first span. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = records_.empty() ? 0 : records_.front().start;
    std::fprintf(f, "{\"spans\":[");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d,\"request\":%llu,"
                   "\"self_s\":%.9f}",
                   i == 0 ? "" : ",", i, r.name.c_str(), r.start - t0,
                   r.end - t0, r.parent,
                   static_cast<unsigned long long>(r.request),
                   (r.end - r.start) - r.child_s);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int Open(const char* name, uint64_t request) {
    Record r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.request = request;
    r.start = NowSeconds();
    records_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void Close(int index) {
    Record& r = records_[static_cast<size_t>(index)];
    r.end = NowSeconds();
    stack_.pop_back();
    if (r.parent >= 0) {
      records_[static_cast<size_t>(r.parent)].child_s += r.end - r.start;
    }
  }

  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
