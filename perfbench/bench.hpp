#pragma once
// perfbench — declarations shared by the benchmark binary's files.
//
// The binary reaches the simulator only through its public headers: it
// builds sim::Scenario configurations (workloads.cpp), runs and checks
// them (main.cpp), and in a traced run captures inputs from the live
// network and replays them against each layer's public functions
// (trace.cpp).

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One scenario of a workload round.
struct Item {
  std::string label;  // "paper_t4", or "<mode> <seed>" in the corpus
  tactic::sim::ScenarioConfig config;
  /// Golden digests (corpus only); empty means "compare with the first
  /// run of this item in the process".
  std::string golden_fingerprint;
  std::string golden_verdicts;
};

struct Workload {
  /// Every item runs TACTIC, so attackers receive content only through
  /// Bloom false positives.
  bool tactic_only = false;
  /// Drain accounting holds with equality: every requested chunk ends as
  /// exactly one of delivery, NACK or timeout.
  bool exact_accounting = false;
  std::vector<Item> items;
};

/// Builds the named workload from `seed`; throws std::invalid_argument
/// for an unknown name.  `golden_dir` holds fingerprints.txt and
/// verdicts.txt (read by corpus_mix only).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& golden_dir);

/// In-memory span log: name, parent span, start and end (ns since the
/// log was created).  Written out as JSON once the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);
  /// Writes every span as a JSON array; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Spans& spans, std::string name)
      : spans_(spans), index_(spans.open(std::move(name))) {}
  ~Scoped() { spans_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  int index_;
};

/// Flat list of named numbers, emitted as one JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

}  // namespace perfbench
