// perfbench_bin — runs one workload of the host-speed benchmark in
// this process and prints one JSON object on stdout.  run.py builds and
// launches it; see README.md.
//
//   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
//                 --golden DIR [--t0-ns NS] [--spans PATH]
//
// Untraced (--trace 0): repeats whole rounds of the workload's scenarios
// until S host seconds have passed, checking each scenario, and reports
// simulated seconds per host second of Scenario::run() (median over
// rounds, host time rescaled by the HostSpeed probe), the cold set-up
// time and the peak RSS.
//
// Traced (--trace 1): one untraced round, then one round with input
// capture, then replays of each layer's public functions on the captured
// inputs; reports the per-layer metrics.  --t0-ns is the launcher's
// CLOCK_MONOTONIC time just before it started this process, so set-up
// time covers process start-up.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "testing/fingerprint.hpp"
#include "testing/invariants.hpp"
#include "trace.hpp"
#include "util/flags.hpp"

namespace perfbench {

namespace {

using namespace tactic;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Peak resident set of this process image in MB (VmHWM).  Unlike
/// getrusage's ru_maxrss, it does not carry over the launcher's peak
/// across exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

/// Counters summed over the traced round (taken at the configured end,
/// before the drain).
struct TracedTotals {
  std::uint64_t events = 0;
  net::LinkCounters links;
  sim::RouterOps ops;  // edge + core
  std::uint64_t cs_lookups = 0;
  std::uint64_t provider_verifies = 0;
  std::uint64_t tags_issued = 0;
  std::uint64_t chunks_requested = 0;
  std::uint64_t chunks_received = 0;
  std::uint64_t tagged_requests = 0;
  std::size_t pending_peak = 0;
  std::size_t pit_peak = 0;
  std::size_t scenarios = 0;
  double run_s = 0.0;
  double sim_s = 0.0;
  std::vector<OracleSample> oracle;
};

/// Tracks how fast the host runs while the simulator does.  The host's
/// speed swings by up to 2x over seconds, at the same CPU time, as other
/// tenants load the shared cores; a run measured in a slow phase would
/// read slow whatever the program does.  So host time is added in
/// segments of about kProbeEvery, and after each one a fixed probe
/// (four independent chains of register multiply-adds, which keep the
/// core's multiplier busy: no memory, no code of the simulator) is timed.
/// Independent chains slow down with the host as the simulator does; a
/// single dependent chain, bound by latency, slowed less and left half
/// the drift in place.  A segment's host time is rescaled by
/// kProbeReference / probe time, i.e. to what it would have been had the
/// host run at the reference speed throughout.
class HostSpeed {
 public:
  /// Probe time at the reference host speed: about what the probe takes
  /// on an idle core of a 2.1 GHz Xeon host.
  static constexpr double kProbeReference = 350e-6;
  static constexpr double kProbeEvery = 0.02;

  /// Adds `host_s` of measured work; probes once enough is pending.
  void add(double host_s) {
    pending_ += host_s;
    if (pending_ >= kProbeEvery) flush();
  }

  /// Probes and charges the pending host time at the probed speed.
  void flush() {
    if (pending_ <= 0.0) return;
    wall_ += pending_;
    scaled_ += rescale(pending_);
    pending_ = 0.0;
  }

  /// Rescales `host_s` that has just ended by a probe taken now.
  static double rescale(double host_s) {
    return host_s * kProbeReference / probe();
  }

  /// Flushes and returns {wall, rescaled} host seconds since the last take.
  std::pair<double, double> take() {
    flush();
    const std::pair<double, double> out{wall_, scaled_};
    wall_ = scaled_ = 0.0;
    return out;
  }

 private:
  static double probe() {
    static volatile std::uint64_t sink = 1;
    const auto start = Clock::now();
    std::uint64_t a = sink, b = a + 1, c = a + 2, d = a + 3;
    for (int i = 0; i < (1 << 18); ++i) {
      a = a * 6364136223846793005ull + (a >> 29);
      b = b * 6364136223846793005ull + (b >> 29);
      c = c * 6364136223846793005ull + (c >> 29);
      d = d * 6364136223846793005ull + (d >> 29);
    }
    sink = a ^ b ^ c ^ d;
    return seconds_since(start);
  }

  double pending_ = 0.0;
  double wall_ = 0.0;
  double scaled_ = 0.0;
};

struct ItemTiming {
  double setup_s = 0.0;
  double run_s = 0.0;
  double scaled_run_s = 0.0;  // run_s rescaled by HostSpeed (untraced only)
  double sim_s = 0.0;
  std::uint64_t events = 0;
  bool ok = false;
};

class Runner {
 public:
  Runner(const Workload& workload, std::uint64_t seed, Spans& spans)
      : workload_(workload), seed_(seed), spans_(spans) {}

  /// Runs one scenario with its checks.  With `totals`, captures inputs
  /// and adds its counters; with `times` as well, replays the layers on
  /// it afterwards.
  ItemTiming run_item(const Item& item, TracedTotals* totals,
                      LayerTimes* times) {
    ItemTiming timing;
    ++attempted_;
    try {
      Scoped item_span(spans_, "scenario " + item.label);
      std::unique_ptr<sim::Scenario> scenario;
      {
        Scoped span(spans_, "setup");
        const auto start = Clock::now();
        scenario = std::make_unique<sim::Scenario>(item.config);
        timing.setup_s = HostSpeed::rescale(seconds_since(start));
      }
      std::unique_ptr<Capture> capture;
      if (totals != nullptr) {
        capture = std::make_unique<Capture>(*scenario, seed_);
      }
      {
        Scoped span(spans_, "run");
        if (totals == nullptr && item.config.threads <= 1) {
          // Untraced: run in slices so the host speed is probed between
          // them.  Scheduler::run_until in steps is the same run as one
          // call; the digest check against the traced round (one call)
          // holds the two to the same outputs.
          for (event::Time t = kSlice; t < item.config.duration; t += kSlice) {
            const auto start = Clock::now();
            scenario->scheduler().run_until(t);
            host_.add(seconds_since(start));
          }
        }
        const auto start = Clock::now();
        scenario->run();
        host_.add(seconds_since(start));
        std::tie(timing.run_s, timing.scaled_run_s) = host_.take();
      }
      if (scenario->now() != item.config.duration) {
        ++failed_;
        return timing;
      }
      timing.sim_s = event::to_seconds(item.config.duration);
      timing.events = scenario->scheduler().executed_count() -
                      (capture ? capture->sampler_events() : 0);
      const sim::Metrics metrics = scenario->harvest();
      check_digests(item, testing::fingerprint_digest(metrics),
                    testing::verdict_digest(*scenario));
      if (totals != nullptr) {
        add_totals(*totals, *scenario, metrics, *capture, timing);
      }
      {
        Scoped span(spans_, "drain");
        scenario->drain();
      }
      check_accounting(item, *scenario);
      if (totals != nullptr) {
        const std::size_t per_role = workload_.items.size() > 8 ? 4 : 16;
        for (OracleSample& sample :
             capture->oracle_samples(*scenario, per_role)) {
          totals->oracle.push_back(std::move(sample));
        }
      }
      if (times != nullptr) {
        *times = replay_layers(*scenario, *capture, seed_, spans_);
      }
      timing.ok = true;
    } catch (const std::exception& error) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s threw: %s\n", item.label.c_str(),
                   error.what());
    }
    return timing;
  }

  static constexpr event::Time kSlice = event::kSecond / 10;

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void error(const Item& item, const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(item.label + ": " + what);
  }

  void check_digests(const Item& item, const std::string& fingerprint,
                     const std::string& verdicts) {
    auto expect = [&](const std::string& kind, const std::string& golden,
                      const std::string& got) {
      std::string& first = first_seen_[kind + " " + item.label];
      const std::string& want = !golden.empty() ? golden : first;
      if (!want.empty() && want != got) {
        error(item, kind + " digest " + got.substr(0, 16) + " != " +
                        want.substr(0, 16));
      }
      if (first.empty()) first = got;
    };
    expect("fingerprint", item.golden_fingerprint, fingerprint);
    expect("verdict", item.golden_verdicts, verdicts);
  }

  /// After Scenario::drain(): no router holds PIT state, every chunk a
  /// user requested is accounted for, and (TACTIC only) attackers
  /// received no more content than Bloom false positives let through.
  void check_accounting(const Item& item, sim::Scenario& scenario) {
    topology::Network& network = scenario.network();
    for (const auto* routers :
         {&network.core_routers(), &network.edge_routers()}) {
      for (const net::NodeId id : *routers) {
        const std::size_t left = network.node(id).pit().size();
        if (left != 0) {
          error(item, network.node(id).info().label + " PIT holds " +
                          std::to_string(left) + " entries after drain");
        }
      }
    }
    const sim::Metrics metrics = scenario.harvest();
    const std::pair<const char*, const sim::TrafficTotals*> classes[] = {
        {"clients", &metrics.clients}, {"attackers", &metrics.attackers}};
    for (const auto& [name, t] : classes) {
      const std::uint64_t ended = t->received + t->nacks + t->timeouts;
      const std::string counts =
          std::string(name) + " requested " + std::to_string(t->requested) +
          " received " + std::to_string(t->received) + " nacks " +
          std::to_string(t->nacks) + " timeouts " +
          std::to_string(t->timeouts);
      if (t->received > t->requested || ended < t->requested ||
          (workload_.exact_accounting && ended != t->requested)) {
        error(item, "accounting: " + counts);
      }
    }
    // A forged tag gets through when it hits a false positive of the
    // edge router's Bloom filter; the paper (Table IV) accepts an
    // attacker delivery ratio near 1e-4.  Hold attacker content to the
    // leak budget of the program's own invariant checker.
    if (workload_.tactic_only && metrics.attackers.received >
                                     testing::InvariantOptions{}.fp_leak_budget) {
      error(item, "attackers received " +
                      std::to_string(metrics.attackers.received) +
                      " content chunks");
    }
  }

  void add_totals(TracedTotals& totals, sim::Scenario& scenario,
                  const sim::Metrics& metrics, const Capture& capture,
                  const ItemTiming& timing) {
    totals.events += timing.events;
    const net::LinkCounters links = scenario.network().total_link_counters();
    totals.links.frames_sent += links.frames_sent;
    totals.links.bytes_sent += links.bytes_sent;
    totals.links.dropped_queue_full += links.dropped_queue_full;
    totals.links.refused_link_down += links.refused_link_down;
    totals.links.frames_lost += links.frames_lost;
    totals.links.frames_corrupted += links.frames_corrupted;
    totals.ops += metrics.edge_ops;
    totals.ops += metrics.core_ops;
    totals.cs_lookups += metrics.cs_hits + metrics.cs_misses;
    totals.provider_verifies += metrics.provider_sig_verifications;
    totals.tags_issued += metrics.provider_tags_issued;
    totals.chunks_requested += metrics.clients.requested;
    totals.chunks_received += metrics.clients.received;
    totals.tagged_requests += capture.tagged_requests();
    totals.pending_peak = std::max(totals.pending_peak, capture.pending_peak());
    totals.pit_peak = std::max(totals.pit_peak, capture.pit_peak());
    totals.scenarios += 1;
    totals.run_s += timing.run_s;
    totals.sim_s += timing.sim_s;
  }

  const Workload& workload_;
  std::uint64_t seed_;
  Spans& spans_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::string> first_seen_;
  HostSpeed host_;
};

/// Simulated seconds per host second over one round's Scenario::run()
/// calls, on rescaled (`scaled`) or wall host time (0 when every
/// scenario failed).
double round_rate(const std::vector<ItemTiming>& round, bool scaled) {
  double sim_s = 0.0, run_s = 0.0;
  for (const ItemTiming& timing : round) {
    if (!timing.ok) continue;
    sim_s += timing.sim_s;
    run_s += scaled ? timing.scaled_run_s : timing.run_s;
  }
  return run_s > 0.0 ? sim_s / run_s : 0.0;
}

Fields layer_metrics(const TracedTotals& t, const LayerTimes& times,
                     const std::vector<ItemTiming>& untraced) {
  double untraced_run_s = 0.0, untraced_scaled_s = 0.0;
  std::uint64_t untraced_events = 0;
  for (const ItemTiming& timing : untraced) {
    untraced_run_s += timing.run_s;
    untraced_scaled_s += timing.scaled_run_s;
    untraced_events += timing.events;
  }
  const sim::RouterOps& ops = t.ops;
  const double verifies =
      static_cast<double>(ops.sig_verifications + t.provider_verifies);
  const double sheds = static_cast<double>(
      ops.sheds_queue_full + ops.sheds_unvouched + ops.policer_sheds +
      ops.quarantine_sheds);
  const double pool_base =
      static_cast<double>(ops.pool_acquires + ops.packet_cow_clones);
  // Host time each layer's replayed cost accounts for: count x ns/op,
  // as a share of the traced round's run time, the run measured closest
  // in time to the replays (host speed drifts between minutes).
  const double ns_event = static_cast<double>(t.events) * times.schedule_pop_ns;
  const double ns_ndn =
      static_cast<double>(ops.fib_lookups) * times.fib_lookup_ns +
      static_cast<double>(t.cs_lookups) * times.cs_find_ns;
  const double ns_bloom =
      static_cast<double>(ops.bf_lookups) * times.bloom_lookup_ns +
      static_cast<double>(ops.bf_insertions) * times.bloom_insert_ns;
  const double ns_crypto = static_cast<double>(t.tags_issued) * times.sign_ns +
                           verifies * times.verify_ns;
  const double ns_tactic =
      static_cast<double>(t.tagged_requests) * times.precheck_ns;
  const double ns_sim = static_cast<double>(t.scenarios) * times.harvest_s * 1e9;
  const double traced_ns = t.run_s * 1e9;
  auto share = [&](double ns) { return traced_ns > 0.0 ? ns / traced_ns : 0.0; };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"event.executed", n(t.events)},
      {"event.ns_per_event",
       untraced_events > 0 ? untraced_run_s * 1e9 / n(untraced_events)
                           : 0.0},
      {"event.pending_peak", n(t.pending_peak)},
      {"event.schedule_pop_ns", times.schedule_pop_ns},
      {"event.share", share(ns_event)},
      {"net.frames", n(t.links.frames_sent)},
      {"net.bytes", n(t.links.bytes_sent)},
      {"net.frames_dropped", n(t.links.frames_dropped())},
      {"net.frames_lost", n(t.links.frames_lost)},
      {"net.frames_corrupted", n(t.links.frames_corrupted)},
      {"ndn.fib_lookups", n(ops.fib_lookups)},
      {"ndn.fib_lookup_ns", times.fib_lookup_ns},
      {"ndn.pit_lookups", n(ops.pit_lookups)},
      {"ndn.pit_inserts", n(ops.pit_inserts)},
      {"ndn.pit_peak", n(t.pit_peak)},
      {"ndn.cs_lookups", n(t.cs_lookups)},
      {"ndn.cs_find_ns", times.cs_find_ns},
      {"ndn.name_hash_ns", times.name_hash_ns},
      {"ndn.pool_slab_acquires", n(ops.pool_acquires)},
      {"ndn.pool_recycle_ratio",
       pool_base > 0.0 ? n(ops.pool_reuses) / pool_base : 0.0},
      {"ndn.share", share(ns_ndn)},
      {"bloom.lookups", n(ops.bf_lookups)},
      {"bloom.inserts", n(ops.bf_insertions)},
      {"bloom.resets", n(ops.bf_resets)},
      {"bloom.lookup_ns", times.bloom_lookup_ns},
      {"bloom.insert_ns", times.bloom_insert_ns},
      {"bloom.share", share(ns_bloom)},
      {"crypto.signs", n(t.tags_issued)},
      {"crypto.sign_ns", times.sign_ns},
      {"crypto.verifies", verifies},
      {"crypto.verify_ns", times.verify_ns},
      {"crypto.keygen_s", times.keygen_s},
      {"crypto.share", share(ns_crypto)},
      {"tactic.precheck_ns", times.precheck_ns},
      {"tactic.verifies_per_tagged_request",
       t.tagged_requests > 0 ? verifies / n(t.tagged_requests) : 0.0},
      {"tactic.neg_cache_hits", n(ops.neg_cache_hits)},
      {"tactic.sheds", sheds},
      {"topology.build_s", times.topology_build_s},
      {"sim.harvest_s", times.harvest_s},
      {"workload.chunks_requested", n(t.chunks_requested)},
      {"workload.chunks_received", n(t.chunks_received)},
      {"layers.attributed_share",
       share(ns_event + ns_ndn + ns_bloom + ns_crypto + ns_tactic + ns_sim)},
      {"traced.sim_rate", t.run_s > 0.0 ? t.sim_s / t.run_s : 0.0},
      {"host.wall_sim_rate", round_rate(untraced, false)},
      {"host.speed",
       untraced_run_s > 0.0 ? untraced_scaled_s / untraced_run_s : 0.0},
  };
}

void print_fields(const char* key, const Fields& fields) {
  std::printf(",%s:{", json_string(key).c_str());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::printf("%s%s:%s", i == 0 ? "" : ",",
                json_string(fields[i].first).c_str(),
                json_number(fields[i].second).c_str());
  }
  std::printf("}");
}

int run(int argc, char** argv, Clock::time_point main_entry) {
  util::Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::int64_t t0_ns = flags.get_int("t0-ns", 0);
  const std::string spans_path = flags.get_string("spans", "");
  const Workload workload =
      make_workload(name, seed, flags.get_string("golden", "tests/golden"));

  double startup_s = 0.0;
  if (t0_ns > 0) {
    const std::int64_t entry_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            main_entry.time_since_epoch())
            .count();
    startup_s =
        HostSpeed::rescale(static_cast<double>(entry_ns - t0_ns) * 1e-9);
  }

  Spans spans;
  Runner runner(workload, seed, spans);
  auto run_round = [&](TracedTotals* totals, LayerTimes* times,
                       std::size_t replay_index) {
    Scoped span(spans, totals != nullptr ? "round traced" : "round");
    std::vector<ItemTiming> round;
    for (std::size_t i = 0; i < workload.items.size(); ++i) {
      round.push_back(runner.run_item(workload.items[i], totals,
                                      i == replay_index ? times : nullptr));
    }
    return round;
  };

  const auto start = Clock::now();
  std::vector<std::vector<ItemTiming>> rounds;
  TracedTotals totals;
  LayerTimes times;
  Fields layers;
  if (!traced) {
    do {
      rounds.push_back(run_round(nullptr, nullptr, 0));
    } while (seconds_since(start) < seconds);
  } else {
    rounds.push_back(run_round(nullptr, nullptr, 0));
    // Replay on the TACTIC scenario that executed the most events.
    std::size_t replay = 0;
    std::uint64_t most = 0;
    for (std::size_t i = 0; i < workload.items.size(); ++i) {
      if (workload.items[i].config.policy == sim::PolicyKind::kTactic &&
          rounds[0][i].events > most) {
        most = rounds[0][i].events;
        replay = i;
      }
    }
    run_round(&totals, &times, replay);
    layers = layer_metrics(totals, times, rounds[0]);
  }

  double setup_s = startup_s;
  for (const ItemTiming& timing : rounds.front()) setup_s += timing.setup_s;
  std::vector<double> rates;
  for (const auto& round : rounds) rates.push_back(round_rate(round, true));

  if (!spans_path.empty() && !spans.write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }

  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d",
              json_string(name).c_str(), static_cast<unsigned long long>(seed),
              traced ? 1 : 0);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"rounds\":%zu",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()), rounds.size());
  std::printf(",\"errors\":[");
  for (std::size_t i = 0; i < runner.errors().size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",",
                json_string(runner.errors()[i]).c_str());
  }
  std::printf("],\"round_sim_rates\":[");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", json_number(rates[i]).c_str());
  }
  std::printf("],\"round_wall_sim_rates\":[");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",",
                json_number(round_rate(rounds[i], false)).c_str());
  }
  std::printf("]");
  print_fields("end_to_end",
               {{"sim_rate", median(rates)},
                {"setup_s", setup_s},
                {"peak_rss_mb", peak_rss_mb()}});
  if (traced) {
    print_fields("per_layer", layers);
    const BloomFpCounts& fp = times.bloom_fp;
    print_fields("bloom_fp", {{"bits", static_cast<double>(fp.bits)},
                              {"hashes", static_cast<double>(fp.hashes)},
                              {"items", static_cast<double>(fp.items)},
                              {"filters", static_cast<double>(fp.filters)},
                              {"probes", static_cast<double>(fp.probes)},
                              {"false_positives",
                               static_cast<double>(fp.false_positives)}});
    std::printf(",\"oracle\":[");
    for (std::size_t i = 0; i < totals.oracle.size(); ++i) {
      const OracleSample& s = totals.oracle[i];
      std::printf("%s{\"role\":\"%s\",\"n\":\"%s\",\"e\":\"%s\",\"msg\":\"%s\","
                  "\"sig\":\"%s\",\"verdict\":%s}",
                  i == 0 ? "" : ",", to_string(s.role), s.n_hex.c_str(),
                  s.e_hex.c_str(), s.msg_hex.c_str(), s.sig_hex.c_str(),
                  s.verdict ? "true" : "false");
    }
    std::printf("]");
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int Spans::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{std::move(name), parent, now_ns(), 0});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool Spans::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%s\n{\"id\":%zu,\"name\":%s,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", i, json_string(span.name).c_str(),
                 span.parent, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  std::fprintf(out, "\n]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto main_entry = perfbench::Clock::now();
  try {
    return perfbench::run(argc, argv, main_entry);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_bin: %s\n", error.what());
    return 2;
  }
}
