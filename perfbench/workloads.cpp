// The four workloads.  Each derives every input from the seed it is
// given; README.md says why each was chosen and which layers it loads.

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "testing/generator.hpp"
#include "topology/isp.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tactic;

/// Table III Topology 4 with the paper's defaults and the bench
/// harness's 512-bit provider keys.
sim::ScenarioConfig paper_t4() {
  sim::ScenarioConfig config;
  config.topology = topology::paper_topology(4);
  config.provider.key_bits = 512;
  config.duration = 15 * event::kSecond;
  return config;
}

/// The write side of the tag lifecycle: short-lived tags from 1024-bit
/// provider keys and a small Bloom filter that saturates and resets.
sim::ScenarioConfig tag_churn() {
  sim::ScenarioConfig config;
  config.topology = topology::paper_topology(2);
  config.provider.key_bits = 1024;
  config.provider.tag_validity = event::kSecond;
  config.tactic.bloom.capacity = 50;
  config.duration = 10 * event::kSecond;
  return config;
}

/// bench/parallel_speedup's flood_10x load (six forged-tag churners at
/// 10x tempo on the 8-core/3-edge topology) with 1024-bit keys, the
/// static overload layer, adaptive control off and one validation lane,
/// so every forged tag reaches a real RSA verification.
sim::ScenarioConfig forged_flood() {
  sim::ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 8;
  config.topology.attackers = 6;
  config.topology.core_cs_capacity = 200;
  config.provider.key_bits = 1024;
  config.provider.tag_validity = 10 * event::kSecond;
  config.tactic.bloom.capacity = 60;
  config.duration = 5 * event::kSecond;
  config.attacker_mix = {workload::AttackerMode::kForgedTagChurn};
  config.attacker.window = 80;
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  config.attacker.interest_lifetime = 50 * event::kMillisecond;
  core::ComputeModel::Params compute;
  compute.bf_lookup = {9.14e-7, 0.0};
  compute.bf_insert = {3.35e-7, 0.0};
  compute.sig_verify = {1e-3, 0.0};
  compute.neg_lookup = {1.5e-7, 0.0};
  config.compute = core::ComputeModel(compute);
  core::OverloadConfig& overload = config.tactic.overload;
  overload.enabled = true;
  overload.neg_cache_capacity = 512;
  overload.neg_cache_ttl = 5 * event::kSecond;
  overload.staged_bf_reset = true;
  overload.queue_capacity = 64;
  overload.shed_watermark = 32;
  config.router_pit_capacity = 512;
  config.tactic.adaptive.enabled = false;
  config.tactic.validation_lanes = 1;
  return config;
}

/// `<mode> <seed>` -> digest, from one golden file.
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string mode, seed, digest;
    if (fields >> mode >> seed >> digest) {
      digests[mode + " " + seed] = digest;
    }
  }
  return digests;
}

/// The 48-scenario parity corpus, as fingerprint_corpus runs it: seeds
/// 9000-9015 in three modes, 6 s base duration.  The seed permutes the
/// order the scenarios run in; their digests must not depend on it.
std::vector<Item> corpus_mix(std::uint64_t seed,
                             const std::string& golden_dir) {
  const auto fingerprints = read_golden(golden_dir + "/fingerprints.txt");
  const auto verdicts = read_golden(golden_dir + "/verdicts.txt");
  struct Mode {
    const char* name;
    bool faults;
    bool overload;
  };
  constexpr Mode kModes[] = {{"plain", false, false},
                             {"faults", true, false},
                             {"faults+overload", true, true}};
  std::vector<Item> items;
  for (const Mode& mode : kModes) {
    testing::GeneratorOptions generator;
    generator.duration = 6 * event::kSecond;
    generator.with_faults = mode.faults;
    generator.with_overload = mode.overload;
    for (std::uint64_t corpus_seed = 9000; corpus_seed < 9016;
         ++corpus_seed) {
      Item item;
      item.label = std::string(mode.name) + " " + std::to_string(corpus_seed);
      item.config = testing::random_config(corpus_seed, generator);
      const auto fp = fingerprints.find(item.label);
      const auto vd = verdicts.find(item.label);
      if (fp == fingerprints.end() || vd == verdicts.end()) {
        throw std::runtime_error("no golden digest for " + item.label);
      }
      item.golden_fingerprint = fp->second;
      item.golden_verdicts = vd->second;
      items.push_back(std::move(item));
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform(i)]);
  }
  return items;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& golden_dir) {
  Workload workload;
  if (name == "corpus_mix") {
    workload.items = corpus_mix(seed, golden_dir);
    return workload;
  }
  // A round of the single-configuration workloads runs the scenario
  // under several seeds drawn from `seed`, so one run's figures average
  // over topologies and key draws instead of hanging on one of each.
  sim::ScenarioConfig config;
  std::size_t scenarios = 0;
  if (name == "paper_t4") {
    config = paper_t4();
    scenarios = 2;
  } else if (name == "tag_churn") {
    config = tag_churn();
    scenarios = 3;
  } else if (name == "forged_flood") {
    // Six scenarios: each draws two 1024-bit provider keys in set-up,
    // whose prime search time varies widely with the seed.
    config = forged_flood();
    scenarios = 6;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < scenarios; ++i) {
    Item item;
    item.label = name + " #" + std::to_string(i);
    item.config = config;
    item.config.seed = rng();
    workload.items.push_back(std::move(item));
  }
  workload.tactic_only = true;
  workload.exact_accounting = true;
  return workload;
}

}  // namespace perfbench
