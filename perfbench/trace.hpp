#pragma once
// Traced-run machinery: input capture from a live scenario and the
// per-layer replays that time each layer's public functions on those
// inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "event/time.hpp"
#include "ndn/name.hpp"
#include "ndn/packet.hpp"
#include "tactic/tag.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Who sent a captured tag, which fixes what its signature must do.
enum class Role {
  kClient,        // provider-issued: must verify
  kForger,        // forged by an attacker: must not verify
  kOtherAttacker, // expired / wrong-level / wrong-provider: no expectation
};

const char* to_string(Role role);

/// One captured tag with everything the independent RSA check needs.
struct OracleSample {
  Role role = Role::kClient;
  std::string n_hex;    // provider modulus from anchors().pki
  std::string e_hex;    // provider public exponent
  std::string msg_hex;  // Tag::serialize_fields — the signed bytes
  std::string sig_hex;
  bool verdict = false;  // core::verify_tag_signature's answer
};

/// Observes one scenario while it runs.  Construct after the scenario
/// and before run(): it adds a tracer to every edge router (tagged
/// Interests arriving from users) and a periodic sampler event
/// (pending-event count, largest router PIT).
class Capture {
 public:
  struct Request {
    tactic::core::TagPtr tag;
    tactic::ndn::Name name;
    tactic::event::Time when = 0;
    Role role = Role::kClient;
  };

  Capture(tactic::sim::Scenario& scenario, std::uint64_t seed);
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Resolves up to `per_role` distinct tags of each role against the
  /// scenario's PKI.  Call after the run.
  std::vector<OracleSample> oracle_samples(tactic::sim::Scenario& scenario,
                                           std::size_t per_role) const;

  std::uint64_t sampler_events() const { return sampler_events_; }
  std::uint64_t tagged_requests() const { return tagged_requests_; }
  std::size_t pending_peak() const { return pending_peak_; }
  std::size_t pit_peak() const { return pit_peak_; }
  const std::vector<Request>& requests() const { return requests_; }
  const std::vector<tactic::ndn::Name>& names() const { return names_; }

 private:
  void on_interest(const tactic::ndn::Interest& interest, Role role,
                   bool from_user, tactic::event::Time now);
  void sample(tactic::sim::Scenario& scenario);
  void arm_sampler(tactic::sim::Scenario& scenario);

  tactic::util::Rng rng_;
  std::uint64_t sampler_events_ = 0;
  std::uint64_t tagged_requests_ = 0;
  std::uint64_t interests_seen_ = 0;
  std::size_t pending_peak_ = 0;
  std::size_t pit_peak_ = 0;
  std::vector<Request> requests_;            // reservoir of tagged Interests
  std::vector<tactic::ndn::Name> names_;     // reservoir of Interest names
};

/// Counts of the Bloom false-positive experiment; the bound itself is
/// computed by run.py from these.
struct BloomFpCounts {
  std::size_t bits = 0;
  std::size_t hashes = 0;
  std::size_t items = 0;  // inserted per filter (the configured capacity)
  std::size_t filters = 0;
  std::uint64_t probes = 0;
  std::uint64_t false_positives = 0;
};

/// Per-operation host times from replays on one finished (and drained)
/// scenario's live tables and captured inputs.
struct LayerTimes {
  double fib_lookup_ns = 0;
  double cs_find_ns = 0;
  double name_hash_ns = 0;
  double schedule_pop_ns = 0;
  double bloom_lookup_ns = 0;
  double bloom_insert_ns = 0;
  double sign_ns = 0;
  double verify_ns = 0;
  double precheck_ns = 0;
  double keygen_s = 0;
  double topology_build_s = 0;
  double harvest_s = 0;
  BloomFpCounts bloom_fp;
};

LayerTimes replay_layers(tactic::sim::Scenario& scenario,
                         const Capture& capture, std::uint64_t seed,
                         Spans& spans);

}  // namespace perfbench
