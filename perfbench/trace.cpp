// Traced run: capture inputs from a live scenario, then time each
// layer's public functions on them.

#include "trace.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <unordered_map>

#include "bloom/bloom_filter.hpp"
#include "crypto/rsa.hpp"
#include "event/scheduler.hpp"
#include "tactic/precheck.hpp"
#include "topology/network.hpp"
#include "util/bytes.hpp"

namespace perfbench {

namespace {

using namespace tactic;

constexpr std::size_t kRequestReservoir = 2048;
constexpr std::size_t kNameReservoir = 4096;
constexpr event::Time kSamplePeriod = 10 * event::kMillisecond;
/// Shortest host time one replay measures, so timer resolution and a
/// cold first pass stay small next to it.
constexpr double kMinReplaySeconds = 0.05;

/// Keeps the replayed calls from being optimised away.
std::uint64_t g_sink = 0;

/// Vitter's algorithm R: after `seen` offers, `slots` holds a uniform
/// sample of them.
template <typename T>
void reservoir_offer(std::vector<T>& slots, std::size_t capacity,
                     std::uint64_t seen, util::Rng& rng, T&& value) {
  if (slots.size() < capacity) {
    slots.push_back(std::move(value));
    return;
  }
  const std::uint64_t slot = rng.uniform(seen);
  if (slot < capacity) slots[slot] = std::move(value);
}

/// Runs `op(i)` over i in [0, count) in passes until kMinReplaySeconds
/// have elapsed; returns host ns per call.
template <typename Op>
double ns_per_op(std::size_t count, Op&& op,
                 double min_seconds = kMinReplaySeconds) {
  if (count == 0) return 0.0;
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < count; ++i) op(i);
    calls += count;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(calls);
}

template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

util::Bytes random_key(util::Rng& rng) {
  util::Bytes key(32);
  for (std::size_t i = 0; i < key.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t b = 0; b < 8; ++b) {
      key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return key;
}

/// Pop-and-reschedule churn on a scheduler held at `depth` pending
/// events: each handler schedules its successor until `budget` runs out.
struct Churn {
  event::Scheduler* scheduler;
  util::Rng* rng;
  std::uint64_t* budget;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    scheduler->schedule(
        static_cast<event::Time>(rng->uniform(event::kSecond)), *this);
  }
};

}  // namespace

const char* to_string(Role role) {
  switch (role) {
    case Role::kClient:
      return "client";
    case Role::kForger:
      return "forger";
    case Role::kOtherAttacker:
      return "attacker";
  }
  return "?";
}

Capture::Capture(sim::Scenario& scenario, std::uint64_t seed)
    : rng_(seed ^ 0x7ace7ace7ace7aceULL) {
  topology::Network& network = scenario.network();
  std::unordered_map<net::NodeId, Role> user_roles;
  for (const net::NodeId client : network.clients()) {
    user_roles[client] = Role::kClient;
  }
  std::unordered_map<std::string, net::NodeId> attacker_ids;
  for (const net::NodeId attacker : network.attackers()) {
    attacker_ids[network.node(attacker).info().label] = attacker;
  }
  for (const auto& attacker : scenario.attackers()) {
    const bool forger =
        attacker->mode() == workload::AttackerMode::kForgedTag ||
        attacker->mode() == workload::AttackerMode::kForgedTagChurn;
    user_roles[attacker_ids.at(attacker->label())] =
        forger ? Role::kForger : Role::kOtherAttacker;
  }
  for (const net::NodeId edge : network.edge_routers()) {
    // Face at this edge router -> role of the user behind it.
    auto roles = std::make_shared<std::unordered_map<ndn::FaceId, Role>>();
    for (const net::NodeId neighbor : network.neighbors_of(edge)) {
      const auto user = user_roles.find(neighbor);
      if (user != user_roles.end()) {
        (*roles)[network.face_between(edge, neighbor)] = user->second;
      }
    }
    network.node(edge).add_tracer(
        [this, roles](const ndn::Forwarder& node,
                      const ndn::PacketVariant& packet, ndn::FaceId face,
                      bool is_rx) {
          if (!is_rx || packet.index() != 0) return;
          const auto role = roles->find(face);
          on_interest(*std::get<0>(packet),
                      role == roles->end() ? Role::kClient : role->second,
                      role != roles->end(), node.scheduler().now());
        });
  }
  arm_sampler(scenario);
}

void Capture::on_interest(const ndn::Interest& interest, Role role,
                          bool from_user, event::Time now) {
  ++interests_seen_;
  reservoir_offer(names_, kNameReservoir, interests_seen_, rng_,
                  ndn::Name(interest.name));
  if (!from_user || !interest.tag) return;
  ++tagged_requests_;
  reservoir_offer(requests_, kRequestReservoir, tagged_requests_, rng_,
                  Request{interest.tag, interest.name, now, role});
}

void Capture::arm_sampler(sim::Scenario& scenario) {
  struct Tick {
    Capture* capture;
    sim::Scenario* scenario;
    void operator()() const {
      capture->sample(*scenario);
      capture->arm_sampler(*scenario);
    }
  };
  if (scenario.now() + kSamplePeriod > scenario.config().duration) return;
  scenario.scheduler().schedule(kSamplePeriod, Tick{this, &scenario});
}

void Capture::sample(sim::Scenario& scenario) {
  ++sampler_events_;
  pending_peak_ =
      std::max(pending_peak_, scenario.scheduler().pending_count());
  topology::Network& network = scenario.network();
  for (const auto* routers : {&network.core_routers(), &network.edge_routers()}) {
    for (const net::NodeId id : *routers) {
      pit_peak_ = std::max(pit_peak_, network.node(id).pit().size());
    }
  }
}

std::vector<OracleSample> Capture::oracle_samples(
    sim::Scenario& scenario, std::size_t per_role) const {
  std::vector<OracleSample> samples;
  std::array<std::size_t, 3> taken{};
  std::set<util::Bytes> seen;
  for (const Request& request : requests_) {
    std::size_t& count = taken[static_cast<std::size_t>(request.role)];
    if (count >= per_role) continue;
    const core::Tag& tag = *request.tag;
    const crypto::RsaPublicKey* key =
        scenario.anchors().pki.find(tag.provider_key_locator());
    if (key == nullptr || !seen.insert(tag.serialize()).second) continue;
    OracleSample sample;
    sample.role = request.role;
    sample.n_hex = key->n().to_hex();
    sample.e_hex = key->e().to_hex();
    sample.msg_hex = util::to_hex(core::Tag::serialize_fields(tag.fields()));
    sample.sig_hex = util::to_hex(tag.signature());
    sample.verdict = core::verify_tag_signature(tag, scenario.anchors().pki);
    samples.push_back(std::move(sample));
    ++count;
  }
  return samples;
}

LayerTimes replay_layers(sim::Scenario& scenario, const Capture& capture,
                         std::uint64_t seed, Spans& spans) {
  LayerTimes out;
  topology::Network& network = scenario.network();
  const std::vector<ndn::Name>& names = capture.names();
  const std::vector<Capture::Request>& requests = capture.requests();
  util::Rng rng(seed ^ 0x5eed5eed5eed5eedULL);

  // Busiest edge router (FIB), busiest router that caches (CS).
  net::NodeId edge = network.edge_routers().front();
  for (const net::NodeId id : network.edge_routers()) {
    if (network.node(id).counters().interests_received >
        network.node(edge).counters().interests_received) {
      edge = id;
    }
  }
  net::NodeId cache = edge;
  std::uint64_t cache_lookups = 0;
  for (const net::NodeId id : network.core_routers()) {
    const ndn::ContentStore& cs = network.node(id).cs();
    if (cs.hits() + cs.misses() > cache_lookups) {
      cache = id;
      cache_lookups = cs.hits() + cs.misses();
    }
  }

  {
    Scoped span(spans, "replay.sim.harvest");
    out.harvest_s = median_seconds(5, [&] {
      g_sink += scenario.harvest().clients.requested;
    });
  }
  {
    Scoped span(spans, "replay.ndn.fib_lookup");
    ndn::Fib& fib = network.node(edge).fib();
    out.fib_lookup_ns = ns_per_op(names.size(), [&](std::size_t i) {
      g_sink += fib.lookup(names[i]) != nullptr;
    });
  }
  {
    Scoped span(spans, "replay.ndn.cs_find");
    ndn::ContentStore& cs = network.node(cache).cs();
    out.cs_find_ns = ns_per_op(names.size(), [&](std::size_t i) {
      g_sink += cs.find(names[i]) != nullptr;
    });
  }
  {
    Scoped span(spans, "replay.ndn.name_hash");
    out.name_hash_ns = ns_per_op(names.size(), [&](std::size_t i) {
      g_sink += names[i].id_hash();
    });
  }
  {
    Scoped span(spans, "replay.event.schedule_pop");
    const std::size_t depth = std::max<std::size_t>(capture.pending_peak(), 1);
    const std::uint64_t churn = std::max<std::uint64_t>(20 * depth, 200000);
    event::Scheduler scheduler;
    std::uint64_t budget = churn;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < depth; ++i) {
      scheduler.schedule(static_cast<event::Time>(rng.uniform(event::kSecond)),
                         Churn{&scheduler, &rng, &budget});
    }
    scheduler.run();
    out.schedule_pop_ns = seconds_since(start) * 1e9 /
                          static_cast<double>(depth + churn);
    g_sink += scheduler.executed_count();
  }

  const bloom::BloomParams params = scenario.config().tactic.bloom;
  {
    Scoped span(spans, "replay.bloom.insert");
    bloom::BloomFilter filter(params);
    out.bloom_insert_ns = ns_per_op(requests.size(), [&](std::size_t i) {
      if (filter.saturated()) filter.reset();
      filter.insert(requests[i].tag->bloom_key());
    });
  }
  {
    Scoped span(spans, "replay.bloom.lookup");
    bloom::BloomFilter filter(params);
    for (std::size_t i = 0; i < requests.size() && i < params.capacity; ++i) {
      filter.insert(requests[i].tag->bloom_key());
    }
    out.bloom_lookup_ns = ns_per_op(requests.size(), [&](std::size_t i) {
      g_sink += filter.contains(requests[i].tag->bloom_key());
    });
  }
  {
    // Fill filters to capacity with random keys, probe with fresh ones:
    // every hit is a false positive.  Many small filters average out the
    // fill variance of any single one.
    Scoped span(spans, "replay.bloom.false_positives");
    BloomFpCounts& fp = out.bloom_fp;
    const bloom::BloomFilter shape(params);
    fp.bits = shape.bit_count();
    fp.hashes = params.hashes;
    fp.items = params.capacity;
    const double expected =
        bloom::theoretical_fpp(fp.bits, fp.hashes, fp.items);
    // ~300 expected false positives over at most 4 M probes.
    const std::uint64_t probes = std::min<std::uint64_t>(
        4000000, static_cast<std::uint64_t>(300.0 / std::max(expected, 1e-9)));
    fp.filters = 200;
    const std::uint64_t per_filter = std::max<std::uint64_t>(probes / fp.filters, 1);
    for (std::size_t f = 0; f < fp.filters; ++f) {
      bloom::BloomFilter filter(params);
      for (std::size_t i = 0; i < fp.items; ++i) filter.insert(random_key(rng));
      for (std::uint64_t p = 0; p < per_filter; ++p) {
        fp.false_positives += filter.contains(random_key(rng));
      }
      fp.probes += per_filter;
    }
  }

  const std::size_t key_bits = scenario.config().provider.key_bits;
  crypto::RsaPrivateKey signing_key;
  {
    Scoped span(spans, "replay.crypto.keygen");
    constexpr int kKeys = 3;
    const auto start = Clock::now();
    for (int i = 0; i < kKeys; ++i) {
      signing_key = crypto::generate_rsa_keypair(rng, key_bits).private_key;
    }
    out.keygen_s = seconds_since(start) / kKeys;
  }
  {
    Scoped span(spans, "replay.crypto.sign");
    std::vector<util::Bytes> messages;
    for (std::size_t i = 0; i < requests.size() && i < 256; ++i) {
      messages.push_back(core::Tag::serialize_fields(requests[i].tag->fields()));
    }
    out.sign_ns = ns_per_op(messages.size(), [&](std::size_t i) {
      g_sink += signing_key.sign_pkcs1_sha256(messages[i]).size();
    });
  }
  {
    Scoped span(spans, "replay.crypto.verify");
    const crypto::Pki& pki = scenario.anchors().pki;
    out.verify_ns = ns_per_op(requests.size(), [&](std::size_t i) {
      g_sink += core::verify_tag_signature(*requests[i].tag, pki);
    });
  }
  {
    Scoped span(spans, "replay.tactic.precheck");
    out.precheck_ns = ns_per_op(requests.size(), [&](std::size_t i) {
      g_sink += static_cast<std::uint64_t>(core::edge_precheck(
          *requests[i].tag, requests[i].name, requests[i].when));
    });
  }
  {
    Scoped span(spans, "replay.topology.build");
    out.topology_build_s = median_seconds(3, [&] {
      event::Scheduler scheduler;
      util::Rng topology_rng(seed);
      topology::Network built(scheduler, scenario.config().topology,
                              topology_rng);
      g_sink += built.node_count();
    });
  }
  return out;
}

}  // namespace perfbench
