#include "sim/mesh.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/diurnal.h"

namespace fchain::sim {

namespace {

constexpr double kEps = 1e-9;
/// Sustained workload peak over the mean (diurnal crest plus flash-crowd
/// headroom); capacity calibration targets `peak_utilization` here.
constexpr double kPeakFactor = 2.0;
/// SLO threshold = this multiple of the healthy reference-path service time.
constexpr double kSloFactor = 6.0;

/// Services per tier: a narrow entry tier of gateways, even fan-out middle
/// tiers, and a data tier of stores. Sized so that every tier is coverable
/// from the previous one within the fan-out bound.
std::vector<std::size_t> tierWidths(const MeshConfig& config) {
  if (config.tiers < 3) {
    throw std::invalid_argument("MeshConfig needs >= 3 tiers");
  }
  const std::size_t middle_tiers = config.tiers - 2;
  const auto entry = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             static_cast<double>(config.services) * 0.08)));
  const auto data = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             static_cast<double>(config.services) * 0.10)));
  if (config.services < entry + data + 2 * middle_tiers) {
    throw std::invalid_argument("MeshConfig has too few services for tiers");
  }
  std::vector<std::size_t> widths;
  widths.push_back(entry);
  const std::size_t middle_total = config.services - entry - data;
  for (std::size_t t = 0; t < middle_tiers; ++t) {
    const std::size_t share = middle_total / middle_tiers +
                              (t < middle_total % middle_tiers ? 1 : 0);
    widths.push_back(share);
  }
  widths.push_back(data);
  for (std::size_t t = 0; t + 1 < widths.size(); ++t) {
    if (widths[t + 1] > widths[t] * config.max_fanout) {
      throw std::invalid_argument(
          "MeshConfig fan-out bound cannot cover the next tier");
    }
  }
  return widths;
}

}  // namespace

MeshConfig meshConfigFor(std::size_t services, std::uint64_t seed) {
  MeshConfig config;
  config.services = services;
  config.seed = seed;
  // Small meshes shed depth so every tier keeps >= 2 services.
  while (config.tiers > 3 && services < 4 + 3 * (config.tiers - 2)) {
    --config.tiers;
  }
  return config;
}

ApplicationSpec makeMicroMeshSpec(const MeshConfig& config) {
  if (config.min_fanout == 0 || config.max_fanout < config.min_fanout) {
    throw std::invalid_argument("MeshConfig fan-out bounds are invalid");
  }
  const std::vector<std::size_t> widths = tierWidths(config);
  Rng rng(mixSeed(config.seed, 0x3e5a11ull));

  // Global service ids per tier.
  std::vector<std::vector<ComponentId>> tier_ids(widths.size());
  std::vector<std::size_t> tier_of;
  ComponentId next = 0;
  for (std::size_t t = 0; t < widths.size(); ++t) {
    for (std::size_t i = 0; i < widths[t]; ++i) {
      tier_ids[t].push_back(next++);
      tier_of.push_back(t);
    }
  }

  // Adjacency per parent (insertion order is deterministic).
  std::vector<std::vector<ComponentId>> children(config.services);
  for (std::size_t t = 0; t + 1 < widths.size(); ++t) {
    const auto& parents = tier_ids[t];
    const auto& kids = tier_ids[t + 1];
    // Coverage first: a rotated round-robin gives every child exactly one
    // parent while keeping parent degrees within ceil(kids/parents), which
    // the width feasibility check bounds by max_fanout.
    const std::size_t offset = rng.below(parents.size());
    for (std::size_t c = 0; c < kids.size(); ++c) {
      children[parents[(offset + c) % parents.size()]].push_back(kids[c]);
    }
    // Then top up every parent to its drawn fan-out with distinct extra
    // children (bounded rejection sampling, deterministic from the rng).
    for (const ComponentId parent : parents) {
      const std::size_t hi = std::min(config.max_fanout, kids.size());
      const std::size_t lo = std::min(config.min_fanout, hi);
      const auto fanout = static_cast<std::size_t>(
          rng.intIn(static_cast<std::int64_t>(lo),
                    static_cast<std::int64_t>(hi)));
      auto& mine = children[parent];
      for (std::size_t attempt = 0;
           mine.size() < fanout && attempt < 8 * kids.size(); ++attempt) {
        const ComponentId pick = kids[rng.below(kids.size())];
        if (std::find(mine.begin(), mine.end(), pick) == mine.end()) {
          mine.push_back(pick);
        }
      }
    }
  }

  ApplicationSpec spec;
  spec.name = "mesh" + std::to_string(config.services);
  spec.wire_style = WireStyle::RequestReply;

  // Expected mean load per service (units/s), propagated tier by tier. Only
  // cache edges (into the data tier) attenuate traffic; retries are idle at
  // healthy pressure.
  std::vector<double> load(config.services, 0.0);
  for (const ComponentId gw : tier_ids.front()) {
    load[gw] =
        config.base_users_per_sec / static_cast<double>(widths.front());
  }
  const std::size_t data_tier = widths.size() - 1;
  for (std::size_t t = 0; t + 1 < widths.size(); ++t) {
    for (const ComponentId parent : tier_ids[t]) {
      const double weight =
          1.0 / static_cast<double>(std::max<std::size_t>(
                    1, children[parent].size()));
      const double hit = (t + 1 == data_tier) ? config.cache_hit_ratio : 0.0;
      for (const ComponentId child : children[parent]) {
        load[child] += load[parent] * weight * (1.0 - hit);
      }
    }
  }

  // Components, calibrated from the propagated load.
  for (ComponentId id = 0; id < static_cast<ComponentId>(config.services);
       ++id) {
    const std::size_t t = tier_of[id];
    ComponentSpec c;
    const std::size_t index_in_tier = static_cast<std::size_t>(
        std::find(tier_ids[t].begin(), tier_ids[t].end(), id) -
        tier_ids[t].begin());
    if (t == 0) {
      c.name = "gw" + std::to_string(index_in_tier);
    } else if (t == data_tier) {
      c.name = "db" + std::to_string(index_in_tier);
    } else {
      c.name = "t" + std::to_string(t);
      c.name += "s" + std::to_string(index_in_tier);
    }
    const double peak_load = std::max(load[id] * kPeakFactor, kEps);
    c.cpu_capacity = 1.0;
    c.cpu_demand =
        std::clamp(config.peak_utilization / peak_load, 0.0002, 0.012);
    c.mem_base = 450.0 + 10.0 * static_cast<double>(rng.below(12));
    c.mem_limit = 1500.0;
    c.noise_level = 0.05;
    c.net_in_per_unit = 2.0;
    c.net_out_per_unit = 2.0;
    if (t == 0) {
      // The gateway's accept queue holds many seconds of requests so an
      // overload shows up as queueing latency rather than silent NIC drops.
      c.buffer_limit = std::max(200.0, load[id] * 12.0);
      c.mem_per_queued = 0.05;
    } else {
      c.buffer_limit = std::max(60.0, load[id] * 6.0);
      c.mem_per_queued = 0.15;  // request state in RAM: backlog is visible
    }
    if (t == data_tier) {
      c.disk_read_per_unit = 18.0;
      c.disk_write_per_unit = 6.0;
      c.disk_capacity =
          std::max(25000.0, peak_load * 24.0 / config.peak_utilization);
    }
    spec.components.push_back(std::move(c));
  }

  // Edges: per-caller weights split the call volume evenly; the data-tier
  // edges carry the cache, and every edge is a bounded-retry RPC client.
  for (std::size_t t = 0; t + 1 < widths.size(); ++t) {
    for (const ComponentId parent : tier_ids[t]) {
      const double weight =
          1.0 / static_cast<double>(std::max<std::size_t>(
                    1, children[parent].size()));
      for (const ComponentId child : children[parent]) {
        EdgeSpec e;
        e.from = parent;
        e.to = child;
        e.weight = weight;
        e.delay_sec = 1;
        if (t + 1 == data_tier && config.cache_hit_ratio > 0.0) {
          e.cache_hit_ratio = config.cache_hit_ratio;
          e.cache_knee = config.cache_headroom * load[parent] * weight;
        }
        e.max_retries = config.max_retries;
        e.retry_threshold = config.retry_threshold;
        e.retry_backoff_sec = config.retry_backoff_sec;
        spec.edges.push_back(e);
      }
    }
  }

  // Reference path: follow the heaviest-loaded child from the busiest
  // gateway down to the data tier.
  ComponentId cursor = tier_ids.front().front();
  for (const ComponentId gw : tier_ids.front()) {
    if (load[gw] > load[cursor]) cursor = gw;
  }
  spec.reference_path.push_back(cursor);
  while (!children[cursor].empty()) {
    ComponentId best = children[cursor].front();
    for (const ComponentId child : children[cursor]) {
      if (load[child] > load[best]) best = child;
    }
    spec.reference_path.push_back(best);
    cursor = best;
  }
  return spec;
}

double meshSloLatencyThreshold(const MeshConfig& config) {
  const ApplicationSpec spec = makeMicroMeshSpec(config);
  double healthy = 0.0;
  for (const ComponentId id : spec.reference_path) {
    healthy += spec.components[id].cpu_demand;
  }
  return std::max(0.08, kSloFactor * healthy);
}

Application makeMicroMesh(const MeshConfig& config, std::size_t seconds,
                          Rng& rng) {
  Application app(makeMicroMeshSpec(config), rng.next());
  DiurnalTraceConfig workload;
  workload.base_rate = config.base_users_per_sec;
  workload.diurnal_amplitude = 0.5;
  workload.diurnal_period_sec = 7200.0;
  workload.secondary_amplitude = 0.12;
  workload.noise_level = 0.06;
  workload.flash_per_hour = 1.5;
  workload.flash_magnitude = 0.5;
  workload.flash_duration_sec = 45.0;
  workload.phase = 1.1;
  app.setWorkload(generateDiurnalTrace(workload, seconds, rng));
  return app;
}

}  // namespace fchain::sim
