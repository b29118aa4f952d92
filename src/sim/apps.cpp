#include "sim/apps.h"

#include <stdexcept>

#include "sim/diurnal.h"
#include "sim/mesh.h"

namespace fchain::sim {

std::string_view appKindName(AppKind kind) {
  switch (kind) {
    case AppKind::Rubis:
      return "RUBiS";
    case AppKind::SystemS:
      return "SystemS";
    case AppKind::Hadoop:
      return "Hadoop";
    case AppKind::Mesh:
      return "Mesh";
  }
  return "unknown";
}

ApplicationSpec makeRubisSpec() {
  ApplicationSpec spec;
  spec.name = "rubis";
  spec.wire_style = WireStyle::RequestReply;

  ComponentSpec web;
  web.name = "web";
  web.cpu_demand = 0.0015;
  web.net_in_per_unit = 2.0;
  web.net_out_per_unit = 6.0;  // serves static content + forwards
  web.mem_base = 420.0;
  web.mem_limit = 1500.0;
  // The front tier's accept queue holds many seconds of requests, so an
  // overload (workload surge, saturated app tier) shows up as queueing
  // latency rather than silent drops at the NIC.
  web.buffer_limit = 3000.0;
  web.noise_level = 0.05;

  ComponentSpec app1;
  app1.name = "app1";
  // EJB request handling is the costly tier; session state lives in RAM, so
  // a backed-up app server also shows a clear memory increase.
  app1.cpu_demand = 0.0075;
  app1.mem_per_queued = 0.2;
  app1.net_in_per_unit = 3.0;
  app1.net_out_per_unit = 3.0;
  app1.mem_base = 650.0;
  app1.mem_limit = 1500.0;
  app1.buffer_limit = 300.0;
  app1.noise_level = 0.05;

  ComponentSpec app2 = app1;
  app2.name = "app2";

  ComponentSpec db;
  db.name = "db";
  db.cpu_demand = 0.0025;
  db.net_in_per_unit = 3.0;
  db.net_out_per_unit = 4.0;
  db.disk_read_per_unit = 24.0;
  db.disk_write_per_unit = 8.0;
  db.disk_capacity = 60000.0;
  db.mem_base = 700.0;
  db.mem_limit = 1500.0;
  db.buffer_limit = 300.0;
  db.noise_level = 0.05;

  spec.components = {web, app1, app2, db};
  spec.edges = {
      {0, 1, 0.5},  // web -> app1
      {0, 2, 0.5},  // web -> app2
      {1, 3, 1.0},  // app1 -> db
      {2, 3, 1.0},  // app2 -> db
  };
  spec.reference_path = {0, 1, 3};
  return spec;
}

ApplicationSpec makeSystemSSpec() {
  ApplicationSpec spec;
  spec.name = "systems";
  spec.wire_style = WireStyle::Streaming;

  auto pe = [](std::string name) {
    ComponentSpec c;
    c.name = std::move(name);
    c.cpu_demand = 0.004;
    c.net_in_per_unit = 1.5;
    c.net_out_per_unit = 1.5;
    c.mem_base = 520.0;
    c.mem_limit = 1400.0;
    // Stream operators keep small input windows: back-pressure is fast
    // ("the fault propagates very quickly", paper §III-B on Bottleneck).
    c.buffer_limit = 120.0;
    // Tuple windows live in RAM, so a growing input queue is visible as a
    // clear memory increase on the back-pressured PE.
    c.mem_per_queued = 0.5;
    c.noise_level = 0.06;
    return c;
  };

  ComponentSpec pe1 = pe("PE1");
  pe1.cpu_demand = 0.003;  // source/ingest is cheap
  ComponentSpec pe2 = pe("PE2");
  ComponentSpec pe3 = pe("PE3");
  ComponentSpec pe4 = pe("PE4");
  ComponentSpec pe5 = pe("PE5");
  ComponentSpec pe6 = pe("PE6");
  pe6.join_inputs = true;  // joins PE2 and PE3 streams in lockstep
  ComponentSpec pe7 = pe("PE7");

  spec.components = {pe1, pe2, pe3, pe4, pe5, pe6, pe7};
  spec.edges = {
      {0, 1, 0.4},  // PE1 -> PE2
      {0, 2, 0.4},  // PE1 -> PE3
      {0, 3, 0.2},  // PE1 -> PE4
      {1, 5, 1.0},  // PE2 -> PE6
      {2, 5, 1.0},  // PE3 -> PE6
      {3, 4, 1.0},  // PE4 -> PE5
      {5, 6, 1.0},  // PE6 -> PE7
      {4, 6, 1.0},  // PE5 -> PE7
  };
  spec.reference_path = {0, 2, 5, 6};  // PE1 -> PE3 -> PE6 -> PE7
  return spec;
}

ApplicationSpec makeHadoopSpec() {
  ApplicationSpec spec;
  spec.name = "hadoop";
  spec.wire_style = WireStyle::RequestReply;
  spec.batch = true;

  // Three map nodes sort 12 GB: each handles 4 GB in ~300 KB units
  // (~13,400 units) at up to ~100 units/s, so the job spans the whole run.
  auto map = [](std::string name) {
    ComponentSpec c;
    c.name = std::move(name);
    c.cpu_demand = 0.0055;
    c.disk_read_per_unit = 300.0;
    c.disk_write_per_unit = 90.0;  // spill files
    c.disk_capacity = 52000.0;
    c.net_out_per_unit = 280.0;  // shuffle
    c.mem_base = 900.0;
    c.mem_limit = 1600.0;
    c.buffer_limit = 400.0;
    c.self_work_total = 360000.0;  // effectively inexhaustible within a run
    c.self_work_rate = 100.0;
    c.noise_level = 0.10;          // Hadoop is "much more dynamic"
    c.spike_probability = 0.05;    // periodic spill bursts
    c.spike_magnitude = 0.9;
    return c;
  };
  auto reduce = [](std::string name) {
    ComponentSpec c;
    c.name = std::move(name);
    // Reducers buffer shuffled data and drain it in periodic merge bursts
    // (6 s of work every 20 s), which is what makes reduce-node metrics so
    // bursty in practice (paper Fig. 3).
    c.cpu_demand = 0.009;
    c.cpu_capacity = 1.8;
    c.burst_period_sec = 20;
    c.burst_len_sec = 6;
    c.net_in_per_unit = 280.0;
    c.disk_write_per_unit = 260.0;
    c.disk_capacity = 55000.0;
    c.mem_base = 800.0;
    c.mem_limit = 1600.0;
    c.buffer_limit = 2500.0;
    c.mem_per_queued = 0.01;
    c.noise_level = 0.10;
    c.spike_probability = 0.04;
    c.spike_magnitude = 0.7;
    return c;
  };

  spec.components = {map("map1"),    map("map2"),    map("map3"),
                     reduce("red1"), reduce("red2"), reduce("red3"),
                     reduce("red4"), reduce("red5"), reduce("red6")};
  for (ComponentId m = 0; m < 3; ++m) {
    for (ComponentId r = 3; r < 9; ++r) {
      // Shuffle fetches are batched: reducers see map-side changes with a
      // multi-second lag.
      spec.edges.push_back({m, r, 1.0 / 6.0, /*delay_sec=*/8});
    }
  }
  spec.reference_path = {0, 3};
  return spec;
}

ApplicationSpec makeAppSpec(AppKind kind) {
  switch (kind) {
    case AppKind::Rubis:
      return makeRubisSpec();
    case AppKind::SystemS:
      return makeSystemSSpec();
    case AppKind::Hadoop:
      return makeHadoopSpec();
    case AppKind::Mesh:
      return makeMicroMeshSpec(MeshConfig{});
  }
  throw std::invalid_argument("unknown AppKind");
}

double sloLatencyThreshold(AppKind kind) {
  switch (kind) {
    case AppKind::Rubis:
      return 0.100;  // 100 ms average response time
    case AppKind::SystemS:
      return 0.020;  // 20 ms per-tuple processing time
    case AppKind::Hadoop:
      return 0.0;  // progress-based SLO instead
    case AppKind::Mesh:
      return meshSloLatencyThreshold(MeshConfig{});
  }
  throw std::invalid_argument("unknown AppKind");
}

Application makeApplication(AppKind kind, std::size_t seconds, Rng& rng) {
  if (kind == AppKind::Mesh) {
    return makeMicroMesh(MeshConfig{}, seconds, rng);
  }
  Application app(makeAppSpec(kind), rng.next());
  switch (kind) {
    case AppKind::Rubis:
      app.setWorkload(generateDiurnalTrace(nasaLikeConfig(), seconds, rng));
      break;
    case AppKind::SystemS:
      app.setWorkload(
          generateDiurnalTrace(clarknetLikeConfig(), seconds, rng));
      break;
    case AppKind::Hadoop:
      break;  // batch job: work comes from the map-side reservoirs
    case AppKind::Mesh:
      break;  // handled above
  }
  return app;
}

}  // namespace fchain::sim
