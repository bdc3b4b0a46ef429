// Ablation: contention-aware fabric vs the closed-form alpha-beta model.
//
// Three questions, one per section:
//   1. Agreement — on an uncongested full-bisection rack, does the fabric's
//      emergent ring all-reduce reproduce Eq. 1? (It must, within the
//      documented per-step-latency + pipeline-fill tolerance; this is the
//      property that licenses trusting it anywhere else.)
//   2. Divergence — as the spine oversubscription ratio grows, how far does
//      the naive all-gather drift from the analytic formula's hand-tuned
//      incast_penalty? The queueing model needs no penalty knob: the
//      buildup at the spine and receiver links IS the incast
//      (Section 4.3's unmodeled 14.2% SignSGD error).
//   3. End to end — full ClusterSim iterations priced by the fabric, with
//      trace::validate asserting every produced timeline.
//
// Emits BENCH_fabric.json. `--smoke` shrinks the sweep for CI.
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "fabric/collectives.hpp"

int main(int argc, char** argv) {
  gradcomp::bench::init_jobs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--smoke") smoke = true;

  using namespace gradcomp;
  using fabric::GatherPattern;
  bench::print_header(
      "Ablation — event-driven network fabric vs alpha-beta cost model (10 Gbps)",
      "contention (incast, oversubscription) emerges from per-link queues instead of a fudge");

  const comm::Network net = comm::Network::from_gbps(10.0);
  const fabric::FabricOptions fopt;
  struct JsonRow {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<JsonRow> json_rows;

  const auto flat_spec = [&](int p) {
    fabric::TopologySpec s;
    s.world_size = p;
    s.nodes_per_rack = p;  // one full-bisection rack
    s.nic_bandwidth = net.bandwidth;
    s.nic_latency = net.alpha / 2.0;
    return s;
  };
  const auto racked_spec = [&](int p, double ratio) {
    fabric::TopologySpec s = flat_spec(p);
    s.nodes_per_rack = 4;
    s.oversubscription = ratio;
    return s;
  };

  // --- 1. Uncongested agreement with Eq. 1 -----------------------------------
  const std::vector<int> worlds = smoke ? std::vector<int>{4, 8} : std::vector<int>{4, 8, 16, 32};
  // 64 MiB keeps the bandwidth-bound points truly bandwidth-bound (the 5%
  // tolerance assumes the alpha terms are noise); it is cheap even in smoke.
  const double big = 64.0 * 1024 * 1024;
  std::cout << "\n--- Uncongested full-bisection rack: fabric / analytic ratio ---\n";
  stats::Table agree({"GPUs", "ring 256 KiB", "ring " + std::to_string(int(big / (1 << 20))) +
                                                  " MiB",
                      "tree (bw-bound)", "allgather-ring (bw-bound)"});
  bool within_tolerance = true;
  for (const int p : worlds) {
    const fabric::Topology topo{flat_spec(p)};
    const auto ratio = [&](double fab, double ana) { return fab / ana; };
    const double small_r =
        ratio(fabric::ring_allreduce(topo, fopt, core::Bytes{256.0 * 1024}).elapsed.value(),
              comm::ring_allreduce_seconds(core::Bytes{256.0 * 1024}, p, net).value());
    const double big_r =
        ratio(fabric::ring_allreduce(topo, fopt, core::Bytes{big}).elapsed.value(),
              comm::ring_allreduce_seconds(core::Bytes{big}, p, net).value());
    const double tree_r =
        ratio(fabric::tree_allreduce(topo, fopt, core::Bytes{big}).elapsed.value(),
              comm::tree_allreduce_seconds(core::Bytes{big}, p, net).value());
    const double gather_r =
        ratio(fabric::allgather(topo, fopt, core::Bytes{big / p}, GatherPattern::kRing)
                  .elapsed.value(),
              comm::allgather_seconds(core::Bytes{big / p}, p, net).value());
    // Documented tolerance: bandwidth-bound collectives within 5%; the
    // latency-heavy 256 KiB point may run up to the 2x alpha-term bound.
    within_tolerance = within_tolerance && big_r >= 1.0 && big_r <= 1.05 && tree_r <= 1.05 &&
                       gather_r <= 1.05 && small_r <= 2.2;
    agree.add_row({std::to_string(p), stats::Table::fmt(small_r, 3), stats::Table::fmt(big_r, 3),
                   stats::Table::fmt(tree_r, 3), stats::Table::fmt(gather_r, 3)});
    json_rows.push_back({"agree/ring_small/p" + std::to_string(p), small_r, "ratio"});
    json_rows.push_back({"agree/ring_big/p" + std::to_string(p), big_r, "ratio"});
    json_rows.push_back({"agree/tree_big/p" + std::to_string(p), tree_r, "ratio"});
    json_rows.push_back({"agree/gather_ring_big/p" + std::to_string(p), gather_r, "ratio"});
  }
  bench::emit(agree);

  // --- 2. Oversubscription sweep: emergent incast ----------------------------
  const int p = smoke ? 8 : 16;
  const double gather_bytes = (smoke ? 1.0 : 4.0) * 1024 * 1024;
  comm::Network penalized = net;
  penalized.incast_penalty = 0.08;  // the analytic model's hand-tuned stand-in
  const double analytic_gather_ms =
      comm::allgather_seconds(core::Bytes{gather_bytes}, p, penalized).ms();
  std::cout << "\n--- " << p << " GPUs, 4 nodes/rack, " << int(gather_bytes / (1 << 20))
            << " MiB/rank all-gather; analytic w/ incast fudge = "
            << stats::Table::fmt_ms(analytic_gather_ms / 1e3) << " ms ---\n";
  stats::Table sweep({"oversub", "gather-direct (ms)", "gather-ring (ms)", "max queue depth",
                      "ring-allreduce (ms)", "interleaved ring (ms)"});
  double direct_at_1 = 0.0, direct_at_max = 0.0;
  const std::vector<double> ratios = smoke ? std::vector<double>{1.0, 4.0}
                                           : std::vector<double>{1.0, 2.0, 4.0, 8.0};
  for (const double ratio : ratios) {
    const fabric::Topology topo{racked_spec(p, ratio)};
    const auto direct =
        fabric::allgather(topo, fopt, core::Bytes{gather_bytes}, GatherPattern::kDirect);
    const auto ring =
        fabric::allgather(topo, fopt, core::Bytes{gather_bytes}, GatherPattern::kRing);
    const auto aware = fabric::ring_allreduce(topo, fopt, core::Bytes{gather_bytes});
    const auto inter =
        fabric::ring_allreduce(topo, fopt, core::Bytes{gather_bytes},
                               topo.interleaved_ring_order());
    if (ratio == 1.0) direct_at_1 = direct.elapsed.value();
    direct_at_max = direct.elapsed.value();
    sweep.add_row({stats::Table::fmt(ratio, 0) + ":1", stats::Table::fmt_ms(direct.elapsed.value()),
                   stats::Table::fmt_ms(ring.elapsed.value()),
                   std::to_string(direct.max_queue_depth),
                   stats::Table::fmt_ms(aware.elapsed.value()),
                   stats::Table::fmt_ms(inter.elapsed.value())});
    const std::string tag = "over" + std::to_string(static_cast<int>(ratio));
    json_rows.push_back({"incast/gather_direct/" + tag, direct.elapsed.ms(), "ms"});
    json_rows.push_back({"incast/gather_ring/" + tag, ring.elapsed.ms(), "ms"});
    json_rows.push_back(
        {"incast/queue_depth/" + tag, static_cast<double>(direct.max_queue_depth), "packets"});
    json_rows.push_back({"incast/ring_aware/" + tag, aware.elapsed.ms(), "ms"});
    json_rows.push_back({"incast/ring_interleaved/" + tag, inter.elapsed.ms(), "ms"});
  }
  bench::emit(sweep);
  json_rows.push_back({"incast/analytic_with_fudge", analytic_gather_ms, "ms"});
  const bool incast_diverges = direct_at_max > direct_at_1 * 1.2;
  std::cout << "\nShape check: oversubscribing the spine stretches the direct all-gather\n"
               "by queue buildup alone (no penalty knob anywhere): "
            << (incast_diverges ? "PASS" : "FAIL") << "\n";

  // --- 3. End-to-end ClusterSim iterations (trace-validated) -----------------
  const core::Workload workload = bench::make_workload(models::resnet50(), 64);
  const core::Cluster cluster = bench::default_cluster(p);
  bool validated = true;
  stats::Table e2e({"pricing", "syncSGD (ms)", "SignSGD (ms)"});
  double fab_sync_ms = 0.0, ana_sync_ms = 0.0;
  for (const bool use_fabric : {false, true}) {
    sim::SimOptions o;
    o.validate_timeline = true;  // throws std::logic_error on any violation
    if (use_fabric) {
      o.network_model = sim::NetworkModel::kFabric;
      o.fabric_topology.nodes_per_rack = 4;
      o.fabric_topology.oversubscription = 4.0;
    } else {
      o.incast_penalty = 0.08;
    }
    try {
      sim::ClusterSim simulator(cluster, o);
      const double sync = simulator.run_syncsgd(workload).iteration_time.ms();
      const double sign =
          simulator.run_compressed(bench::make_config(compress::Method::kSignSgd), workload)
              .iteration_time.ms();
      (use_fabric ? fab_sync_ms : ana_sync_ms) = sync;
      e2e.add_row({use_fabric ? "fabric (4:1 spine)" : "analytic + fudge",
                   stats::Table::fmt(sync, 2), stats::Table::fmt(sign, 2)});
      json_rows.push_back({std::string("e2e/") + (use_fabric ? "fabric" : "analytic") + "/syncsgd",
                           sync, "ms"});
      json_rows.push_back({std::string("e2e/") + (use_fabric ? "fabric" : "analytic") + "/signsgd",
                           sign, "ms"});
    } catch (const std::logic_error&) {
      validated = false;
    }
  }
  bench::emit(e2e);
  std::cout << "Fabric-priced syncSGD vs analytic: " << stats::Table::fmt(fab_sync_ms, 2) << " vs "
            << stats::Table::fmt(ana_sync_ms, 2)
            << " ms (hierarchy + queueing visible, same order of magnitude).\n";
  std::cout << "All fabric timelines trace::validate clean: " << (validated ? "PASS" : "FAIL")
            << "\n";
  json_rows.push_back({"check/uncongested_within_tolerance", within_tolerance ? 1.0 : 0.0, "bool"});
  json_rows.push_back({"check/incast_divergence", incast_diverges ? 1.0 : 0.0, "bool"});
  json_rows.push_back({"check/timelines_validate", validated ? 1.0 : 0.0, "bool"});

  // --- BENCH_fabric.json -----------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"context\": {\n"
       << "    \"executable\": \"ablation_fabric\",\n"
       << "    \"gbps\": 10.0,\n"
       << "    \"packet_bytes\": " << fopt.packet_bytes.value() << ",\n"
       << "    \"sweep_world\": " << p << ",\n"
       << "    \"smoke\": " << (smoke ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    const auto& r = json_rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"real_time\": " << r.value
         << ", \"cpu_time\": " << r.value << ", \"time_unit\": \"" << r.unit << "\"}"
         << (i + 1 < json_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << '\n' << json.str();
  std::ofstream("BENCH_fabric.json") << json.str();
  return (within_tolerance && incast_diverges && validated) ? 0 : 1;
}
