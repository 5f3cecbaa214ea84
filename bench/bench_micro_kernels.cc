// Microbenchmarks (google-benchmark) for the hot kernels on the placement and simulation
// paths: the contention solve, cost evaluation, greedy construction, find-first search and
// one simulator tick. These are the per-decision / per-tick costs that determine how large a
// deployment the controller can manage online.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench/perf_json.h"
#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/caps/search.h"
#include "src/common/logging.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

struct Q3Fixture {
  QuerySpec q = BuildQ3Inf();
  Cluster cluster{4, WorkerSpec::R5dXlarge(4)};
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  std::vector<ResourceVector> demands =
      TaskDemands(graph, PropagateRates(q.graph, q.source_rates));
  CostModel model{graph, cluster, demands};
};

void BM_SolveWorker(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  WorkerSpec spec = WorkerSpec::R5dXlarge(n);
  std::vector<TaskLoad> loads;
  for (int i = 0; i < n; ++i) {
    TaskLoad l;
    l.cpu_per_record = 1e-4;
    l.io_per_record = 5000;
    l.net_per_record = 2000;
    l.desired_rate = 5000;
    l.stateful = i % 2 == 0;
    l.gc_fraction = i % 3 == 0 ? 0.3 : 0.0;
    loads.push_back(l);
  }
  ContentionParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWorker(spec, params, loads));
  }
}
BENCHMARK(BM_SolveWorker)->Arg(4)->Arg(16)->Arg(64);

void BM_CostModelEvaluate(benchmark::State& state) {
  Q3Fixture f;
  Placement plan = GreedyBalancedPlacement(f.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Cost(plan));
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_GreedyPlacement(benchmark::State& state) {
  Q3Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyBalancedPlacement(f.model));
  }
}
BENCHMARK(BM_GreedyPlacement);

void BM_FindFirstSearch(benchmark::State& state) {
  Q3Fixture f;
  SearchOptions options;
  options.alpha = ResourceVector{0.5, 0.5, 0.8};
  options.find_first = true;
  for (auto _ : state) {
    CapsSearch search(f.model, options);
    benchmark::DoNotOptimize(search.Run());
  }
}
BENCHMARK(BM_FindFirstSearch);

void BM_ExhaustiveEnumeration(benchmark::State& state) {
  Q3Fixture f;
  for (auto _ : state) {
    SearchOptions options;
    options.reorder = false;
    CapsSearch search(f.model, options);
    benchmark::DoNotOptimize(search.Run());
  }
  state.SetItemsProcessed(state.iterations() * 950);  // plans per enumeration
}
BENCHMARK(BM_ExhaustiveEnumeration);

// Q3 placed on the fixture's four workers and simulated on a cluster with a fifth worker
// that hosts no task. Toggling the idle worker's checkpoint I/O changes a worker input every
// tick, which forces the full contention solve without changing any metric; plain Step()
// calls replay the warmed fixed point.
struct SimFixture {
  static constexpr WorkerId kIdleWorker = 4;
  Q3Fixture f;
  FluidSimulator sim;
  bool idle_io = false;

  explicit SimFixture(double metrics_interval_s = 5.0)
      : sim(f.graph, Cluster(5, WorkerSpec::R5dXlarge(4)), GreedyBalancedPlacement(f.model),
            metrics_interval_s) {
    sim.SetAllSourceRates(f.q.TotalTargetRate());
    sim.RunFor(5.0);  // warm
  }
  void SolvedStep() {
    idle_io = !idle_io;
    sim.SetWorkerCheckpointIoBps(kIdleWorker, idle_io ? 1e6 : 0.0);
    sim.Step();
  }
  uint64_t ReplayedTicks() const {
    return sim.replayed_ticks();
  }
};

void BM_SimulatorTick(benchmark::State& state) {
  SimFixture s;
  for (auto _ : state) {
    s.SolvedStep();
  }
  state.SetItemsProcessed(state.iterations() * s.f.graph.num_tasks());
}
BENCHMARK(BM_SimulatorTick);

void BM_SimulatorReplayTick(benchmark::State& state) {
  SimFixture s;
  for (auto _ : state) {
    s.sim.Step();
  }
  state.SetItemsProcessed(state.iterations() * s.f.graph.num_tasks());
}
BENCHMARK(BM_SimulatorReplayTick);

void BM_RatePropagation(benchmark::State& state) {
  QuerySpec q = BuildQ2Join();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PropagateRates(q.graph, q.source_rates));
  }
}
BENCHMARK(BM_RatePropagation);

// --- CAPSYS_BENCH_JSON mode: hand-timed scenarios for the perf-regression harness --------

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-`reps` timing: the minimum over repetitions filters scheduler noise, which
// matters because the CI perf-smoke job compares single runs against a committed baseline.
template <typename F>
double BestOfNs(F&& fn, int iters, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    double t0 = NowS();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    best = std::min(best, (NowS() - t0) * 1e9 / iters);
  }
  return best;
}

int RunPerfJson() {
  std::vector<std::pair<std::string, double>> entries;

  {  // One warmed simulator tick on Q3-inf (4x4 cluster), solved and replayed.
    SimFixture s;
    BestOfNs([&] { s.SolvedStep(); }, 20000, 1);  // warm
    uint64_t replayed = s.ReplayedTicks();
    entries.emplace_back("sim_tick_ns", BestOfNs([&] { s.SolvedStep(); }, 100000, 5));
    if (s.ReplayedTicks() != replayed) {
      std::fprintf(stderr, "sim_tick_ns: %llu timed ticks replayed instead of solving\n",
                   static_cast<unsigned long long>(s.ReplayedTicks() - replayed));
      return 1;
    }
    s.sim.Step();  // back to the fixed point
    replayed = s.ReplayedTicks();
    entries.emplace_back("sim_replay_tick_ns", BestOfNs([&] { s.sim.Step(); }, 100000, 5));
    if (s.ReplayedTicks() != replayed + 500000) {
      std::fprintf(stderr, "sim_replay_tick_ns: not every timed tick replayed\n");
      return 1;
    }
  }

  {  // One RunFor(1 s) of the replaying simulator at a 1 s flush interval: a whole interval
     // replayed by copying the last flushed row. Each call appends a row to the metric
     // table, and past about 6000 simulated seconds ten 0.1 s additions can fall short of
     // the flush test, so the run stays short.
    SimFixture s(/*metrics_interval_s=*/1.0);
    s.sim.RunFor(2.0);  // one interval of replayed ticks, then one copied row
    uint64_t replayed = s.ReplayedTicks();
    uint64_t flushes = s.sim.replayed_flushes();
    entries.emplace_back("sim_replay_interval_ns",
                         BestOfNs([&] { s.sim.RunFor(1.0); }, 1000, 5));
    if (s.ReplayedTicks() != replayed + 50000 || s.sim.replayed_flushes() != flushes + 5000) {
      std::fprintf(stderr, "sim_replay_interval_ns: not every timed interval replayed\n");
      return 1;
    }
  }

  {  // The per-worker contention solve in isolation (16 co-located tasks, arena variant).
    WorkerSpec spec = WorkerSpec::R5dXlarge(16);
    std::vector<TaskLoad> loads;
    for (int i = 0; i < 16; ++i) {
      TaskLoad l;
      l.cpu_per_record = 1e-4;
      l.io_per_record = 5000;
      l.net_per_record = 2000;
      l.desired_rate = 5000;
      l.stateful = i % 2 == 0;
      l.gc_fraction = i % 3 == 0 ? 0.3 : 0.0;
      loads.push_back(l);
    }
    ContentionParams params;
    WorkerScratch scratch;
    WorkerAllocation out;
    entries.emplace_back("solve_worker16_ns", BestOfNs([&] {
                           SolveWorkerInPlace(spec, params, loads, scratch, out);
                           benchmark::DoNotOptimize(out.utilization.cpu);
                         },
                         20000, 5));
  }

  {  // Single-threaded exhaustive enumeration of Q3 (950 plans) — search nodes/s, plans/s.
    Q3Fixture f;
    double nodes_per_s = 0.0;
    double plans_per_s = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      SearchOptions options;
      options.reorder = false;
      CapsSearch search(f.model, options);
      SearchResult r = search.Run();
      nodes_per_s = std::max(nodes_per_s, r.stats.nodes / r.stats.elapsed_s);
      plans_per_s = std::max(plans_per_s, r.stats.leaves / r.stats.elapsed_s);
    }
    entries.emplace_back("search_nodes_per_s", nodes_per_s);
    entries.emplace_back("search_plans_per_s", plans_per_s);
  }

  benchjson::Merge(entries);
  return 0;
}

}  // namespace
}  // namespace capsys

int main(int argc, char** argv) {
  capsys::InitLoggingFromEnv();
  if (capsys::benchjson::Enabled()) {
    return capsys::RunPerfJson();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
