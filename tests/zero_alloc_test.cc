// Asserts the steady-state simulator tick performs no heap allocation.
//
// The global operator new/new[] are replaced with counting versions. After a warmup that
// grows every arena to its final size, a window of Step() calls must not allocate at all —
// this is the enforcement half of the "arena-based simulator ticks" refactor, so an
// accidental per-tick std::vector cannot creep back in unnoticed. Both tick paths are
// checked: a window forced through the contention solve and a window of replayed
// fixed-point ticks. Two more tests bound the flush paths, stepped and replayed whole, which
// append to the metric table.
//
// Not registered in the sanitizer CI jobs: ASan/TSan interpose their own allocators.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace capsys {
namespace {

// Worker 4 of the five-worker cluster hosts no task: the placement is computed for
// workers 0-3.
constexpr WorkerId kIdleWorker = 4;

// Counts heap allocations made while `body` runs.
template <typename F>
uint64_t CountAllocs(F&& body) {
  g_allocs.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocs.load();
}

// Counts heap allocations over `steps` ticks. With `force_full_solve` the checkpoint I/O
// of the idle worker toggles every tick, a worker-input change that makes every tick run
// the contention solve instead of replaying a fixed point.
uint64_t CountAllocsDuringSteps(FluidSimulator& sim, int steps, bool force_full_solve) {
  return CountAllocs([&] {
    for (int i = 0; i < steps; ++i) {
      if (force_full_solve) {
        sim.SetWorkerCheckpointIoBps(kIdleWorker, i % 2 == 0 ? 1e6 : 0.0);
      }
      sim.Step();
    }
  });
}

// A simulator of `q` on workers 0-3 of a five-worker cluster, warmed for 1000 ticks until
// its queues fill and every scratch vector and solver arena reaches its final size.
FluidSimulator WarmSimulator(const QuerySpec& q, double metrics_interval_s) {
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster placed_on(4, WorkerSpec::R5dXlarge(4));
  CostModel model(graph, placed_on,
                  TaskDemands(graph, PropagateRates(q.graph, q.source_rates)));
  FluidSimulator sim(graph, Cluster(5, WorkerSpec::R5dXlarge(4)),
                     GreedyBalancedPlacement(model), metrics_interval_s);
  sim.SetAllSourceRates(q.TotalTargetRate());
  for (int i = 0; i < 1000; ++i) {
    sim.Step();
  }
  return sim;
}

// Checks a solved window and a replayed window of a warmed simulator of `q`.
void ExpectBothTickPathsAllocationFree(const QuerySpec& q) {
  // A flush appends to the metric table (bounded by FlushPathOnlyGrowsTheTable); an
  // interval of 1e18 s keeps flushes out of these windows.
  FluidSimulator sim = WarmSimulator(q, /*metrics_interval_s=*/1e18);
  uint64_t replayed = sim.replayed_ticks();
  EXPECT_EQ(CountAllocsDuringSteps(sim, 1000, /*force_full_solve=*/true), 0u);
  EXPECT_EQ(sim.replayed_ticks(), replayed) << "a forced tick replayed";

  for (int i = 0; i < 10; ++i) {
    sim.Step();  // back to a fixed point
  }
  replayed = sim.replayed_ticks();
  EXPECT_EQ(CountAllocsDuringSteps(sim, 1000, /*force_full_solve=*/false), 0u);
  EXPECT_EQ(sim.replayed_ticks(), replayed + 1000) << "a steady tick ran the full solve";
}

TEST(ZeroAllocTest, SteadyStateStepDoesNotAllocate) {
  ExpectBothTickPathsAllocationFree(BuildQ3Inf());
}

// Backpressure (full queues, emit throttling) exercises the remaining tick branches; they
// must be allocation-free too. Q2's rates saturate the cluster.
TEST(ZeroAllocTest, BackpressuredStepDoesNotAllocate) {
  ExpectBothTickPathsAllocationFree(BuildQ2Join());
}

// A flush appends one time stamp and one row each of means and running sums to the
// simulator's metric table, so over 2000 flushes it allocates only when one of those three
// vectors doubles its capacity, not per flush or per series.
TEST(ZeroAllocTest, FlushPathOnlyGrowsTheTable) {
  FluidSimulator sim = WarmSimulator(BuildQ3Inf(), /*metrics_interval_s=*/1.0);
  uint64_t replayed = sim.replayed_ticks();
  uint64_t allocs = CountAllocsDuringSteps(sim, 20000, /*force_full_solve=*/false);
  EXPECT_EQ(sim.replayed_ticks(), replayed + 20000) << "a steady tick ran the full solve";
  EXPECT_LE(allocs, 64u);
}

// RunFor(1 s) replays a steady interval whole by copying the last flushed row, which must
// stay within the same bound as the per-tick flush path.
TEST(ZeroAllocTest, IntervalReplayOnlyGrowsTheTable) {
  FluidSimulator sim = WarmSimulator(BuildQ3Inf(), /*metrics_interval_s=*/1.0);
  uint64_t replayed = sim.replayed_ticks();
  uint64_t flushes = sim.replayed_flushes();
  uint64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 2000; ++i) {
      sim.RunFor(1.0);
    }
  });
  EXPECT_EQ(sim.replayed_ticks(), replayed + 20000) << "a steady tick ran the full solve";
  EXPECT_GT(sim.replayed_flushes(), flushes + 1000) << "most intervals were stepped";
  EXPECT_LE(allocs, 64u);
}

}  // namespace
}  // namespace capsys
