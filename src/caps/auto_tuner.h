// Threshold auto-tuning (paper §5.2).
//
// Identifies the minimum feasible pruning-threshold vector for a deployment in two phases:
//   Phase 1: per dimension, with the other dimensions disabled, relax from the tightest
//            bound (perfectly balanced placement) in doubling steps until a valid plan
//            exists, then bisect. Witnesses bracket the bisection: a feasible probe lowers
//            the bracket's upper end to the cost, in that dimension, of the plan it found.
//   Phase 2: starting from the per-dimension minima, relax all dimensions jointly until a
//            plan satisfying the full vector exists.
// Every probe is a find-first search on one thread within a fixed node budget; a probe
// that exhausts it counts as infeasible (the paper's per-probe budget, counted in nodes
// rather than seconds). So the plan a probe finds, and with it α, depends neither on thread
// timing nor on machine load. Results depend only on the query graph and resources, so
// they can be precomputed offline per scaling scenario.
#ifndef SRC_CAPS_AUTO_TUNER_H_
#define SRC_CAPS_AUTO_TUNER_H_

#include <cstdint>
#include <string>

#include "src/caps/cost_model.h"
#include "src/caps/search.h"

namespace capsys {

// Wall-clock safety stops. Each probe is bounded by its node budget first; these budgets
// only cap a tune on a machine so slow or loaded that the node budget would take longer.
// A probe or tune answered by them makes α depend on the machine (probes_timed_out > 0).
struct AutoTuneOptions {
  // Wall-clock budget across both phases.
  double timeout_s = 5.0;
  // Wall-clock budget per feasibility probe; a probe that exceeds it counts as infeasible.
  double probe_timeout_s = 0.25;
};

struct AutoTuneResult {
  bool feasible = false;
  ResourceVector alpha;        // the minimum feasible threshold vector found
  ResourceVector phase1_alpha;  // per-dimension minima with other dimensions disabled
  int iterations = 0;           // total feasibility probes run
  uint64_t nodes = 0;           // search nodes walked, summed over the probes
  // Probes that walked their whole node budget without finding a plan; they count as
  // infeasible, and the same ones do on every run.
  int probes_over_budget = 0;
  // Probes whose answer came from the wall clock (the probe's time budget ran out before
  // the search found a plan or proved there is none); α depends on machine load when > 0.
  int probes_timed_out = 0;
  double elapsed_s = 0.0;
  bool timed_out = false;

  std::string ToString() const;
};

// Runs the two-phase auto-tuning procedure against `model`.
AutoTuneResult AutoTuneThresholds(const CostModel& model, const AutoTuneOptions& options = {});

}  // namespace capsys

#endif  // SRC_CAPS_AUTO_TUNER_H_
