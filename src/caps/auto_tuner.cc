#include "src/caps/auto_tuner.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// Multiplicative relaxation step per iteration; the paper uses 1.1 for both phases.
constexpr double kRelaxFactor = 1.1;
// Additive floor on each relaxation step. Purely multiplicative relaxation stalls when a
// dimension's phase-1 minimum is degenerate (e.g. C_net = 0 is always achievable by
// co-locating everything), which would let the other dimensions over-relax to 1 before the
// stalled dimension becomes jointly feasible.
constexpr double kMinStep = 0.01;
// Tightest initial bound (a strictly positive cost floor to start relaxing from).
constexpr double kInitialAlpha = 0.005;

// Inner-search nodes a feasibility probe may expand before it counts as infeasible. Near a
// dimension's minimum a find-first walk can take hundreds of thousands of nodes to reach
// its first leaf while the bracket narrows by 0.01; the budget gives such probes up,
// slightly over-relaxing that minimum.
constexpr uint64_t kProbeNodeBudget = 20'000;

// Runs a find-first feasibility probe with the given thresholds and remaining wall-clock
// budget, on one thread: a parallel find-first stops at whichever leaf some thread reaches
// first, so its plan, and with it the witness bracket of phase 1, would depend on thread
// timing.
SearchResult Probe(const CostModel& model, const ResourceVector& alpha, double budget_s) {
  SearchOptions options;
  options.alpha = alpha;
  options.find_first = true;
  options.reorder = true;
  options.timeout_s = budget_s;
  options.max_nodes = kProbeNodeBudget;
  return CapsSearch(model, options).Run();
}

// Slack on a witness, in cost units. The search tracks loads incrementally, so a plan's
// load, and the cost CostOfLoad makes of it, can differ by rounding errors between the walk
// that found it and a later walk under LoadBound(witness); without the slack that walk can
// prune the very plan that set the bound.
constexpr double kWitnessSlack = 1e-9;

// The upper end of a phase-1 bracket after a feasible probe at `probed`: the cost, in the
// probed dimension, of the plan the probe found, which is at most `probed`. A perfectly
// balanced load can come out of CostOfLoad a rounding error below 0, hence the clamp.
double WitnessBracket(double probed, double witness) {
  return std::min(probed, std::max(0.0, witness) + kWitnessSlack);
}

}  // namespace

std::string AutoTuneResult::ToString() const {
  return Sprintf("alpha=%s feasible=%d iterations=%d nodes=%llu probes_over_budget=%d "
                 "probes_timed_out=%d elapsed=%.3fs%s",
                 alpha.ToString().c_str(), feasible ? 1 : 0, iterations,
                 static_cast<unsigned long long>(nodes), probes_over_budget, probes_timed_out,
                 elapsed_s, timed_out ? " TIMED_OUT" : "");
}

AutoTuneResult AutoTuneThresholds(const CostModel& model, const AutoTuneOptions& options) {
  Span tune_span("caps.autotune");
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  AutoTuneResult result;
  // Ends the tune: records the elapsed time, also on the span, and returns the result.
  auto finish = [&]() -> AutoTuneResult {
    result.elapsed_s = elapsed();
    tune_span.AddAttr("iterations", result.iterations);
    tune_span.AddAttr("nodes", result.nodes);
    tune_span.AddAttr("probes_timed_out", result.probes_timed_out);
    return result;
  };
  // Each feasibility probe is one tuning iteration: a find-first search under the candidate
  // thresholds within kProbeNodeBudget nodes and `budget_s` seconds, traced as its own
  // (nested) span. It returns the cost of the plan it found, the witness; a probe that runs
  // out of either budget before it finds a plan counts as infeasible and returns nothing.
  auto probe = [&](const ResourceVector& alpha,
                   double budget_s) -> std::optional<ResourceVector> {
    Span probe_span("caps.autotune.probe");
    probe_span.AddAttr("iteration", result.iterations);
    probe_span.AddAttr("alpha", alpha.ToString());
    ++result.iterations;
    std::optional<ResourceVector> witness;
    bool timed_out = budget_s <= 0.0;
    if (!timed_out) {
      SearchResult search = Probe(model, alpha, budget_s);
      result.nodes += search.stats.nodes;
      if (search.found) {
        witness = search.best.cost;
      } else if (search.stats.budget_hit) {
        ++result.probes_over_budget;
        probe_span.AddAttr("budget_hit", "true");
      }
      timed_out = !search.found && search.stats.timed_out;
    }
    if (timed_out) {
      ++result.probes_timed_out;
      probe_span.AddAttr("timed_out", "true");
    }
    probe_span.AddAttr("feasible", witness.has_value() ? "true" : "false");
    return witness;
  };
  auto probe_budget = [&] {
    return std::min(options.probe_timeout_s, options.timeout_s - elapsed());
  };
  auto out_of_time = [&] { return elapsed() > options.timeout_s; };

  // Phase 1: per-dimension minimum with the other dimensions disabled. Starting from the
  // tightest bound, the threshold is relaxed with geometrically growing steps until a valid
  // plan exists, then refined by bisection — logarithmically many probes, each of which may
  // walk up to kProbeNodeBudget nodes when it must prove (or give up on) infeasibility. A
  // feasible probe closes the bracket at its witness, not at the probed threshold, so every
  // bracket ends at the cost of a plan that exists.
  for (Resource r : kAllResources) {
    double lo = 0.0;
    double hi = kInitialAlpha;
    double step = std::max(kMinStep, kInitialAlpha * (kRelaxFactor - 1.0));
    bool found = false;
    while (!found) {
      if (out_of_time()) {
        result.timed_out = true;
        return finish();
      }
      ResourceVector alpha{1.0, 1.0, 1.0};
      alpha[r] = std::min(hi, 1.0);
      if (auto witness = probe(alpha, probe_budget())) {
        hi = WitnessBracket(alpha[r], (*witness)[r]);
        found = true;
        break;
      }
      lo = hi;
      if (hi >= 1.0) {
        // Even alpha = 1 (pruning disabled) found nothing within the probe budget; treat
        // the dimension as unconstrained.
        found = true;
        break;
      }
      step *= 2.0;
      hi = std::min(1.0, hi + step);
    }
    // Bisection refinement toward the minimum feasible value.
    for (int i = 0; i < 5 && hi - lo > kMinStep && !out_of_time(); ++i) {
      double mid = 0.5 * (lo + hi);
      ResourceVector alpha{1.0, 1.0, 1.0};
      alpha[r] = mid;
      if (auto witness = probe(alpha, probe_budget())) {
        hi = WitnessBracket(mid, (*witness)[r]);
      } else {
        lo = mid;
      }
    }
    result.phase1_alpha[r] = std::min(hi, 1.0);
  }

  // Phase 2: jointly relax the combined vector until feasible, again with geometrically
  // growing steps (the per-dimension minima are rarely jointly achievable).
  ResourceVector alpha = result.phase1_alpha;
  ResourceVector step{kMinStep, kMinStep, kMinStep};
  while (true) {
    if (out_of_time()) {
      result.timed_out = true;
      return finish();
    }
    if (probe(alpha, probe_budget())) {
      result.feasible = true;
      result.alpha = alpha;
      return finish();
    }
    bool all_maxed = true;
    for (Resource r : kAllResources) {
      if (alpha[r] < 1.0) {
        alpha[r] = std::min(1.0, std::max(alpha[r] * kRelaxFactor,
                                          alpha[r] + step[r]));
        step[r] = std::min(0.25, step[r] * 2.0);
        all_maxed = false;
      }
    }
    if (all_maxed) {
      // Fully relaxed and still nothing found within the probe budgets: one last probe with
      // the entire remaining wall budget (and the same node budget) before declaring
      // infeasibility.
      ResourceVector ones{1.0, 1.0, 1.0};
      if (probe(ones, options.timeout_s - elapsed())) {
        result.feasible = true;
        result.alpha = ones;
      }
      return finish();
    }
  }
}

}  // namespace capsys
