#include "src/caps/auto_tuner.h"

#include <algorithm>
#include <chrono>

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

// Runs a find-first feasibility probe with the given thresholds and remaining budget.
SearchResult Probe(const CostModel& model, const ResourceVector& alpha, int num_threads,
                   double budget_s) {
  SearchOptions options;
  options.alpha = alpha;
  options.find_first = true;
  options.reorder = true;
  options.num_threads = num_threads;
  options.timeout_s = budget_s;
  return CapsSearch(model, options).Run();
}

}  // namespace

std::string AutoTuneResult::ToString() const {
  return Sprintf("alpha=%s feasible=%d iterations=%d nodes=%llu probes_timed_out=%d "
                 "elapsed=%.3fs%s",
                 alpha.ToString().c_str(), feasible ? 1 : 0, iterations,
                 static_cast<unsigned long long>(nodes), probes_timed_out, elapsed_s,
                 timed_out ? " TIMED_OUT" : "");
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
  // thresholds within `budget_s`, traced as its own (nested) span. A probe that runs out of
  // budget before it finds a plan counts as infeasible.
  auto probe = [&](const ResourceVector& alpha, double budget_s) {
    Span probe_span("caps.autotune.probe");
    probe_span.AddAttr("iteration", result.iterations);
    probe_span.AddAttr("alpha", alpha.ToString());
    ++result.iterations;
    bool feasible = false;
    bool timed_out = budget_s <= 0.0;
    if (!timed_out) {
      SearchResult search = Probe(model, alpha, options.num_threads, budget_s);
      result.nodes += search.stats.nodes;
      feasible = search.found;
      timed_out = !feasible && search.stats.timed_out;
    }
    if (timed_out) {
      ++result.probes_timed_out;
      probe_span.AddAttr("timed_out", "true");
    }
    probe_span.AddAttr("feasible", feasible ? "true" : "false");
    return feasible;
  };
  auto probe_budget = [&] {
    return std::min(options.probe_timeout_s, options.timeout_s - elapsed());
  };
  auto out_of_time = [&] { return elapsed() > options.timeout_s; };

  // Phase 1: per-dimension minimum with the other dimensions disabled. Starting from the
  // tightest bound, the threshold is relaxed with geometrically growing steps until a valid
  // plan exists, then refined by bisection — logarithmically many probes, each of which may
  // cost up to probe_timeout_s when it must prove (or give up on) infeasibility.
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
      if (probe(alpha, probe_budget())) {
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
      if (probe(alpha, probe_budget())) {
        hi = mid;
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
      // Fully relaxed and still nothing found within the probe budget: one last probe with
      // the entire remaining wall budget before declaring infeasibility.
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
