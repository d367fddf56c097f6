#include "opt/rate_region.h"

#include <algorithm>
#include <cmath>

namespace meshopt {

namespace {

/// y (bits/s) and region weights of an optimal solution; empty otherwise.
OptimizerResult unpack(const RateRegionLp& region, const LpSolution& sol) {
  OptimizerResult r;
  if (sol.status != LpStatus::kOptimal) return r;
  r.ok = true;
  const auto flows = static_cast<std::ptrdiff_t>(region.flows());
  r.y.assign(sol.x.begin(), sol.x.begin() + flows);
  for (double& y : r.y) y *= region.scale();
  r.alpha_weights.assign(sol.x.begin() + flows, sol.x.end());
  return r;
}

OptimizerResult max_throughput(RateRegionLp& region) {
  LpProblem& lp = region.build(0);
  for (int f = 0; f < region.flows(); ++f)
    lp.objective[static_cast<std::size_t>(f)] = 1.0;
  OptimizerResult r = unpack(region, region.solve(LpStart::kCarried));
  if (r.ok) {
    region.carry();
    r.objective_value = 0.0;
    for (double y : r.y) r.objective_value += y;
  }
  return r;
}

/// Frank–Wolfe from the max-min point, which keeps every flow positive.
/// The iterate carries the region weights after the flows.
OptimizerResult alpha_fair(RateRegionLp& region, const OptimizerConfig& cfg) {
  OptimizerResult start = water_fill(region);
  if (!start.ok) return start;
  const int flows = region.flows();
  std::vector<double> z(static_cast<std::size_t>(flows) +
                        start.alpha_weights.size());
  for (int f = 0; f < flows; ++f)
    z[static_cast<std::size_t>(f)] =
        std::max(start.y[static_cast<std::size_t>(f)] / region.scale(), 1e-6);
  std::copy(start.alpha_weights.begin(), start.alpha_weights.end(),
            z.begin() + flows);

  // The constraint set is fixed across iterations; only the oracle's
  // objective changes, so the problem is built once.
  const LpProblem& lp = region.build(0);
  bool oracle_ok = false;
  const FwRun run = frank_wolfe(
      cfg, flows, z,
      [&](const std::vector<double>& grad, bool first) {
        const LpSolution& sol = region.oracle(grad, first);
        oracle_ok = sol.status == LpStatus::kOptimal;
        return oracle_ok ? std::span<const double>(sol.x)
                         : std::span<const double>();
      });
  if (oracle_ok) region.carry();

  OptimizerResult r;
  r.ok = true;
  r.iterations = run.iterations;
  r.objective_value = run.objective;
  r.y.assign(z.begin(), z.begin() + flows);
  for (double& y : r.y) y *= region.scale();
  // The last oracle may have priced in columns the iterate never reached.
  r.alpha_weights.assign(static_cast<std::size_t>(lp.num_vars - flows), 0.0);
  std::copy(z.begin() + flows, z.end(), r.alpha_weights.begin());
  return r;
}

double utility_sum(const AlphaFairUtility& util, int flows,
                   const std::vector<double>& z) {
  double acc = 0.0;
  for (int f = 0; f < flows; ++f)
    acc += util.value(z[static_cast<std::size_t>(f)]);
  return acc;
}

double exact_scale(const OptimizerInput& in) {
  double max_cap = 0.0;
  const double* p = in.extreme_points.data();
  const std::size_t total =
      static_cast<std::size_t>(in.extreme_points.rows()) *
      static_cast<std::size_t>(in.extreme_points.cols());
  for (std::size_t i = 0; i < total; ++i) max_cap = std::max(max_cap, p[i]);
  if (in.scale_override > 0.0) return in.scale_override;
  return max_cap > 0.0 ? max_cap : 1.0;
}

}  // namespace

const LpSolution& RateRegionLp::oracle(std::span<const double> grad,
                                       bool first) {
  lp_.objective.assign(static_cast<std::size_t>(lp_.num_vars), 0.0);
  std::copy(grad.begin(), grad.end(), lp_.objective.begin());
  return solve(first ? LpStart::kCarried : LpStart::kResolveObjective);
}

LpProblem& RateRegionLp::refill(const DenseMatrix& routing, int columns,
                                 int extra_vars) {
  const int links = routing.rows();
  lp_.reset(flows_ + columns + extra_vars);
  // Links, convexity, up to one safety cap and one max-min row per flow.
  lp_.reserve_rows(links + 1 + 2 * flows_);
  for (int l = 0; l < links; ++l)
    std::copy_n(routing.row(l), flows_, lp_.add_row(Relation::kLe, 0.0));
  // Convex weights sum to one.
  std::fill_n(lp_.add_row(Relation::kEq, 1.0) + flows_, columns, 1.0);
  // Safety cap: a flow crossing no modeled link would be unbounded.
  for (int f = 0; f < flows_; ++f) {
    bool routed = false;
    for (int l = 0; l < links; ++l)
      if (routing(l, f) > 0.0) routed = true;
    if (!routed) lp_.add_row(Relation::kLe, 1.0)[f] = 1.0;
  }
  return lp_;
}

ExactRegion::ExactRegion(const OptimizerInput& in, LpSolver& solver,
                         LpProblem& lp)
    : RateRegionLp(lp, in.routing.cols(), exact_scale(in)),
      in_(in),
      solver_(solver) {}

LpProblem& ExactRegion::build(int extra_vars) {
  refill(in_.routing, in_.extreme_points.rows(), extra_vars);
  const double inv_scale = 1.0 / scale();
  for (int l = 0; l < in_.routing.rows(); ++l) {
    // Column l of the K x L extreme-point matrix, negated and normalized.
    double* row = lp_.coeffs.row(l) + flows();
    for (int k = 0; k < in_.extreme_points.rows(); ++k)
      row[k] = -in_.extreme_points(k, l) * inv_scale;
  }
  return lp_;
}

const LpSolution& ExactRegion::solve(LpStart start) {
  // Nothing carries across exact-tier rounds: kCarried solves cold.
  return start == LpStart::kResolveObjective ? solver_.resolve_objective(lp_)
                                             : solver_.solve(lp_);
}

OptimizerResult optimize_region(RateRegionLp& region,
                                const OptimizerConfig& config) {
  switch (config.objective) {
    case Objective::kMaxThroughput:
      return max_throughput(region);
    case Objective::kMaxMin:
      return water_fill(region);
    case Objective::kProportionalFair:
    case Objective::kAlphaFair:
      return alpha_fair(region, config);
  }
  return OptimizerResult{};
}

OptimizerResult water_fill(RateRegionLp& region) {
  const int flows = region.flows();
  std::vector<bool> fixed(static_cast<std::size_t>(flows), false);
  std::vector<double> level(static_cast<std::size_t>(flows), 0.0);
  // y_f == level for fixed flows, y_f >= floor (+ t, when t_var names the
  // level variable) for the others.
  const auto add_flow_rows = [&](LpProblem& lp, double floor, int t_var) {
    for (int f = 0; f < flows; ++f) {
      const auto i = static_cast<std::size_t>(f);
      double* row = fixed[i] ? lp.add_row(Relation::kEq, level[i])
                             : lp.add_row(Relation::kGe, floor);
      row[f] = 1.0;
      if (!fixed[i] && t_var >= 0) row[t_var] = -1.0;
    }
  };

  for (int round = 0; round < flows; ++round) {
    // Maximize t with y_f >= t for unfixed flows, y_f == level for fixed.
    LpProblem& lp = region.build(/*extra_vars=*/1);
    const int t_var = lp.num_vars - 1;
    lp.objective[static_cast<std::size_t>(t_var)] = 1.0;
    add_flow_rows(lp, 0.0, t_var);
    const LpSolution& sol = region.solve(LpStart::kCold);
    if (sol.status != LpStatus::kOptimal) break;
    // Columns priced in mid-solve append after t_var, so its build-time
    // index stays valid.
    const double t = sol.x[static_cast<std::size_t>(t_var)];

    // Find which unfixed flows are actually capped at t: try to push each
    // one above t while others stay >= t. Consecutive push problems are
    // identical until a flow gets fixed, so the problem is built once per
    // segment, only the objective entry moves between flows, and every
    // solve after the segment's first warm-starts from the previous one.
    bool progressed = false;
    LpProblem* push = nullptr;
    int prev_obj_flow = -1;
    for (int f = 0; f < flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      const bool stale = push == nullptr;
      if (stale) {
        push = &region.build(0);
        add_flow_rows(*push, t, -1);
        prev_obj_flow = -1;
      }
      if (prev_obj_flow >= 0)
        push->objective[static_cast<std::size_t>(prev_obj_flow)] = 0.0;
      push->objective[static_cast<std::size_t>(f)] = 1.0;
      prev_obj_flow = f;
      const LpSolution& up = region.solve(stale ? LpStart::kCold
                                                : LpStart::kResolveObjective);
      const double reach = up.status == LpStatus::kOptimal ? up.objective : t;
      if (reach <= t + 1e-7) {
        fixed[static_cast<std::size_t>(f)] = true;
        level[static_cast<std::size_t>(f)] = t;
        progressed = true;
        push = nullptr;  // the next push sees a new Eq row
      }
    }
    if (!progressed) {
      // Numerical corner: freeze everything at t.
      for (int f = 0; f < flows; ++f) {
        if (!fixed[static_cast<std::size_t>(f)]) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
        }
      }
    }
    if (std::all_of(fixed.begin(), fixed.end(), [](bool b) { return b; }))
      break;
  }

  // Final solve with all levels pinned to recover the region weights.
  LpProblem& lp = region.build(0);
  for (int f = 0; f < flows; ++f) {
    double* row = lp.add_row(Relation::kGe,
                             level[static_cast<std::size_t>(f)] * (1.0 - 1e-9));
    row[f] = 1.0;
  }
  OptimizerResult r = unpack(region, region.solve(LpStart::kCold));
  if (r.ok) {
    for (int f = 0; f < flows; ++f)
      r.y[static_cast<std::size_t>(f)] =
          level[static_cast<std::size_t>(f)] * region.scale();
    r.objective_value = *std::min_element(r.y.begin(), r.y.end());
  }
  return r;
}

AlphaFairUtility fw_detail::utility(const OptimizerConfig& config) {
  return AlphaFairUtility(
      config.objective == Objective::kProportionalFair ? 1.0 : config.alpha,
      1e-6);
}

bool fw_detail::step(const AlphaFairUtility& util, int flows,
                     double tolerance, const std::vector<double>& grad,
                     std::vector<double>& z, std::span<const double> v) {
  if (z.size() < v.size()) z.resize(v.size(), 0.0);
  // Duality gap (scaled): grad . (v - z).
  double gap = 0.0;
  for (int f = 0; f < flows; ++f) {
    const auto i = static_cast<std::size_t>(f);
    gap += grad[i] * (v[i] - z[i]);
  }
  if (gap <= tolerance * (std::abs(utility_sum(util, flows, z)) + 1.0))
    return false;

  // Golden-section line search on gamma in [0, 1].
  const auto blend_obj = [&](double gamma) {
    double acc = 0.0;
    for (int f = 0; f < flows; ++f) {
      const auto i = static_cast<std::size_t>(f);
      acc += util.value((1.0 - gamma) * z[i] + gamma * v[i]);
    }
    return acc;
  };
  double lo = 0.0, hi = 1.0;
  constexpr double kGolden = 0.3819660112501051;
  double m1 = lo + kGolden * (hi - lo), m2 = hi - kGolden * (hi - lo);
  double f1 = blend_obj(m1), f2 = blend_obj(m2);
  for (int it = 0; it < 40; ++it) {
    if (f1 < f2) {
      lo = m1;
      m1 = m2;
      f1 = f2;
      m2 = hi - kGolden * (hi - lo);
      f2 = blend_obj(m2);
    } else {
      hi = m2;
      m2 = m1;
      f2 = f1;
      m1 = lo + kGolden * (hi - lo);
      f1 = blend_obj(m1);
    }
  }
  const double gamma = 0.5 * (lo + hi);
  for (std::size_t j = 0; j < z.size(); ++j)
    z[j] = (1.0 - gamma) * z[j] + gamma * v[j];
  return true;
}

}  // namespace meshopt
