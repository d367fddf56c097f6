#include "opt/network_optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace meshopt {

namespace {

struct ProblemShape {
  int links = 0;
  int flows = 0;
  int points = 0;
  double scale = 1.0;  ///< capacities normalized by this for conditioning
};

ProblemShape shape_of(const OptimizerInput& in) {
  ProblemShape s;
  s.links = in.routing.rows();
  s.flows = in.routing.cols();
  s.points = in.extreme_points.rows();
  double max_cap = 0.0;
  const double* p = in.extreme_points.data();
  const std::size_t total = static_cast<std::size_t>(s.points) *
                            static_cast<std::size_t>(in.extreme_points.cols());
  for (std::size_t i = 0; i < total; ++i) max_cap = std::max(max_cap, p[i]);
  s.scale = in.scale_override > 0.0 ? in.scale_override
                                    : (max_cap > 0.0 ? max_cap : 1.0);
  return s;
}

/// See build_rate_region_lp (the public entry point below); kept as the
/// internal spelling so the solver routines read against the shape.
LpProblem base_problem(const OptimizerInput& in, const ProblemShape& s,
                       int extra_vars = 0) {
  return build_rate_region_lp(in, s.scale, extra_vars);
}

OptimizerResult unpack(const LpSolution& sol, const ProblemShape& s) {
  OptimizerResult r;
  if (sol.status != LpStatus::kOptimal) return r;
  r.ok = true;
  r.y.assign(static_cast<std::size_t>(s.flows), 0.0);
  r.alpha_weights.assign(static_cast<std::size_t>(s.points), 0.0);
  for (int f = 0; f < s.flows; ++f)
    r.y[static_cast<std::size_t>(f)] =
        sol.x[static_cast<std::size_t>(f)] * s.scale;
  for (int k = 0; k < s.points; ++k)
    r.alpha_weights[static_cast<std::size_t>(k)] =
        sol.x[static_cast<std::size_t>(s.flows + k)];
  return r;
}

OptimizerResult solve_max_throughput(const OptimizerInput& in,
                                     const ProblemShape& s, LpSolver& solver) {
  LpProblem lp = base_problem(in, s);
  for (int f = 0; f < s.flows; ++f)
    lp.objective[static_cast<std::size_t>(f)] = 1.0;
  OptimizerResult r = unpack(solver.solve(lp), s);
  if (r.ok) {
    r.objective_value = 0.0;
    for (double y : r.y) r.objective_value += y;
  }
  return r;
}

/// Lexicographic max-min via iterative water-filling LPs.
OptimizerResult solve_max_min(const OptimizerInput& in, const ProblemShape& s,
                              LpSolver& solver) {
  std::vector<bool> fixed(static_cast<std::size_t>(s.flows), false);
  std::vector<double> level(static_cast<std::size_t>(s.flows), 0.0);

  for (int round = 0; round < s.flows; ++round) {
    // Maximize t with y_f >= t for unfixed flows, y_f == level for fixed.
    LpProblem lp = base_problem(in, s, /*extra_vars=*/1);
    const int t_var = s.flows + s.points;
    lp.objective[static_cast<std::size_t>(t_var)] = 1.0;

    for (int f = 0; f < s.flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) {
        double* row =
            lp.add_row(Relation::kEq, level[static_cast<std::size_t>(f)]);
        row[f] = 1.0;
      } else {
        double* row = lp.add_row(Relation::kGe, 0.0);
        row[f] = 1.0;
        row[t_var] = -1.0;
      }
    }
    const LpSolution sol = solver.solve(lp);
    if (sol.status != LpStatus::kOptimal) break;
    const double t = sol.x[static_cast<std::size_t>(t_var)];

    // Find which unfixed flows are actually capped at t: try to push each
    // one above t while others stay >= t. Consecutive push problems are
    // identical until a flow gets fixed, so the problem is built once per
    // segment, only the objective entry moves between flows, and every
    // solve after the segment's first warm-starts from the cached basis.
    bool progressed = false;
    LpProblem push;
    bool push_stale = true;
    int prev_obj_flow = -1;
    for (int f = 0; f < s.flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      if (push_stale) {
        push = base_problem(in, s);
        for (int g = 0; g < s.flows; ++g) {
          if (fixed[static_cast<std::size_t>(g)]) {
            double* row = push.add_row(Relation::kEq,
                                       level[static_cast<std::size_t>(g)]);
            row[g] = 1.0;
          } else {
            double* row = push.add_row(Relation::kGe, t);
            row[g] = 1.0;
          }
        }
        prev_obj_flow = -1;
      }
      if (prev_obj_flow >= 0)
        push.objective[static_cast<std::size_t>(prev_obj_flow)] = 0.0;
      push.objective[static_cast<std::size_t>(f)] = 1.0;
      prev_obj_flow = f;
      const LpSolution up =
          push_stale ? solver.solve(push) : solver.resolve_objective(push);
      push_stale = false;
      const double reach = up.status == LpStatus::kOptimal ? up.objective : t;
      if (reach <= t + 1e-7) {
        fixed[static_cast<std::size_t>(f)] = true;
        level[static_cast<std::size_t>(f)] = t;
        progressed = true;
        push_stale = true;  // the next push sees a new Eq row
      }
    }
    if (!progressed) {
      // Numerical corner: freeze everything at t.
      for (int f = 0; f < s.flows; ++f) {
        if (!fixed[static_cast<std::size_t>(f)]) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
        }
      }
    }
    if (std::all_of(fixed.begin(), fixed.end(), [](bool b) { return b; }))
      break;
  }

  // Final solve with all levels pinned to recover alpha weights.
  LpProblem lp = base_problem(in, s);
  for (int f = 0; f < s.flows; ++f) {
    double* row = lp.add_row(Relation::kGe,
                             level[static_cast<std::size_t>(f)] * (1.0 - 1e-9));
    row[f] = 1.0;
  }
  OptimizerResult r = unpack(solver.solve(lp), s);
  if (r.ok) {
    for (int f = 0; f < s.flows; ++f)
      r.y[static_cast<std::size_t>(f)] =
          level[static_cast<std::size_t>(f)] * s.scale;
    r.objective_value = *std::min_element(r.y.begin(), r.y.end());
  }
  return r;
}

/// Frank–Wolfe for strictly concave alpha-fair objectives.
OptimizerResult solve_alpha_fair(const OptimizerInput& in,
                                 const ProblemShape& s, double alpha,
                                 int iterations, double tolerance,
                                 LpSolver& solver) {
  const AlphaFairUtility util(alpha, 1e-6);

  // Interior-ish start: the max-min point keeps every flow positive.
  OptimizerResult start = solve_max_min(in, s, solver);
  if (!start.ok) return start;

  const int n = s.flows + s.points;
  std::vector<double> z(static_cast<std::size_t>(n), 0.0);
  for (int f = 0; f < s.flows; ++f)
    z[static_cast<std::size_t>(f)] =
        std::max(start.y[static_cast<std::size_t>(f)] / s.scale, 1e-6);
  for (int k = 0; k < s.points; ++k)
    z[static_cast<std::size_t>(s.flows + k)] =
        start.alpha_weights[static_cast<std::size_t>(k)];

  const auto objective = [&](const std::vector<double>& v) {
    double acc = 0.0;
    for (int f = 0; f < s.flows; ++f)
      acc += util.value(v[static_cast<std::size_t>(f)]);
    return acc;
  };

  // The constraint set is fixed across iterations; only the oracle's
  // objective changes, so the LpProblem is built once and every oracle
  // call after the first warm-starts from the previous optimal basis.
  LpProblem lp = base_problem(in, s);
  OptimizerResult result;
  int iter = 0;
  for (; iter < iterations; ++iter) {
    // Linear oracle at the current gradient.
    lp.objective.assign(static_cast<std::size_t>(n), 0.0);
    for (int f = 0; f < s.flows; ++f)
      lp.objective[static_cast<std::size_t>(f)] =
          util.gradient(z[static_cast<std::size_t>(f)]);
    const LpSolution sol =
        iter == 0 ? solver.solve(lp) : solver.resolve_objective(lp);
    if (sol.status != LpStatus::kOptimal) break;

    // FW gap (scaled): grad . (v - z).
    double gap = 0.0;
    for (int f = 0; f < s.flows; ++f)
      gap += lp.objective[static_cast<std::size_t>(f)] *
             (sol.x[static_cast<std::size_t>(f)] -
              z[static_cast<std::size_t>(f)]);
    if (gap <= tolerance * (std::abs(objective(z)) + 1.0)) break;

    // Golden-section line search on gamma in [0, 1].
    const auto blend_obj = [&](double gamma) {
      double acc = 0.0;
      for (int f = 0; f < s.flows; ++f) {
        const double y = (1.0 - gamma) * z[static_cast<std::size_t>(f)] +
                         gamma * sol.x[static_cast<std::size_t>(f)];
        acc += util.value(y);
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
    for (int j = 0; j < n; ++j)
      z[static_cast<std::size_t>(j)] =
          (1.0 - gamma) * z[static_cast<std::size_t>(j)] +
          gamma * sol.x[static_cast<std::size_t>(j)];
  }

  result.ok = true;
  result.iterations = iter;
  result.y.assign(static_cast<std::size_t>(s.flows), 0.0);
  result.alpha_weights.assign(static_cast<std::size_t>(s.points), 0.0);
  for (int f = 0; f < s.flows; ++f)
    result.y[static_cast<std::size_t>(f)] =
        z[static_cast<std::size_t>(f)] * s.scale;
  for (int k = 0; k < s.points; ++k)
    result.alpha_weights[static_cast<std::size_t>(k)] =
        z[static_cast<std::size_t>(s.flows + k)];
  result.objective_value = objective(z);
  return result;
}

}  // namespace

LpProblem build_rate_region_lp(const OptimizerInput& in, double scale,
                               int extra_vars) {
  const int links = in.routing.rows();
  const int flows = in.routing.cols();
  const int points = in.extreme_points.rows();
  LpProblem lp;
  lp.reset(flows + points + extra_vars);
  // Links, convexity, up to one safety cap and one max-min row per flow.
  lp.reserve_rows(links + 1 + 2 * flows);

  const double inv_scale = 1.0 / scale;
  for (int l = 0; l < links; ++l) {
    double* row = lp.add_row(Relation::kLe, 0.0);
    const double* routing = in.routing.row(l);
    for (int f = 0; f < flows; ++f) row[f] = routing[f];
    // Column l of the K x L extreme-point matrix, negated and normalized.
    for (int k = 0; k < points; ++k)
      row[flows + k] = -in.extreme_points(k, l) * inv_scale;
  }
  // Convex weights sum to one.
  double* simplex_row = lp.add_row(Relation::kEq, 1.0);
  for (int k = 0; k < points; ++k) simplex_row[flows + k] = 1.0;

  // Safety cap: a flow crossing no modeled link would be unbounded.
  for (int f = 0; f < flows; ++f) {
    bool routed = false;
    for (int l = 0; l < links; ++l)
      if (in.routing(l, f) > 0.0) routed = true;
    if (!routed) {
      double* row = lp.add_row(Relation::kLe, 1.0);
      row[f] = 1.0;
    }
  }
  return lp;
}

OptimizerResult NetworkOptimizer::solve(const OptimizerInput& input) {
  const ProblemShape s = shape_of(input);
  OptimizerResult empty;
  if (s.flows == 0 || s.points == 0 || s.links == 0) return empty;
  if (input.extreme_points.cols() != s.links)
    throw std::invalid_argument("extreme point arity != link count");

  switch (cfg_.objective) {
    case Objective::kMaxThroughput:
      return solve_max_throughput(input, s, lp_);
    case Objective::kMaxMin:
      return solve_max_min(input, s, lp_);
    case Objective::kProportionalFair:
      return solve_alpha_fair(input, s, 1.0, cfg_.fw_iterations,
                              cfg_.tolerance, lp_);
    case Objective::kAlphaFair:
      return solve_alpha_fair(input, s, cfg_.alpha, cfg_.fw_iterations,
                              cfg_.tolerance, lp_);
  }
  return empty;
}

OptimizerResult optimize_rates(const OptimizerInput& input,
                               const OptimizerConfig& config) {
  NetworkOptimizer optimizer(config);
  return optimizer.solve(input);
}

double tcp_ack_airtime_factor(int payload_bytes, int header_bytes,
                              int ack_bytes) {
  const double a = static_cast<double>(ack_bytes);
  const double h = static_cast<double>(header_bytes);
  const double d = static_cast<double>(payload_bytes);
  return 1.0 - (a + h) / (a + h + d);
}

}  // namespace meshopt
