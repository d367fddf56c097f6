#include "opt/network_optimizer.h"

#include <stdexcept>

#include "opt/rate_region.h"

namespace meshopt {

OptimizerResult NetworkOptimizer::solve(const OptimizerInput& input) {
  if (input.routing.cols() == 0 || input.extreme_points.rows() == 0 ||
      input.routing.rows() == 0)
    return OptimizerResult{};
  if (input.extreme_points.cols() != input.routing.rows())
    throw std::invalid_argument("extreme point arity != link count");
  ExactRegion region(input, lp_, problem_);
  return optimize_region(region, cfg_);
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
