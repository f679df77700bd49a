#include "src/core/psp_div.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sda::core {

PspDiv::PspDiv(double x) : x_(x) {
  if (!(std::isfinite(x) && x > 0.0)) {
    throw std::invalid_argument("DIV-x requires a finite x > 0");
  }
}

Time PspDiv::assign(const PspContext& ctx, int /*branch*/,
                    Time /*branch_pex*/) const {
  const Time allowance = ctx.deadline - ctx.now;
  return ctx.now + allowance / (static_cast<double>(ctx.branch_count) * x_);
}

std::string PspDiv::name() const {
  std::ostringstream os;
  os << "DIV-";
  if (x_ == std::floor(x_)) {
    os << static_cast<long long>(x_);
  } else {
    os << x_;
  }
  return os.str();
}

}  // namespace sda::core
