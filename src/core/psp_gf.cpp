#include "src/core/psp_gf.hpp"

#include <cmath>
#include <stdexcept>

namespace sda::core {

PspGlobalsFirst::PspGlobalsFirst(Time delta) : delta_(delta) {
  if (!(std::isfinite(delta) && delta > 0.0)) {
    throw std::invalid_argument("GF requires a finite DELTA > 0");
  }
}

Time PspGlobalsFirst::assign(const PspContext& ctx, int /*branch*/,
                             Time /*branch_pex*/) const {
  return ctx.deadline - delta_;
}

}  // namespace sda::core
