// String-keyed compositor factory (declared in compositor.hpp; defined
// here so it can name the schedule-built methods without a dependency
// cycle between the compositing and core libraries).
#include "rtc/common/check.hpp"
#include "rtc/compositing/builtin.hpp"
#include "rtc/compositing/compositor.hpp"
#include "rtc/core/hierarchical.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/core/schedule_compositor.hpp"

namespace rtc::compositing {

std::unique_ptr<Compositor> make_compositor(const std::string& name) {
  if (core::is_schedule_method(name))
    return core::make_schedule_compositor(name);
  if (name == "pp") return make_pipelined(/*exact=*/false);
  if (name == "pp_exact") return make_pipelined(/*exact=*/true);
  if (name == "radix") return make_radix_k();
  if (name == "hier") return core::make_hierarchical();
  throw ContractError("unknown compositor: " + name);
}

std::vector<std::string> compositor_names() {
  return {"bswap", "bswap_any", "pp",    "pp_exact", "direct",
          "radix", "rt_n",      "rt_2n", "rt",       "hier"};
}

}  // namespace rtc::compositing
