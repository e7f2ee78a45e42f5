// Factories for the compositors defined in this module. The
// string-keyed make_compositor() lives in rtc/core (it also knows the
// schedule-built methods: rotate-tiling, binary swap and direct send).
#pragma once

#include <memory>

#include "rtc/compositing/compositor.hpp"

namespace rtc::compositing {

[[nodiscard]] std::unique_ptr<Compositor> make_pipelined(bool exact);
[[nodiscard]] std::unique_ptr<Compositor> make_radix_k();

}  // namespace rtc::compositing
