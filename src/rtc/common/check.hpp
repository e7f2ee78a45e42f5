// Lightweight contract checks used across the rtcomp library.
//
// RTC_CHECK is always on (cheap argument validation on public API
// boundaries); RTC_DCHECK compiles out in release builds and guards
// internal invariants on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace rtc {

/// Thrown when a public-API precondition is violated.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// `file` (a __FILE__) from the directory below its last `src/`
/// component on, e.g. "rtc/core/schedule.cpp": where the checkout sits
/// does not leak into messages, so two checkouts of one commit print
/// the same text. A path with no `src/` component keeps its base name.
[[nodiscard]] inline const char* source_path(const char* file) {
  const char* below_src = nullptr;
  const char* base = file;
  for (const char* c = file; *c != '\0'; ++c) {
    if (*c == '/') base = c + 1;
    if ((c == file || c[-1] == '/') && c[0] == 's' && c[1] == 'r' &&
        c[2] == 'c' && c[3] == '/')
      below_src = c + 4;
  }
  return below_src != nullptr ? below_src : base;
}

[[noreturn]] inline void contract_fail(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "contract violation: (" << expr << ") at " << source_path(file)
     << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractError(os.str());
}
}  // namespace detail

}  // namespace rtc

#define RTC_CHECK(expr)                                                \
  do {                                                                 \
    if (!(expr))                                                       \
      ::rtc::detail::contract_fail(#expr, __FILE__, __LINE__, "");     \
  } while (0)

#define RTC_CHECK_MSG(expr, msg)                                       \
  do {                                                                 \
    if (!(expr))                                                       \
      ::rtc::detail::contract_fail(#expr, __FILE__, __LINE__, (msg));  \
  } while (0)

#ifdef NDEBUG
#define RTC_DCHECK(expr) ((void)0)
#else
#define RTC_DCHECK(expr) RTC_CHECK(expr)
#endif
