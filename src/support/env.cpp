#include "support/env.h"

#include <sched.h>

#include <algorithm>
#include <string>
#include <thread>

#include "support/error.h"

namespace skil::support {

std::size_t parse_knob_choice(std::string_view var, std::string_view what,
                              std::string_view name,
                              const std::string_view* accepted,
                              std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    if (name == accepted[i]) return i;
  std::string message;
  message.append(var);
  message += ": unknown ";
  message.append(what);
  message += " '";
  message.append(name);
  message += "' (accepted values: ";
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) message += ", ";
    message.append(accepted[i]);
  }
  message += ")";
  SKIL_REQUIRE(false, message);
  return 0;  // unreachable
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace skil::support
