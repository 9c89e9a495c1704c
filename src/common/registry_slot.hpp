// The calling thread's current metrics registry. obs::registry() and
// obs::ScopedRegistry (obs/metrics.hpp) are the API; the slot lives here,
// below vcdl_obs, so ThreadPool can carry a dispatcher's registry into the
// chunks it runs on workers.
#pragma once

#include <utility>

namespace vcdl::obs {
class Registry;
}  // namespace vcdl::obs

namespace vcdl::detail {

/// nullptr selects the process-default registry.
inline thread_local obs::Registry* t_current_registry = nullptr;

/// Sets the calling thread's slot for a scope; restores it on destruction.
class RegistrySlotGuard {
 public:
  explicit RegistrySlotGuard(obs::Registry* registry)
      : prev_(std::exchange(t_current_registry, registry)) {}
  ~RegistrySlotGuard() { t_current_registry = prev_; }
  RegistrySlotGuard(const RegistrySlotGuard&) = delete;
  RegistrySlotGuard& operator=(const RegistrySlotGuard&) = delete;

 private:
  obs::Registry* prev_;
};

}  // namespace vcdl::detail
