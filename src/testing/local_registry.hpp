// Test-local metrics registry (docs/TESTING.md): components built while a
// LocalRegistry is alive count into it, so a test reads exactly its own
// events whatever else ran in the process.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace vcdl::testing {

class LocalRegistry {
 public:
  LocalRegistry() : scope_(registry_) {}

  obs::Registry& registry() { return registry_; }

  /// The counter's value, 0 when never registered. Registers nothing.
  std::uint64_t count(const std::string& name) const {
    const auto snap = registry_.snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  std::set<std::string> counters_with_prefix(const std::string& prefix) const {
    std::set<std::string> out;
    for (const auto& name : registry_.counter_names()) {
      if (name.rfind(prefix, 0) == 0) out.insert(name);
    }
    return out;
  }

 private:
  obs::Registry registry_;
  obs::ScopedRegistry scope_;
};

}  // namespace vcdl::testing
