// Host fingerprint and measured memory roofline.
//
// Every result carries both: results from different hosts are not
// comparable, and the map kernel's scan rate means something only
// against what the memory system can move on the same machine.
#pragma once

#include <cstddef>
#include <string>

namespace mcsdbench {

struct HostFingerprint {
  unsigned cores = 0;
  std::string cpu_model;
  std::string isa_flags;  ///< the SIMD flags the map kernel could use
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;

  /// Stable one-line identity; two result sets compare only when equal.
  [[nodiscard]] std::string id() const;
  [[nodiscard]] std::string to_json() const;
};

HostFingerprint host_fingerprint();

/// memcpy bandwidth in GB/s (1e9 bytes copied per second) with `threads`
/// threads copying private buffers at once; median of several passes.
double memcpy_gbps(std::size_t threads);

}  // namespace mcsdbench
