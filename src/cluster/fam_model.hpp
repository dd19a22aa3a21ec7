// smartFAM invocation latency model.
//
// The scenario models fold the whole host→SD→host invocation into one
// `fam_invocation_seconds` constant.  This module derives that constant
// from first principles, stage by stage, so the abstraction can be
// checked (tests compare it against the real round trip measured by
// bench_micro_fam) and so the NFS deployment question the paper skips
// can be answered quantitatively:
//
//   host: encode + write request          (CPU + disk/NFS write)
//   NFS:  attribute-cache staleness       (0 on local FS; acregmin-bounded
//                                          on a real NFS mount — inotify
//                                          cannot see remote writes, and a
//                                          polling drainer only observes a
//                                          change after the client-side
//                                          attribute cache revalidates)
//   SD:   drainer poll latency            (uniform 0..poll ⇒ poll/2 mean)
//   SD:   decode + dispatch queue + module runtime
//   SD:   encode + write response
//   NFS:  attribute-cache staleness again (host side)
//   host: client poll latency             (poll/2 mean)
#pragma once

#include <cstdint>

namespace mcsd::sim {

struct FamModel {
  /// Log-record payload (request or response), bytes.
  std::uint64_t record_bytes = 512;
  /// Encode/decode CPU per record.
  double codec_seconds = 20e-6;
  /// Write+fsync-equivalent latency of one small file replace.
  double write_seconds = 200e-6;
  /// Storage-node drainer poll interval (DaemonOptions::drain_interval).
  double sd_poll_seconds = 2e-3;
  /// Host-side client poll interval.
  double host_poll_seconds = 1e-3;
  /// Dispatch queue + thread handoff.
  double dispatch_seconds = 50e-6;
  /// NFS attribute-cache staleness bound per direction (0 = local FS or
  /// tmpfs; a default NFS mount has acregmin = 3 s!).
  double nfs_attr_cache_seconds = 0.0;

  /// Mean one-way + return overhead around `module_seconds` of work.
  [[nodiscard]] double round_trip_seconds(double module_seconds) const {
    const double request_path = codec_seconds + write_seconds +
                                nfs_attr_cache_seconds / 2.0 +
                                sd_poll_seconds / 2.0 + codec_seconds +
                                dispatch_seconds;
    const double response_path = codec_seconds + write_seconds +
                                 nfs_attr_cache_seconds / 2.0 +
                                 host_poll_seconds / 2.0 + codec_seconds;
    return request_path + module_seconds + response_path;
  }

  /// Pure channel overhead (a no-op module).
  [[nodiscard]] double overhead_seconds() const {
    return round_trip_seconds(0.0);
  }
};

}  // namespace mcsd::sim
