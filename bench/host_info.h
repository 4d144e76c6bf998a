#ifndef DAREC_BENCH_HOST_INFO_H_
#define DAREC_BENCH_HOST_INFO_H_

#include <cstdint>

namespace darec::benchutil {

/// The host facts a BENCH_*.json cell needs to be comparable across hosts:
/// the online CPU count and how much of it a run could actually get.
struct HostInfo {
  int64_t nproc = 1;
  /// CPU-seconds per wall-second that `nproc` spinning threads obtained
  /// over a short burn: below nproc on a host with CPU steal or a quota.
  double effective_cores = 0.0;
};

/// Measures the host (burns about 0.3 s of wall time on every core).
HostInfo MeasureHost();

}  // namespace darec::benchutil

#endif  // DAREC_BENCH_HOST_INFO_H_
