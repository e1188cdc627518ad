// Process and host readings: CPU time, peak RSS, hypervisor steal; and
// the rotation of the measuring thread over the host's CPUs.
#ifndef GCP_PERFBENCH_HOST_HPP_
#define GCP_PERFBENCH_HOST_HPP_

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcp::perfbench {

/// User + system CPU time of the whole process, in nanoseconds.
std::int64_t ProcessCpuNs();

/// Current resident set size of the process (VmRSS), in bytes; 0 when
/// unreadable.
std::uint64_t RssBytes();

/// High-water resident set size (VmHWM) since the process started or since
/// the last ResetPeakRss, in bytes; 0 when unreadable.
std::uint64_t PeakRssBytes();

/// Returns freed heap memory to the system (malloc_trim) and resets the
/// high-water mark to the current RSS (/proc/self/clear_refs). False when
/// the reset is not supported; the high-water mark then keeps its value.
bool ResetPeakRss();

/// Host-wide CPU tick counters from /proc/stat (all zero when unreadable).
struct CpuTicks {
  std::uint64_t busy = 0;   ///< user+nice+system+irq+softirq+steal
  std::uint64_t steal = 0;  ///< Time the hypervisor ran someone else.
};
CpuTicks ReadCpuTicks();

/// steal ÷ busy ticks between two readings (0 when nothing was busy).
double StealFraction(const CpuTicks& begin, const CpuTicks& end);

/// Nanoseconds per load of a dependent pointer chase through a 16 MiB
/// buffer (median of three timings). The engine is memory-bound, and a host
/// whose other tenants load the shared cache and memory slows it without
/// counting steal; that shows here as a larger number. Allocates the
/// buffer for the duration of the call.
double MemoryLatencyNs();

/// Moves the calling thread round-robin over the CPUs it may run on. On a
/// shared host the vCPUs run at different speeds (their physical cores
/// have different neighbours), and a thread stays on one for seconds, so
/// a run would measure whichever it landed on. Rotating often makes every
/// run sample every vCPU alike. The destructor restores the original CPU
/// mask, so threads started later are not pinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next allowed CPU (no-op when only one is).
  void Next();
  std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;  ///< The allowed CPUs, ascending.
  std::size_t next_ = 0;
  bool pinned_ = false;
};

}  // namespace gcp::perfbench

#endif  // GCP_PERFBENCH_HOST_HPP_
