#include "host.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

namespace gcp::perfbench {

std::int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

namespace {

/// A "Name:   123 kB" line of /proc/self/status, in bytes.
std::uint64_t StatusBytes(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string key;
  std::uint64_t kib = 0;
  while (in >> key) {
    if (key == name + ":") return in >> kib ? kib * 1024 : 0;
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

}  // namespace

std::uint64_t RssBytes() { return StatusBytes("VmRSS"); }

std::uint64_t PeakRssBytes() { return StatusBytes("VmHWM"); }

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // Resets VmHWM to the current RSS (Linux 4.0+).
  out.flush();
  return static_cast<bool>(out);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      cpu == "cpu") {
    t.steal = steal;
    t.busy = user + nice + system + irq + softirq + steal;
  }
  return t;
}

double StealFraction(const CpuTicks& begin, const CpuTicks& end) {
  const std::uint64_t busy = end.busy - begin.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(end.steal - begin.steal) /
                         static_cast<double>(busy);
}

double MemoryLatencyNs() {
  constexpr std::size_t kSlots = (16u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kLoads = 1 << 19;
  // Sattolo's shuffle: one cycle through every slot, so the chase never
  // settles into a small, cached loop.
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> ns;
  volatile std::uint32_t sink = 0;
  std::uint32_t p = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto a = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kLoads; ++i) p = next[p];
    const auto b = std::chrono::steady_clock::now();
    sink = sink + p;
    ns.push_back(static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count()) /
                 static_cast<double>(kLoads));
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (pinned_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  if (sched_setaffinity(0, sizeof(one), &one) == 0) pinned_ = true;
}

}  // namespace gcp::perfbench
