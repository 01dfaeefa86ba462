// Process memory accounting for perfbench: peak resident set size (the
// kernel's high-water mark) read from /proc/self/status.
#ifndef FLOWSCHED_UTIL_PROC_STATS_H_
#define FLOWSCHED_UTIL_PROC_STATS_H_

namespace flowsched {

// VmHWM from /proc/self/status in KiB; -1 when unavailable (non-Linux).
long long PeakRssKb();

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_PROC_STATS_H_
