// Host, build and process-resource readings for the benchmark's result
// files.  Everything here is read from the operating system (/proc, sysconf,
// getrusage), never through the library, so the metadata cannot change when
// the library's own ISA detection does.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered (key, value) metadata: nproc, CPU model, L2 size, ISA flags,
/// compiler, build type.
std::vector<std::pair<std::string, std::string>> host_metadata();

unsigned online_cpus();

/// User plus system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Peak resident set size of this process image so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
