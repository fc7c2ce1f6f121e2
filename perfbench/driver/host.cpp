#include "host.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t");
  const auto b = s.find_last_not_of(" \t");
  return a == std::string::npos ? std::string() : s.substr(a, b - a + 1);
}

// First value of `key` in /proc/cpuinfo ("" when absent, e.g. on hosts
// whose cpuinfo uses other field names).
std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (trim(line.substr(0, colon)) == key) return trim(line.substr(colon + 1));
  }
  return "";
}

// The vector-ISA subset of the cpuinfo flag list (x86 "flags" or Arm
// "Features"), in a fixed order.
std::string isa_flags() {
  std::string flags = cpuinfo_field("flags");
  if (flags.empty()) flags = cpuinfo_field("Features");
  std::set<std::string> have;
  std::istringstream is(flags);
  for (std::string f; is >> f;) have.insert(f);
  std::string out;
  for (const char* f : {"sse4_2", "avx", "avx2", "bmi1", "bmi2", "fma",
                        "avx512f", "avx512bw", "avx512vl", "asimd", "sve"}) {
    if (have.count(f) != 0) out += (out.empty() ? "" : " ") + std::string(f);
  }
  return out;
}

std::string l2_size() {
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long b = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (b > 0) return std::to_string(b / 1024) + " KiB";
#endif
  return "unknown";
}

}  // namespace

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::vector<std::pair<std::string, std::string>> host_metadata() {
  std::string model = cpuinfo_field("model name");
  if (model.empty()) model = cpuinfo_field("CPU part");
  return {
      {"nproc", std::to_string(online_cpus())},
      {"cpu_model", model.empty() ? "unknown" : model},
      {"l2_size", l2_size()},
      {"isa_flags", isa_flags()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint when
  // that was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
