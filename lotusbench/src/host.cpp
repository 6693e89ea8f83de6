// Host fingerprint: what a result needs to be compared across machines.
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "kernels/isa.hpp"
#include "obs/counters.hpp"

namespace lotusbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Size of the highest-level unified/data cache of cpu0, from sysfs; 0 when
/// unreadable.
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level"), type_in(dir + "type"), size_in(dir + "size");
    int level = 0;
    std::string type, size;
    if (!(level_in >> level) || !(type_in >> type) || !(size_in >> size)) continue;
    if (type == "Instruction" || level < best_level) continue;
    std::uint64_t bytes = std::stoull(size);
    const char unit = size.back();
    if (unit == 'K') bytes <<= 10;
    else if (unit == 'M') bytes <<= 20;
    else if (unit == 'G') bytes <<= 30;
    best = bytes;
    best_level = level;
  }
  return best;
}

std::string host_fingerprint_json() {
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"isa\": \""
      << lotus::kernels::isa_name(lotus::kernels::active_isa()) << "\", \"llc_bytes\": "
      << llc_bytes() << ", \"compiler\": \"" << json_escape(LOTUSBENCH_COMPILER)
      << "\", \"build_type\": \"" << json_escape(LOTUSBENCH_BUILD_TYPE)
      << "\", \"lotus_obs\": " << (lotus::obs::enabled() ? 1 : 0) << "}";
  return out.str();
}

}  // namespace lotusbench
