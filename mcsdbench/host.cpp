#include "host.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "json.hpp"

namespace mcsdbench {

namespace {

std::string cpuinfo_field(const std::string& field) {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    return line.substr(std::min(colon + 2, line.size()));
  }
  return "unknown";
}

}  // namespace

std::string HostFingerprint::id() const {
  return std::to_string(cores) + " cores | " + cpu_model + " | " + isa_flags +
         " | " + compiler + " | " + build_type;
}

std::string HostFingerprint::to_json() const {
  JsonObject o;
  o.add_number("cores", cores);
  o.add_string("cpu_model", cpu_model);
  o.add_string("isa_flags", isa_flags);
  o.add_string("compiler", compiler);
  o.add_string("build_type", build_type);
  o.add_string("cxx_flags", cxx_flags);
  o.add_string("id", id());
  return o.str();
}

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.cores = std::max(1u, std::thread::hardware_concurrency());
  fp.cpu_model = cpuinfo_field("model name");
  std::istringstream flags{cpuinfo_field("flags")};
  std::vector<std::string> present;
  for (std::string flag; flags >> flag;) present.push_back(flag);
  for (const char* want :
       {"sse4_2", "popcnt", "bmi2", "avx", "avx2", "avx512f", "avx512bw"}) {
    if (std::find(present.begin(), present.end(), want) != present.end()) {
      if (!fp.isa_flags.empty()) fp.isa_flags += ' ';
      fp.isa_flags += want;
    }
  }
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = "g++ " __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = MCSDBENCH_BUILD_TYPE;
  fp.cxx_flags = MCSDBENCH_CXX_FLAGS;
  return fp;
}

double memcpy_gbps(std::size_t threads) {
  // 16 MiB per buffer: far beyond any per-core cache, so the copy runs
  // at DRAM bandwidth, as the out-of-core scan does.
  constexpr std::size_t kBytes = 16u << 20;
  constexpr int kPasses = 7;
  threads = std::max<std::size_t>(threads, 1);
  std::vector<std::vector<char>> src(threads, std::vector<char>(kBytes, 1));
  std::vector<std::vector<char>> dst(threads, std::vector<char>(kBytes, 0));
  std::vector<double> rates;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::barrier start{static_cast<std::ptrdiff_t>(threads + 1)};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        std::memcpy(dst[t].data(), src[t].data(), kBytes);
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    start.arrive_and_wait();
    for (auto& w : workers) w.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rates.push_back(static_cast<double>(kBytes * threads) / seconds / 1e9);
    for (auto& d : dst) d[pass % kBytes] ^= 1;  // keep the copies live
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace mcsdbench
