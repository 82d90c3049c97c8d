// fv_e2e — the end-to-end serving benchmark.
//
//   fv_e2e --workload NAME --seed N --seconds S --trace 0|1
//          [--work-dir DIR] [--spans FILE]
//   fv_e2e --calibrate --seed N --seconds S
//
// Stands the analysis server up in-process (as tools/fv_serve assembles
// it, with a one-thread compute pool), drives it over loopback sockets,
// validates every result and prints a report. The last line of standard
// output is one JSON object:
//   {"attempted":N,"correct":true,"failed":0,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 only when every result validated. See
// e2ebench/README.md for the workloads, the metrics and the waterfall.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "serve/json.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using fv::serve::JsonValue;

void usage() {
  std::fprintf(stderr,
               "usage: fv_e2e --workload "
               "spell_interactive|topk_cold|cached_views --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--spans FILE]\n"
               "       fv_e2e --calibrate --seed N --seconds S\n");
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

/// "L1d 48K, L1i 32K, L2 2048K, L3 ..." from cpu0's sysfs cache entries.
std::string cache_sizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_first_line(dir + "size");
    if (size.empty()) break;
    const std::string type = read_first_line(dir + "type");
    std::string name = "L" + read_first_line(dir + "level");
    if (type == "Data") name += "d";
    if (type == "Instruction") name += "i";
    out += (out.empty() ? "" : ", ") + name + " " + size;
  }
  return out.empty() ? "unknown" : out;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

JsonValue metrics_json(const std::vector<fv::e2e::Metric>& metrics) {
  JsonValue out = JsonValue::object();
  for (const fv::e2e::Metric& metric : metrics) {
    JsonValue entry = JsonValue::object();
    entry["value"] = std::isfinite(metric.value) ? metric.value : -1.0;
    entry["unit"] = metric.unit;
    out[metric.name] = std::move(entry);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fv::e2e::RunConfig config;
  bool calibrate = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    const std::string arg = argv[i];
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      config.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--spans") {
      config.spans_path = value();
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds || config.seconds <= 0 ||
      (!calibrate && (!have_workload || !have_trace ||
                      !fv::e2e::known_workload(config.workload)))) {
    usage();
    return 2;
  }
  if (config.work_dir.empty()) {
    config.work_dir = ".bench_build/e2e-work/" +
                      (calibrate ? std::string("calibrate") : config.workload) +
                      "-" + std::to_string(::getpid());
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string load_before = read_first_line("/proc/loadavg");
  int status = 1;
  try {
    fs::create_directories(config.work_dir);
    JsonValue context = JsonValue::object();
    context["nproc"] = static_cast<std::size_t>(nproc);
    context["cpu_model"] = cpu_model();
    context["caches"] = cache_sizes();
    context["loadavg_before"] = load_before;
    context["store_fs"] = filesystem_type(config.work_dir);
    context["build_type"] = FV_E2E_BUILD_TYPE;
    context["seed"] = static_cast<double>(config.seed);
    context["spell_rate_per_s"] = fv::e2e::kSpellRate;
    context["genes"] = fv::e2e::kGenes;

    if (calibrate) {
      std::printf("context %s\n", context.dump().c_str());
      for (const std::size_t clients : {1, 4}) {
        const double capacity =
            fv::e2e::calibrate_spell_capacity(config, clients);
        std::printf("closed-loop SPELL capacity, %zu client%s: %.1f jobs/s "
                    "(half: %.1f)\n",
                    clients, clients == 1 ? "" : "s", capacity, capacity / 2);
      }
      fs::remove_all(config.work_dir);
      return 0;
    }

    const fv::e2e::RunReport report = fv::e2e::run_workload(config);
    context["loadavg_after"] = read_first_line("/proc/loadavg");
    std::printf("context %s\n", context.dump().c_str());
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    JsonValue result = JsonValue::object();
    result["correct"] = report.correct;
    result["attempted"] = report.attempted;
    result["failed"] = report.failed;
    result["metrics"] =
        metrics_json(config.trace ? report.per_layer : report.end_to_end);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    status = report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "fv_e2e: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(config.work_dir, ignored);
  return status;
}
