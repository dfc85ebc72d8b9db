// bbsbench: the benchmark driver behind run.py.
//
//   bbsbench run --workload W --seed N --seconds S --out FILE
//                [--trace] [--work-dir DIR] [--daemon PATH]
//       one measured (or traced) run; writes the raw samples as JSON.
//   bbsbench reference --workload W --out FILE
//       reference outcomes of every item any seed of the workload can send
//       (the expected results).
//   bbsbench digest --workload W --seed N --seconds S
//       prints the workload's digest (streams and schedule determinism).
//   bbsbench keys --workload W --seed N
//       prints the keys of the items the workload's stream sends, one per
//       line; W = defect_probe prints the defect probe's keys.
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bbs/io/json.hpp"
#include "bbs/telemetry/structure_cache.hpp"
#include "bench.hpp"

namespace bbsbench {

bbs::io::JsonValue numbers(const std::vector<double>& values) {
  bbs::io::JsonArray out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return bbs::io::JsonValue(std::move(out));
}

double empty_cache_load_ms(const std::string& work_dir) {
  const std::string dir = work_dir + "/empty-cache";
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  bbs::telemetry::StructureCache cache(dir);
  cache.load();
  return ms_between(t0, Clock::now());
}

double self_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double process_cpu_ms(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

struct Args {
  std::string command;
  RunOptions run;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command");
  Args args;
  args.command = argv[1];
  args.run.work_dir = ".";
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.run.workload = value();
    } else if (flag == "--seed") {
      args.run.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.run.seconds = std::stod(value());
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--trace") {
      args.run.trace = true;
    } else if (flag == "--work-dir") {
      args.run.work_dir = value();
    } else if (flag == "--daemon") {
      args.run.daemon = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.run.workload.empty()) throw std::invalid_argument("no --workload");
  return args;
}

void write_out(const std::string& path, const bbs::io::JsonValue& doc) {
  const std::string text = bbs::io::write_json_compact(doc) + "\n";
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "reference") {
    write_out(args.out, reference_outcomes(catalogue(args.run.workload)));
    return 0;
  }
  if (args.command == "keys" && args.run.workload == "defect_probe") {
    for (const Item& item : defect_probe()) std::printf("%s\n", item.key.c_str());
    return 0;
  }
  const Workload workload =
      make_workload(args.run.workload, args.run.seed, args.run.seconds);
  if (args.command == "digest") {
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 workload_digest(workload)));
    return 0;
  }
  if (args.command == "keys") {
    std::set<std::uint32_t> sent(workload.stream.begin(),
                                 workload.stream.end());
    for (const std::uint32_t index : sent) {
      std::printf("%s\n", workload.items[index].key.c_str());
    }
    return 0;
  }
  if (args.command != "run") {
    throw std::invalid_argument("unknown command " + args.command);
  }
  const RunOptions& run = args.run;
  std::filesystem::create_directories(run.work_dir);
  const bbs::io::JsonValue doc = workload.name == "serve_admission"
                                     ? run_serve(workload, run)
                                     : run_in_process(workload, run);
  write_out(args.out, doc);
  return 0;
}

}  // namespace
}  // namespace bbsbench

int main(int argc, char** argv) {
  // A daemon that drops a connection must not kill the generator.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return bbsbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbsbench: %s\n", e.what());
    return 1;
  }
}
