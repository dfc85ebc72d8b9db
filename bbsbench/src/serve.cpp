// Open-loop run against a spawned bbs_serve daemon: serve_admission.
//
// The daemon runs with `--workers 2` on an AF_UNIX socket and default
// stealing, queue and pool settings. Two connections each get a writer
// thread, which sends its share of the seeded schedule when each request is
// due (whether or not earlier ones were answered), and a reader thread,
// which stamps every response line as it arrives. Latency is measured from
// the due time, so a stalled daemon or a late generator shows up in it.
//
// The benchmark brings its own paced writer and concurrent reader because a
// client that writes everything before reading (jsonl_client) is dropped by
// the daemon as a slow reader once its outbox fills.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bbs/io/api_io.hpp"
#include "bench.hpp"

extern char** environ;

namespace bbsbench {

namespace {

namespace fs = std::filesystem;
using bbs::io::JsonArray;
using bbs::io::JsonObject;
using bbs::io::JsonValue;

constexpr int kConnections = 2;
/// Requests of the schedule replayed layer by layer in a traced run.
constexpr std::size_t kReplayRequests = 3000;
constexpr double kDrainTimeoutMs = 30000.0;

/// A spawned daemon; the destructor stops it and waits for it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string listen = "unix:" + socket_path;
    std::vector<std::string> args = {binary, "--workers", "2", "--listen",
                                     listen};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// One client connection with a line-buffered reader.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The daemon binds shortly after it starts: retry for up to 10 s.
    for (int attempt = 0; attempt < 2000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("daemon did not accept on " + socket_path);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void write_all(const std::string& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to daemon failed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Next complete line (without '\n'); false on EOF, error or timeout.
  bool read_line(std::string& line, int timeout_ms) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string roundtrip(const std::string& line) {
    write_all(line + "\n");
    std::string reply;
    if (!read_line(reply, 60000)) {
      throw std::runtime_error("daemon did not answer a set-up request");
    }
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// The request line with its id replaced by the schedule position, so
/// responses can be matched however the daemon orders them.
std::string with_id(const Item& item, std::size_t seq) {
  const std::string from = "\"id\":\"" + item.key + "\"";
  std::string line = item.line;
  const std::size_t at = line.find(from);
  if (at == std::string::npos) throw std::logic_error("request id not found");
  line.replace(at, from.size(), "\"id\":\"" + std::to_string(seq) + "\"");
  return line;
}

long parse_seq(const std::string& response) {
  const char* tag = "\"id\":\"";
  const std::size_t at = response.find(tag);
  if (at == std::string::npos) return -1;
  return std::strtol(response.c_str() + at + std::strlen(tag), nullptr, 10);
}

}  // namespace

JsonValue run_serve(const Workload& w, const RunOptions& opt) {
  if (opt.daemon.empty()) throw std::invalid_argument("--daemon is required");
  fs::create_directories(opt.work_dir);
  const std::string socket_path = opt.work_dir + "/bbs.sock";
  const std::string log_path = opt.work_dir + "/daemon.log";

  // Input generation (not set-up): the scheduled lines with their ids.
  const std::size_t count = w.stream.size();
  std::vector<std::string> lines(count);
  for (std::size_t j = 0; j < count; ++j) {
    lines[j] = with_id(w.items[w.stream[j]], j) + "\n";
  }

  // --- set-up: daemon start, connect, warm-up pass --------------------------
  // serve_admission runs only as a traced pass, which never reads its
  // set-up time, so it sets up once.
  fs::remove(socket_path);
  const Clock::time_point t0 = Clock::now();
  Daemon daemon(opt.daemon, socket_path, log_path);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(socket_path));
  }
  for (std::size_t k = 0; k < w.warmup.size(); ++k) {
    conns[k % kConnections]->roundtrip(w.items[w.warmup[k]].line);
  }
  const double setup_s = ms_between(t0, Clock::now()) / 1000.0;
  Connection control(socket_path);
  const std::string stats_before =
      opt.trace ? control.roundtrip("{\"kind\":\"stats\"}") : std::string();

  // --- timed window: paced writers, concurrent readers ----------------------
  std::vector<Clock::time_point> sent_at(count), received_at(count);
  std::vector<std::string> replies(count);
  std::vector<char> answered(count, 0);
  const double cpu0 = process_cpu_ms(daemon.pid());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  const auto due = [&](std::size_t j) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(w.due_ms[j]));
  };
  std::vector<std::thread> threads;
  std::vector<std::string> failures(2 * kConnections);
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t j = static_cast<std::size_t>(c); j < count;
             j += kConnections) {
          std::this_thread::sleep_until(due(j));
          sent_at[j] = Clock::now();
          conns[static_cast<std::size_t>(c)]->write_all(lines[j]);
        }
      } catch (const std::exception& e) {
        failures[2 * static_cast<std::size_t>(c)] = e.what();
      }
    });
    threads.emplace_back([&, c] {
      const std::size_t expected =
          (count + kConnections - 1 - static_cast<std::size_t>(c)) /
          kConnections;
      const Clock::time_point give_up =
          due(count == 0 ? 0 : count - 1) +
          std::chrono::milliseconds(static_cast<long>(kDrainTimeoutMs));
      std::string line;
      for (std::size_t got = 0; got < expected;) {
        const double left = ms_between(Clock::now(), give_up);
        if (left <= 0.0 || !conns[static_cast<std::size_t>(c)]->read_line(
                               line, static_cast<int>(left) + 1)) {
          failures[2 * static_cast<std::size_t>(c) + 1] =
              "responses missing after drain timeout";
          return;
        }
        const Clock::time_point now = Clock::now();
        const long seq = parse_seq(line);
        if (seq < 0 || static_cast<std::size_t>(seq) >= count ||
            answered[static_cast<std::size_t>(seq)]) {
          continue;  // not one of ours: counted as missing below
        }
        received_at[static_cast<std::size_t>(seq)] = now;
        replies[static_cast<std::size_t>(seq)] = std::move(line);
        answered[static_cast<std::size_t>(seq)] = 1;
        ++got;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point last = start;
  for (std::size_t j = 0; j < count; ++j) {
    if (answered[j] && received_at[j] > last) last = received_at[j];
  }
  const double cpu1 = process_cpu_ms(daemon.pid());
  const double rss = peak_rss_mb(daemon.pid());
  const std::string stats_after =
      opt.trace ? control.roundtrip("{\"kind\":\"stats\"}") : std::string();

  // --- after the window -------------------------------------------------
  JsonObject doc;
  doc["mode"] = "open_loop";
  doc["setup_s"] = numbers({setup_s});
  doc["elapsed_s"] = ms_between(start, last) / 1000.0;
  doc["attempted"] = static_cast<long long>(count);
  doc["cpu_ms"] = cpu1 - cpu0;
  doc["peak_rss_mb"] = rss;
  std::vector<double> latency_ms, queue_ms, solve_ms, rtt_ms;
  JsonArray results;
  for (std::size_t j = 0; j < count; ++j) {
    const Item& item = w.items[w.stream[j]];
    if (!answered[j]) {
      Outcome missing;
      missing.status = "missing";
      results.push_back(outcome_to_json(item.key, missing));
      continue;
    }
    latency_ms.push_back(ms_between(due(j), received_at[j]));
    bbs::api::Response response;
    try {
      response = bbs::io::response_from_json(replies[j]);
    } catch (const std::exception&) {
      Outcome garbled;
      garbled.status = "unparseable";
      results.push_back(outcome_to_json(item.key, garbled));
      continue;
    }
    results.push_back(outcome_to_json(item.key, summarise(item, response)));
    queue_ms.push_back(response.diagnostics.queue_ms);
    solve_ms.push_back(response.diagnostics.solve_ms);
    rtt_ms.push_back(ms_between(sent_at[j], received_at[j]));
  }
  doc["latency_ms"] = numbers(latency_ms);
  doc["results"] = JsonValue(std::move(results));
  JsonArray client_errors;
  for (const std::string& f : failures) {
    if (!f.empty()) client_errors.emplace_back(f);
  }
  doc["client_errors"] = JsonValue(std::move(client_errors));

  if (opt.trace) {
    doc["stats_before"] = bbs::io::parse_json(stats_before);
    doc["stats_after"] = bbs::io::parse_json(stats_after);
    doc["queue_ms"] = numbers(queue_ms);
    doc["engine_ms"] = numbers(solve_ms);
    std::vector<double> transport_ms;
    for (std::size_t k = 0; k < rtt_ms.size(); ++k) {
      transport_ms.push_back(rtt_ms[k] - queue_ms[k] - solve_ms[k]);
    }
    doc["transport_ms"] = numbers(transport_ms);
    doc["workers"] = 2LL;

    // Client-side send->response spans, then the layer-by-layer replay of
    // the first scheduled lines in this process (warm sessions per
    // structure, like the daemon's pools).
    Tracer tracer;
    for (std::size_t j = 0; j < count; ++j) {
      if (answered[j]) {
        tracer.add("service.request", -1, static_cast<int>(j), sent_at[j],
                   received_at[j]);
      }
    }
    Replayer replayer(true, nullptr);
    doc["warmup"] = replay_warmup(replayer, w);
    JsonArray counters, replay_results;
    for (std::size_t j = 0; j < std::min(count, kReplayRequests); ++j) {
      const Item& item = w.items[w.stream[j]];
      ReplayCounters c;
      c.tasks = item.tasks;
      const bbs::api::Response r =
          replayer.replay(item.line, static_cast<int>(j), tracer, c);
      counters.push_back(counters_json(c, item.line.size()));
      replay_results.push_back(outcome_to_json(item.key, summarise(item, r)));
    }
    doc["spans"] = tracer.to_json();
    doc["counters"] = JsonValue(std::move(counters));
    doc["replay_results"] = JsonValue(std::move(replay_results));
    doc["cache_load_ms"] = empty_cache_load_ms(opt.work_dir);
  }
  conns.clear();
  fs::remove(socket_path);
  return JsonValue(std::move(doc));
}

}  // namespace bbsbench
