// perfbench: the repository benchmark runner.
//
//   perfbench --workload <flood|churn_detect|replay_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints progress and a metric table, then, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. The
// traced run's spans are kept in memory and written to --spans at exit.
// README.md in this directory describes the workloads and metrics.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"peak_rss_mb", "MB"},     {"classify_mpps", "Mpkt/s"},
    {"burst_p50_us", "us"},    {"burst_p90_us", "us"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sim.nodes", "count"},
    {"sim.route_entries", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s", "s"},
    {"sim.slice_pre_attack_s", "s"},
    {"sim.slice_attack_s", "s"},
    {"sim.slice_defended_s", "s"},
    {"core.fleet_drain_s", "s"},
    {"core.fleet_drains", "count"},
    {"core.spans_per_drain", "count"},
    {"core.tasks_per_submit", "count"},
    {"core.pool_busy_frac", "ratio"},
    {"core.offered", "count"},
    {"core.dropped_probation", "count"},
    {"core.dropped_pdt", "count"},
    {"core.sft_admissions", "count"},
    {"core.sft_evictions", "count"},
    {"core.probes_issued", "count"},
    {"core.decided_per_admission", "ratio"},
    {"core.inspect_ns_per_pkt", "ns"},
    {"core.classify_ns_per_pkt", "ns"},
    {"core.partition_ns_per_pkt", "ns"},
    {"core.timer_ops", "count"},
    {"core.timer_s", "s"},
    {"core.self_s", "s"},
    {"transport.tcp_data_pkts", "count"},
    {"transport.tcp_retransmits", "count"},
    {"transport.tcp_timeouts", "count"},
    {"attack.zombie_pkts", "count"},
    {"attack.spoof_rotations", "count"},
    {"attack.self_s", "s"},
    {"pushback.epochs", "count"},
    {"pushback.alarms", "count"},
    {"pushback.trigger_s", "s"},
    {"metrics.ledger_flows", "count"},
    {"metrics.alpha", "ratio"},
    {"metrics.beta", "ratio"},
    {"metrics.theta_p", "ratio"},
    {"metrics.theta_n", "ratio"},
    {"metrics.lr", "ratio"},
    {"metrics.self_s", "s"},
    {"scenario.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.run_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

std::string Result::json(const std::vector<MetricDef>& defs, bool zero_missing) {
  std::string m;
  char buf[64];
  for (const MetricDef& d : defs) {
    double x = 0.0;
    const auto it = values.find(d.name);
    if (it != values.end()) {
      x = it->second;
    } else if (!zero_missing) {
      errors.push_back(std::string("missing metric ") + d.name);
    }
    if (!std::isfinite(x)) {
      errors.push_back(std::string("non-finite metric ") + d.name);
      x = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", x);
    m += (m.empty() ? "\"" : ", \"") + std::string(d.name) + "\": {\"value\": " + buf +
         ", \"unit\": \"" + d.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + m + "}}";
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string run_in_child(const std::function<std::string()>& body) {
  std::fflush(stdout);
  int fd[2];
  if (::pipe(fd) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fd[0]);
    ::close(fd[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    ::close(fd[0]);
    std::string reply = "+";
    try {
      reply += body();
    } catch (const std::exception& e) {
      reply = std::string("-") + e.what();
    } catch (...) {
      reply = "-unknown exception";
    }
    std::fflush(stdout);
    for (std::size_t at = 0; at < reply.size();) {
      const ssize_t n = ::write(fd[1], reply.data() + at, reply.size() - at);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      at += std::size_t(n);
    }
    ::_exit(0);
  }
  ::close(fd[1]);
  std::string reply;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buf, std::size_t(n));
  }
  ::close(fd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || reply.empty()) {
    throw std::runtime_error("repetition process died");
  }
  if (reply[0] != '+') throw std::runtime_error(reply.substr(1));
  return reply.substr(1);
}

namespace {

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\n");
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\n", i, spans[i].name, spans[i].start - t0,
                 spans[i].end - t0, spans[i].parent);
  }
  std::fclose(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed n] [--seconds s] "
               "[--trace 0|1] [--spans file] | --self-test | --list-metrics\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return self_test();
    if (a == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) std::printf("end_to_end %s %s\n", d.name, d.unit);
      for (const MetricDef& d : kPerLayer) std::printf("per_layer %s %s\n", d.name, d.unit);
      return 0;
    }
    if (!has_value) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      opt.seed_given = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  const bool scenario = find_scenario_workload(opt.workload) != nullptr;
  if (!scenario && opt.workload != "replay_mix") return usage();

  Result r;
  try {
    r = scenario ? run_scenario_workload(opt) : run_replay_mix(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!spans_path.empty() && !r.spans.empty()) write_spans(spans_path, r.spans);

  const std::vector<MetricDef>& defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::string line = r.json(defs, /*zero_missing=*/opt.trace);
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const MetricDef& d : defs) {
    const auto it = r.values.find(d.name);
    std::printf("%-28s %16.6g  %s\n", d.name, it == r.values.end() ? 0.0 : it->second, d.unit);
  }
  std::printf("operations: %" PRIu64 " attempted, %" PRIu64 " failed\n", r.attempted, r.failed);
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  std::printf("%s\n", line.c_str());
  return 0;
}
