// qdd_perfbench: end-to-end benchmark of the qdd session server.
//
//   qdd_perfbench --workload <step_interactive|verify_portfolio|session_churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//   qdd_perfbench --self-test
//
// The server (HttpServer + Api + Router) runs inside this process on an
// ephemeral loopback port; closed-loop clients drive it over HTTP. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Diagnostics go to standard error.

#include "checks.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::LiveCounters;

/// Taken during static initialisation: the set-up time counts from here.
const Clock::time_point PROCESS_START = Clock::now();

/// Where every file of the run goes; removed on every exit path.
std::string tmpDir;
std::mutex printMutex;
bool printed = false;

void removeTmp() {
  if (!tmpDir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(tmpDir, ec);
  }
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints the result line once; later calls (a watchdog racing a normal
/// finish) are ignored.
void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::map<std::string, std::pair<double, std::string>>&
                     metrics) {
  const std::lock_guard<std::mutex> lock(printMutex);
  if (printed) {
    return;
  }
  printed = true;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: qdd_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       qdd_perfbench "
               "--self-test\n",
               why);
  std::exit(2);
}

std::string makeTmpDir() {
  std::error_code ec;
  std::filesystem::create_directories(".bench_build/perfbench-run", ec);
  std::string pattern = ".bench_build/perfbench-run/run-XXXXXX";
  if (ec || ::mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "error: cannot create a temporary directory under "
                         ".bench_build/perfbench-run\n");
    std::exit(2);
  }
  return std::filesystem::absolute(pattern).string();
}

} // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds. By default glibc raises them the first time a
  // large mmapped block is freed, and from then on whether a package's
  // 11 MB come back already mapped or are page-faulted afresh can flip
  // mid-run: on verify_portfolio, creates and restores switched between
  // 3.2 and 7.7 ms within one run. With these, freed blocks stay in the
  // heap and are reused on every run alike.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload;
  long long seed = -1;
  double seconds = 0.;
  int trace = -1;
  bool selfTestOnly = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      selfTestOnly = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value after " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (selfTestOnly) {
    const std::string failures = perfbench::selfTest();
    std::fprintf(stderr, "self-test: %s\n",
                 failures.empty() ? "every check rejects its perturbed input"
                                  : failures.c_str());
    return failures.empty() ? 0 : 1;
  }
  if (workload.empty() || seed < 0 || seconds <= 0. || seconds > 60. ||
      (trace != 0 && trace != 1)) {
    usage("--workload, --seed >= 0, --seconds in (0, 60] and --trace 0|1 are "
          "required");
  }
  perfbench::Plan plan;
  try {
    plan = perfbench::makePlan(workload, static_cast<std::uint64_t>(seed));
  } catch (const std::exception& e) {
    usage(e.what());
  }

  // Signals go to one thread, which removes the run's files and exits at
  // once: server workers may be inside long computations.
  sigset_t stopSignals;
  sigemptyset(&stopSignals);
  sigaddset(&stopSignals, SIGTERM);
  sigaddset(&stopSignals, SIGINT);
  sigaddset(&stopSignals, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &stopSignals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
  tmpDir = makeTmpDir();
  std::thread signalThread([stopSignals] {
    int sig = 0;
    sigwait(&stopSignals, &sig);
    removeTmp();
    _exit(128 + sig);
  });

  // The watchdog ends a run that overruns, reporting operations still in
  // flight as failed, without waiting on server threads.
  LiveCounters live;
  std::mutex doneMutex;
  std::condition_variable doneCv;
  bool done = false;
  const auto deadline =
      PROCESS_START + std::chrono::seconds(std::min(170, static_cast<int>(
                                                             seconds) + 110));
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(doneMutex);
    if (doneCv.wait_until(lock, deadline, [&] { return done; })) {
      return;
    }
    std::fprintf(stderr, "watchdog: run overran; %zu operations unfinished\n",
                 live.inFlight.load());
    printResult(false, live.attempted.load(),
                live.failed.load() + live.inFlight.load(), {});
    removeTmp();
    _exit(3);
  });

  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  try {
    if (trace == 0) {
      perfbench::Recorder rec;
      const perfbench::HttpRun run =
          perfbench::runHttp(plan, seconds, tmpDir + "/spill", rec, live);
      perfbench::verifyDenseSamples(plan, rec);
      if (const std::string bad = perfbench::verifyPairsDensely(plan);
          !bad.empty()) {
        rec.fail(bad);
      }
      if (const std::string bad = perfbench::selfTest(); !bad.empty()) {
        rec.fail("self-test: " + bad);
      }
      correct = rec.checkFailures == 0;
      attempted = rec.attempted;
      failed = rec.failed;
      const double setupS =
          std::chrono::duration<double>(run.firstRequest - PROCESS_START)
              .count();
      using perfbench::percentile;
      const perfbench::WindowedStats w = perfbench::windowed(
          rec, run.firstRequest, run.wallS, plan.tailPercentile);
      metrics["p50_ms"] = {w.p50Ms, "ms"};
      metrics["tail_ms"] = {w.tailMs, "ms"};
      metrics["ops_per_s"] = {w.opsPerS, "1/s"};
      metrics["peak_rss_mb"] = {run.peakRssMb, "MiB"};
      metrics["create_p50_ms"] = {percentile(rec.create, 50.), "ms"};
      metrics["restore_p50_ms"] = {percentile(rec.restore, 50.), "ms"};
      metrics["setup_s"] = {setupS, "s"};
      std::fprintf(stderr,
                   "%s seed=%lld: %zu requests (%zu create, %zu restore) in "
                   "%.2f s, tail = p%g, %zu dense samples (max amplitude "
                   "error %.3g), %zu check failures%s%s\n",
                   workload.c_str(), seed, rec.all.size(), rec.create.size(),
                   rec.restore.size(), run.wallS, plan.tailPercentile,
                   rec.dense.size(), rec.maxAmpError, rec.checkFailures,
                   rec.firstError.empty() ? "" : "; first: ",
                   rec.firstError.c_str());
      std::fprintf(stderr,
                   "  whole run: p50 %.3f ms, tail %.3f ms, %.1f requests/s\n",
                   percentile(rec.all, 50.),
                   percentile(rec.all, plan.tailPercentile),
                   static_cast<double>(rec.all.size()) / run.wallS);
      for (const auto& [kind, v] : rec.byKind) {
        std::fprintf(stderr, "  %-22s n=%-6zu p50 %8.3f ms  p90 %8.3f ms\n",
                     kind.c_str(), v.size(), percentile(v, 50.),
                     percentile(v, 90.));
      }
    } else {
      const std::string tracePath = ".bench_build/perfbench-traces/" + workload +
                                    "-seed" + std::to_string(seed) + ".json";
      std::error_code ec;
      std::filesystem::create_directories(".bench_build/perfbench-traces", ec);
      const perfbench::TracedResult r = perfbench::runTraced(
          plan, static_cast<std::uint64_t>(seed), seconds, tmpDir, tracePath,
          live);
      correct = r.correct;
      attempted = r.attempted;
      failed = r.failed;
      metrics = r.metrics;
      if (!r.firstError.empty()) {
        std::fprintf(stderr, "first failure: %s\n", r.firstError.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    removeTmp();
    _exit(1);
  }

  {
    const std::lock_guard<std::mutex> lock(doneMutex);
    done = true;
  }
  doneCv.notify_all();
  watchdog.join();
  printResult(correct, attempted, failed, metrics);
  removeTmp();
  // The server was stopped when its run returned; the signal thread still
  // waits in sigwait, so leave without unwinding it.
  std::fflush(stderr);
  _exit(0);
}
