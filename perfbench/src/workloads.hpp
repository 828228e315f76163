#pragma once

// The three closed-loop workloads. A Plan holds everything generated from
// the seed (circuits, verification pairs, server settings); a Driver plays
// one client's rounds against a Backend, which is either the loopback HTTP
// server (untraced runs) or the in-process, span-recording replay of
// traced.cpp. Both play exactly the same operations for the same seed.

#include "checks.hpp"
#include "client.hpp"

#include "qdd/service/SessionStore.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Session cap of the benchmark's servers, above what any workload holds.
inline constexpr std::size_t MAX_SESSIONS = 64;
/// Portfolio workers every /v1/verify request asks for. With one, the
/// entries run in turn on one thread (simulation first, then
/// alternating/right-left) until one concludes, so a request does the same
/// work on every run. The default, one thread per entry, races three
/// threads, and the reply waits for the losers to notice the winner; which
/// one wins, and how long the loser runs on, depends on how the host
/// schedules the threads (QFT-16 with vs without swaps took 86 to 175 ms).
/// Simulation can only disprove, and, run first, it would play all its
/// stimuli (a Grover-12 request ran over four minutes so). So equivalent
/// pairs leave it out and the alternating checker decides them.
inline constexpr std::size_t PORTFOLIO_WORKERS = 1;

enum class OpKind { Create, Step, Back, Reset, Export, Spill, Delete, Verify };

struct Op {
  OpKind kind = OpKind::Step;
  int slot = 0;        ///< client-local session slot
  int circuit = 0;     ///< Create: index into Plan::circuits
  int pair = 0;        ///< Verify: index into Plan::pairs
  const char* fmt = ""; ///< Export: "svg" | "dot"
  bool restore = false; ///< Step: first touch of a spilled session
};

struct CircuitSpec {
  std::string name;
  std::string spec; ///< JSON members naming the circuit ("builder" or "qasm")
  ir::QuantumComputation qc; ///< the circuit the server builds from `spec`
  std::string qasm;          ///< the uploaded text (empty for builders)
};

struct PairSpec {
  std::string name;
  std::string body; ///< the /v1/verify request body
  bool equivalent = false;
  /// Whether the portfolio runs its simulation entry: only on pairs that
  /// are not equivalent (see PORTFOLIO_WORKERS).
  bool simulation = false;
  ir::QuantumComputation left;
  ir::QuantumComputation right;
  std::uint64_t stimulusSeed = 0;
};

struct Plan {
  std::string workload;
  std::size_t clients = 1;
  std::size_t workers = 2;
  std::size_t maxResident = 0; ///< spill budget (0: none)
  double tailPercentile = 99.;
  std::vector<CircuitSpec> circuits;
  std::vector<PairSpec> pairs;
  /// Verification pair used only by the traced run's coverage pass.
  int coveragePair = 0;
};

/// Builds the plan of `workload` for `seed`; throws std::invalid_argument
/// for an unknown workload name.
Plan makePlan(const std::string& workload, std::uint64_t seed);

/// Where a Driver sends its operations.
class Backend {
public:
  virtual ~Backend() = default;
  /// Performs one HTTP request of `op`.
  virtual Reply send(const Op& op, const std::string& method,
                     const std::string& target, const std::string& body) = 0;
  /// Spills a session as the server would under memory pressure.
  virtual bool spill(const std::string& id) = 0;
  /// Whether the server holds the session spilled right now (a read-only
  /// peek that does not count as a use of the session).
  virtual bool isSpilled(const std::string& id) = 0;
};

/// Counters shared with the watchdog, which reports them if a run hangs.
struct LiveCounters {
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> inFlight{0};
};

/// A state the checks compare with dense simulation after the timed run.
struct DenseSample {
  int circuit = 0;
  std::size_t position = 0;
  std::string dd;
};

/// What one client measured and found.
struct Recorder {
  std::vector<double> all;     ///< every request, ms
  /// when each request of `all` completed
  std::vector<std::chrono::steady_clock::time_point> doneAt;
  std::vector<double> create;  ///< POST /v1/sessions
  std::vector<double> restore; ///< first request to a spilled session
  /// every request again, by operation kind (and verification pair)
  std::map<std::string, std::vector<double>> byKind;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checkFailures = 0;
  std::string firstError;
  std::vector<DenseSample> dense;
  double maxAmpError = 0.;

  void fail(const std::string& why);
  void merge(const Recorder& other);
};

/// One closed-loop client: sends its next request only after the reply to
/// the previous one. Rounds are whole: a run stops between rounds.
class Driver {
public:
  Driver(const Plan& plan, std::size_t client, Backend& backend,
         Recorder& rec, LiveCounters& live);
  /// Creates the sessions the rounds start from (not timed).
  void setup();
  void round(std::size_t r);
  /// The fixed operation list of the traced run's coverage pass.
  void coverage();

private:
  struct Session {
    std::string id;
    int circuit = -1;
    std::size_t pos = 0;
    std::string ddNow;  ///< "dd" document text of the current state
    std::string ddPrev; ///< ... of the state before the last step
    bool spilled = false;
  };

  void run(const Op& op);
  [[nodiscard]] std::string kindName(const Op& op) const;
  Reply call(const Op& op, const std::string& method,
             const std::string& target, const std::string& body);
  /// Parses a session reply, checks its state document, and updates `s`.
  void acceptState(const Op& op, Session& s, const Reply& reply,
                   std::size_t expectedPos);
  void roundStep(std::size_t r);
  void roundVerify(std::size_t r);
  void roundChurn(std::size_t r);

  const Plan& plan;
  std::size_t client;
  Backend& backend;
  Recorder& rec;
  LiveCounters& live;
  std::vector<Session> slots;
  std::size_t uploadsCreated = 0;
  std::size_t steps = 0;
};

/// Checks the DenseSamples recorded by a run; returns the number that
/// failed and notes the first failure in `rec`.
std::size_t verifyDenseSamples(const Plan& plan, Recorder& rec);

/// Checks every small verification pair's ground truth with dense
/// unitaries; returns "" when each agrees.
std::string verifyPairsDensely(const Plan& plan);

/// Runs `plan` over loopback HTTP for `seconds` against an in-process
/// server; fills `rec` (merged over clients), the wall time of the timed
/// part, and the time of the first timed request.
struct HttpRun {
  double wallS = 0.;
  double peakRssMb = 0.;
  std::chrono::steady_clock::time_point firstRequest;
};
HttpRun runHttp(const Plan& plan, double seconds,
                const std::string& spillDir, Recorder& rec,
                LiveCounters& live);

/// Whether `store` holds session `id` spilled, without refreshing its LRU
/// stamp.
bool sessionSpilled(qdd::service::SessionStore& store, const std::string& id);

/// Percentile (0..100) by linear interpolation; NaN for an empty sample.
double percentile(std::vector<double> v, double p);

/// The timed part of a run is cut into this many windows of equal wall
/// time. p50_ms, tail_ms and ops_per_s are the median over the windows, so
/// a burst of outside load (CPU steal on a shared host) that falls inside
/// two of them does not move them.
inline constexpr std::size_t WINDOWS = 5;

struct WindowedStats {
  double p50Ms = 0.;
  double tailMs = 0.;
  double opsPerS = 0.;
};

/// Median over WINDOWS windows of [start, start + wallS] of each window's
/// p50 and `tailPercentile` latency and its completed requests per second.
WindowedStats windowed(const Recorder& rec,
                       std::chrono::steady_clock::time_point start,
                       double wallS, double tailPercentile);

} // namespace perfbench
