#include "workloads.hpp"

#include "qdd/ir/Builders.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/HttpServer.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace b = qdd::ir::builders;

/// Sessions each step_interactive client keeps open: four builders and one
/// upload slot.
constexpr std::size_t STEP_SLOTS = 5;
/// Forward steps per session per step_interactive round (then one back).
constexpr std::size_t STEPS_PER_VISIT = 3;
/// step_interactive replaces its upload every UPLOAD_EVERY rounds and has
/// the server spill one idle session at the same interval.
constexpr std::size_t UPLOAD_EVERY = 16;
/// Uploads generated per step_interactive / session_churn plan.
constexpr std::size_t UPLOADS = 16;
/// Gates per generated upload.
constexpr std::size_t UPLOAD_GATES = 60;
/// session_churn: sessions created per round and the server's resident
/// budget.
constexpr std::size_t CHURN_BATCH = 12;
constexpr std::size_t CHURN_BUDGET = 4;
constexpr std::size_t CHURN_STEPS = 6;
/// Deadline every /v1/verify request carries, and the send and receive
/// timeout of every client socket. The slowest pair takes about 0.03 s;
/// the margin is for a shared host that stalls this VM for seconds, which
/// with a 5 s deadline once failed seven verifications in one run.
constexpr int VERIFY_DEADLINE_MS = 60000;
constexpr int SOCKET_TIMEOUT_MS = 60000;
/// Per-client cap on states kept for the dense comparison.
constexpr std::size_t DENSE_SAMPLES = 96;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

CircuitSpec builder(const std::string& name, const std::string& args,
                    ir::QuantumComputation qc) {
  return {name, "\"builder\":{" + args + "}", std::move(qc), ""};
}

CircuitSpec upload(std::uint64_t seed, std::size_t k) {
  Generated g = randomUnitary(8, UPLOAD_GATES, seed * 1000 + k);
  return {"upload" + std::to_string(k), "\"qasm\":" + jsonString(g.qasm),
          std::move(g.qc), g.qasm};
}

/// The four interactive builder circuits on eight qubits.
void addBuilders(Plan& plan, std::uint64_t marked) {
  plan.circuits.push_back(
      builder("ghz8", "\"name\":\"ghz\",\"qubits\":8", b::ghz(8)));
  plan.circuits.push_back(
      builder("qft8", "\"name\":\"qft\",\"qubits\":8", b::qft(8, true)));
  plan.circuits.push_back(builder(
      "grover8",
      "\"name\":\"grover\",\"qubits\":8,\"marked\":" + std::to_string(marked),
      b::grover(8, marked, 0)));
  plan.circuits.push_back(
      builder("wstate8", "\"name\":\"wstate\",\"qubits\":8", b::wState(8)));
}

/// A verification pair from two circuit specs (JSON objects) and the
/// circuits the server builds from them.
PairSpec pair(const std::string& name, const std::string& left,
              const std::string& right, bool equivalent,
              ir::QuantumComputation l, ir::QuantumComputation r,
              std::uint64_t stimulusSeed) {
  PairSpec p;
  p.name = name;
  p.body = "{\"left\":" + left + ",\"right\":" + right +
           ",\"deadlineMs\":" + std::to_string(VERIFY_DEADLINE_MS) +
           ",\"seed\":" + std::to_string(stimulusSeed) +
           ",\"workers\":" + std::to_string(PORTFOLIO_WORKERS) +
           (equivalent ? ",\"simulation\":false}" : "}");
  p.equivalent = equivalent;
  p.simulation = !equivalent;
  p.left = std::move(l);
  p.right = std::move(r);
  p.stimulusSeed = stimulusSeed;
  return p;
}

/// X versus its native-gate decomposition: equivalent by construction.
PairSpec decomposed(const std::string& name, const std::string& builderArgs,
                    const ir::QuantumComputation& qc, std::uint64_t seed) {
  const std::string spec = "{\"builder\":{" + builderArgs + "}";
  return pair(name, spec + "}", spec + ",\"decompose\":true}", true, qc,
              ir::decomposeToNativeGates(qc, true), seed);
}

std::string randomArgs(std::size_t n, std::size_t depth, std::uint64_t s) {
  return "\"name\":\"random\",\"qubits\":" + std::to_string(n) +
         ",\"depth\":" + std::to_string(depth) + ",\"seed\":" +
         std::to_string(s);
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.;
    }
  }
  return 0.;
}

} // namespace

Plan makePlan(const std::string& workload, std::uint64_t seed) {
  Plan plan;
  plan.workload = workload;
  std::uint64_t mix = seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
  const auto next = [&mix] {
    mix ^= mix >> 29U;
    mix *= 0xBF58476D1CE4E5B9ULL;
    mix ^= mix >> 32U;
    return mix;
  };

  if (workload == "step_interactive") {
    plan.clients = 2;
    plan.workers = 2;
    // p99.5: higher up, latency measured how long a shared host left a
    // vCPU descheduled (p99.9 varied by 28 % to 160 %, quartile distance
    // over median, across runs); p99.5 sits at the low edge of the creates
    // and restores, with about 75 samples per window beyond it
    plan.tailPercentile = 99.5;
    addBuilders(plan, next() % 256);
    for (std::size_t k = 0; k < UPLOADS; ++k) {
      plan.circuits.push_back(upload(seed, k));
    }
    plan.pairs.push_back(decomposed(
        "qft8", "\"name\":\"qft\",\"qubits\":8", b::qft(8, true), seed));
  } else if (workload == "verify_portfolio") {
    plan.clients = 1;
    plan.workers = 1;
    // p92: the middle of the two slowest pairs, two requests in thirteen;
    // a window holds about 600 requests, 48 beyond it
    plan.tailPercentile = 92.;
    // The pairs and the simulation prover's stimuli are fixed, so every
    // seed verifies the same work (the cost of a random 16-qubit pair
    // varies about twofold between circuit seeds); the seed picks the
    // uploads opened after the verdicts.
    const std::uint64_t stimuli = 7;
    plan.pairs.push_back(decomposed(
        "qft12", "\"name\":\"qft\",\"qubits\":12", b::qft(12, true), stimuli));
    plan.pairs.push_back(decomposed(
        "grover12", "\"name\":\"grover\",\"qubits\":12,\"marked\":1234",
        b::grover(12, 1234, 0), stimuli));
    plan.pairs.push_back(decomposed(
        "qpe12", "\"name\":\"qpe\",\"qubits\":11,\"k\":1234",
        b::phaseEstimation(11, 1234), stimuli));
    plan.pairs.push_back(decomposed("random16", randomArgs(16, 200, 16),
                                    b::randomCliffordT(16, 200, 16), stimuli));
    plan.pairs.push_back(
        pair("qft16-swaps", "{\"builder\":{\"name\":\"qft\",\"qubits\":16}}",
             "{\"builder\":{\"name\":\"qft\",\"qubits\":16,\"swaps\":false}}",
             false, b::qft(16, true), b::qft(16, false), stimuli));
    plan.pairs.push_back(pair(
        "random16-ab", "{\"builder\":{" + randomArgs(16, 200, 16) + "}}",
        "{\"builder\":{" + randomArgs(16, 200, 17) + "}}", false,
        b::randomCliffordT(16, 200, 16), b::randomCliffordT(16, 200, 17),
        stimuli));
    plan.pairs.push_back(decomposed(
        "qft8", "\"name\":\"qft\",\"qubits\":8", b::qft(8, true), stimuli));
    plan.pairs.push_back(pair(
        "random8-ab", "{\"builder\":{" + randomArgs(8, 40, 8) + "}}",
        "{\"builder\":{" + randomArgs(8, 40, 9) + "}}", false,
        b::randomCliffordT(8, 40, 8), b::randomCliffordT(8, 40, 9), stimuli));
    plan.coveragePair = 6;
    // the session a user opens after a verdict, to step through it
    for (std::size_t u = 0; u < 8; ++u) {
      plan.circuits.push_back(upload(seed, u));
    }
  } else if (workload == "session_churn") {
    plan.clients = 1;
    plan.workers = 2;
    plan.maxResident = CHURN_BUDGET;
    // a fifth of the requests are creates and restores; p99 and p99.9 fall
    // in their far tail, which varied by 45 % between runs on a shared
    // 4-core machine
    plan.tailPercentile = 95.;
    addBuilders(plan, next() % 256);
    for (std::size_t u = 0; u < UPLOADS; ++u) {
      plan.circuits.push_back(upload(seed, u));
    }
    plan.pairs.push_back(decomposed(
        "qft8", "\"name\":\"qft\",\"qubits\":8", b::qft(8, true), seed));
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }
  return plan;
}

// --- recorder ----------------------------------------------------------------

void Recorder::fail(const std::string& why) {
  ++checkFailures;
  if (firstError.empty()) {
    firstError = why;
  }
}

void Recorder::merge(const Recorder& o) {
  all.insert(all.end(), o.all.begin(), o.all.end());
  doneAt.insert(doneAt.end(), o.doneAt.begin(), o.doneAt.end());
  create.insert(create.end(), o.create.begin(), o.create.end());
  restore.insert(restore.end(), o.restore.begin(), o.restore.end());
  for (const auto& [k, v] : o.byKind) {
    byKind[k].insert(byKind[k].end(), v.begin(), v.end());
  }
  attempted += o.attempted;
  failed += o.failed;
  checkFailures += o.checkFailures;
  if (firstError.empty()) {
    firstError = o.firstError;
  }
  dense.insert(dense.end(), o.dense.begin(), o.dense.end());
  maxAmpError = std::max(maxAmpError, o.maxAmpError);
}

// --- driver ------------------------------------------------------------------

Driver::Driver(const Plan& plan, std::size_t client, Backend& backend,
               Recorder& rec, LiveCounters& live)
    : plan(plan), client(client), backend(backend), rec(rec), live(live) {}

std::string Driver::kindName(const Op& op) const {
  switch (op.kind) {
  case OpKind::Create:
    return "create";
  case OpKind::Step:
    return op.restore ? "restore" : "step";
  case OpKind::Back:
    return "back";
  case OpKind::Reset:
    return "reset";
  case OpKind::Export:
    return std::string("export-") + op.fmt;
  case OpKind::Spill:
    return "spill";
  case OpKind::Delete:
    return "delete";
  case OpKind::Verify:
    return "verify-" + plan.pairs[static_cast<std::size_t>(op.pair)].name;
  }
  return "?";
}

Reply Driver::call(const Op& op, const std::string& method,
                   const std::string& target, const std::string& body) {
  ++rec.attempted;
  live.attempted.fetch_add(1, std::memory_order_relaxed);
  live.inFlight.fetch_add(1, std::memory_order_relaxed);
  Reply reply = backend.send(op, method, target, body);
  live.inFlight.fetch_sub(1, std::memory_order_relaxed);
  if (!reply.ok()) {
    ++rec.failed;
    live.failed.fetch_add(1, std::memory_order_relaxed);
    rec.fail(method + " " + target + " -> " +
             (reply.status == 0 ? reply.error
                                : std::to_string(reply.status) + " " +
                                      reply.body.substr(0, 200)));
    return reply;
  }
  rec.all.push_back(reply.ms);
  rec.doneAt.push_back(Clock::now());
  rec.byKind[kindName(op)].push_back(reply.ms);
  if (op.kind == OpKind::Create) {
    rec.create.push_back(reply.ms);
  } else if (op.restore) {
    rec.restore.push_back(reply.ms);
  }
  return reply;
}

void Driver::acceptState(const Op& op, Session& s, const Reply& reply,
                         std::size_t expectedPos) {
  try {
    const mj::Value doc = mj::parse(reply.body);
    const mj::Value& dd = doc.at("dd");
    const std::string ddText = reply.body.substr(dd.begin, dd.end - dd.begin);
    if (static_cast<std::size_t>(doc.num("position")) != expectedPos) {
      rec.fail("reply at position " +
               std::to_string(static_cast<long>(doc.num("position"))) +
               ", expected " + std::to_string(expectedPos));
    }
    const auto& qc = plan.circuits[static_cast<std::size_t>(s.circuit)].qc;
    if (const std::string bad = checkNorm(dd, qc.numQubits()); !bad.empty()) {
      rec.fail(plan.circuits[static_cast<std::size_t>(s.circuit)].name +
               ": " + bad);
    }
    switch (op.kind) {
    case OpKind::Create:
      s.id = doc.str("id");
      s.ddPrev.clear();
      break;
    case OpKind::Step:
      if (doc.num("stepsApplied") != 1.) {
        rec.fail("step applied " +
                 std::to_string(doc.num("stepsApplied")) + " operations");
      }
      s.ddPrev = s.ddNow;
      break;
    case OpKind::Back:
      // back after a step must give back the very same DD document
      if (!s.ddPrev.empty() && ddText != s.ddPrev) {
        rec.fail(plan.circuits[static_cast<std::size_t>(s.circuit)].name +
                 ": back after step returned a different DD document");
      }
      s.ddPrev.clear();
      break;
    default:
      s.ddPrev.clear();
      break;
    }
    s.ddNow = ddText;
    s.pos = expectedPos;
    ++steps;
    // restored states always, other states every 7th reply, are compared
    // with dense simulation once the timed part is over
    if ((op.restore || steps % 7 == 0) && rec.dense.size() < DENSE_SAMPLES) {
      rec.dense.push_back({s.circuit, expectedPos, ddText});
    }
  } catch (const std::exception& e) {
    rec.fail(std::string("unreadable session reply: ") + e.what());
  }
}

void Driver::run(const Op& op) {
  const std::string base =
      op.kind == OpKind::Verify || op.kind == OpKind::Create
          ? ""
          : "/v1/sessions/" + slots[static_cast<std::size_t>(op.slot)].id;
  Session* s = op.kind == OpKind::Verify
                   ? nullptr
                   : &slots[static_cast<std::size_t>(op.slot)];
  switch (op.kind) {
  case OpKind::Create: {
    s->circuit = op.circuit;
    s->spilled = false;
    const Reply r = call(
        op, "POST", "/v1/sessions",
        "{\"kind\":\"simulation\"," +
            plan.circuits[static_cast<std::size_t>(op.circuit)].spec + "}");
    if (r.ok()) {
      acceptState(op, *s, r, 0);
    }
    return;
  }
  case OpKind::Step: {
    const Reply r = call(op, "POST", base + "/step", "");
    s->spilled = false;
    if (r.ok()) {
      acceptState(op, *s, r, s->pos + 1);
    }
    return;
  }
  case OpKind::Back: {
    const Reply r = call(op, "POST", base + "/back", "");
    if (r.ok()) {
      acceptState(op, *s, r, s->pos - 1);
    }
    return;
  }
  case OpKind::Reset: {
    const Reply r = call(op, "POST", base + "/reset", "");
    if (r.ok()) {
      acceptState(op, *s, r, 0);
    }
    return;
  }
  case OpKind::Export: {
    const Reply r = call(op, "GET", base + "/dd?fmt=" + op.fmt, "");
    const bool svg = std::string(op.fmt) == "svg";
    if (r.ok() && r.body.find(svg ? "<svg" : "digraph") == std::string::npos) {
      rec.fail(std::string("export is not ") + op.fmt);
    }
    return;
  }
  case OpKind::Spill: {
    ++rec.attempted;
    live.attempted.fetch_add(1, std::memory_order_relaxed);
    if (!backend.spill(s->id)) {
      ++rec.failed;
      live.failed.fetch_add(1, std::memory_order_relaxed);
      rec.fail("session " + s->id + " could not be spilled");
      return;
    }
    s->spilled = true;
    return;
  }
  case OpKind::Delete: {
    call(op, "DELETE", base, "");
    s->id.clear();
    return;
  }
  case OpKind::Verify: {
    const PairSpec& p = plan.pairs[static_cast<std::size_t>(op.pair)];
    const Reply r = call(op, "POST", "/v1/verify", p.body);
    if (!r.ok()) {
      return;
    }
    try {
      const std::string verdict = mj::parse(r.body).str("equivalence");
      if (isEquivalentVerdict(verdict) != p.equivalent) {
        rec.fail(p.name + ": verdict \"" + verdict + "\" contradicts the " +
                 (p.equivalent ? "equivalent" : "non-equivalent") +
                 " construction");
      }
    } catch (const std::exception& e) {
      rec.fail(p.name + ": unreadable verify reply: " + e.what());
    }
    return;
  }
  }
}

void Driver::setup() {
  if (plan.workload == "step_interactive") {
    slots.resize(STEP_SLOTS);
    for (std::size_t i = 0; i < STEP_SLOTS; ++i) {
      Op op{OpKind::Create, static_cast<int>(i)};
      op.circuit = i + 1 < STEP_SLOTS
                       ? static_cast<int>(i)
                       : static_cast<int>(4 + client * UPLOADS / 2);
      run(op);
    }
  } else {
    slots.resize(CHURN_BATCH);
  }
}

void Driver::roundStep(std::size_t r) {
  for (std::size_t i = 0; i < STEP_SLOTS; ++i) {
    Session& s = slots[i];
    const std::size_t n =
        plan.circuits[static_cast<std::size_t>(s.circuit)].qc.size();
    if (s.pos + STEPS_PER_VISIT > n) {
      run({OpKind::Reset, static_cast<int>(i)});
    }
    for (std::size_t k = 0; k < STEPS_PER_VISIT; ++k) {
      Op step{OpKind::Step, static_cast<int>(i)};
      step.restore = s.spilled;
      run(step);
    }
    run({OpKind::Back, static_cast<int>(i)});
  }
  Op exp{OpKind::Export, static_cast<int>(r % STEP_SLOTS)};
  exp.fmt = r % 2 == 0 ? "dot" : "svg";
  run(exp);
  if (r % UPLOAD_EVERY == UPLOAD_EVERY - 1) {
    // the user uploads a new circuit in place of the previous upload
    run({OpKind::Delete, static_cast<int>(STEP_SLOTS - 1)});
    ++uploadsCreated;
    Op create{OpKind::Create, static_cast<int>(STEP_SLOTS - 1)};
    create.circuit = static_cast<int>(
        4 + (client * UPLOADS / 2 + uploadsCreated) % UPLOADS);
    run(create);
  }
  if (r % UPLOAD_EVERY == UPLOAD_EVERY / 2 - 1) {
    // a session left idle is spilled; the next round's first step restores
    run({OpKind::Spill, static_cast<int>((r / UPLOAD_EVERY) % 4)});
  }
}

void Driver::roundVerify(std::size_t r) {
  for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
    Op op{OpKind::Verify};
    op.pair = static_cast<int>(p);
    run(op);
  }
  // after the verdicts the user opens a circuit to step through; it idles
  // long enough to be spilled and is restored by the next step
  Op create{OpKind::Create, 0};
  create.circuit = static_cast<int>(r % plan.circuits.size());
  run(create);
  run({OpKind::Step, 0});
  run({OpKind::Spill, 0});
  Op restore{OpKind::Step, 0};
  restore.restore = true;
  run(restore);
  run({OpKind::Delete, 0});
}

void Driver::roundChurn(std::size_t r) {
  for (std::size_t i = 0; i < CHURN_BATCH; ++i) {
    Op create{OpKind::Create, static_cast<int>(i)};
    create.circuit =
        static_cast<int>((r * CHURN_BATCH + i) % plan.circuits.size());
    run(create);
    for (std::size_t k = 0; k < CHURN_STEPS; ++k) {
      run({OpKind::Step, static_cast<int>(i)});
    }
  }
  // creating the batch spilled all but the newest CHURN_BUDGET sessions;
  // the first step to each of those restores it
  for (std::size_t i = 0; i < CHURN_BATCH; ++i) {
    Op step{OpKind::Step, static_cast<int>(i)};
    step.restore = backend.isSpilled(slots[i].id);
    run(step);
  }
  for (std::size_t i = 0; i < CHURN_BATCH; ++i) {
    run({OpKind::Delete, static_cast<int>(i)});
  }
}

void Driver::round(std::size_t r) {
  if (plan.workload == "step_interactive") {
    roundStep(r);
  } else if (plan.workload == "verify_portfolio") {
    roundVerify(r);
  } else {
    roundChurn(r);
  }
}

void Driver::coverage() {
  // one pass over every operation kind, on the workload's first circuit
  const int slot = static_cast<int>(slots.size());
  slots.emplace_back();
  run({OpKind::Create, slot});
  run({OpKind::Step, slot});
  run({OpKind::Step, slot});
  run({OpKind::Back, slot});
  Op svg{OpKind::Export, slot};
  svg.fmt = "svg";
  run(svg);
  Op dot{OpKind::Export, slot};
  dot.fmt = "dot";
  run(dot);
  run({OpKind::Spill, slot});
  Op restore{OpKind::Step, slot};
  restore.restore = true;
  run(restore);
  run({OpKind::Reset, slot});
  run({OpKind::Delete, slot});
  Op verify{OpKind::Verify};
  verify.pair = plan.coveragePair;
  run(verify);
}

// --- checks after the timed part -----------------------------------------------

std::size_t verifyDenseSamples(const Plan& plan, Recorder& rec) {
  std::size_t bad = 0;
  for (const DenseSample& d : rec.dense) {
    const auto& qc = plan.circuits[static_cast<std::size_t>(d.circuit)].qc;
    try {
      const mj::Value dd = mj::parse(d.dd);
      const double err = maxDistance(decodeAmplitudes(dd, qc.numQubits()),
                                     denseState(qc, d.position));
      rec.maxAmpError = std::max(rec.maxAmpError, err);
      if (const std::string why = checkStateDoc(dd, qc, d.position);
          !why.empty()) {
        ++bad;
        rec.fail(why);
      }
    } catch (const std::exception& e) {
      ++bad;
      rec.fail(e.what());
    }
  }
  return bad;
}

std::string verifyPairsDensely(const Plan& plan) {
  for (const PairSpec& p : plan.pairs) {
    if (p.left.numQubits() > 10) {
      continue;
    }
    const double d = unitaryDistanceUpToPhase(p.left, p.right);
    if ((d <= UNITARY_TOL) != p.equivalent) {
      return p.name + ": dense unitaries contradict the construction " +
             "(distance " + std::to_string(d) + ")";
    }
  }
  return "";
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return NAN;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100. * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

WindowedStats windowed(const Recorder& rec, Clock::time_point start,
                       double wallS, double tailPercentile) {
  std::vector<std::vector<double>> byWindow(WINDOWS);
  for (std::size_t k = 0; k < rec.all.size(); ++k) {
    const double at =
        std::chrono::duration<double>(rec.doneAt[k] - start).count();
    const auto w = static_cast<std::size_t>(
        std::max(0., at / wallS * static_cast<double>(WINDOWS)));
    byWindow[std::min(w, WINDOWS - 1)].push_back(rec.all[k]);
  }
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> rate;
  for (const auto& v : byWindow) {
    if (!v.empty()) {
      p50.push_back(percentile(v, 50.));
      tail.push_back(percentile(v, tailPercentile));
    }
    rate.push_back(static_cast<double>(v.size()) /
                   (wallS / static_cast<double>(WINDOWS)));
  }
  return {percentile(p50, 50.), percentile(tail, 50.), percentile(rate, 50.)};
}

// --- loopback HTTP run ----------------------------------------------------------

bool sessionSpilled(qdd::service::SessionStore& store, const std::string& id) {
  // list() rather than find(): find() would refresh the session's LRU stamp
  for (const auto& entry : store.list()) {
    if (entry->id == id) {
      return entry->spilled.load(std::memory_order_acquire);
    }
  }
  return false;
}

namespace {

class HttpBackend final : public Backend {
public:
  HttpBackend(std::uint16_t port, qdd::service::SessionStore& store)
      : client(port, SOCKET_TIMEOUT_MS), store(store) {}
  Reply send(const Op&, const std::string& method, const std::string& target,
             const std::string& body) override {
    return client.request(method, target, body);
  }
  bool spill(const std::string& id) override { return store.spillNow(id); }
  bool isSpilled(const std::string& id) override {
    return sessionSpilled(store, id);
  }

private:
  Client client;
  qdd::service::SessionStore& store;
};

} // namespace

HttpRun runHttp(const Plan& plan, double seconds,
                const std::string& spillDir, Recorder& rec,
                LiveCounters& live) {
  namespace svc = qdd::service;
  std::error_code ec;
  std::filesystem::create_directories(spillDir, ec);
  svc::ApiOptions apiOpts;
  apiOpts.maxSessions = MAX_SESSIONS;
  apiOpts.spillDir = spillDir;
  apiOpts.maxResidentSessions = plan.maxResident;
  svc::ServiceMetrics metrics;
  svc::Api api(apiOpts, metrics);
  svc::Router router;
  api.install(router);
  svc::ServerOptions serverOpts;
  serverOpts.workers = plan.workers;
  svc::HttpServer server(serverOpts, router, metrics);
  api.setDrainingProbe([&server] { return server.draining(); });
  api.setOpenConnectionsProbe([&server] { return server.openConnections(); });
  server.setIncidentLog(&api.incidents());
  server.start();

  std::vector<Recorder> recs(plan.clients);
  std::vector<std::unique_ptr<HttpBackend>> backends;
  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::size_t c = 0; c < plan.clients; ++c) {
    backends.push_back(std::make_unique<HttpBackend>(server.port(),
                                                     api.sessions()));
    drivers.push_back(std::make_unique<Driver>(plan, c, *backends[c], recs[c],
                                               live));
    drivers[c]->setup();
    drivers[c]->round(0); // warm-up: caches fill, lazy set-up finishes
  }
  // set-up requests are not part of the measured sample
  for (auto& r : recs) {
    r.byKind.clear();
    r.all.clear();
    r.doneAt.clear();
    r.create.clear();
    r.restore.clear();
  }

  HttpRun out;
  out.firstRequest = Clock::now();
  const auto end = out.firstRequest + std::chrono::duration_cast<
                                          Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> finished(plan.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plan.clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 1; Clock::now() < end; ++r) {
        drivers[c]->round(r);
      }
      finished[c] = Clock::now();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto last = *std::max_element(finished.begin(), finished.end());
  out.wallS = std::chrono::duration<double>(last - out.firstRequest).count();
  out.peakRssMb = peakRssMb();
  for (const auto& r : recs) {
    rec.merge(r);
  }
  return out;
}

} // namespace perfbench
