#include "traced.hpp"

#include "qdd/dd/Serialization.hpp"
#include "qdd/exec/Portfolio.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/net/HttpParser.hpp"
#include "qdd/obs/TraceCheck.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/Json.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/verify/EquivalenceChecker.hpp"
#include "qdd/viz/DotExporter.hpp"
#include "qdd/viz/Graph.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/SvgExporter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace svc = qdd::service;

/// Spans kept for the trace file; beyond it only the statistics grow.
constexpr std::size_t MAX_SPANS = 400000;

/// Span recorder: name, start, end, parent span and operation id. Single
/// threaded: the replay runs every client's rounds on one thread.
class Tracer {
public:
  struct Span {
    const char* name;
    std::int64_t startNs;
    std::int64_t durNs;
    int parent;
    std::size_t op;
  };

  explicit Tracer(Clock::time_point t0) : t0(t0) {}

  /// Runs `f` inside a span named `name`; its duration in microseconds is
  /// also appended to the samples of `name`.
  template <class F> decltype(auto) timed(const char* name, F&& f) {
    const int index = static_cast<int>(spans.size());
    const bool keep = spans.size() < MAX_SPANS;
    if (keep) {
      spans.push_back({name, 0, 0, stack.empty() ? -1 : stack.back(), op});
      stack.push_back(index);
    }
    const auto begin = Clock::now();
    struct Close {
      Tracer& t;
      const char* name;
      int index;
      bool keep;
      Clock::time_point begin;
      ~Close() {
        const auto end = Clock::now();
        const std::int64_t dur =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count();
        t.samples[name].push_back(static_cast<double>(dur) / 1000.);
        if (keep) {
          Span& s = t.spans[static_cast<std::size_t>(index)];
          s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          begin - t.t0)
                          .count();
          s.durNs = dur;
          t.stack.pop_back();
        }
      }
    } close{*this, name, index, keep, begin};
    return f();
  }

  std::string chromeTrace() const {
    std::vector<std::size_t> order(spans.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      order[k] = k;
    }
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return spans[a].startNs != spans[b].startNs
                 ? spans[a].startNs < spans[b].startNs
                 : spans[a].durNs > spans[b].durNs;
    });
    std::string out = "{\"traceEvents\":[\n{\"name\":\"thread_name\",\"ph\":"
                      "\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":"
                      "\"perfbench replay\"}}";
    char buf[256];
    for (const std::size_t k : order) {
      const Span& s = spans[k];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%lld.%03lld,\"dur\":%lld.%03lld,\"pid\":1,\"tid\":"
                    "1,\"args\":{\"op\":%zu,\"span\":%zu,\"parent\":%d}}",
                    s.name, static_cast<long long>(s.startNs / 1000),
                    static_cast<long long>(s.startNs % 1000),
                    static_cast<long long>(s.durNs / 1000),
                    static_cast<long long>(s.durNs % 1000), s.op, k, s.parent);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

  std::map<std::string, std::vector<double>> samples;
  std::vector<Span> spans;
  std::size_t op = 0;

private:
  Clock::time_point t0;
  std::vector<int> stack;
};

double residentKb() {
  std::ifstream in("/proc/self/statm");
  long size = 0;
  long resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.;
}

/// The benchmark's own copy of a session: the same circuit on a private
/// package, stepped alongside the server so each layer can be timed alone.
struct Shadow {
  std::unique_ptr<qdd::Package> pkg;
  std::unique_ptr<sim::SimulationSession> session;
  std::string serialized;
};

class TracedBackend final : public Backend {
public:
  TracedBackend(const Plan& plan, Tracer& tracer, svc::Api& api,
                svc::Router& router)
      : plan(plan), tracer(tracer), api(api), router(router) {}

  Reply send(const Op& op, const std::string& method,
             const std::string& target, const std::string& body) override {
    ++tracer.op;
    Reply reply;
    tracer.timed(opName(op), [&] {
      std::string bytes = Client::encode(method, target, body);
      svc::HttpRequest request;
      const auto parsed = tracer.timed("net.parse", [&] {
        return qdd::net::tryParseHttpRequest(bytes, request, 1U << 20U);
      });
      if (parsed != qdd::net::ParseStatus::Ok) {
        reply.error = "request bytes did not parse";
        return;
      }
      const std::string id = sessionId(target);
      if (op.restore) {
        restore(id);
      }
      const auto t0 = Clock::now();
      svc::Router::Dispatch d =
          tracer.timed(dispatchName(op), [&] { return router.dispatch(request); });
      reply.ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      tracer.samples["dispatch.all"].push_back(reply.ms * 1000.);
      reply.status = d.response.status;
      reply.body = std::move(d.response.body);
      noteBudgetSpills();
      if (reply.ok()) {
        shadowLayers(op, id, reply);
      }
      residentMax = std::max(residentMax, api.sessions().residentCount());
    });
    return reply;
  }

  bool spill(const std::string& id) override {
    ++tracer.op;
    return tracer.timed("op.spill", [&] {
      const bool ok = tracer.timed(
          "service.spill", [&] { return api.sessions().spillNow(id); });
      noteBudgetSpills();
      Shadow& s = shadows.at(id);
      s.serialized = tracer.timed(
          "dd.serialize", [&] { return qdd::serializeToString(s.session->state()); });
      return ok;
    });
  }

  bool isSpilled(const std::string& id) override {
    return sessionSpilled(api.sessions(), id);
  }

  /// Folds the statistics of every shadow package still alive.
  void finish() {
    for (auto& [id, s] : shadows) {
      retire(s);
    }
    shadows.clear();
  }

  qdd::mem::StatsRegistry ddStats;
  std::size_t peakNodes = 0;
  std::size_t gateLookups = 0;
  std::size_t gateHits = 0;
  std::size_t residentMax = 0;

private:
  static const char* opName(const Op& op) {
    switch (op.kind) {
    case OpKind::Create:
      return "op.create";
    case OpKind::Step:
      return op.restore ? "op.restore_step" : "op.step";
    case OpKind::Back:
      return "op.back";
    case OpKind::Reset:
      return "op.reset";
    case OpKind::Export:
      return "op.export";
    case OpKind::Spill:
      return "op.spill";
    case OpKind::Delete:
      return "op.delete";
    case OpKind::Verify:
      return "op.verify";
    }
    return "op";
  }

  static const char* dispatchName(const Op& op) {
    switch (op.kind) {
    case OpKind::Create:
      return "service.dispatch_create";
    case OpKind::Step:
      return "service.dispatch_step";
    case OpKind::Verify:
      return "service.dispatch_verify";
    default:
      return "service.dispatch_other";
    }
  }

  static std::string sessionId(const std::string& target) {
    const std::string prefix = "/v1/sessions/";
    if (target.rfind(prefix, 0) != 0) {
      return "";
    }
    const std::size_t end = target.find_first_of("/?", prefix.size());
    return target.substr(prefix.size(), end == std::string::npos
                                            ? std::string::npos
                                            : end - prefix.size());
  }

  void retire(Shadow& s) {
    if (s.session) {
      peakNodes = std::max(peakNodes, s.session->peakNodes());
      gateLookups += s.session->gateCache().lookups();
      gateHits += s.session->gateCache().hits();
      s.session.reset();
    }
    if (s.pkg) {
      ddStats.merge(s.pkg->statistics());
      s.pkg.reset();
    }
  }

  /// Spill-file bytes per spill since the last call (explicit spills and
  /// those the resident budget made inside a create).
  void noteBudgetSpills() {
    const auto& store = api.sessions();
    const std::uint64_t spills = store.spilledTotal() - spillsSeen;
    if (spills > 0) {
      tracer.samples["service.spill_bytes"].push_back(
          static_cast<double>(store.spillBytesTotal() - spillBytesSeen) /
          static_cast<double>(spills));
    }
    spillsSeen = store.spilledTotal();
    spillBytesSeen = store.spillBytesTotal();
  }

  void restore(const std::string& id) {
    tracer.timed("service.restore", [&] {
      const auto entry = api.sessions().find(id);
      if (entry) {
        const std::lock_guard<std::mutex> lock(entry->mutex);
        api.sessions().ensureResident(*entry);
      }
    });
    // the DD half of a restore, on a fresh package of the same size; a
    // session the budget spilled was serialized by the server only
    Shadow& s = shadows.at(id);
    if (s.serialized.empty()) {
      s.serialized = tracer.timed("dd.serialize", [&] {
        return qdd::serializeToString(s.session->state());
      });
    }
    auto pkg = tracer.timed("dd.package_ctor", [&] {
      return std::make_unique<qdd::Package>(s.pkg->qubits());
    });
    tracer.timed("dd.deserialize", [&] {
      return qdd::deserializeVectorFromString(*pkg, s.serialized);
    });
    ddStats.merge(pkg->statistics());
    s.serialized.clear();
  }

  /// The JSON work of a session reply: the DD rendered by the exporter and
  /// the reply document parsed and written again.
  void renderState(const Shadow& s, const Reply& reply) {
    const viz::Graph graph = viz::buildGraph(s.session->state());
    tracer.timed("viz.json_export", [&] {
      return viz::JsonExporter(10, true).toJson(graph);
    });
    const svc::json::Value doc = tracer.timed(
        "service.json_parse", [&] { return svc::json::Value::parse(reply.body); });
    tracer.timed("service.json_dump", [&] { return doc.dump(); });
    tracer.samples["viz.body_bytes"].push_back(
        static_cast<double>(reply.body.size()));
  }

  void shadowLayers(const Op& op, const std::string& target,
                    const Reply& reply) {
    switch (op.kind) {
    case OpKind::Create: {
      const CircuitSpec& c = plan.circuits[static_cast<std::size_t>(op.circuit)];
      const std::string id = mj::parse(reply.body).str("id");
      Shadow& s = shadows[id];
      ir::QuantumComputation qc = c.qasm.empty()
                                      ? c.qc
                                      : tracer.timed("parser.qasm_parse", [&] {
                                          return qdd::qasm::parse(c.qasm,
                                                                  "upload");
                                        });
      s.pkg = tracer.timed("dd.package_ctor", [&] {
        return std::make_unique<qdd::Package>(
            std::max<std::size_t>(qc.numQubits(), 1));
      });
      s.session = std::make_unique<sim::SimulationSession>(qc, *s.pkg, 0);
      renderState(s, reply);
      return;
    }
    case OpKind::Step: {
      Shadow& s = shadows.at(target);
      tracer.timed("sim.step", [&] { return s.session->stepForward(); });
      renderState(s, reply);
      return;
    }
    case OpKind::Back: {
      Shadow& s = shadows.at(target);
      tracer.timed("sim.back", [&] { return s.session->stepBackward(); });
      renderState(s, reply);
      return;
    }
    case OpKind::Reset: {
      Shadow& s = shadows.at(target);
      s.session->runToStart();
      renderState(s, reply);
      return;
    }
    case OpKind::Export: {
      const Shadow& s = shadows.at(target);
      const viz::Graph graph = viz::buildGraph(s.session->state());
      if (std::string(op.fmt) == "svg") {
        tracer.timed("viz.svg_export",
                     [&] { return viz::SvgExporter().toSvg(graph); });
      } else {
        tracer.timed("viz.dot_export",
                     [&] { return viz::DotExporter().toDot(graph); });
      }
      tracer.samples["viz.body_bytes"].push_back(
          static_cast<double>(reply.body.size()));
      return;
    }
    case OpKind::Delete: {
      const auto it = shadows.find(target);
      if (it != shadows.end()) {
        retire(it->second);
        shadows.erase(it);
      }
      return;
    }
    case OpKind::Verify:
      verifyLayers(plan.pairs[static_cast<std::size_t>(op.pair)]);
      return;
    case OpKind::Spill:
      return;
    }
  }

  void verifyLayers(const PairSpec& p) {
    const std::size_t n = p.left.numQubits();
    tracer.timed("ir.decompose",
                 [&] { return ir::decomposeToNativeGates(p.left, true); });
    const qdd::verify::EquivalenceChecker checker(p.left, p.right);
    if (p.equivalent) {
      // only where the alternating checker is the one that concludes: on
      // non-equivalent pairs it can grow without bound
      qdd::Package pkg(n);
      const auto r = tracer.timed(
          "verify.alternating", [&] { return checker.checkAlternating(pkg); });
      gateLookups += r.gateCacheLookups;
      gateHits += r.gateCacheHits;
      peakNodes = std::max(peakNodes, r.maxNodes);
      ddStats.merge(pkg.statistics());
    }
    {
      qdd::Package pkg(n);
      tracer.timed("verify.first_stimulus", [&] {
        return checker.checkBySimulation(pkg, 1, p.stimulusSeed);
      });
    }
    // the options the request body gives the server
    qdd::exec::PortfolioOptions opts;
    opts.workers = PORTFOLIO_WORKERS;
    opts.includeSimulation = p.simulation;
    opts.seed = p.stimulusSeed;
    const qdd::exec::PortfolioResult r = tracer.timed(
        "exec.portfolio", [&] { return qdd::exec::checkPortfolio(p.left, p.right, opts); });
    for (const auto& e : r.entries) {
      if (e.name == r.winner) {
        tracer.samples["exec.winner"].push_back(e.wallMs * 1000.);
        tracer.samples["exec.useful_ratio"].push_back(e.wallMs / r.wallMs);
      }
    }
  }

  const Plan& plan;
  Tracer& tracer;
  svc::Api& api;
  svc::Router& router;
  std::map<std::string, Shadow> shadows;
  std::uint64_t spillsSeen = 0;
  std::uint64_t spillBytesSeen = 0;
};

double median(const std::vector<double>& v) { return percentile(v, 50.); }

} // namespace

TracedResult runTraced(const Plan& plan, std::uint64_t seed, double seconds,
                       const std::string& tmpDir, const std::string& tracePath,
                       LiveCounters& live) {
  TracedResult out;

  // resident memory of one package of the workload's session size, taken
  // first: the malloc thresholds keep freed memory in the heap, and a
  // package built on it later would page in nothing new
  double packageKb = 0.;
  {
    const std::size_t n = plan.circuits.empty()
                              ? plan.pairs.front().left.numQubits()
                              : plan.circuits.front().qc.numQubits();
    const double before = residentKb();
    std::vector<std::unique_ptr<qdd::Package>> held;
    for (int k = 0; k < 4; ++k) {
      held.push_back(std::make_unique<qdd::Package>(n));
    }
    packageKb = (residentKb() - before) / 4.;
  }

  // Phase 1: the untraced HTTP mix, for the end-to-end p50 the network
  // overhead is measured against.
  Recorder httpRec;
  runHttp(plan, seconds * 0.4, tmpDir + "/spill-http", httpRec, live);
  const double httpP50Us = median(httpRec.all) * 1000.;

  // Phase 2: the same seeded mix, in-process and traced.
  svc::ApiOptions apiOpts;
  apiOpts.maxSessions = MAX_SESSIONS;
  apiOpts.spillDir = tmpDir + "/spill-traced";
  std::error_code ec;
  std::filesystem::create_directories(apiOpts.spillDir, ec);
  apiOpts.maxResidentSessions = plan.maxResident;
  svc::ServiceMetrics metrics;
  svc::Api api(apiOpts, metrics);
  svc::Router router;
  api.install(router);

  Tracer tracer(Clock::now());
  TracedBackend backend(plan, tracer, api, router);

  Recorder rec;
  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::size_t c = 0; c < plan.clients; ++c) {
    drivers.push_back(
        std::make_unique<Driver>(plan, c, backend, rec, live));
    drivers[c]->setup();
  }
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          seconds * 0.6));
  std::size_t replayed = 0;
  for (std::size_t r = 0; Clock::now() < end; ++r) {
    for (auto& d : drivers) {
      d->round(r);
    }
    ++replayed;
  }
  const std::size_t mixOps = tracer.op;
  // Phase 3: one pass over every operation kind, so each layer has a value
  // on every workload (README: which metrics come from this pass).
  drivers.front()->coverage();
  backend.finish();
  verifyDenseSamples(plan, rec);
  if (const std::string bad = verifyPairsDensely(plan); !bad.empty()) {
    rec.fail(bad);
  }

  // cost of recording one span, for the overhead estimate
  double spanCostUs = 0.;
  {
    Tracer probe(Clock::now());
    const auto t0 = Clock::now();
    for (int k = 0; k < 20000; ++k) {
      probe.timed("probe", [] { return 0; });
    }
    spanCostUs =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        20000.;
  }

  const std::string trace = tracer.chromeTrace();
  {
    std::ofstream file(tracePath);
    file << trace;
    if (!file.flush()) {
      rec.fail("cannot write " + tracePath);
    }
  }
  const auto check = qdd::obs::validateChromeTrace(trace);
  if (!check.valid) {
    rec.fail("trace file rejected: " + check.error);
  }

  auto& S = tracer.samples;
  const auto m = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = {value, unit};
  };
  const auto us = [&](const char* span) { return median(S[span]); };
  const double dispatchP50Us = median(S["dispatch.all"]);
  m("net.parse_us", us("net.parse"), "us");
  m("net.overhead_us", httpP50Us - dispatchP50Us, "us");
  m("service.dispatch_step_us", us("service.dispatch_step"), "us");
  m("service.dispatch_create_us", us("service.dispatch_create"), "us");
  m("service.dispatch_verify_ms", us("service.dispatch_verify") / 1000., "ms");
  m("service.json_dump_us", us("service.json_dump"), "us");
  m("service.json_parse_us", us("service.json_parse"), "us");
  m("service.spill_us", us("service.spill"), "us");
  m("service.restore_us", us("service.restore"), "us");
  m("service.spill_bytes", median(S["service.spill_bytes"]), "bytes");
  m("service.resident_max", static_cast<double>(backend.residentMax), "count");
  m("viz.json_export_us", us("viz.json_export"), "us");
  m("viz.svg_export_us", us("viz.svg_export"), "us");
  m("viz.dot_export_us", us("viz.dot_export"), "us");
  m("viz.body_bytes", median(S["viz.body_bytes"]), "bytes");
  m("sim.step_us", us("sim.step"), "us");
  m("sim.back_us", us("sim.back"), "us");
  m("dd.package_ctor_us", us("dd.package_ctor"), "us");
  m("dd.package_kb", packageKb, "KiB");
  m("dd.serialize_us", us("dd.serialize"), "us");
  m("dd.deserialize_us", us("dd.deserialize"), "us");
  const auto& st = backend.ddStats;
  const double uniqueLookups =
      static_cast<double>(st.vectorTable.lookups + st.matrixTable.lookups);
  m("dd.unique_hit_ratio",
    uniqueLookups == 0.
        ? 0.
        : static_cast<double>(st.vectorTable.hits + st.matrixTable.hits) /
              uniqueLookups,
    "ratio");
  m("dd.compute_hit_ratio", st.computeTotals().hitRatio(), "ratio");
  m("dd.peak_nodes", static_cast<double>(backend.peakNodes), "count");
  m("bridge.gate_cache_hit_ratio",
    backend.gateLookups == 0 ? 0.
                             : static_cast<double>(backend.gateHits) /
                                   static_cast<double>(backend.gateLookups),
    "ratio");
  m("ir.decompose_us", us("ir.decompose"), "us");
  m("parser.qasm_parse_us", us("parser.qasm_parse"), "us");
  m("verify.alternating_ms", us("verify.alternating") / 1000., "ms");
  m("verify.first_stimulus_ms", us("verify.first_stimulus") / 1000., "ms");
  m("exec.portfolio_ms", us("exec.portfolio") / 1000., "ms");
  m("exec.winner_ms", us("exec.winner") / 1000., "ms");
  m("exec.useful_ratio", median(S["exec.useful_ratio"]), "ratio");

  for (auto& [name, vu] : out.metrics) {
    if (!std::isfinite(vu.first)) {
      rec.fail("per-layer metric " + name + " has no sample");
      vu.first = -1.;
    }
  }

  // the request path's layer time next to the untraced end-to-end p50
  double pathUs = 0.;
  for (const char* span : {"net.parse", "dispatch.all"}) {
    double sum = 0.;
    for (const double v : S[span]) {
      sum += v;
    }
    pathUs += S[span].empty() ? 0. : sum / static_cast<double>(S[span].size());
  }
  const double spansPerOp =
      static_cast<double>(tracer.spans.size()) /
      static_cast<double>(std::max<std::size_t>(1, tracer.op));
  std::fprintf(stderr,
               "traced %s seed=%llu: %zu rounds, %zu operations (+%zu "
               "coverage), %zu spans -> %s (%s); untraced p50 %.1f us over "
               "%zu requests; mean net.parse + dispatch per request %.1f us; "
               "%.2f spans per operation at %.3f us each = %.2f us per "
               "operation (%.1f%% of the untraced p50)\n",
               plan.workload.c_str(), static_cast<unsigned long long>(seed),
               replayed, mixOps, tracer.op - mixOps, tracer.spans.size(),
               tracePath.c_str(), check.valid ? "valid" : "INVALID",
               httpP50Us, httpRec.all.size(), pathUs, spansPerOp, spanCostUs,
               spansPerOp * spanCostUs,
               100. * spansPerOp * spanCostUs / httpP50Us);

  verifyDenseSamples(plan, httpRec);
  rec.merge(httpRec);
  out.attempted = rec.attempted;
  out.failed = rec.failed;
  out.correct = rec.checkFailures == 0;
  out.firstError = rec.firstError;
  return out;
}

} // namespace perfbench
