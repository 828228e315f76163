#include "checks.hpp"

#include "qdd/baseline/DenseSimulator.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/viz/Graph.hpp"
#include "qdd/viz/JsonExporter.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

struct DocNode {
  int level = 0;
  const mj::Value* edge[2] = {nullptr, nullptr};
};

std::complex<double> weightOf(const mj::Value& w) {
  return {w.num("re"), w.num("im")};
}

/// Amplitudes of the sub-state below `target` (an edge's "to" or the root's
/// "node"), least significant qubit first. `level` is the level the target
/// must sit at; -1 is the terminal.
const Amps& subState(const mj::Value& target, int level,
                     const std::map<long, DocNode>& nodes,
                     std::map<long, Amps>& memo) {
  static const Amps terminal{1.};
  if (target.kind == mj::Value::Kind::String) {
    if (target.text != "terminal" || level != -1) {
      throw std::runtime_error("dd: terminal reached above level 0");
    }
    return terminal;
  }
  const long id = static_cast<long>(target.number);
  if (const auto it = memo.find(id); it != memo.end()) {
    return it->second;
  }
  const auto n = nodes.find(id);
  if (n == nodes.end()) {
    throw std::runtime_error("dd: edge to unknown node " + std::to_string(id));
  }
  if (n->second.level != level) {
    throw std::runtime_error("dd: node " + std::to_string(id) + " at level " +
                             std::to_string(n->second.level) + ", expected " +
                             std::to_string(level));
  }
  const std::size_t half = std::size_t{1} << static_cast<unsigned>(level);
  Amps out(2 * half);
  for (int port = 0; port < 2; ++port) {
    const mj::Value* e = n->second.edge[port];
    if (e == nullptr) {
      throw std::runtime_error("dd: node " + std::to_string(id) +
                               " lacks port " + std::to_string(port));
    }
    if (const mj::Value* stub = e->find("zeroStub");
        stub != nullptr && stub->boolean) {
      continue;
    }
    if (const mj::Value* skip = e->find("skippedLevels");
        skip != nullptr && skip->number != 0) {
      throw std::runtime_error("dd: vector edge skips levels");
    }
    const std::complex<double> w = weightOf(e->at("weight"));
    const Amps& below = subState(e->at("to"), level - 1, nodes, memo);
    for (std::size_t k = 0; k < half; ++k) {
      out[static_cast<std::size_t>(port) * half + k] = w * below[k];
    }
  }
  return memo.emplace(id, std::move(out)).first->second;
}

/// Replaces the first number after `key` (searched from `from`) by
/// `f(number)`. Used by the self-test to perturb a correct document.
template <class F>
std::string perturbNumber(const std::string& doc, const std::string& key,
                          std::size_t from, F f) {
  const std::size_t k = doc.find(key, from);
  if (k == std::string::npos) {
    throw std::runtime_error("self-test: no " + key + " in document");
  }
  std::size_t a = k + key.size();
  while (doc[a] == ' ' || doc[a] == ':') {
    ++a;
  }
  std::size_t b = a;
  while (b < doc.size() && std::string("+-.0123456789eE").find(doc[b]) !=
                               std::string::npos) {
    ++b;
  }
  const double x = std::strtod(doc.substr(a, b - a).c_str(), nullptr);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", f(x));
  return doc.substr(0, a) + buf + doc.substr(b);
}

} // namespace

Amps decodeAmplitudes(const mj::Value& dd, std::size_t qubits) {
  const std::size_t dim = std::size_t{1} << qubits;
  if (const mj::Value* zero = dd.find("zero"); zero != nullptr &&
                                               zero->boolean) {
    return Amps(dim);
  }
  if (dd.str("kind") != "vector") {
    throw std::runtime_error("dd: not a vector document");
  }
  std::map<long, DocNode> nodes;
  for (const mj::Value& n : dd.at("nodes").items) {
    nodes[static_cast<long>(n.num("id"))].level =
        static_cast<int>(n.num("level"));
  }
  for (const mj::Value& e : dd.at("edges").items) {
    const auto it = nodes.find(static_cast<long>(e.num("from")));
    const int port = static_cast<int>(e.num("port"));
    if (it == nodes.end() || port < 0 || port > 1 ||
        it->second.edge[port] != nullptr) {
      throw std::runtime_error("dd: bad edge list");
    }
    it->second.edge[port] = &e;
  }
  const mj::Value& root = dd.at("root");
  std::map<long, Amps> memo;
  const Amps& below =
      subState(root.at("node"), static_cast<int>(qubits) - 1, nodes, memo);
  const std::complex<double> w = weightOf(root.at("weight"));
  Amps out(below.size());
  for (std::size_t k = 0; k < below.size(); ++k) {
    out[k] = w * below[k];
  }
  return out;
}

double normSquared(const Amps& amps) {
  double s = 0.;
  for (const auto& a : amps) {
    s += std::norm(a);
  }
  return s;
}

double maxDistance(const Amps& a, const Amps& b) {
  if (a.size() != b.size()) {
    return INFINITY;
  }
  double d = 0.;
  for (std::size_t k = 0; k < a.size(); ++k) {
    d = std::max(d, std::abs(a[k] - b[k]));
  }
  return d;
}

Amps denseState(const ir::QuantumComputation& qc, std::size_t position) {
  baseline::DenseStateVector state(qc.numQubits());
  for (std::size_t k = 0; k < position && k < qc.size(); ++k) {
    state.apply(qc.at(k));
  }
  return state.amplitudes();
}

double unitaryDistanceUpToPhase(const ir::QuantumComputation& a,
                                const ir::QuantumComputation& b) {
  baseline::DenseUnitary ua(a.numQubits());
  baseline::DenseUnitary ub(b.numQubits());
  ua.run(a);
  ub.run(b);
  const auto& ma = ua.matrix();
  const auto& mb = ub.matrix();
  std::size_t pivot = 0;
  for (std::size_t k = 1; k < ma.size(); ++k) {
    if (std::abs(ma[k]) > std::abs(ma[pivot])) {
      pivot = k;
    }
  }
  if (std::abs(mb[pivot]) < 1e-12) {
    return INFINITY;
  }
  const std::complex<double> phase =
      mb[pivot] / ma[pivot] / std::abs(mb[pivot] / ma[pivot]);
  double d = 0.;
  for (std::size_t k = 0; k < ma.size(); ++k) {
    d = std::max(d, std::abs(phase * ma[k] - mb[k]));
  }
  return d;
}

bool isEquivalentVerdict(const std::string& verdict) {
  return verdict == "equivalent" ||
         verdict == "equivalent up to global phase";
}

std::string checkNorm(const mj::Value& dd, std::size_t qubits) {
  try {
    const double n = normSquared(decodeAmplitudes(dd, qubits));
    if (std::abs(n - 1.) > NORM_TOL) {
      return "state norm^2 is " + std::to_string(n);
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string checkStateDoc(const mj::Value& dd, const ir::QuantumComputation& qc,
                          std::size_t position) {
  try {
    const Amps got = decodeAmplitudes(dd, qc.numQubits());
    const double d = maxDistance(got, denseState(qc, position));
    if (!(d <= AMP_TOL)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "amplitudes differ from dense simulation by %.3g at "
                    "position %zu of %s",
                    d, position, qc.name().c_str());
      return buf;
    }
    if (std::abs(normSquared(got) - 1.) > NORM_TOL) {
      return "state norm^2 is " + std::to_string(normSquared(got));
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

Generated randomUnitary(std::size_t qubits, std::size_t gates,
                        std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<std::size_t> wire(0, qubits - 1);
  std::uniform_real_distribution<double> angle(-3.14159, 3.14159);
  Generated g{"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                  std::to_string(qubits) + "];\n",
              ir::QuantumComputation(qubits, 0, "upload" + std::to_string(seed))};
  char buf[96];
  for (std::size_t k = 0; k < gates; ++k) {
    const auto q = static_cast<Qubit>(wire(rng));
    auto p = static_cast<Qubit>(wire(rng));
    if (p == q) {
      p = static_cast<Qubit>((static_cast<std::size_t>(q) + 1) % qubits);
    }
    const double theta = angle(rng);
    switch (kind(rng)) {
    case 0:
      g.qc.h(q);
      std::snprintf(buf, sizeof(buf), "h q[%d];\n", int{q});
      break;
    case 1:
      g.qc.x(q);
      std::snprintf(buf, sizeof(buf), "x q[%d];\n", int{q});
      break;
    case 2:
      g.qc.s(q);
      std::snprintf(buf, sizeof(buf), "s q[%d];\n", int{q});
      break;
    case 3:
      g.qc.tdg(q);
      std::snprintf(buf, sizeof(buf), "tdg q[%d];\n", int{q});
      break;
    case 4:
      g.qc.t(q);
      std::snprintf(buf, sizeof(buf), "t q[%d];\n", int{q});
      break;
    case 5:
      g.qc.rz(theta, q);
      std::snprintf(buf, sizeof(buf), "rz(%.17g) q[%d];\n", theta, int{q});
      break;
    case 6:
      g.qc.ry(theta, q);
      std::snprintf(buf, sizeof(buf), "ry(%.17g) q[%d];\n", theta, int{q});
      break;
    case 7:
      g.qc.cz(q, p);
      std::snprintf(buf, sizeof(buf), "cz q[%d], q[%d];\n", int{q}, int{p});
      break;
    default:
      g.qc.cx(q, p);
      std::snprintf(buf, sizeof(buf), "cx q[%d], q[%d];\n", int{q}, int{p});
      break;
    }
    g.qasm += buf;
  }
  return g;
}

std::string selfTest() {
  std::string failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      failures += (failures.empty() ? "" : "; ") + what;
    }
  };

  // A genuine document: the program's own simulation and JSON export of a
  // random state, as the server builds a session reply's "dd" member.
  const Generated g = randomUnitary(5, 40, 7);
  std::string doc;
  std::string docBefore;
  {
    qdd::Package pkg(5);
    sim::SimulationSession session(g.qc, pkg, 0);
    while (session.position() + 1 < g.qc.size()) {
      session.stepForward();
    }
    docBefore = viz::JsonExporter(10, true).toJson(viz::buildGraph(session.state()));
    session.stepForward();
    doc = viz::JsonExporter(10, true).toJson(viz::buildGraph(session.state()));
  }
  const std::size_t n = g.qc.size();
  try {
    const mj::Value good = mj::parse(doc);
    expect(checkStateDoc(good, g.qc, n).empty(),
           "state check rejects a correct document: " +
               checkStateDoc(good, g.qc, n));
    expect(checkNorm(good, 5).empty(), "norm check rejects a correct document");
    expect(!checkStateDoc(good, g.qc, n - 1).empty(),
           "state check accepts a document at the wrong position");

    const std::string badEdge = perturbNumber(
        doc, "\"re\":", doc.find("\"edges\""), [](double x) { return x + 1e-6; });
    expect(!checkStateDoc(mj::parse(badEdge), g.qc, n).empty(),
           "state check accepts a perturbed edge weight");

    const std::string badRoot = perturbNumber(
        doc, "\"re\":", doc.find("\"root\""),
        [](double x) { return x * 1.01 + 0.01; });
    expect(!checkNorm(mj::parse(badRoot), 5).empty(),
           "norm check accepts a perturbed root weight");

    // back-after-step compares the "dd" documents byte for byte
    expect(docBefore != doc && badEdge != doc,
           "document comparison cannot tell states apart");
  } catch (const std::exception& e) {
    expect(false, std::string("self-test document: ") + e.what());
  }

  // verdict ground truth and the dense unitary comparison
  const ir::QuantumComputation qft = ir::builders::qft(4);
  const ir::QuantumComputation native = ir::decomposeToNativeGates(qft, true);
  ir::QuantumComputation wrong = native;
  wrong.t(2);
  expect(unitaryDistanceUpToPhase(qft, native) <= UNITARY_TOL,
         "dense unitary check rejects an equivalent pair");
  expect(unitaryDistanceUpToPhase(qft, wrong) > UNITARY_TOL,
         "dense unitary check accepts a perturbed pair");
  expect(isEquivalentVerdict("equivalent") &&
             isEquivalentVerdict("equivalent up to global phase"),
         "verdict check rejects an equivalent verdict");
  expect(!isEquivalentVerdict("not equivalent") &&
             !isEquivalentVerdict("probably equivalent"),
         "verdict check accepts a non-equivalent verdict");
  return failures;
}

} // namespace perfbench
