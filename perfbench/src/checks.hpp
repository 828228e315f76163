#pragma once

// Output checks that do not trust the program: DD documents are decoded
// into amplitudes by the benchmark's own reader and compared against the
// dense baseline simulator, verdicts against the ground truth fixed by how
// each circuit pair was built.

#include "minijson.hpp"

#include "qdd/ir/QuantumComputation.hpp"

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

namespace qdd::sim {}
namespace qdd::viz {}
namespace qdd::baseline {}

namespace perfbench {

namespace ir = qdd::ir;
namespace sim = qdd::sim;
namespace viz = qdd::viz;
namespace baseline = qdd::baseline;
using qdd::Qubit;

using Amps = std::vector<std::complex<double>>;

/// Largest tolerated |amplitude - dense amplitude|.
inline constexpr double AMP_TOL = 1e-9;
/// Largest tolerated |norm^2 - 1| of a state document.
inline constexpr double NORM_TOL = 1e-9;
/// Largest tolerated unitary distance (after removing global phase) of a
/// pair that must be equivalent; non-equivalent pairs must exceed it.
inline constexpr double UNITARY_TOL = 1e-9;

/// Decodes the amplitude vector of a vector-DD document (the "dd" member of
/// a session reply). Throws std::runtime_error on a malformed document.
Amps decodeAmplitudes(const mj::Value& dd, std::size_t qubits);

[[nodiscard]] double normSquared(const Amps& amps);
[[nodiscard]] double maxDistance(const Amps& a, const Amps& b);

/// Dense state after the first `position` operations of `qc`.
Amps denseState(const ir::QuantumComputation& qc, std::size_t position);

/// Max-norm distance of the two circuits' dense unitaries after the global
/// phase of the first is aligned to the second (small circuits only).
double unitaryDistanceUpToPhase(const ir::QuantumComputation& a,
                                const ir::QuantumComputation& b);

/// True for the verdicts that mean "equivalent" (exactly or up to phase).
[[nodiscard]] bool isEquivalentVerdict(const std::string& verdict);

/// Checks a session reply's "dd" document against the dense state of `qc`
/// after `position` operations; returns "" when it matches, else why not.
std::string checkStateDoc(const mj::Value& dd, const ir::QuantumComputation& qc,
                          std::size_t position);
/// Checks only that the document is a normalised state.
std::string checkNorm(const mj::Value& dd, std::size_t qubits);

/// A random unitary circuit, as QASM text for upload and as the IR the
/// dense reference runs. The same seed gives the same circuit.
struct Generated {
  std::string qasm;
  ir::QuantumComputation qc;
};
Generated randomUnitary(std::size_t qubits, std::size_t gates,
                        std::uint64_t seed);

/// Feeds every check a correct document and a perturbed one; returns ""
/// when each accepts the first and rejects the second, else the failures.
std::string selfTest();

} // namespace perfbench
