#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "sim/statevector.hpp"
#include "spans.hpp"

namespace layerbench {

namespace cutting = qcut::cutting;
using qcut::Rng;
using qcut::circuit::Circuit;
using qcut::circuit::WirePoint;

Mode mode_of(std::uint64_t job_index) noexcept {
  const bool second_in_pair = (job_index % 2) == 1;
  const bool odd_pair = ((job_index / 2) % 2) == 1;
  return second_in_pair != odd_pair ? Mode::Golden : Mode::Standard;
}

std::vector<double> exact_uncut(const Circuit& circuit) {
  qcut::sim::StateVector state(circuit.num_qubits());
  state.apply_circuit(circuit);
  return state.probabilities();
}

double tvd_tolerance(const cutting::CutResponse& response) {
  if (response.data.shots_per_variant == 0) return kExactTvdTolerance;
  const double shots = static_cast<double>(response.data.shots_per_variant);
  double scale = 0.0;
  for (const auto& fragment : response.data.fragments) {
    scale += std::sqrt(std::ldexp(1.0, fragment.width) / shots);
  }
  return kTvdShotFactor * scale;
}

namespace {

/// Index offset of set-up jobs, so they never share a request (or a cache
/// entry) with the timed stream.
constexpr std::uint64_t kWarmupBase = 0xF0000000u;

/// Last operation index touching `qubit` (cut point after it).
WirePoint last_op_on(const Circuit& c, int qubit) {
  std::size_t after = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    if (c.op(i).acts_on(qubit)) after = i;
  }
  return WirePoint{qubit, after};
}

// ---- paper_fig4 ----------------------------------------------------------------

class PaperFig4 final : public Workload {
 public:
  explicit PaperFig4(std::uint64_t seed) {
    Rng rng(seed);
    qcut::circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    options.golden_basis = qcut::linalg::Pauli::Y;
    ansatz_ = qcut::circuit::make_golden_ansatz(options, rng);
    exact_ = exact_uncut(ansatz_.circuit);
  }

  int clients() const override { return 1; }
  bool long_lived_service() const override { return false; }

  Job job(std::uint64_t i) const override {
    Job j;
    j.mode = mode_of(i);
    j.tag = i + 1;
    j.request = cutting::CutRequest(ansatz_.circuit);
    j.request.with_cut(ansatz_.cut).with_shots(kShots).with_seed(seed_base_for(j.tag));
    if (j.mode == Mode::Golden) {
      cutting::NeglectSpec spec(1);
      spec.neglect(0, ansatz_.golden_basis);
      j.request.with_provided_spec(std::move(spec));
    }
    return j;
  }

  std::vector<Job> warmup() const override { return {job(kWarmupBase)}; }
  std::vector<double> exact(const Job&) const override { return exact_; }

  std::string describe() const override {
    return "5-qubit golden ansatz (golden Y), 1 cut, " + std::to_string(kShots) +
           " shots/variant, qcut::run, 1 client, None/Provided pairs";
  }

 private:
  static constexpr std::size_t kShots = 1000;
  qcut::circuit::GoldenAnsatz ansatz_{Circuit(1), {}, qcut::linalg::Pauli::Y, {}, {}};
  std::vector<double> exact_;
};

// ---- chain12_cold --------------------------------------------------------------

/// Brickwork over `qubits`: ry on each, cx between neighbours. Real
/// amplitudes throughout, so Y is golden at every boundary.
void brickwork(Circuit& c, const std::vector<int>& qubits, int depth, Rng& rng) {
  for (int layer = 0; layer < depth; ++layer) {
    for (int q : qubits) c.ry(rng.uniform(0.0, 6.28), q);
    for (std::size_t i = layer % 2; i + 1 < qubits.size(); i += 2) {
      c.cx(qubits[i], qubits[i + 1]);
    }
  }
}

class Chain12Cold final : public Workload {
 public:
  explicit Chain12Cold(std::uint64_t seed) : seed_(seed) {}

  int clients() const override { return 4; }
  bool long_lived_service() const override { return true; }

  Job job(std::uint64_t i) const override {
    // Head fragment: qubit 0; interior: all 12 qubits; tail: qubit 11; one
    // cut wire per boundary (the 12-qubit, 1-cut chain of variant_batch).
    Rng rng = Rng(seed_).child(i);
    Circuit c(kQubits);
    brickwork(c, {0}, 2, rng);
    const WirePoint cut0 = last_op_on(c, 0);
    std::vector<int> all(kQubits);
    for (int q = 0; q < kQubits; ++q) all[static_cast<std::size_t>(q)] = q;
    brickwork(c, all, kInteriorDepth, rng);
    const WirePoint cut1 = last_op_on(c, kQubits - 1);
    brickwork(c, {kQubits - 1}, 2, rng);

    Job j;
    j.mode = mode_of(i);
    j.tag = i + 1;
    j.reference = i;
    j.request = cutting::CutRequest(std::move(c));
    j.request.with_boundaries({{cut0}, {cut1}}).with_exact().with_seed(seed_base_for(j.tag));
    j.request.with_golden(j.mode == Mode::Golden ? cutting::GoldenMode::DetectExact
                                                 : cutting::GoldenMode::None);
    return j;
  }

  std::vector<Job> warmup() const override { return {job(kWarmupBase)}; }
  std::vector<double> exact(const Job& job) const override {
    return exact_uncut(job.request.circuit);
  }

  std::string describe() const override {
    return "12-qubit 3-fragment ry+cx chains, 1 cut wire per boundary, depth " +
           std::to_string(kInteriorDepth) +
           ", exact fragment distributions, fresh angles per job, CutService, 4 in flight, "
           "None/DetectExact pairs";
  }

 private:
  static constexpr int kQubits = 12;
  static constexpr int kInteriorDepth = 4;
  std::uint64_t seed_;
};

// ---- qaoa_repeat ---------------------------------------------------------------

class QaoaRepeat final : public Workload {
 public:
  explicit QaoaRepeat(std::uint64_t seed) {
    Rng rng(seed);
    for (int p = 0; p < kGridPoints; ++p) {
      const double gamma = rng.uniform(0.2, 1.0);
      const double beta = rng.uniform(0.1, 0.6);
      circuits_.push_back(qaoa_path(gamma, beta));
      exact_.push_back(exact_uncut(circuits_.back()));
    }
  }

  int clients() const override { return 4; }
  bool long_lived_service() const override { return true; }
  bool repeats() const override { return true; }

  Job job(std::uint64_t i) const override {
    const std::uint64_t point = (i / 2) % kGridPoints;
    Job j;
    j.mode = mode_of(i);
    j.tag = point + 1;  // fixed seed per grid point: repeats are cache reads
    j.reference = point;
    const Circuit& c = circuits_[static_cast<std::size_t>(point)];
    j.request = cutting::CutRequest(c);
    j.request.with_cut(middle_cut(c)).with_shots(kShots).with_seed(seed_base_for(j.tag));
    j.request.with_golden(j.mode == Mode::Golden ? cutting::GoldenMode::DetectExact
                                                 : cutting::GoldenMode::None);
    return j;
  }

  /// Every (grid point, mode) once, so every timed job is a repeat.
  std::vector<Job> warmup() const override {
    std::vector<Job> jobs;
    for (std::uint64_t i = 0; i < 2 * kGridPoints; ++i) jobs.push_back(job(i));
    return jobs;
  }

  std::vector<double> exact(const Job& job) const override {
    return exact_[static_cast<std::size_t>(job.reference)];
  }

  std::string describe() const override {
    return "12-qubit depth-3 QAOA MaxCut on a path, middle cut, " +
           std::to_string(kGridPoints) + "-point grid, " + std::to_string(kShots) +
           " shots/variant, CutService, 4 in flight, None/DetectExact pairs, warm cache";
  }

 private:
  static constexpr int kQubits = 12;
  static constexpr int kDepth = 3;
  static constexpr int kGridPoints = 8;
  static constexpr std::size_t kShots = 50000;

  static Circuit qaoa_path(double gamma, double beta) {
    Circuit c(kQubits);
    for (int q = 0; q < kQubits; ++q) c.h(q);
    for (int layer = 0; layer < kDepth; ++layer) {
      for (int q = 0; q + 1 < kQubits; ++q) {
        c.append(qcut::circuit::GateKind::RZZ, {q, q + 1}, {gamma * (1.0 + 0.1 * layer)});
      }
      for (int q = 0; q < kQubits; ++q) c.rx(2.0 * beta, q);
    }
    return c;
  }

  /// The middle wire, after its last cost-layer interaction.
  static WirePoint middle_cut(const Circuit& c) {
    const int wire = kQubits / 2;
    std::size_t after = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      const auto& op = c.op(i);
      if (op.kind == qcut::circuit::GateKind::RZZ && op.acts_on(wire)) after = i;
    }
    return WirePoint{wire, after};
  }

  std::vector<Circuit> circuits_;
  std::vector<std::vector<double>> exact_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper_fig4") return std::make_unique<PaperFig4>(seed);
  if (name == "chain12_cold") return std::make_unique<Chain12Cold>(seed);
  if (name == "qaoa_repeat") return std::make_unique<QaoaRepeat>(seed);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace layerbench
