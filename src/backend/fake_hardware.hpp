#pragma once
// Fake hardware backend: noisy simulation plus a device timing model.
//
// The paper's hardware experiments (Figs. 3 and 5) ran on 5- and 7-qubit
// IBM superconducting devices. We do not have that hardware, so this
// backend substitutes (a) a noisy simulator for the physics and (b) an
// explicit wall-time model for the economics:
//
//   job_time = job_overhead (+ jitter) + shots * (shot_overhead + circuit_duration)
//
// with circuit_duration the critical path over per-gate durations plus
// readout. The golden-cut speedup the paper measures comes from executing
// 6 instead of 9 circuits per trial; that structure is exactly what this
// model reproduces: a trial's device time is set by its job count and its
// shots, not by what the simulator computes for each circuit.

#include <mutex>

#include "backend/noisy_backend.hpp"

namespace qcut::backend {

/// Wall-time model of a superconducting device.
struct DeviceTimingModel {
  double job_overhead_seconds = 2.0;     // compile/queue/transfer per submitted job
  double job_overhead_jitter = 0.05;     // stddev of Gaussian jitter on the overhead
  double shot_overhead_seconds = 80e-6;  // reset + delay between shots
  double gate_1q_seconds = 35e-9;
  double gate_2q_seconds = 300e-9;
  double readout_seconds = 4e-6;

  /// Critical-path duration of one shot of the circuit (excludes
  /// shot_overhead_seconds).
  [[nodiscard]] double circuit_duration(const Circuit& circuit) const;

  /// Total device seconds for one job. Jitter is drawn from `rng`.
  [[nodiscard]] double job_seconds(const Circuit& circuit, std::size_t shots, Rng& rng) const;
};

class FakeHardwareBackend : public Backend {
 public:
  /// `device_name` labels the preset; `num_qubits` is the device size
  /// (wider circuits are rejected, like on real hardware).
  FakeHardwareBackend(std::string device_name, int num_qubits, noise::NoiseModel model,
                      DeviceTimingModel timing, std::uint64_t seed = 17);

  [[nodiscard]] std::string name() const override { return device_name_; }
  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const DeviceTimingModel& timing() const noexcept { return timing_; }

  using Backend::run;
  [[nodiscard]] Counts run(const Circuit& circuit, std::size_t shots,
                           std::uint64_t seed_stream) override;

  /// Ideal (noiseless) distribution, for ground-truth comparisons.
  [[nodiscard]] std::vector<double> exact_probabilities(const Circuit& circuit) override;

  /// Exact distribution under this device's noise model.
  [[nodiscard]] std::vector<double> noisy_probabilities(const Circuit& circuit) const;

  [[nodiscard]] BackendStats stats() const override;
  void reset_stats() override;

 private:
  std::string device_name_;
  int num_qubits_;
  NoisyBackend simulator_;
  DeviceTimingModel timing_;
  Rng timing_rng_;
  mutable std::mutex stats_mutex_;
  double simulated_seconds_ = 0.0;
};

}  // namespace qcut::backend
