// Device-agnostic compiled-circuit interface suite (sim/device.hpp).
//
// Gates the contracts layers above the simulator rely on:
//  * compile + apply through the Device matches the engine's reference
//    results bit for bit, with SIMD on (the default) or off;
//  * compile_prefix/compile_suffix forking is bit-for-bit identical to a
//    whole-circuit compile at every split point (the stream property,
//    lifted to the Device level);
//  * state management (create/clone/copy) is exact;
//  * column-major programs transpose custom matrices and nothing else;
//  * identity tokens encode exactly the result-affecting knobs;
//  * summaries report what the op stream became.

#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/statevector.hpp"

namespace qcut::sim {
namespace {

using circuit::Circuit;

Circuit random_circuit_of(int width, int depth, std::uint64_t seed) {
  Rng rng(seed);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = width;
  rc.depth = depth;
  return circuit::random_circuit(rc, rng);
}

std::vector<double> device_probabilities(const Device& device, const Circuit& c,
                                         const ProgramOptions& options = {}) {
  const auto program = device.compile(c, options);
  const auto state = device.create_state(c.num_qubits());
  device.apply(*program, *state);
  std::vector<double> probs;
  device.probabilities(*state, probs);
  return probs;
}

linalg::CVec device_amplitudes(const Device& device, const Circuit& c) {
  const auto state = device.create_state(c.num_qubits());
  device.apply(*device.compile(c), *state);
  return device.amplitudes(*state);
}

TEST(CpuDevice, CapsDescribeTheEngine) {
  const auto device = make_cpu_device();
  EXPECT_EQ(device->caps().name, "cpu");
  EXPECT_EQ(device->caps().compute_type, ComputeType::C128);
  EXPECT_EQ(device->caps().isa, simd::best_isa());  // simd defaults on
  EXPECT_TRUE(device->caps().supports_prefix_fork);

  EngineOptions scalar_options;
  scalar_options.simd = false;
  const auto scalar_device = make_cpu_device(scalar_options);
  EXPECT_EQ(scalar_device->caps().isa, IsaLevel::Scalar);
}

TEST(CpuDevice, ApplyMatchesEngineReference) {
  const auto device = make_cpu_device();
  for (int width = 2; width <= 8; ++width) {
    const Circuit c = random_circuit_of(width, 16, 100 + static_cast<std::uint64_t>(width));
    StateVector reference(width);
    compile_circuit(c, EngineOptions{}).apply(reference);

    const auto program = device->compile(c);
    const auto state = device->create_state(width);
    device->apply(*program, *state);
    const linalg::CVec amps = device->amplitudes(*state);
    ASSERT_EQ(amps.size(), reference.dim());
    for (index_t i = 0; i < reference.dim(); ++i) {
      EXPECT_EQ(amps[i], reference.amplitude(i)) << i;
    }
  }
}

TEST(CpuDevice, PrefixSuffixForkMatchesWholeCompileAtEverySplit) {
  const auto device = make_cpu_device();
  const Circuit c = random_circuit_of(4, 12, 7);
  const std::vector<double> whole = device_probabilities(*device, c);

  for (std::size_t split = 0; split <= c.num_ops(); ++split) {
    const auto prefix = device->compile_prefix(c, split);
    const auto state = device->create_state(c.num_qubits());
    device->apply(*prefix, *state);
    const auto suffix = device->compile_suffix(*prefix, c);
    device->apply(*suffix, *state);
    std::vector<double> probs;
    device->probabilities(*state, probs);
    ASSERT_EQ(probs.size(), whole.size()) << "split " << split;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(probs[i], whole[i]) << "split " << split << " @ " << i;
    }
  }
}

TEST(CpuDevice, CloneAndCopyStateAreExact) {
  const auto device = make_cpu_device();
  const Circuit c = random_circuit_of(5, 10, 11);
  const auto program = device->compile(c);
  const auto state = device->create_state(5);
  device->apply(*program, *state);

  const auto clone = device->clone_state(*state);
  EXPECT_EQ(clone->num_qubits(), 5);
  EXPECT_EQ(clone->dim(), index_t{32});
  EXPECT_EQ(device->amplitudes(*clone), device->amplitudes(*state));

  const auto copy = device->create_state(5);
  device->copy_state(*state, *copy);
  EXPECT_EQ(device->amplitudes(*copy), device->amplitudes(*state));

  // The copy is independent: advancing the original leaves it untouched.
  device->apply(*program, *state);
  EXPECT_NE(device->amplitudes(*copy), device->amplitudes(*state));
}

TEST(CpuDevice, ApplyBatchMatchesPerStateApply) {
  const auto device = make_cpu_device();
  const Circuit c = random_circuit_of(4, 8, 13);
  const auto program = device->compile(c);

  const auto a = device->create_state(4);
  const auto b = device->create_state(4);
  device->apply(*program, *b);  // b gets one extra application up front
  std::vector<DeviceState*> states = {a.get(), b.get()};
  device->apply_batch(*program, states);

  const auto reference = device->create_state(4);
  device->apply(*program, *reference);
  EXPECT_EQ(device->amplitudes(*a), device->amplitudes(*reference));
  device->apply(*program, *reference);
  EXPECT_EQ(device->amplitudes(*b), device->amplitudes(*reference));
}

TEST(CpuDevice, ColMajorProgramsTransposeCustomMatrices) {
  // An RY matrix is real and non-symmetric, so layout matters and the
  // transpose is easy to build by hand.
  const double theta = 0.9;
  Circuit row(1);
  row.ry(theta, 0);
  linalg::CMat transposed(2, 2);
  const linalg::CMat ry = row.op(0).matrix();
  for (index_t r = 0; r < 2; ++r) {
    for (index_t c = 0; c < 2; ++c) transposed(c, r) = ry(r, c);
  }
  Circuit col(1);
  col.append_custom(transposed, {0});  // column-major buffer of RY

  const auto device = make_cpu_device();
  ProgramOptions col_options;
  col_options.layout = MatrixLayout::ColMajor;
  const std::vector<double> want = device_probabilities(*device, row);
  const std::vector<double> got = device_probabilities(*device, col, col_options);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_DOUBLE_EQ(got[i], want[i]);
}

TEST(CpuDevice, SummaryReportsCompiledShape) {
  Circuit c(3);
  c.h(0).t(0).cx(0, 1).rz(0.3, 2).cz(1, 2);
  const auto device = make_cpu_device();
  const ProgramSummary s = device->compile(c)->summary();
  EXPECT_EQ(s.source_ops, 5u);
  // h-t fuse into one 2x2 (2 source gates absorbed); cx, rz, cz keep their
  // specialized classes.
  EXPECT_EQ(s.compiled_ops, 4u);
  EXPECT_EQ(s.fused_absorbed, 2u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Permutation)], 1u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Diagonal)], 2u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Generic1Q)], 1u);
  EXPECT_EQ(s.isa, simd::best_isa());
  EXPECT_GT(s.fused_fraction(), 0.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(CpuDevice, IdentityTokenEncodesResultAffectingKnobsOnly) {
  EXPECT_EQ(make_cpu_device()->identity_token(), "+fusion");

  EngineOptions no_fuse;
  no_fuse.fuse = false;
  EXPECT_EQ(make_cpu_device(no_fuse)->identity_token(), "");

  EngineOptions flags;
  flags.fusion.merge_1q_runs = false;
  flags.fusion.fold_1q_into_2q = false;
  flags.fusion.merge_2q_chains = false;
  flags.fusion.fuse_to_3q = true;
  EXPECT_EQ(make_cpu_device(flags)->identity_token(), "+fusion-nomerge-nofold-no2q+3q");

  // Bit-neutral knobs must NOT appear: threading, grain, blocking, SIMD
  // dispatch (every ISA tier is bit-for-bit equal to the Scalar tier).
  EngineOptions neutral;
  neutral.threading_threshold_qubits = 2;
  neutral.min_parallel_work = 1;
  neutral.cache_block_qubits = 3;
  EXPECT_EQ(make_cpu_device(neutral)->identity_token(),
            make_cpu_device()->identity_token());

  EngineOptions scalar_options;
  scalar_options.simd = false;
  EXPECT_EQ(make_cpu_device(scalar_options)->identity_token(), "+fusion");
}

TEST(CpuDevice, SimdDeviceMatchesScalarBitForBit) {
  EngineOptions scalar_options;
  scalar_options.simd = false;
  const auto scalar_device = make_cpu_device(scalar_options);
  const auto simd_device = make_cpu_device();
  const Circuit c = random_circuit_of(9, 24, 17);
  EXPECT_EQ(device_amplitudes(*scalar_device, c), device_amplitudes(*simd_device, c));
  EXPECT_EQ(device_probabilities(*scalar_device, c), device_probabilities(*simd_device, c));

  // Prefix forking stays exact on either tier, relative to the SIMD
  // device's whole compile (the stream property is ISA-independent): a
  // prefix applied once, then each member forked through clone_state and
  // through copy_state before its suffix — the shared-prefix batch path.
  const std::vector<double> whole = device_probabilities(*simd_device, c);
  for (const Device* device : {simd_device.get(), scalar_device.get()}) {
    SCOPED_TRACE(isa_level_name(device->caps().isa));
    const auto prefix = device->compile_prefix(c, c.num_ops() / 2);
    const auto state = device->create_state(c.num_qubits());
    device->apply(*prefix, *state);
    const auto suffix = device->compile_suffix(*prefix, c);

    const auto cloned = device->clone_state(*state);
    const auto copied = device->create_state(c.num_qubits());
    device->copy_state(*state, *copied);
    for (DeviceState* fork : {state.get(), cloned.get(), copied.get()}) {
      device->apply(*suffix, *fork);
      std::vector<double> forked;
      device->probabilities(*fork, forked);
      EXPECT_EQ(forked, whole);
    }
  }
}

}  // namespace
}  // namespace qcut::sim
