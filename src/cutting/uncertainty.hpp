#pragma once
// Finite-shot uncertainty of reconstructed quantities.
//
// The reconstruction is a multilinear function of independently-sampled
// fragment distributions, so its sampling distribution can be estimated by
// a parametric bootstrap: resample each variant's histogram from its
// empirical distribution (multinomial, same shot count), re-reconstruct,
// and read quantiles / standard errors off the replicas. The paper's
// Section IV notes that acting on statistical estimates requires exactly
// this kind of error analysis ("amplification of error through tensor
// contraction").

#include "cutting/observables.hpp"
#include "cutting/reconstructor.hpp"

namespace qcut::cutting {

struct BootstrapOptions {
  std::size_t replicas = 200;
  double confidence = 0.95;
  std::uint64_t seed = 1234;
  parallel::ThreadPool* pool = nullptr;
};

/// Per-outcome uncertainty of the reconstructed raw distribution.
struct DistributionUncertainty {
  std::vector<double> mean;            // bootstrap mean per outcome
  std::vector<double> standard_error;  // bootstrap SE per outcome
  std::vector<double> ci_lower;        // per-outcome confidence band
  std::vector<double> ci_upper;
};

/// Bootstraps the reconstructed distribution of any fragment chain. `data`
/// must be sampled (shots_per_variant > 0); exact data has no sampling
/// error. Each replica resamples fragment by fragment, every fragment's
/// variants in ascending pack_variant_key order, so replicas are a pure
/// function of (data, seed).
[[nodiscard]] DistributionUncertainty bootstrap_distribution(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const BootstrapOptions& options = {});

/// Uncertainty of one diagonal-observable expectation.
struct ExpectationUncertainty {
  double estimate = 0.0;  // from the original data
  double standard_error = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
};

/// Bootstraps one diagonal-observable expectation, resampling as
/// bootstrap_distribution does.
[[nodiscard]] ExpectationUncertainty bootstrap_expectation(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const DiagonalObservable& observable, const BootstrapOptions& options = {});

}  // namespace qcut::cutting
