#include "service/fragment_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "backend/statevector_backend.hpp"
#include "circuit/circuit.hpp"
#include "service/circuit_hash.hpp"
#include "sim/simd_kernels.hpp"

namespace qcut::service {
namespace {

Hash128 key(std::uint64_t n) { return Hash128{n, n * 31 + 7}; }

CachedDistribution dist(double v) {
  return std::make_shared<const std::vector<double>>(std::vector<double>{v, 1.0 - v});
}

TEST(FragmentCache, MissThenHit) {
  FragmentResultCache cache(4);
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  cache.insert(key(1), dist(0.25));
  const auto hit = cache.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ((**hit)[0], 0.25);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(FragmentCache, EvictsLeastRecentlyUsed) {
  FragmentResultCache cache(2);
  cache.insert(key(1), dist(0.1));
  cache.insert(key(2), dist(0.2));
  cache.insert(key(3), dist(0.3));  // evicts key 1 (oldest)

  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  EXPECT_TRUE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FragmentCache, LookupRefreshesRecency) {
  FragmentResultCache cache(2);
  cache.insert(key(1), dist(0.1));
  cache.insert(key(2), dist(0.2));
  ASSERT_TRUE(cache.lookup(key(1)).has_value());  // key 1 becomes most recent
  cache.insert(key(3), dist(0.3));                // evicts key 2

  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(3)).has_value());
}

TEST(FragmentCache, InsertRefreshesRecencyAndValue) {
  FragmentResultCache cache(2);
  cache.insert(key(1), dist(0.1));
  cache.insert(key(2), dist(0.2));
  cache.insert(key(1), dist(0.9));  // refresh, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().insertions, 2u);

  cache.insert(key(3), dist(0.3));  // evicts key 2
  const auto hit = cache.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ((**hit)[0], 0.9);
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
}

TEST(FragmentCache, ZeroCapacityDisablesCaching) {
  FragmentResultCache cache(0);
  cache.insert(key(1), dist(0.1));
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(FragmentCache, HitKeepsResultAliveThroughEviction) {
  FragmentResultCache cache(1);
  cache.insert(key(1), dist(0.7));
  const auto hit = cache.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  cache.insert(key(2), dist(0.2));  // evicts key 1
  EXPECT_DOUBLE_EQ((**hit)[0], 0.7);  // shared ownership survives eviction
}

TEST(FragmentCache, ClearEmptiesTheCache) {
  FragmentResultCache cache(4);
  cache.insert(key(1), dist(0.1));
  cache.insert(key(2), dist(0.2));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
}

TEST(FragmentCache, HitRateZeroWithNoLookups) {
  FragmentResultCache cache(4);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

// ---- Byte bound --------------------------------------------------------------

/// A distribution of `n` doubles; entry cost = n * 8 + the fixed overhead.
CachedDistribution wide(std::size_t n, double fill = 0.5) {
  return std::make_shared<const std::vector<double>>(std::vector<double>(n, fill));
}

TEST(FragmentCache, ByteBoundEvictsBeforeEntryCap) {
  // Each 100-double entry costs 800 + 64 = 864 bytes; three fit under 2800,
  // a fourth forces the LRU entry out while the entry cap (16) is far away.
  FragmentResultCache cache(16, nullptr, 2800);
  EXPECT_EQ(cache.max_bytes(), 2800u);
  cache.insert(key(1), wide(100));
  cache.insert(key(2), wide(100));
  cache.insert(key(3), wide(100));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), 3u * 864u);

  cache.insert(key(4), wide(100));  // 4 * 864 = 3456 > 2800: evict key 1
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  EXPECT_TRUE(cache.lookup(key(4)).has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.byte_evictions, 1u);  // forced by bytes, not by count
  EXPECT_EQ(stats.bytes, cache.bytes());
}

TEST(FragmentCache, CountEvictionIsNotAByteEviction) {
  FragmentResultCache cache(2, nullptr, 1 << 20);
  cache.insert(key(1), dist(0.1));
  cache.insert(key(2), dist(0.2));
  cache.insert(key(3), dist(0.3));  // over the entry cap, far under bytes
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().byte_evictions, 0u);
}

TEST(FragmentCache, OversizedEntryIsNotCachedAtAll) {
  // One wide-fragment result larger than the whole budget would evict
  // everything and still not fit; it must be dropped, leaving the warm
  // working set intact.
  FragmentResultCache cache(16, nullptr, 1000);
  cache.insert(key(1), wide(64));  // 512 + 64 = 576 bytes: fits
  cache.insert(key(2), wide(512));  // 4096 + 64 > 1000: dropped
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.bytes(), 576u);
}

TEST(FragmentCache, RefreshReaccountsBytes) {
  FragmentResultCache cache(8, nullptr, 4096);
  cache.insert(key(1), wide(100));  // 864 bytes
  cache.insert(key(1), wide(10));   // refresh with a smaller payload
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 10u * 8u + 64u);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(FragmentCache, UnboundedBytesByDefault) {
  FragmentResultCache cache(4);
  EXPECT_EQ(cache.max_bytes(), 0u);
  cache.insert(key(1), wide(4096));  // 32 KiB payload, happily cached
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_EQ(cache.stats().byte_evictions, 0u);
}

// Cache-key soundness across engine configurations: the fragment cache is
// keyed by hash_variant_execution, which folds in Backend::identity(). Every
// SIMD tier is bit-for-bit equal to the Scalar tier, so a scalar backend
// and a SIMD backend with equal seeds and fusion flags return identical
// results and share one entry — on this host and across hosts with
// different ISAs.
TEST(FragmentCache, ScalarAndSimdBackendsShareOneEntry) {
  sim::EngineOptions scalar_engine;
  scalar_engine.simd = false;
  backend::StatevectorBackend scalar(7, scalar_engine);
  backend::StatevectorBackend simd(7);  // SIMD on: the default
  EXPECT_EQ(simd.device().caps().isa, sim::simd::best_isa());
  EXPECT_EQ(scalar.identity(), simd.identity());
  EXPECT_EQ(simd.identity(), "statevector(seed=7)+fusion");

  circuit::Circuit c(6);
  c.h(0).cx(0, 1).rz(0.3, 2).cz(1, 2).ry(0.7, 3).cx(3, 4).rx(1.1, 5).cx(5, 0).h(4);
  const Hash128 scalar_key = hash_variant_execution(c, 256, false, 5, scalar.identity());
  const Hash128 simd_key = hash_variant_execution(c, 256, false, 5, simd.identity());
  EXPECT_TRUE(scalar_key == simd_key);

  // Both return bit-identical results for one seed stream, so serving one
  // from the other's cache entry is exact.
  EXPECT_EQ(scalar.exact_probabilities(c), simd.exact_probabilities(c));
  EXPECT_EQ(scalar.run(c, 4096, 5).items(), simd.run(c, 4096, 5).items());

  FragmentResultCache cache(4);
  cache.insert(scalar_key, dist(0.25));
  const auto hit = cache.lookup(simd_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ((**hit)[0], 0.25);
}

}  // namespace
}  // namespace qcut::service
