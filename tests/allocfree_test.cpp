// Steady-state allocation accounting for the campaign inner loop. The
// global operator new/delete of the test binary are replaced with counting
// wrappers (this affects every test in the binary, but only adds an atomic
// increment per allocation). The property under test: once a campaign's
// scratch is warm, the cycle loop performs no heap allocation -- so the
// total allocation count of run_fault_campaign is *independent of the
// number of BIST cycles* (and of how many batches reuse the scratch).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stc {
namespace {

ControllerStructure fig1_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

std::uint64_t count_campaign_allocs(
    const ControllerStructure& cs, std::size_t cycles, bool collapse,
    std::optional<std::vector<Fault>> faults = std::nullopt) {
  CampaignOptions opt;
  opt.num_threads = 1;  // worker threads allocate their own stacks
  opt.collapse = collapse;
  const std::uint64_t before = g_allocations.load();
  const CampaignResult res = run_fault_campaign(
      cs, SelfTestPlan::two_session(cycles), opt, std::move(faults));
  EXPECT_GT(res.raw.total, 0u);
  return g_allocations.load() - before;
}

TEST(CampaignAllocations, IndependentOfCycleCount) {
  const ControllerStructure cs = fig1_for("dk27");
  // collapse off: 78 faults -> 2 batches, so the count also covers scratch
  // reuse across batches (banks reset, masks swapped, resident values
  // re-seeded) -- all without touching the heap.
  const std::uint64_t short_run = count_campaign_allocs(cs, 24, false);
  const std::uint64_t long_run = count_campaign_allocs(cs, 240, false);
  EXPECT_EQ(short_run, long_run)
      << "campaign allocations must not scale with BIST cycles";

  // The Fig. 1 functional baseline runs on the same lane scratch.
  const auto count_baseline_allocs = [&cs](std::size_t cycles) {
    const std::uint64_t before = g_allocations.load();
    const CoverageResult res = measure_functional_coverage(cs, cycles);
    EXPECT_GT(res.total, 0u);
    return g_allocations.load() - before;
  };
  EXPECT_EQ(count_baseline_allocs(24), count_baseline_allocs(240))
      << "functional baseline allocations must not scale with cycles";
}

TEST(CampaignAllocations, IndependentOfLaneWords) {
  // Wide scratch allocates *larger* vectors, not more of them: the W-word
  // lane groups live in the same per-worker buffers (sized once), the wide
  // banks/MISR keep one row vector each, and the batch/diff-mask vectors
  // are reserved up front. The engine picks the width from the list size,
  // so lists of 63, 255 and 511 tbk fig1 faults (one run each at 64, 256
  // and 512 lanes) must allocate alike. The list copies are made before
  // counting starts.
  const ControllerStructure cs = fig1_for("tbk");
  const auto all = enumerate_stuck_faults(cs.nl);
  ASSERT_GE(all.size(), 511u);
  const auto allocs_for = [&](std::size_t n) {
    std::vector<Fault> list(all.begin(), all.begin() + n);
    return count_campaign_allocs(cs, 48, false, std::move(list));
  };
  const std::uint64_t narrow = allocs_for(63);
  for (const std::size_t n : {255u, 511u})
    EXPECT_EQ(narrow, allocs_for(n))
        << "campaign allocations must not scale with the lane width ("
        << n << " faults)";
}

TEST(CampaignAllocations, StableAcrossRepeatedCampaigns) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const std::uint64_t first = count_campaign_allocs(cs, 48, true);
  const std::uint64_t second = count_campaign_allocs(cs, 48, true);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace stc
