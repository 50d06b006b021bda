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

/// A dk27 fig3 structure, a sampler that gives every instance one fault,
/// and the allocations of one fleet shard of 256 instances.
class FleetShardAllocs {
 public:
  FleetShardAllocs()
      : m_(load_benchmark("dk27")),
        cs_(build_fig3(encode_fsm(m_, natural_encoding(m_.num_states())))),
        faults_(enumerate_stuck_faults(cs_.nl)),
        warm_(make_campaign_warm_state(cs_)) {}

  std::uint64_t count(const std::vector<FleetObserver>& observers,
                      std::size_t cycles) {
    const std::vector<Fault>& faults = faults_;
    const FleetDefectSampler sampler = [&faults](std::uint64_t i,
                                                 std::vector<Fault>& out) {
      out.push_back(faults[i % faults.size()]);
    };
    const SelfTestPlan plan = SelfTestPlan::two_session(cycles);
    const std::uint64_t before = g_allocations.load();
    const std::vector<FleetShardStats> st = run_fleet_shard(
        cs_, plan, observers, *warm_, 7, 0, 256, sampler, Budget{});
    const std::uint64_t allocs = g_allocations.load() - before;
    EXPECT_EQ(st.front().instances, 256u);
    return allocs;
  }
  const CampaignWarmState& warm() const { return *warm_; }

 private:
  MealyMachine m_;
  ControllerStructure cs_;
  std::vector<Fault> faults_;
  std::shared_ptr<CampaignWarmState> warm_;
};

TEST(CampaignAllocations, FlatAfterAMisrWidthChange) {
  // One warm state serves every MISR width: a lease at a new width
  // re-sizes the parked scratch's observer MISR once, outside the cycle
  // loop, and later runs at that width allocate what runs at the old
  // width did -- and no more for a longer test.
  FleetShardAllocs shard;
  const std::vector<FleetObserver> w8 = {FleetObserver{8}};
  const std::vector<FleetObserver> w40 = {FleetObserver{40}};
  shard.count(w8, 24);  // builds the 512-lane scratch
  const std::uint64_t narrow = shard.count(w8, 24);
  shard.count(w40, 24);  // re-sizes its observer MISR
  EXPECT_EQ(narrow, shard.count(w40, 24));
  EXPECT_EQ(narrow, shard.count(w40, 240));
  EXPECT_EQ(campaign_warm_builds(shard.warm()), 1u);
}

TEST(CampaignAllocations, FleetShardWithEveryObserverIsFlat) {
  // run_fleet's default observers: four widths plus seven curve points,
  // the curve on the first 100 chips so the packed run straddles it. Once
  // the scratch holds their lanes, a shard allocates only its result
  // vector, as a one-width shard does, for a short and a long plan.
  std::vector<FleetObserver> all;
  for (const std::size_t w : {8u, 16u, 24u, 40u}) all.push_back({w});
  for (const std::size_t c : {4u, 8u, 16u, 32u, 64u, 128u, 256u})
    all.push_back({8, c, 100});
  FleetShardAllocs shard;
  shard.count(all, 24);  // builds the scratch and its observer lanes
  const std::uint64_t short_plan = shard.count(all, 24);
  EXPECT_EQ(short_plan, shard.count(all, 240));

  FleetShardAllocs single;
  const std::vector<FleetObserver> one = {FleetObserver{8}};
  single.count(one, 24);
  EXPECT_EQ(short_plan, single.count(one, 24));
}

}  // namespace
}  // namespace stc
