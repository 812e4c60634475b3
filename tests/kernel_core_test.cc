// Kernel core: fd table, guest memory, coverage, bug registry, dispatch.

#include <gtest/gtest.h>

#include "src/kernel/coverage.h"
#include "tests/test_util.h"

namespace healer {
namespace {

// ---- GuestMem ----

TEST(GuestMemTest, AllocAndRoundTrip) {
  GuestMem mem;
  const uint64_t addr = mem.AllocData(16);
  ASSERT_NE(addr, 0u);
  EXPECT_GE(addr, GuestMem::kDataBase);
  const uint64_t value = 0xdeadbeefcafef00dULL;
  ASSERT_TRUE(mem.Write64(addr, value));
  uint64_t out = 0;
  ASSERT_TRUE(mem.Read64(addr, &out));
  EXPECT_EQ(out, value);
}

TEST(GuestMemTest, AllocationsAligned) {
  GuestMem mem;
  const uint64_t a = mem.AllocData(3);
  const uint64_t b = mem.AllocData(5);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_EQ(b - a, 8u);
}

TEST(GuestMemTest, RejectsOutOfWindowAccess) {
  GuestMem mem;
  uint64_t out;
  EXPECT_FALSE(mem.Read64(0x1000, &out));            // Below window.
  EXPECT_FALSE(mem.Read64(GuestMem::kVmaBase, &out));  // VMA is unbacked.
  EXPECT_FALSE(
      mem.Read64(GuestMem::kDataBase + GuestMem::kDataSize - 4, &out));
  EXPECT_FALSE(mem.Write64(~0ull - 4, 1));  // Overflow.
}

TEST(GuestMemTest, ResetClearsUsedBytes) {
  GuestMem mem;
  const uint64_t addr = mem.AllocData(8);
  mem.Write64(addr, 0x1234);
  mem.Reset();
  const uint64_t addr2 = mem.AllocData(8);
  EXPECT_EQ(addr2, addr);  // Bump allocator restarted.
  uint64_t out = 99;
  ASSERT_TRUE(mem.Read64(addr2, &out));
  EXPECT_EQ(out, 0u);  // Cleared.
}

TEST(GuestMemTest, ReadStringStopsAtNul) {
  GuestMem mem;
  const char text[] = "hello\0world";
  const uint64_t addr = mem.AllocData(sizeof(text));
  mem.Write(addr, text, sizeof(text));
  std::string out;
  ASSERT_TRUE(mem.ReadString(addr, 64, &out));
  EXPECT_EQ(out, "hello");
}

TEST(GuestMemTest, ReadStringFailsUnterminated) {
  GuestMem mem;
  const uint64_t addr = mem.AllocData(4);
  mem.Write(addr, "abcd", 4);
  std::string out;
  EXPECT_FALSE(mem.ReadString(addr, 4, &out));
}

TEST(GuestMemTest, FreshWindowReadsZero) {
  GuestMem mem;
  uint64_t first = 1;
  uint64_t last = 1;
  ASSERT_TRUE(mem.Read64(GuestMem::kDataBase, &first));
  ASSERT_TRUE(
      mem.Read64(GuestMem::kDataBase + GuestMem::kDataSize - 8, &last));
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(last, 0u);
}

TEST(GuestMemTest, ExhaustionReturnsZero) {
  GuestMem mem;
  EXPECT_EQ(mem.AllocData(GuestMem::kDataSize + 8), 0u);
  // But the full window is allocatable.
  EXPECT_NE(mem.AllocData(GuestMem::kDataSize - 64), 0u);
}

// ---- Coverage ----

TEST(CoverageTest, DistinctSitesYieldDistinctEdges) {
  CallCoverage cov;
  cov.Reset();
  cov.HitBlock(1);
  cov.HitBlock(2);
  EXPECT_EQ(cov.NumEdges(), 2u);  // 0->1 and 1->2.
}

TEST(CoverageTest, SignalOrderIndependentForSameEdgeSet) {
  CallCoverage a;
  CallCoverage b;
  a.Reset();
  a.HitBlock(1);
  a.HitBlock(2);
  b.Reset();
  b.HitBlock(1);
  b.HitBlock(2);
  EXPECT_EQ(a.signal(), b.signal());
}

TEST(CoverageTest, DifferentPathsDifferentSignals) {
  CallCoverage a;
  CallCoverage b;
  a.Reset();
  a.HitBlock(1);
  a.HitBlock(2);
  b.Reset();
  b.HitBlock(1);
  b.HitBlock(3);
  EXPECT_NE(a.signal(), b.signal());
}

TEST(CoverageTest, ResetClearsState) {
  CallCoverage cov;
  cov.Reset();
  cov.HitBlock(7);
  const uint64_t sig1 = cov.signal();
  cov.Reset();
  EXPECT_EQ(cov.NumEdges(), 0u);
  cov.HitBlock(7);
  EXPECT_EQ(cov.signal(), sig1);  // Deterministic after reset.
  // The re-hit edge counts again: Reset cleared its bit, not just the list.
  EXPECT_EQ(cov.NumEdges(), 1u);
  ASSERT_EQ(cov.slots().size(), 1u);
  const uint32_t first = cov.slots()[0];

  // Within one call a repeated edge counts once, and slots keep first-hit
  // order: blocks 7 3 7 walk 0->7, 7->3 and 3->7; a further 3 repeats 7->3.
  cov.Reset();
  for (const uint32_t block : {7u, 3u, 7u}) {
    cov.HitBlock(block);
  }
  const std::vector<uint32_t> three = cov.slots();
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0], first);
  cov.HitBlock(3);
  EXPECT_EQ(cov.NumEdges(), 3u);
  EXPECT_EQ(cov.slots(), three);
}

TEST(CoverageTest, SiteIdsStable) {
  EXPECT_EQ(MakeCovSiteId("a.cc", 10), MakeCovSiteId("a.cc", 10));
  EXPECT_NE(MakeCovSiteId("a.cc", 10), MakeCovSiteId("a.cc", 11));
  EXPECT_NE(MakeCovSiteId("a.cc", 10), MakeCovSiteId("b.cc", 10));
}

// ---- Bug registry ----

TEST(BugRegistryTest, CompleteAndConsistent) {
  const auto& bugs = AllBugs();
  ASSERT_EQ(bugs.size(), static_cast<size_t>(BugId::kNumBugs));
  for (size_t i = 0; i < bugs.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(bugs[i].id), i);
    EXPECT_NE(bugs[i].title, nullptr);
    EXPECT_GE(bugs[i].repro_len, 1);
    EXPECT_LE(static_cast<int>(bugs[i].lo), static_cast<int>(bugs[i].hi));
  }
}

TEST(BugRegistryTest, VersionLiveness) {
  EXPECT_TRUE(BugLiveIn(BugId::kVcsWriteOob, KernelVersion::kV4_19));
  EXPECT_FALSE(BugLiveIn(BugId::kVcsWriteOob, KernelVersion::kV5_11));
  EXPECT_TRUE(
      BugLiveIn(BugId::kConsoleUnlockDeadlock, KernelVersion::kV5_11));
  EXPECT_FALSE(
      BugLiveIn(BugId::kConsoleUnlockDeadlock, KernelVersion::kV4_19));
  // The case-study bug "existed for 12 years": live across the range.
  EXPECT_TRUE(BugLiveIn(BugId::kFillThreadCoreUninit, KernelVersion::kV4_19));
  EXPECT_TRUE(BugLiveIn(BugId::kFillThreadCoreUninit, KernelVersion::kV5_6));
}

TEST(BugRegistryTest, Table4BugsAreDeep) {
  for (BugId id : {BugId::kConsoleUnlockDeadlock, BugId::kPutDeviceNullDeref,
                   BugId::kVividStopGenerating}) {
    EXPECT_TRUE(GetBugInfo(id).deep);
    EXPECT_GE(GetBugInfo(id).repro_len, 5);
  }
}

// ---- Kernel fd table & dispatch ----

TEST(KernelTest, FdAllocationStartsAtThree) {
  KernelHarness h;
  const int64_t fd = h.Call("epoll_create1", 0);
  EXPECT_EQ(fd, 3);
  const int64_t fd2 = h.Call("epoll_create1", 0);
  EXPECT_EQ(fd2, 4);
}

TEST(KernelTest, CloseFreesAndReusesSlots) {
  KernelHarness h;
  const int64_t fd = h.Call("epoll_create1", 0);
  EXPECT_EQ(h.Call("close", static_cast<uint64_t>(fd)), 0);
  EXPECT_EQ(h.Call("close", static_cast<uint64_t>(fd)), -kEBADF);
  EXPECT_EQ(h.Call("epoll_create1", 0), fd);  // Lowest free slot.
}

TEST(KernelTest, BadFdValues) {
  KernelHarness h;
  EXPECT_EQ(h.Call("close", static_cast<uint64_t>(-1)), -kEBADF);
  EXPECT_EQ(h.Call("close", 0), -kEBADF);    // Reserved std fd.
  EXPECT_EQ(h.Call("close", 9999), -kEBADF);
}

TEST(KernelTest, UnknownSyscallIsEnosys) {
  KernelHarness h;
  EXPECT_EQ(h.Call("not_a_syscall"), -kENOSYS);
}

TEST(KernelTest, VersionGateReturnsEnosys) {
  KernelHarness h(KernelVersion::kV4_19);
  EXPECT_EQ(h.Call("io_uring_setup", 8, h.OutBuf(4)), -kENOSYS);
}

TEST(KernelTest, CrashStopsSubsequentCalls) {
  KernelHarness h(KernelVersion::kV4_19);
  // fb_var_to_videomode divide error: pixclock == 0.
  const int64_t fd = h.Call("openat$fb0", h.StageString("/dev/fb0"), 0);
  ASSERT_GE(fd, 0);
  const uint32_t var[4] = {800, 600, 32, 0};
  EXPECT_EQ(h.Call("ioctl$FBIOPUT_VSCREENINFO", static_cast<uint64_t>(fd),
                   0x4601, h.Stage(var, sizeof(var))),
            -kEIO);
  ASSERT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kFbVarToVideomodeDivide);
  // Kernel is down: further syscalls fail.
  EXPECT_EQ(h.Call("epoll_create1", 0), -kEIO);
}

TEST(KernelTest, TriggerBugRespectsVersion) {
  KernelHarness h(KernelVersion::kV5_11);  // Bug only live in 4.19.
  const int64_t fd = h.Call("openat$fb0", h.StageString("/dev/fb0"), 0);
  ASSERT_GE(fd, 0);
  const uint32_t var[4] = {800, 600, 32, 0};
  EXPECT_EQ(h.Call("ioctl$FBIOPUT_VSCREENINFO", static_cast<uint64_t>(fd),
                   0x4601, h.Stage(var, sizeof(var))),
            -kEINVAL);
  EXPECT_FALSE(h.kernel().crashed());
}

TEST(KernelTest, AllocFailureInjection) {
  KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_6);
  config.fail_nth_alloc = 1;  // Every modelled allocation fails.
  Kernel kernel(config);
  EXPECT_FALSE(kernel.AllocAttempt());
  config.fail_nth_alloc = 0;
  Kernel kernel2(config);
  EXPECT_TRUE(kernel2.AllocAttempt());
}

TEST(KernelTest, TickAdvancesPerSyscall) {
  KernelHarness h;
  EXPECT_EQ(h.kernel().tick(), 0u);
  h.Call("sync");
  h.Call("sync");
  EXPECT_EQ(h.kernel().tick(), 2u);
}

}  // namespace
}  // namespace healer
