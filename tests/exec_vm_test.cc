// Executor and VM-layer tests: per-call coverage, resource resolution,
// out-parameter extraction, wire transport, clock/latency modelling and
// crash reboot.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/kernel/errno.h"
#include "src/exec/executor.h"
#include "src/exec/shm_channel.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
#include "src/vm/vm_pool.h"

namespace healer {
namespace {

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

Prog Chain(const std::vector<std::string>& names, uint64_t seed = 1) {
  const Target& target = BuiltinTarget();
  Rng rng(seed);
  return BuildChain(target, AllIds(target), names, &rng);
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : executor_(BuiltinTarget(),
                  KernelConfig::ForVersion(KernelVersion::kV5_11)) {}
  Executor executor_;
};

TEST_F(ExecutorTest, KvmChainSucceedsEndToEnd) {
  Prog prog = Chain({"openat$kvm", "ioctl$KVM_CREATE_VM",
                     "ioctl$KVM_CREATE_VCPU"});
  ASSERT_EQ(prog.size(), 3u);
  const ExecResult result = executor_.Run(prog, nullptr);
  ASSERT_EQ(result.calls.size(), 3u);
  for (const auto& call : result.calls) {
    EXPECT_TRUE(call.executed);
    EXPECT_GE(call.retval, 0) << "chain call failed";
    EXPECT_GT(call.num_edges, 0u);
  }
  // Each call produced an fd in slot 0.
  EXPECT_EQ(result.calls[0].slot_values[0], 3u);
  EXPECT_EQ(result.calls[1].slot_values[0], 4u);
  EXPECT_EQ(result.calls[2].slot_values[0], 5u);
}

TEST_F(ExecutorTest, PerCallSignalsAreDeterministic) {
  Prog prog = Chain({"memfd_create", "write$memfd", "fcntl$ADD_SEALS"});
  const ExecResult a = executor_.Run(prog, nullptr);
  const ExecResult b = executor_.Run(prog, nullptr);
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (size_t i = 0; i < a.calls.size(); ++i) {
    EXPECT_EQ(a.calls[i].signal, b.calls[i].signal);
    EXPECT_EQ(a.calls[i].retval, b.calls[i].retval);
  }
}

TEST_F(ExecutorTest, RemovingSealsChangesMmapCoverage) {
  // The Figure 2 example: fcntl$ADD_SEALS influences mmap's path.
  Prog with_seals =
      Chain({"memfd_create", "fcntl$ADD_SEALS", "mmap"}, /*seed=*/3);
  ASSERT_EQ(with_seals.size(), 3u);
  // Force the seal and mmap arguments into the interesting configuration:
  // sealing allowed, seals = F_SEAL_WRITE, mmap(PROT_WRITE, MAP_SHARED).
  with_seals.calls()[0].args[1]->val = 2;  // MFD_ALLOW_SEALING.
  with_seals.calls()[1].args[2]->val = 8;
  with_seals.calls()[2].args[2]->val = 3;  // PROT_READ|PROT_WRITE.
  with_seals.calls()[2].args[3]->val = 1;  // MAP_SHARED.
  with_seals.calls()[2].args[4]->res_ref = 0;
  with_seals.calls()[2].args[4]->res_slot = 0;
  with_seals.calls()[2].args[4]->kind = ArgKind::kResource;

  Prog without = with_seals.Clone();
  without.RemoveCall(1);

  const ExecResult a = executor_.Run(with_seals, nullptr);
  const ExecResult b = executor_.Run(without, nullptr);
  // mmap is call 2 in `a`, call 1 in `b`; its coverage must differ.
  EXPECT_NE(a.calls[2].signal, b.calls[1].signal);
}

TEST_F(ExecutorTest, OutParamResourceExtraction) {
  Prog prog = Chain({"pipe2", "write$pipe", "read$pipe"});
  ASSERT_EQ(prog.size(), 3u);
  const ExecResult result = executor_.Run(prog, nullptr);
  ASSERT_GE(result.calls[0].slot_values.size(), 3u);
  // Slots 1 and 2 carry the two pipe fds written through the out pointer.
  EXPECT_EQ(result.calls[0].slot_values[1], 3u);
  EXPECT_EQ(result.calls[0].slot_values[2], 4u);
}

TEST_F(ExecutorTest, ResourceSpecialValuesReachKernel) {
  const Target& target = BuiltinTarget();
  Prog prog(&target);
  Call close_call;
  close_call.meta = target.FindSyscall("close");
  close_call.args.push_back(MakeResourceSpecial(
      close_call.meta->args[0].type, static_cast<uint64_t>(-1)));
  prog.calls().push_back(std::move(close_call));
  const ExecResult result = executor_.Run(prog, nullptr);
  EXPECT_EQ(result.calls[0].retval, -kEBADF);
}

TEST_F(ExecutorTest, NullPointerArgsFault) {
  const Target& target = BuiltinTarget();
  Prog prog(&target);
  Call call;
  call.meta = target.FindSyscall("nanosleep");
  call.args.push_back(MakeNullPointer(call.meta->args[0].type));
  prog.calls().push_back(std::move(call));
  const ExecResult result = executor_.Run(prog, nullptr);
  EXPECT_EQ(result.calls[0].retval, -kEFAULT);
}

TEST_F(ExecutorTest, CrashStopsExecution) {
  Prog prog = Chain({"epoll_create1"});
  // epoll self-add: build manually for precision.
  const Target& target = BuiltinTarget();
  Call ctl;
  ctl.meta = target.FindSyscall("epoll_ctl$ADD");
  ctl.args.push_back(MakeResourceRef(ctl.meta->args[0].type, 0, 0));
  ctl.args.push_back(MakeConstant(ctl.meta->args[1].type, 1));
  ctl.args.push_back(MakeResourceRef(ctl.meta->args[2].type, 0, 0));
  ctl.args.push_back(MakePointer(
      ctl.meta->args[3].type,
      MakeGroup(ctl.meta->args[3].type->elem,
                [&] {
                  std::vector<ArgPtr> fields;
                  fields.push_back(MakeConstant(
                      ctl.meta->args[3].type->elem->fields[0].type, 1));
                  return fields;
                }())));
  prog.calls().push_back(std::move(ctl));
  Call after;
  after.meta = target.FindSyscall("sync");
  prog.calls().push_back(std::move(after));

  const ExecResult result = executor_.Run(prog, nullptr);
  ASSERT_TRUE(result.Crashed());
  EXPECT_EQ(result.crash->bug, BugId::kEpollSelfAddDeadlock);
  EXPECT_EQ(result.crash->call_index, 1u);
  EXPECT_FALSE(result.calls[2].executed);
}

TEST_F(ExecutorTest, GlobalCoverageAccumulates) {
  Bitmap global(CallCoverage::kMapBits);
  Prog prog = Chain({"memfd_create", "write$memfd"});
  const ExecResult first = executor_.Run(prog, &global);
  EXPECT_GT(first.TotalNewEdges(), 0u);
  const ExecResult second = executor_.Run(prog, &global);
  EXPECT_EQ(second.TotalNewEdges(), 0u);  // Nothing new on re-run.
}

TEST_F(ExecutorTest, EnosysForGatedSyscalls) {
  Executor old(BuiltinTarget(),
               KernelConfig::ForVersion(KernelVersion::kV4_19));
  Prog prog = Chain({"io_uring_setup"});
  const ExecResult result = old.Run(prog, nullptr);
  EXPECT_EQ(result.calls.back().retval, -kENOSYS);
  const Syscall* setup = BuiltinTarget().FindSyscall("io_uring_setup");
  EXPECT_FALSE(old.SyscallEnabled(setup->id));
  EXPECT_TRUE(executor_.SyscallEnabled(setup->id));
}

TEST_F(ExecutorTest, SerializedAndDirectExecutionAgree) {
  Prog prog = Chain({"socket$tcp", "bind", "listen"});
  const auto bytes = SerializeProg(prog);
  const ExecResult direct = executor_.Run(prog, nullptr);
  const ExecResult wired =
      executor_.RunSerialized(bytes.data(), bytes.size(), nullptr);
  ASSERT_EQ(direct.calls.size(), wired.calls.size());
  for (size_t i = 0; i < direct.calls.size(); ++i) {
    EXPECT_EQ(direct.calls[i].retval, wired.calls[i].retval);
    EXPECT_EQ(direct.calls[i].signal, wired.calls[i].signal);
  }
}

TEST_F(ExecutorTest, BadWireBytesYieldEmptyResult) {
  const uint8_t junk[] = {1, 2, 3};
  const ExecResult result =
      executor_.RunSerialized(junk, sizeof(junk), nullptr);
  EXPECT_TRUE(result.calls.empty());
}

// ---- shm channel / control socket ----

TEST(ShmChannelTest, CarriesProgBytes) {
  ShmChannel shm;
  std::vector<uint8_t> bytes = {9, 8, 7, 6, 5};
  ASSERT_TRUE(shm.WriteProg(bytes));
  ASSERT_EQ(shm.prog_size(), bytes.size());
  EXPECT_EQ(std::vector<uint8_t>(shm.prog_data(),
                                 shm.prog_data() + shm.prog_size()),
            bytes);
}

TEST(ShmChannelTest, FreshRegionHoldsEmptyProg) {
  ShmChannel shm;
  EXPECT_EQ(shm.prog_size(), 0u);
}

TEST(ShmChannelTest, RejectsOversizedProg) {
  ShmChannel shm;
  std::vector<uint8_t> huge(ShmChannel::kSize, 0);
  EXPECT_FALSE(shm.WriteProg(huge));
}

TEST(ControlSocketTest, FifoFrames) {
  ControlSocket sock;
  sock.Send(CtrlFrame{CtrlKind::kHandshake, 1});
  sock.Send(CtrlFrame{CtrlKind::kExecRequest, 2});
  CtrlFrame frame;
  ASSERT_TRUE(sock.Recv(&frame));
  EXPECT_EQ(frame.kind, CtrlKind::kHandshake);
  ASSERT_TRUE(sock.Recv(&frame));
  EXPECT_EQ(frame.payload, 2u);
  EXPECT_FALSE(sock.Recv(&frame));
}

// ---- GuestVm / VmPool ----

TEST(GuestVmTest, BootAndExecAdvanceClock) {
  SimClock clock;
  GuestVm vm(BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11),
             &clock);
  Prog prog = Chain({"memfd_create", "write$memfd"});
  const SimClock::Nanos before = clock.now();
  vm.Exec(prog, nullptr);
  VmLatencyModel model;
  EXPECT_EQ(clock.now() - before,
            model.boot + model.exec_overhead + 2 * model.per_call);
}

TEST(GuestVmTest, CrashCausesRebootLatency) {
  SimClock clock;
  GuestVm vm(BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11),
             &clock);
  // Trigger the shallow mmap-zero-len bug: mmap(addr, 0, ..., MAP_FIXED).
  const Target& target = BuiltinTarget();
  Prog prog(&target);
  Call call;
  call.meta = target.FindSyscall("mmap");
  call.args.push_back(MakeVma(call.meta->args[0].type,
                              GuestMem::kVmaBase + 4096, 1));
  call.args.push_back(MakeConstant(call.meta->args[1].type, 0));
  call.args.push_back(MakeConstant(call.meta->args[2].type, 3));
  call.args.push_back(MakeConstant(call.meta->args[3].type, 0x10));
  call.args.push_back(MakeResourceSpecial(call.meta->args[4].type,
                                          static_cast<uint64_t>(-1)));
  call.args.push_back(MakeConstant(call.meta->args[5].type, 0));
  prog.calls().push_back(std::move(call));

  const ExecResult result = vm.Exec(prog, nullptr);
  ASSERT_TRUE(result.Crashed());
  EXPECT_EQ(vm.crashes(), 1u);
  const SimClock::Nanos after_crash = clock.now();
  Prog benign = Chain({"sync"});
  vm.Exec(benign, nullptr);
  VmLatencyModel model;
  EXPECT_EQ(clock.now() - after_crash,
            model.reboot + model.exec_overhead + model.per_call);
}

TEST(VmPoolTest, RoundRobinAndTotals) {
  SimClock clock;
  VmPool pool(BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11),
              &clock, 3);
  EXPECT_EQ(pool.size(), 3u);
  Prog prog = Chain({"sync"});
  for (int i = 0; i < 6; ++i) {
    pool.Next().Exec(prog, nullptr);
  }
  EXPECT_EQ(pool.TotalExecs(), 6u);
  EXPECT_EQ(pool.vm(0).execs(), 2u);
  EXPECT_EQ(pool.vm(2).execs(), 2u);
}

}  // namespace
}  // namespace healer
