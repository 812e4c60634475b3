#include "src/vm/guest_vm.h"

#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/prog/serialize.h"

namespace healer {

const char* VmStateName(VmState state) {
  switch (state) {
    case VmState::kCold:
      return "cold";
    case VmState::kBooting:
      return "booting";
    case VmState::kReady:
      return "ready";
    case VmState::kExecuting:
      return "executing";
    case VmState::kCrashed:
      return "crashed";
    case VmState::kRebooting:
      return "rebooting";
    case VmState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

GuestVm::GuestVm(const Target& target, const KernelConfig& config,
                 SimClock* clock, VmLatencyModel latency,
                 const FaultPlan& fault_plan, uint64_t fault_seed,
                 MetricRegistry* metrics, const SharedExecTables* tables)
    : target_(&target),
      config_(config),
      tables_(tables),
      clock_(clock),
      latency_(latency),
      injector_(fault_plan, fault_seed) {
  if (metrics != nullptr) {
    metrics->SetHelp("healer_vm_execs_total",
                     "Programs executed by the VM fleet.");
    m_execs_ = metrics->GetCounter("healer_vm_execs_total");
    metrics->SetHelp("healer_vm_reboots_total",
                     "Guest reboots after crashes and boot failures.");
    m_reboots_ = metrics->GetCounter("healer_vm_reboots_total");
    metrics->SetHelp("healer_vm_rtt_ns",
                     "Simulated nanoseconds per executor round trip.");
    m_rtt_ = metrics->GetHistogram("healer_vm_rtt_ns");
    for (size_t i = 0; i < kNumFaultKinds; ++i) {
      const std::string name =
          StrFormat("healer_fault_injected_%s_total",
                    FaultKindName(static_cast<FaultKind>(i)));
      metrics->SetHelp(name,
                       StrFormat("Injected %s faults drawn by the fleet.",
                                 FaultKindName(static_cast<FaultKind>(i))));
      m_fault_injected_[i] = metrics->GetCounter(name);
    }
    metrics->SetHelp("healer_exec_images_shipped_total",
                     "Executions that shipped their program to the guest.");
    m_images_shipped_ =
        metrics->GetCounter("healer_exec_images_shipped_total");
    metrics->SetHelp("healer_exec_mask_replays_total",
                     "Executions replayed under a call mask over the "
                     "guest's resident program.");
    m_mask_replays_ = metrics->GetCounter("healer_exec_mask_replays_total");
    metrics->SetHelp("healer_ctrl_overflow_total",
                     "Control-socket frames dropped to a full buffer.");
    ctrl_.set_overflow_counter(
        metrics->GetCounter("healer_ctrl_overflow_total"));
  }
}

Executor& GuestVm::EnsureExecutor() const {
  if (executor_ == nullptr) {
    executor_ = tables_ != nullptr
                    ? std::make_unique<Executor>(*target_, config_,
                                                 tables_->Get())
                    : std::make_unique<Executor>(*target_, config_);
  }
  return *executor_;
}

ShmChannel& GuestVm::EnsureShm() const {
  if (shm_ == nullptr) {
    shm_ = std::make_unique<ShmChannel>();
  }
  return *shm_;
}

void GuestVm::Boot() {
  set_state(VmState::kBooting);
  clock_->Advance(latency_.boot);
  // Handshake over the control socket, as the in-guest agent does on start.
  ctrl_.Send(CtrlFrame{CtrlKind::kHandshake, 0xcafe});
  CtrlFrame frame;
  if (ctrl_.Recv(&frame) && frame.kind == CtrlKind::kHandshake) {
    ctrl_.Send(CtrlFrame{CtrlKind::kHandshakeAck, frame.payload});
    ctrl_.Recv(&frame);  // Consume the ack.
  }
  set_state(VmState::kReady);
  JournalLifecycle("boot");
}

bool GuestVm::StartBootAsync(EventLoop* loop,
                             std::function<void(GuestVm&)> done) {
  VmState expected = VmState::kCold;
  if (!state_.compare_exchange_strong(expected, VmState::kBooting,
                                      std::memory_order_acq_rel)) {
    return false;
  }
  // One injector draw per start attempt, mirroring the synchronous path's
  // one-draw-per-execution budget. Only a boot-failure outcome applies to a
  // cold start; other kinds leave the boot on track.
  const std::optional<FaultKind> fault = injector_.Draw();
  if (fault.has_value() && m_fault_injected_[0] != nullptr) {
    m_fault_injected_[static_cast<size_t>(*fault)]->Add();
  }
  const bool failed = fault == FaultKind::kBootFailure;
  loop->ScheduleAfter(
      latency_.boot, [this, loop, failed, done = std::move(done)]() mutable {
        FinishBootTimer(loop, failed, std::move(done));
      });
  return true;
}

void GuestVm::FinishBootTimer(EventLoop* loop, bool boot_failed,
                              std::function<void(GuestVm&)> done) {
  if (boot_failed) {
    infra_faults_.fetch_add(1, std::memory_order_relaxed);
    consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
    set_state(VmState::kCrashed);
    JournalLifecycleAt(loop->now(), "boot-failure");
  } else {
    ctrl_.Send(CtrlFrame{CtrlKind::kHandshake, 0xcafe});
    CtrlFrame frame;
    if (ctrl_.Recv(&frame) && frame.kind == CtrlKind::kHandshake) {
      ctrl_.Send(CtrlFrame{CtrlKind::kHandshakeAck, frame.payload});
      ctrl_.Recv(&frame);
    }
    set_state(VmState::kReady);
    JournalLifecycleAt(loop->now(), "boot");
  }
  if (done) {
    done(*this);
  }
}

bool GuestVm::StartRebootAsync(EventLoop* loop,
                               std::function<void(GuestVm&)> done) {
  VmState expected = VmState::kCrashed;
  if (!state_.compare_exchange_strong(expected, VmState::kRebooting,
                                      std::memory_order_acq_rel)) {
    expected = VmState::kQuarantined;
    if (!state_.compare_exchange_strong(expected, VmState::kRebooting,
                                        std::memory_order_acq_rel)) {
      return false;
    }
  }
  loop->ScheduleAfter(latency_.reboot,
                      [this, loop, done = std::move(done)]() mutable {
                        FinishRebootTimer(loop, std::move(done));
                      });
  return true;
}

void GuestVm::FinishRebootTimer(EventLoop* loop,
                                std::function<void(GuestVm&)> done) {
  JournalLifecycleAt(loop->now(), "reboot");
  set_state(VmState::kReady);
  if (m_reboots_ != nullptr) {
    m_reboots_->Add();
  }
  if (done) {
    done(*this);
  }
}

void GuestVm::JournalLifecycle(const char* what) {
  JournalLifecycleAt(clock_->now(), what);
}

void GuestVm::JournalLifecycleAt(SimClock::Nanos at, const char* what) {
  if (journal_ != nullptr) {
    journal_->Record(JournalKind::kVmLifecycle, at,
                     execs_.load(std::memory_order_relaxed),
                     consecutive_failures_.load(std::memory_order_relaxed), 0,
                     what);
  }
}

ExecResult GuestVm::FailWith(ExecFailure failure) {
  infra_faults_.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  ExecResult result;
  result.failure = failure;
  return result;
}

namespace {

size_t KeptCalls(const ProgImage& image, const CallMask* keep) {
  if (keep == nullptr) {
    return image.prog().size();
  }
  size_t kept = 0;
  for (const uint8_t k : *keep) {
    kept += k != 0 ? 1 : 0;
  }
  return kept;
}

// The bytes an execution may put in the shm region.
constexpr size_t kRequestLimit = ShmChannel::kSize - 8;

// The corruption model of a damaged transfer.
void Corrupt(FaultKind fault, FaultInjector& injector,
             std::vector<uint8_t>* bytes) {
  if (bytes->empty()) {
    return;
  }
  if (fault == FaultKind::kTruncatedResult) {
    bytes->resize(injector.Rand() % bytes->size());
  } else {
    (*bytes)[injector.Rand() % bytes->size()] ^=
        static_cast<uint8_t>(1u << (injector.Rand() % 8));
  }
}

}  // namespace

const std::vector<uint8_t>& GuestVm::Request(const ProgImage& image,
                                             const CallMask* keep,
                                             std::vector<uint8_t>* scratch,
                                             bool* replay) {
  const size_t mask_bytes = kMaskRequestHeader + image.prog().size();
  *replay = mask_bytes <= kRequestLimit && HoldsImage(image);
  if (keep == nullptr) {
    if (!*replay) {
      return image.bytes();
    }
    *scratch = EncodeMaskRequest(image.digest(),
                                 CallMask(image.prog().size(), 1), nullptr);
  } else if (*replay) {
    *scratch = EncodeMaskRequest(image.digest(), *keep, nullptr);
  } else if (mask_bytes + image.bytes().size() <= kRequestLimit) {
    *scratch = EncodeMaskRequest(image.digest(), *keep, &image.bytes());
  } else {
    // The image would overflow the channel but the selection fits: ship the
    // selected program alone, which the guest then holds instead.
    *scratch = SerializeProg(SelectCalls(image.prog(), *keep));
  }
  return *scratch;
}

void GuestVm::CountRequest(bool replay) {
  Counter* counter = replay ? m_mask_replays_ : m_images_shipped_;
  if (counter != nullptr) {
    counter->Add();
  }
}

void GuestVm::NoteExchange() {
  // The reply names the image the guest holds now.
  const Executor& executor = EnsureExecutor();
  resident_ = executor.has_image();
  resident_digest_ = executor.image_digest();
}

void GuestVm::LoseImage() {
  resident_ = false;
  if (executor_ != nullptr) {
    executor_->DropImage();
  }
}

ExecResult GuestVm::Exec(const Prog& prog, Bitmap* global_coverage) {
  const ProgImage image(prog);
  return Exec(image, nullptr, global_coverage);
}

ExecResult GuestVm::Exec(const ProgImage& image, const CallMask* keep,
                         Bitmap* global_coverage) {
  const SimClock::Nanos start = clock_->now();
  const std::optional<FaultKind> fault = injector_.Draw();
  if (fault.has_value() && m_fault_injected_[0] != nullptr) {
    m_fault_injected_[static_cast<size_t>(*fault)]->Add();
  }

  if (fault == FaultKind::kBootFailure) {
    // The guest dies (or was down) and the automatic restart fails: the VM
    // burns the boot budget and stays down until the recovery policy or a
    // later, fault-free Exec brings it back.
    const VmState s = state();
    clock_->Advance(s == VmState::kReady || s == VmState::kExecuting
                        ? latency_.reboot
                        : latency_.boot);
    set_state(VmState::kCrashed);
    JournalLifecycle("boot-failure");
    return FailWith(ExecFailure::kBootFailure);
  }
  if (state() == VmState::kCold || state() == VmState::kBooting) {
    Boot();
  }
  if (down()) {
    set_state(VmState::kRebooting);
    clock_->Advance(latency_.reboot);
    JournalLifecycle("reboot");
    set_state(VmState::kReady);
    if (m_reboots_ != nullptr) {
      m_reboots_->Add();
    }
  }

  if (fault == FaultKind::kVmCrash) {
    // The QEMU instance is lost mid-program: partial wall-clock cost, no
    // reply, and the next execution pays a reboot.
    clock_->Advance(latency_.exec_overhead / 2);
    set_state(VmState::kCrashed);
    return FailWith(ExecFailure::kVmLost);
  }
  if (fault == FaultKind::kExecTimeout) {
    // The in-guest agent hangs; the watchdog waits out its budget and the
    // guest must be reset to get a fresh executor.
    clock_->Advance(latency_.exec_timeout);
    set_state(VmState::kCrashed);
    return FailWith(ExecFailure::kTimeout);
  }
  if (fault == FaultKind::kRingSetup || fault == FaultKind::kRingTorn) {
    // The channel could not be set up for this request, or the request was
    // torn in the region: a wasted round trip that never became a usable
    // execution. The guest stays up and keeps its image.
    clock_->Advance(latency_.exec_overhead);
    return FailWith(fault == FaultKind::kRingSetup ? ExecFailure::kRingSetup
                                                   : ExecFailure::kRingTorn);
  }
  if (fault == FaultKind::kRingStall) {
    // The reply is lost. From the host that looks like a hung executor: the
    // watchdog budget burns and the guest is reset to resynchronize.
    clock_->Advance(latency_.exec_timeout);
    set_state(VmState::kCrashed);
    return FailWith(ExecFailure::kRingStall);
  }

  // Whether an execution fits the channel is decided by the program it
  // runs, whatever travels — the rule of shipping every program whole.
  std::vector<uint8_t> scratch;
  bool replay = false;
  const std::vector<uint8_t>& bytes = Request(image, keep, &scratch, &replay);
  if (fault == FaultKind::kTruncatedResult ||
      fault == FaultKind::kBitFlipResult) {
    // Transport corruption: the executor sees damaged wire bytes. The decode
    // attempt runs (exercising the hardened decoders) but whatever comes out
    // is discarded — a corrupted reply must never contribute feedback, so no
    // coverage bitmap is offered and no calls are returned — and neither
    // side trusts the resident image afterwards.
    CountRequest(replay);
    std::vector<uint8_t> corrupted = bytes;
    Corrupt(*fault, injector_, &corrupted);
    ShmChannel& shm = EnsureShm();
    if (shm.WriteProg(corrupted)) {
      EnsureExecutor().RunSerialized(shm.prog_data(), shm.prog_size(),
                                     nullptr);
    }
    LoseImage();
    clock_->Advance(latency_.exec_overhead);
    return FailWith(ExecFailure::kCorruptedReply);
  }

  ShmChannel& shm = EnsureShm();
  if (image.WireSize(keep) > kRequestLimit || !shm.WriteProg(bytes)) {
    LOG_WARNING << "program too large for shm region ("
                << image.WireSize(keep) << " bytes)";
    return ExecResult{};
  }
  CountRequest(replay);
  const size_t kept = KeptCalls(image, keep);
  ctrl_.Send(CtrlFrame{CtrlKind::kExecRequest, bytes.size()});
  set_state(VmState::kExecuting);
  ExecResult result = EnsureExecutor().RunSerialized(shm.prog_data(),
                                                     shm.prog_size(),
                                                     global_coverage);
  NoteExchange();
  CtrlFrame frame;
  ctrl_.Recv(&frame);  // The request we queued; the reply follows.
  ctrl_.Send(CtrlFrame{CtrlKind::kExecReply, result.calls.size()});
  ctrl_.Recv(&frame);

  execs_.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  clock_->Advance(latency_.exec_overhead + latency_.per_call * kept);
  if (fault == FaultKind::kSlowVm) {
    clock_->Advance(latency_.slow_penalty);
  }
  if (m_execs_ != nullptr) {
    m_execs_->Add();
    m_rtt_->Observe(clock_->now() - start);
  }
  if (result.Crashed()) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    set_state(VmState::kCrashed);
    ctrl_.Send(CtrlFrame{CtrlKind::kCrashNotice,
                         static_cast<uint64_t>(result.crash->bug)});
    ctrl_.Recv(&frame);
  } else {
    set_state(VmState::kReady);
  }
  return result;
}

void GuestVm::QuarantineReboot() {
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  if (m_reboots_ != nullptr) {
    m_reboots_->Add();
  }
  consecutive_failures_.store(0, std::memory_order_relaxed);
  set_state(VmState::kRebooting);
  clock_->Advance(latency_.reboot);
  set_state(VmState::kReady);
  JournalLifecycle("quarantine-reboot");
}

}  // namespace healer
