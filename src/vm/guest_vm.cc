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
                 MetricRegistry* metrics, RingConfig ring_config)
    : target_(&target),
      config_(config),
      ring_config_(ring_config),
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
    metrics->SetHelp("healer_ring_drains_total",
                     "Ring-transport drain round trips.");
    m_ring_drains_ = metrics->GetCounter("healer_ring_drains_total");
    metrics->SetHelp("healer_ring_submitted_total",
                     "Programs pushed into SQ rings.");
    m_ring_submitted_ = metrics->GetCounter("healer_ring_submitted_total");
    metrics->SetHelp("healer_ring_completions_total",
                     "Completions posted into CQ rings.");
    m_ring_completions_ =
        metrics->GetCounter("healer_ring_completions_total");
    metrics->SetHelp("healer_ring_spills_total",
                     "Oversized programs spilled to the legacy channel.");
    m_ring_spills_ = metrics->GetCounter("healer_ring_spills_total");
    metrics->SetHelp("healer_ring_stalls_total",
                     "Submissions timed out waiting for a completion.");
    m_ring_stalls_ = metrics->GetCounter("healer_ring_stalls_total");
    metrics->SetHelp("healer_ring_drain_programs",
                     "Programs reaped per ring drain.");
    m_ring_drain_programs_ =
        metrics->GetHistogram("healer_ring_drain_programs");
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
    executor_ = std::make_unique<Executor>(*target_, config_);
  }
  return *executor_;
}

ShmChannel& GuestVm::EnsureShm() const {
  if (shm_ == nullptr) {
    shm_ = std::make_unique<ShmChannel>();
  }
  return *shm_;
}

ExecRing& GuestVm::EnsureRing() const {
  if (ring_ == nullptr) {
    ring_ = std::make_unique<ExecRing>(ring_config_);
  }
  return *ring_;
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
  AppendLog(StrFormat("[    0.000000] sim-linux %s booted",
                      KernelVersionName(config_.version)));
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
    AppendLog(StrFormat("[ fault  ] boot failed: %s",
                        ExecFailureName(ExecFailure::kBootFailure)));
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
    AppendLog(StrFormat("[    0.000000] sim-linux %s booted",
                        KernelVersionName(config_.version)));
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
  AppendLog("[ reboot ] restarting crashed guest");
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
  AppendLog(StrFormat("[ fault  ] exec failed: %s", ExecFailureName(failure)));
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

// The corruption model of a damaged transfer, shared by both transports so
// they consume the same Rand stream.
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
                                             bool use_resident, size_t limit,
                                             std::vector<uint8_t>* scratch,
                                             bool* replay) {
  const size_t mask_bytes = kMaskRequestHeader + image.prog().size();
  *replay = use_resident && mask_bytes <= limit && HoldsImage(image);
  if (keep == nullptr) {
    if (!*replay) {
      return image.bytes();
    }
    *scratch = EncodeMaskRequest(image.digest(),
                                 CallMask(image.prog().size(), 1), nullptr);
  } else if (*replay) {
    *scratch = EncodeMaskRequest(image.digest(), *keep, nullptr);
  } else if (mask_bytes + image.bytes().size() <= limit) {
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
    AppendLog("[ reboot ] restarting crashed guest");
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
  // Ring lifecycle faults on the legacy transport degrade to their closest
  // shm-channel equivalent, so one fault plan stays valid on both paths and
  // the per-program failure kinds match the ring path exactly.
  if (fault == FaultKind::kRingSetup || fault == FaultKind::kRingTorn) {
    // Setup/register/mmap failure or a torn submission: a wasted round trip
    // that never became a usable execution.
    clock_->Advance(latency_.exec_overhead);
    return FailWith(fault == FaultKind::kRingSetup ? ExecFailure::kRingSetup
                                                   : ExecFailure::kRingTorn);
  }
  if (fault == FaultKind::kRingStall) {
    // A lost completion looks like a hung executor from the host: the
    // watchdog budget burns and the guest is reset to resynchronize.
    clock_->Advance(latency_.exec_timeout);
    set_state(VmState::kCrashed);
    return FailWith(ExecFailure::kRingStall);
  }

  // Whether an execution fits the channel is decided by the program it
  // runs, whatever travels — the rule of shipping every program whole.
  constexpr size_t kLimit = ShmChannel::kSize - 8;
  std::vector<uint8_t> scratch;
  bool replay = false;
  const std::vector<uint8_t>& bytes =
      Request(image, keep, true, kLimit, &scratch, &replay);
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
  if (image.WireSize(keep) > kLimit || !shm.WriteProg(bytes)) {
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
    AppendLog("[ fault  ] slow round trip (host contention)");
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
    AppendLog(StrFormat("BUG: %s", result.crash->title.c_str()));
  } else {
    set_state(VmState::kReady);
  }
  return result;
}

std::vector<RingCompletion> GuestVm::ExecBatch(
    const std::vector<const Prog*>& progs, Bitmap* global_coverage) {
  std::vector<ProgImage> images;
  images.reserve(progs.size());
  std::vector<Job> jobs;
  jobs.reserve(progs.size());
  for (const Prog* prog : progs) {
    images.emplace_back(*prog);
    jobs.push_back(Job{&images.back(), nullptr});
  }
  return RingBatch(jobs, global_coverage);
}

std::vector<RingCompletion> GuestVm::RingBatch(const std::vector<Job>& jobs,
                                               Bitmap* global_coverage) {
  ExecRing& ring = EnsureRing();
  std::vector<RingCompletion> out;
  out.reserve(jobs.size());
  size_t next = 0;
  std::vector<uint8_t> scratch;
  while (out.size() < jobs.size()) {
    // Submission phase: fill the SQ until it is full or the next program
    // exceeds the slot budget. Tags are batch indices, so completion order
    // can be checked against submission order.
    bool oversized = false;
    const uint64_t first_tag = next;
    size_t submitted = 0;
    while (next < jobs.size()) {
      // A job spills when the program it runs would not fit a slot,
      // whatever travels (see Exec).
      const Job& job = jobs[next];
      const size_t limit = ring.sq().payload_capacity();
      if (job.image->WireSize(job.keep) > limit) {
        oversized = true;
        break;
      }
      // Only a drain's first entry may lean on the resident image: a fault
      // on an earlier entry of the same drain can take the image down
      // before the guest reads a later one.
      bool replay = false;
      const std::vector<uint8_t>& bytes = Request(
          *job.image, job.keep, submitted == 0, limit, &scratch, &replay);
      if (!ring.sq().Push(bytes.data(), bytes.size(), next)) {
        break;  // SQ full: drain what is queued, then keep submitting.
      }
      CountRequest(replay);
      if (m_ring_submitted_ != nullptr) {
        m_ring_submitted_->Add();
      }
      ++submitted;
      ++next;
    }
    if (submitted > 0) {
      DrainRing(jobs, first_tag, submitted, global_coverage, &out);
      continue;  // Re-enter submission with an empty SQ.
    }
    if (oversized) {
      // Spill: the program cannot travel through a fixed slot, so it takes
      // the one-at-a-time channel. Its fault draw happens inside Exec,
      // which keeps the per-program decision stream aligned with a pure
      // legacy sequence.
      ExecResult result =
          Exec(*jobs[next].image, jobs[next].keep, global_coverage);
      if (m_ring_spills_ != nullptr) {
        m_ring_spills_->Add();
      }
      out.push_back(
          RingCompletion{next, std::move(result), clock_->now()});
      ++next;
      continue;
    }
    break;  // Defensive: nothing submitted and nothing to spill.
  }
  return out;
}

void GuestVm::DrainRing(const std::vector<Job>& jobs,
                        uint64_t first_tag, size_t count,
                        Bitmap* global_coverage,
                        std::vector<RingCompletion>* out) {
  ExecRing& ring = EnsureRing();
  if (state() == VmState::kCold || state() == VmState::kBooting) {
    Boot();
  }
  if (down()) {
    set_state(VmState::kRebooting);
    clock_->Advance(latency_.reboot);
    AppendLog("[ reboot ] restarting crashed guest");
    JournalLifecycle("reboot");
    set_state(VmState::kReady);
    if (m_reboots_ != nullptr) {
      m_reboots_->Add();
    }
  }
  // One ring "enter": the host pays the round-trip overhead once per drain,
  // not once per program — the batched transport's throughput win.
  const SimClock::Nanos drain_start = clock_->now();
  clock_->Advance(latency_.exec_overhead);
  if (m_ring_drains_ != nullptr) {
    m_ring_drains_->Add();
    m_ring_drain_programs_->Observe(count);
  }

  // Executor side: multi-shot drain. Every pending submission is popped,
  // executed under the per-program fault model, and answered with one CQ
  // completion stamped at post time. No control-socket chatter: the rings
  // are the only host/guest channel on this path.
  std::vector<std::pair<uint64_t, SimClock::Nanos>> stamps;
  stamps.reserve(count);
  std::vector<uint8_t> bytes;
  uint64_t tag = 0;
  for (;;) {
    const SlotRing::Pop popped = ring.sq().TryPop(&bytes, &tag);
    if (popped == SlotRing::Pop::kEmpty) {
      break;
    }
    if (popped != SlotRing::Pop::kOk) {
      // A torn or replayed SQ entry was consumed and dropped; the reap
      // phase below surfaces the missing completion as a stall.
      continue;
    }
    const std::optional<FaultKind> fault = injector_.Draw();
    if (fault.has_value() && m_fault_injected_[0] != nullptr) {
      m_fault_injected_[static_cast<size_t>(*fault)]->Add();
    }
    ExecResult result;
    bool post = true;
    if (fault == FaultKind::kBootFailure) {
      const VmState s = state();
      clock_->Advance(s == VmState::kReady || s == VmState::kExecuting
                          ? latency_.reboot
                          : latency_.boot);
      set_state(VmState::kCrashed);
      JournalLifecycle("boot-failure");
      result = FailWith(ExecFailure::kBootFailure);
    } else {
      if (down()) {
        // A crash or loss earlier in the drain: the guest restarted and the
        // executor re-attached to the rings before taking the next entry.
        set_state(VmState::kRebooting);
        clock_->Advance(latency_.reboot);
        AppendLog("[ reboot ] restarting crashed guest");
        JournalLifecycle("reboot");
        set_state(VmState::kReady);
        if (m_reboots_ != nullptr) {
          m_reboots_->Add();
        }
      }
      if (fault == FaultKind::kVmCrash) {
        clock_->Advance(latency_.exec_overhead / 2);
        set_state(VmState::kCrashed);
        result = FailWith(ExecFailure::kVmLost);
      } else if (fault == FaultKind::kExecTimeout) {
        clock_->Advance(latency_.exec_timeout);
        set_state(VmState::kCrashed);
        result = FailWith(ExecFailure::kTimeout);
      } else if (fault == FaultKind::kRingSetup ||
                 fault == FaultKind::kRingTorn) {
        result = FailWith(fault == FaultKind::kRingSetup
                              ? ExecFailure::kRingSetup
                              : ExecFailure::kRingTorn);
      } else if (fault == FaultKind::kRingStall) {
        // The completion never lands: nothing is posted, no feedback leaks,
        // and the reaper times the tag out below.
        post = false;
      } else if (fault == FaultKind::kTruncatedResult ||
                 fault == FaultKind::kBitFlipResult) {
        // Same corruption model (and Rand stream) as the legacy transport.
        std::vector<uint8_t> corrupted = bytes;
        Corrupt(*fault, injector_, &corrupted);
        EnsureExecutor().RunSerialized(corrupted.data(), corrupted.size(),
                                       nullptr);
        LoseImage();
        result = FailWith(ExecFailure::kCorruptedReply);
      } else {
        size_t kept = 0;
        if (tag < jobs.size()) {
          const Job& job = jobs[static_cast<size_t>(tag)];
          kept = KeptCalls(*job.image, job.keep);
        }
        set_state(VmState::kExecuting);
        result =
            EnsureExecutor().RunSerialized(bytes.data(), bytes.size(),
                                           global_coverage);
        NoteExchange();
        execs_.fetch_add(1, std::memory_order_relaxed);
        consecutive_failures_.store(0, std::memory_order_relaxed);
        clock_->Advance(latency_.per_call * kept);
        if (fault == FaultKind::kSlowVm) {
          clock_->Advance(latency_.slow_penalty);
          AppendLog("[ fault  ] slow round trip (host contention)");
        }
        if (m_execs_ != nullptr) {
          m_execs_->Add();
          m_rtt_->Observe(clock_->now() - drain_start);
        }
        if (result.Crashed()) {
          crashes_.fetch_add(1, std::memory_order_relaxed);
          set_state(VmState::kCrashed);
          AppendLog(StrFormat("BUG: %s", result.crash->title.c_str()));
        } else {
          set_state(VmState::kReady);
        }
      }
    }
    if (post) {
      const std::vector<uint8_t> cqe = EncodeCompletion(result);
      // A completion too large for a CQ slot (or a full CQ) is lost and
      // surfaces as a stall; the CQ is sized >= the SQ so a full CQ cannot
      // happen on the production path.
      if (ring.cq().Push(cqe.data(), cqe.size(), tag)) {
        stamps.emplace_back(tag, clock_->now());
        if (m_ring_completions_ != nullptr) {
          m_ring_completions_->Add();
        }
      }
    }
  }

  // Reap phase: pop completions (they arrive in post order), decode, and
  // stitch the post-time stamps back on. Any submitted tag without a
  // completion is timed out by the reaper — the wakeup-fallback watchdog —
  // as a ring stall, and the guest is reset to resynchronize the rings.
  std::vector<std::pair<uint64_t, ExecResult>> reaped;
  reaped.reserve(count);
  for (;;) {
    const SlotRing::Pop popped = ring.cq().TryPop(&bytes, &tag);
    if (popped == SlotRing::Pop::kEmpty) {
      break;
    }
    if (popped != SlotRing::Pop::kOk) {
      continue;  // Torn CQ entry: lost; surfaces as a stall below.
    }
    Result<ExecResult> decoded = DecodeCompletion(bytes.data(), bytes.size());
    if (!decoded.ok()) {
      AppendLog(StrFormat("[ ring   ] dropped completion: %s",
                          decoded.status().message().c_str()));
      continue;
    }
    reaped.emplace_back(tag, std::move(*decoded));
  }
  size_t ri = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t want = first_tag + i;
    if (ri < reaped.size() && reaped[ri].first == want) {
      SimClock::Nanos stamp = clock_->now();
      for (const auto& [stamp_tag, at] : stamps) {
        if (stamp_tag == want) {
          stamp = at;
          break;
        }
      }
      out->push_back(
          RingCompletion{want, std::move(reaped[ri].second), stamp});
      ++ri;
    } else {
      clock_->Advance(latency_.exec_timeout);
      set_state(VmState::kCrashed);
      out->push_back(
          RingCompletion{want, FailWith(ExecFailure::kRingStall),
                         clock_->now()});
      if (m_ring_stalls_ != nullptr) {
        m_ring_stalls_->Add();
      }
      if (journal_ != nullptr) {
        // Payload: a = lost tag, b = SQ depth, c = CQ depth at timeout.
        journal_->Record(JournalKind::kRingStall, clock_->now(), want,
                         ring.sq().size(), ring.cq().size());
      }
    }
  }
}

ExecResult GuestVm::ExecRingOne(const Prog& prog, Bitmap* global_coverage) {
  const ProgImage image(prog);
  return ExecRingOne(image, nullptr, global_coverage);
}

ExecResult GuestVm::ExecRingOne(const ProgImage& image, const CallMask* keep,
                                Bitmap* global_coverage) {
  std::vector<RingCompletion> completions =
      RingBatch({Job{&image, keep}}, global_coverage);
  if (completions.empty()) {
    return ExecResult{};
  }
  return std::move(completions.front().result);
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
  AppendLog("[ monitor] quarantined guest force-rebooted");
  JournalLifecycle("quarantine-reboot");
}

std::vector<std::string> GuestVm::DrainLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<std::string> out;
  out.swap(log_);
  return out;
}

void GuestVm::AppendLog(std::string line) {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (log_.size() < 4096) {
    log_.push_back(std::move(line));
  }
}

}  // namespace healer
