// Tests for the fourteenth functional group — Sockets — and the pieces it
// rides on: per-variant registry shape (Winsock vs BSD flavors of the same
// bare names), default-plan exclusion, --groups token parsing edge cases,
// jobs=1-vs-4 bit identity on every variant, the NT-vs-Win9x-vs-Linux error
// model contrasts the group was built to exhibit, and the group-filtered
// store round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/ballista.h"
#include "core/diff.h"
#include "core/socket_types.h"
#include "store/store.h"
#include "tests/test_util.h"

namespace ballista {
namespace {

using core::ApiKind;
using core::Campaign;
using core::CampaignOptions;
using core::CampaignResult;
using core::FuncGroup;
using sim::OsVariant;
using testing::find_value;
using testing::shared_world;

constexpr std::uint32_t kSocketsBit = core::group_bit(FuncGroup::kSockets);

std::size_t socket_count(OsVariant v, ApiKind api) {
  std::size_t n = 0;
  for (const core::MuT* m : shared_world().registry.for_variant(v))
    if (m->group == FuncGroup::kSockets && m->api == api) ++n;
  return n;
}

TEST(SocketGroup, RegistryShapePerVariant) {
  const auto& reg = shared_world().registry;
  // 16 Winsock MuTs + 12 BSD MuTs share the group.
  EXPECT_EQ(reg.count_group(FuncGroup::kSockets), 28u);
  for (OsVariant v : {OsVariant::kWin95, OsVariant::kWin98,
                      OsVariant::kWin98SE, OsVariant::kWinNT4,
                      OsVariant::kWin2000})
    EXPECT_EQ(socket_count(v, ApiKind::kWin32Sys), 16u) << sim::variant_name(v);
  // The CE Winsock subset of the era lacked ioctlsocket/getsockname/
  // getpeername.
  EXPECT_EQ(socket_count(OsVariant::kWinCE, ApiKind::kWin32Sys), 13u);
  EXPECT_EQ(socket_count(OsVariant::kLinux, ApiKind::kPosixSys), 12u);
  EXPECT_EQ(socket_count(OsVariant::kLinux, ApiKind::kWin32Sys), 0u);
  EXPECT_EQ(socket_count(OsVariant::kWinNT4, ApiKind::kPosixSys), 0u);

  // Same bare name, two flavors: the variant-aware lookup tells them apart.
  const core::MuT* win = reg.find("socket", FuncGroup::kSockets,
                                  OsVariant::kWinNT4);
  const core::MuT* bsd = reg.find("socket", FuncGroup::kSockets,
                                  OsVariant::kLinux);
  ASSERT_NE(win, nullptr);
  ASSERT_NE(bsd, nullptr);
  EXPECT_NE(win, bsd);
  EXPECT_EQ(win->api, ApiKind::kWin32Sys);
  EXPECT_EQ(bsd->api, ApiKind::kPosixSys);

  // CE thunks the datagram sockaddr copies through the kernel: deferred
  // hazards, like the sync group's Interlocked rows.
  const core::MuT* st = reg.find("sendto", FuncGroup::kSockets,
                                 OsVariant::kWinCE);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->hazard_on(OsVariant::kWinCE), core::CrashStyle::kDeferred);
  EXPECT_EQ(st->hazard_on(OsVariant::kWinNT4), core::CrashStyle::kNone);
}

TEST(SocketGroup, GroupTableRow) {
  const auto* d = core::group_from_token("sockets");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->id, FuncGroup::kSockets);
  EXPECT_EQ(core::group_index(FuncGroup::kSockets), 13u);
  EXPECT_FALSE(d->in_default_campaign);
  EXPECT_FALSE(d->crash_default);
  EXPECT_FALSE(core::is_clib_group(FuncGroup::kSockets));
  EXPECT_EQ(core::group_name(FuncGroup::kSockets), "Sockets");
  EXPECT_EQ(core::kDefaultCampaignGroupMask & kSocketsBit, 0u);
}

TEST(SocketGroup, GroupTokenParsingEdgeCases) {
  std::string err;
  // Duplicate tokens collapse into the same bit.
  EXPECT_EQ(core::parse_group_list("sockets,sockets", &err), kSocketsBit);
  EXPECT_EQ(core::parse_group_list("sockets,sync,sockets", &err),
            kSocketsBit | core::group_bit(FuncGroup::kWin32Sync));
  // Empty list and empty tokens are rejected.
  EXPECT_EQ(core::parse_group_list("", &err), std::nullopt);
  EXPECT_EQ(core::parse_group_list("sockets,", &err), std::nullopt);
  EXPECT_EQ(core::parse_group_list(",sockets", &err), std::nullopt);
  // Unknown tokens are rejected with the token named in the diagnostic
  // (the CLI turns this into usage + exit 2).
  EXPECT_EQ(core::parse_group_list("bogus", &err), std::nullopt);
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_EQ(core::parse_group_list("sockets,bogus", &err), std::nullopt);
  // Spelling out the default set parses to exactly the default mask — which
  // the CLI then normalizes to "no filter" so the log is byte-identical to
  // a plain run.
  EXPECT_EQ(core::parse_group_list(
                "memory,filedir,io,process,environment,cchar,cstring,"
                "cmemory,cfileio,cstreamio,cmath,ctime",
                &err),
            core::kDefaultCampaignGroupMask);
  EXPECT_EQ(core::parse_group_list("all", &err), core::kEveryGroupMask);
}

TEST(SocketGroup, DefaultPlanExcludesSocketMuts) {
  core::PlanOptions opt;
  opt.cap = 24;
  for (OsVariant v : {OsVariant::kWinNT4, OsVariant::kLinux}) {
    const core::Plan plan = core::make_plan(v, shared_world().registry, opt);
    for (const core::MuT* m : plan.muts)
      EXPECT_NE(m->group, FuncGroup::kSockets) << m->name;
  }
  opt.group_mask = kSocketsBit;
  const core::Plan sp =
      core::make_plan(OsVariant::kWinNT4, shared_world().registry, opt);
  EXPECT_EQ(sp.muts.size(), 16u);
  const core::Plan lp =
      core::make_plan(OsVariant::kLinux, shared_world().registry, opt);
  EXPECT_EQ(lp.muts.size(), 12u);
}

TEST(SocketGroup, ParallelCampaignsAreBitIdenticalOnEveryVariant) {
  for (OsVariant v : sim::kAllVariants) {
    CampaignOptions seq, par;
    seq.cap = par.cap = 24;
    seq.group_mask = par.group_mask = kSocketsBit;
    par.jobs = 4;
    const auto a = Campaign::run(v, shared_world().registry, seq);
    const auto b = Campaign::run(v, shared_world().registry, par);
    ASSERT_EQ(a.stats.size(), b.stats.size()) << sim::variant_name(v);
    ASSERT_GT(a.stats.size(), 0u) << sim::variant_name(v);
    for (std::size_t i = 0; i < a.stats.size(); ++i) {
      EXPECT_EQ(a.stats[i].mut, b.stats[i].mut);
      EXPECT_EQ(a.stats[i].case_codes, b.stats[i].case_codes)
          << sim::variant_name(v) << " / " << a.stats[i].mut->name;
      EXPECT_EQ(a.stats[i].aborts, b.stats[i].aborts);
      EXPECT_EQ(a.stats[i].restarts, b.stats[i].restarts);
      EXPECT_EQ(a.stats[i].silent_candidates, b.stats[i].silent_candidates);
    }
    EXPECT_EQ(a.reboots, b.reboots) << sim::variant_name(v);
    EXPECT_EQ(a.total_cases, b.total_cases) << sim::variant_name(v);
  }
}

/// Runs one case of a sockets-group MuT, resolving the Winsock/BSD flavor
/// through the variant.
core::CaseResult run_socket_case(OsVariant v, std::string_view name,
                                 const std::vector<std::string>& value_names,
                                 sim::Machine* machine) {
  const core::MuT* mut =
      shared_world().registry.find(name, FuncGroup::kSockets, v);
  EXPECT_NE(mut, nullptr) << name;
  std::vector<const core::TestValue*> tuple;
  for (std::size_t i = 0; i < value_names.size(); ++i)
    tuple.push_back(find_value(*mut->params[i], value_names[i]));
  core::Executor executor(*machine);
  return executor.run_case(*mut, tuple);
}

TEST(SocketGroup, ClosedSocketSplitsThePersonalities) {
  // shutdown() on a closed socket handle: NT reports WSAENOTSOCK (an error
  // return), Win95's stub reports success having done nothing (Silent
  // candidate), Linux reports EBADF.
  sim::Machine nt(OsVariant::kWinNT4);
  const auto rn = run_socket_case(OsVariant::kWinNT4, "shutdown",
                                  {"hs_closed", "how_both"}, &nt);
  EXPECT_EQ(rn.outcome, core::Outcome::kPass);
  EXPECT_FALSE(rn.success_no_error);

  sim::Machine w95(OsVariant::kWin95);
  const auto r9 = run_socket_case(OsVariant::kWin95, "shutdown",
                                  {"hs_closed", "how_both"}, &w95);
  EXPECT_EQ(r9.outcome, core::Outcome::kPass);
  EXPECT_TRUE(r9.success_no_error);

  sim::Machine lx(OsVariant::kLinux);
  const auto rl = run_socket_case(OsVariant::kLinux, "shutdown",
                                  {"hs_closed", "how_both"}, &lx);
  EXPECT_EQ(rl.outcome, core::Outcome::kPass);
  EXPECT_FALSE(rl.success_no_error);
}

TEST(SocketGroup, KernelSockaddrAbortsNtButIsReportedOnLinux) {
  // connect() with a kernel-space sockaddr*: the NT kernel copy-in raises
  // (Abort), Linux's copy_from_user reports EFAULT, the Win98 stub layer
  // swallows it and reports success.
  sim::Machine nt(OsVariant::kWinNT4);
  const auto rn = run_socket_case(OsVariant::kWinNT4, "connect",
                                  {"hs_tcp_fresh", "sa_kernel", "sal_exact16"},
                                  &nt);
  EXPECT_EQ(rn.outcome, core::Outcome::kAbort);

  sim::Machine lx(OsVariant::kLinux);
  const auto rl = run_socket_case(OsVariant::kLinux, "connect",
                                  {"hs_tcp_fresh", "sa_kernel", "sal_exact16"},
                                  &lx);
  EXPECT_EQ(rl.outcome, core::Outcome::kPass);
  EXPECT_FALSE(rl.success_no_error);

  sim::Machine w98(OsVariant::kWin98);
  const auto r9 = run_socket_case(OsVariant::kWin98, "connect",
                                  {"hs_tcp_fresh", "sa_kernel", "sal_exact16"},
                                  &w98);
  EXPECT_EQ(r9.outcome, core::Outcome::kPass);
  EXPECT_TRUE(r9.success_no_error);
}

TEST(SocketGroup, ConnectToLiveListenerSucceeds) {
  sim::Machine nt(OsVariant::kWinNT4);
  const auto r = run_socket_case(
      OsVariant::kWinNT4, "connect",
      {"hs_tcp_fresh", "sa_listener_live", "sal_exact16"}, &nt);
  EXPECT_EQ(r.outcome, core::Outcome::kPass);
  EXPECT_FALSE(r.wrong_error);
}

TEST(SocketGroup, BlockingRecvOnSilentPeerHangsTheTask) {
  // recv() on a connected socket whose peer never sends: nothing can ever
  // arrive in a single-process simulation, so the watchdog's Restart is the
  // honest outcome — the paper's hung-task failures.
  sim::Machine nt(OsVariant::kWinNT4);
  const auto r = run_socket_case(
      OsVariant::kWinNT4, "recv",
      {"hs_tcp_connected", "buf_page", "size_16", "sf_0"}, &nt);
  EXPECT_EQ(r.outcome, core::Outcome::kRestart);

  sim::Machine lx(OsVariant::kLinux);
  const auto rl = run_socket_case(
      OsVariant::kLinux, "recv",
      {"hs_tcp_connected", "buf_page", "size_16", "sf_0"}, &lx);
  EXPECT_EQ(rl.outcome, core::Outcome::kRestart);
}

TEST(SocketGroup, RecvTimeoutBurnsTicksInsteadOfHanging) {
  // SO_RCVTIMEO turns the would-be hang into a deterministic tick burn plus
  // an error return: the hs_tcp_timeout pool value arms recv_timeout_ticks,
  // so a blocking recv advances the simulated clock and reports
  // WSAETIMEDOUT instead of tripping the watchdog.
  sim::Machine nt(OsVariant::kWinNT4);
  const std::uint64_t t0 = nt.ticks();
  const auto r = run_socket_case(
      OsVariant::kWinNT4, "recv",
      {"hs_tcp_timeout", "buf_page", "size_16", "sf_0"}, &nt);
  EXPECT_EQ(r.outcome, core::Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);  // WSAETIMEDOUT reported
  EXPECT_GE(nt.ticks(), t0 + 500);  // the timeout was paid in sim ticks
}

TEST(SocketGroup, StoreRoundTripPreservesGroupFilter) {
  const std::string path = ::testing::TempDir() + "ballista_sockstore." +
                           std::to_string(::getpid()) + ".blog";
  CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = kSocketsBit;
  const store::StoreRun written = store::run_with_store(
      OsVariant::kWinNT4, shared_world().registry, opt, path,
      /*resume=*/false);
  ASSERT_TRUE(written.ok) << written.error;

  const store::StoreContents contents = store::read_store_file(path);
  ASSERT_EQ(contents.status, store::ReadStatus::kOk);
  EXPECT_EQ(contents.header.has_group_filter, 1);
  EXPECT_EQ(contents.header.group_mask, kSocketsBit);

  const store::StoreRun loaded =
      store::load_result(shared_world().registry, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const core::CampaignDiff d =
      core::diff_campaigns(written.result, loaded.result);
  EXPECT_TRUE(d.identical());
  std::remove(path.c_str());
}

TEST(SocketGroup, CampaignShowsThePaperContrastShape) {
  // Group-level sanity on the headline numbers: NT4 aborts on unprobed
  // pointer copies where Linux reports EFAULT (no aborts), and the Win9x
  // stub layer manufactures Silent candidates NT does not have.
  CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = kSocketsBit;
  const auto nt = Campaign::run(OsVariant::kWinNT4, shared_world().registry,
                                opt);
  const auto lx = Campaign::run(OsVariant::kLinux, shared_world().registry,
                                opt);
  const auto w95 = Campaign::run(OsVariant::kWin95, shared_world().registry,
                                 opt);
  auto aborts = [](const CampaignResult& r) {
    std::size_t n = 0;
    for (const auto& s : r.stats) n += s.aborts;
    return n;
  };
  auto silents = [](const CampaignResult& r) {
    std::size_t n = 0;
    for (const auto& s : r.stats) n += s.silent_candidates;
    return n;
  };
  EXPECT_GT(aborts(nt), 0u);
  EXPECT_EQ(aborts(lx), 0u);
  EXPECT_GT(silents(w95), silents(nt));
  // No socket MuT is Catastrophic on the protected-kernel variants.
  for (const auto& s : nt.stats) EXPECT_FALSE(s.catastrophic) << s.mut->name;
  for (const auto& s : lx.stats) EXPECT_FALSE(s.catastrophic) << s.mut->name;
}

/// One task with hand-built socket state, for asserting a socket call's exact
/// return value and error code through direct dispatch.
class SocketState {
 public:
  explicit SocketState(OsVariant v)
      : v_(v), machine_(v), proc_(machine_.create_process()) {}

  sim::NetStack& net() { return machine_.net(); }
  sim::Addr buffer(std::size_t n) { return proc_->mem().alloc(n); }

  core::RawArg insert(std::shared_ptr<sim::SocketObject> s) {
    return proc_->handles().insert(std::move(s)).value;
  }
  /// A connected TCP endpoint (its accepted peer stays alive with it).
  std::shared_ptr<sim::SocketObject> connected_tcp() {
    auto listener = std::make_shared<sim::SocketObject>(sim::SockProto::kTcp);
    auto client = std::make_shared<sim::SocketObject>(sim::SockProto::kTcp);
    EXPECT_EQ(net().bind(listener, sim::NetStack::kLoopbackIp, 7000),
              sim::NetErr::kOk);
    EXPECT_EQ(net().listen(listener, 1), sim::NetErr::kOk);
    EXPECT_EQ(net().connect(client, sim::NetStack::kLoopbackIp, 7000),
              sim::NetErr::kOk);
    EXPECT_EQ(net().accept(*listener, &peer_), sim::NetErr::kOk);
    return client;
  }
  /// A bound UDP socket with one `n`-byte datagram queued.
  std::shared_ptr<sim::SocketObject> udp_with_datagram(std::size_t n) {
    auto rx = std::make_shared<sim::SocketObject>(sim::SockProto::kUdp);
    auto tx = std::make_shared<sim::SocketObject>(sim::SockProto::kUdp);
    EXPECT_EQ(net().bind(rx, sim::NetStack::kLoopbackIp, 7001),
              sim::NetErr::kOk);
    EXPECT_EQ(net().sendto(tx, sim::NetStack::kLoopbackIp, 7001,
                           std::vector<std::uint8_t>(n, 0x5a)),
              sim::NetErr::kOk);
    return rx;
  }
  /// A user copy of the sockaddr_in for `ip:port`.
  sim::Addr sockaddr(std::uint32_t ip, std::uint16_t port) {
    std::uint8_t bytes[core::kSockAddrSize];
    core::encode_sockaddr({core::AF_INET_SIM, port, ip}, bytes);
    return proc_->mem().alloc_bytes(bytes);
  }

  struct Result {
    core::CallOutcome out;
    std::uint32_t code;   // last error on Windows, errno on Linux
    std::uint64_t ticks;  // simulated ticks the call burned
  };
  Result call(std::string_view name, std::vector<core::RawArg> args) {
    const core::MuT* mut =
        shared_world().registry.find(name, FuncGroup::kSockets, v_);
    EXPECT_NE(mut, nullptr) << name;
    args_ = std::move(args);
    core::CallContext ctx(machine_, *proc_, *mut, args_);
    (void)machine_.kernel_enter();
    const std::uint64_t t0 = machine_.ticks();
    const core::CallOutcome out = mut->impl(ctx);
    return {out,
            sim::is_windows(v_) ? proc_->last_error()
                                : static_cast<std::uint32_t>(proc_->err_no()),
            machine_.ticks() - t0};
  }

 private:
  OsVariant v_;
  sim::Machine machine_;
  std::unique_ptr<sim::SimProcess> proc_;
  std::shared_ptr<sim::SocketObject> peer_;
  std::vector<core::RawArg> args_;
};

/// What a call is expected to return, report and burn: `code` 0 means the
/// call succeeded with `ret` and left the error slot alone.
struct Expect {
  std::uint64_t ret;
  std::uint32_t code;
  std::uint64_t ticks = 0;
};

void expect_result(const SocketState::Result& r, Expect e,
                   const std::string& what) {
  EXPECT_EQ(r.out.ret, e.ret) << what;
  EXPECT_EQ(r.code, e.code) << what;
  EXPECT_EQ(r.ticks, e.ticks) << what;
  EXPECT_EQ(r.out.status, e.code == 0 ? core::CallStatus::kSuccess
                                      : core::CallStatus::kErrorReported)
      << what;
}

TEST(SocketGroup, WinsockAndBsdDifferOnlyWhereDocumented) {
  // DESIGN §12's read-side and error-code contrasts, each on state built by
  // hand: NT4 (Winsock: SOCKET_ERROR plus a WSAE* code in the last-error
  // slot) against Linux (-1 plus errno).
  constexpr std::uint64_t kWsaFail = 0xffffffffull;
  constexpr std::uint64_t kBsdFail = ~0ull;
  struct Row {
    const char* what;
    Expect nt4;
    Expect bsd;
  };
  const Row shut_rd_recv{"recv after SHUT_RD", {kWsaFail, 10058}, {0, 0}};
  const Row shut_rd_recvfrom{"recvfrom after SHUT_RD", {kWsaFail, 10058},
                             {0, 0}};
  const Row shut_wr_send{"send after SHUT_WR", {kWsaFail, 10058},
                         {kBsdFail, EPIPE}};
  const Row truncated{"16-byte datagram into a 4-byte buffer",
                      {kWsaFail, 10040}, {4, 0}};
  const Row rcvtimeo{"recv past a 500-tick SO_RCVTIMEO",
                     {kWsaFail, 10060, 500}, {kBsdFail, EAGAIN, 500}};
  constexpr std::uint64_t kConnectTicks = sim::NetStack::kConnectTimeoutTicks;
  const Row off_box{"connect off-box", {kWsaFail, 10060, kConnectTicks},
                    {kBsdFail, ETIMEDOUT, kConnectTicks}};

  for (OsVariant v : {OsVariant::kWinNT4, OsVariant::kLinux}) {
    const bool nt = v == OsVariant::kWinNT4;
    auto expect = [&](const Row& row, const SocketState::Result& r) {
      expect_result(r, nt ? row.nt4 : row.bsd,
                    std::string(sim::variant_name(v)) + ": " + row.what);
    };

    {
      SocketState s(v);
      auto sock = s.connected_tcp();
      ASSERT_EQ(s.net().shutdown(*sock, 0), sim::NetErr::kOk);
      expect(shut_rd_recv,
             s.call("recv", {s.insert(sock), s.buffer(16), 16, 0}));
    }
    {
      SocketState s(v);
      auto sock = s.udp_with_datagram(16);
      ASSERT_EQ(s.net().shutdown(*sock, 0), sim::NetErr::kOk);
      expect(shut_rd_recvfrom,
             s.call("recvfrom", {s.insert(sock), s.buffer(16), 16, 0, 0, 0}));
    }
    {
      SocketState s(v);
      auto sock = s.connected_tcp();
      ASSERT_EQ(s.net().shutdown(*sock, 1), sim::NetErr::kOk);
      expect(shut_wr_send,
             s.call("send", {s.insert(sock), s.buffer(16), 16, 0}));
    }
    {
      SocketState s(v);
      auto sock = s.udp_with_datagram(16);
      const core::RawArg h = s.insert(sock);
      expect(truncated, s.call("recvfrom", {h, s.buffer(16), 4, 0, 0, 0}));
      EXPECT_TRUE(sock->dgrams.empty()) << "the datagram was consumed";
    }
    {
      SocketState s(v);
      auto sock = s.connected_tcp();
      sock->recv_timeout_ticks = 500;
      expect(rcvtimeo, s.call("recv", {s.insert(sock), s.buffer(16), 16, 0}));
    }
    {
      SocketState s(v);
      auto sock = std::make_shared<sim::SocketObject>(sim::SockProto::kTcp);
      const sim::Addr to = s.sockaddr(0x0a010203, 80);
      expect(off_box, s.call("connect", {s.insert(sock), to, 16}));
    }
  }
}

/// What every sockets call of a cap-24, default-seed campaign left behind,
/// one line per (variant, MuT) and one token per case in case order: `hang`
/// for a call that never returned, else status:ret:last_error:errno (ret in
/// hex).  Neither .blog bytes nor repro traces record an error code, so this
/// table is what pins the personalities' socket error conventions.
std::string socket_error_table() {
  static constexpr const char* kOs[] = {"win95",   "win98", "win98se", "nt4",
                                        "win2000", "wince", "linux"};
  static constexpr const char* kStatus[] = {"ok",    "err",   "silent",
                                            "wrong", "fault", "panic"};
  core::PlanOptions opt;
  opt.cap = 24;
  opt.group_mask = kSocketsBit;
  std::string out;
  for (OsVariant v : sim::kAllVariants) {
    sim::Machine machine(v);
    core::Executor executor(machine);
    for (const core::MuT* mut :
         core::make_plan(v, shared_world().registry, opt).muts) {
      struct {
        bool returned = false;
        core::CallOutcome out;
        std::uint32_t last_error = 0;
        int err_no = 0;
      } seen;
      core::MuT probe = *mut;
      probe.impl = [&seen, mut](core::CallContext& ctx) {
        seen.out = mut->impl(ctx);
        seen.returned = true;
        seen.last_error = ctx.proc().last_error();
        seen.err_no = ctx.proc().err_no();
        return seen.out;
      };
      out += kOs[static_cast<std::size_t>(v)];
      out += ' ';
      out += mut->name;
      const core::TupleGenerator gen(*mut, opt.cap, opt.seed);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        if (machine.crashed()) machine.restore(sim::RestoreLevel::kReboot);
        seen.returned = false;
        (void)executor.run_case(probe, gen.tuple(i));
        if (!seen.returned) {
          out += " hang";
          continue;
        }
        char token[64];
        std::snprintf(token, sizeof(token), " %s:%llx:%u:%d",
                      kStatus[static_cast<std::size_t>(seen.out.status)],
                      static_cast<unsigned long long>(seen.out.ret),
                      seen.last_error, seen.err_no);
        out += token;
      }
      out += '\n';
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SocketGroup, ErrorCodesMatchThePinnedTable) {
  // Regenerate after an intentional change to a socket error convention by
  // copying the file this test writes on a mismatch over the golden.
  const std::string golden =
      std::string(BALLISTA_GOLDEN_DIR) + "/sockets_errors.txt";
  std::ifstream in(golden);
  ASSERT_TRUE(in.good()) << "cannot read " << golden;
  std::ostringstream pinned;
  pinned << in.rdbuf();
  const std::string actual = socket_error_table();
  if (actual == pinned.str()) return;

  const std::string written = ::testing::TempDir() + "sockets_errors." +
                              std::to_string(::getpid()) + ".txt";
  std::ofstream(written) << actual;
  const auto want = split_lines(pinned.str());
  const auto got = split_lines(actual);
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < got.size() ? got[i] : "(none)";
    if (w != g) {
      ADD_FAILURE() << "line " << i + 1 << " differs\n  pinned: " << w
                    << "\n  actual: " << g << "\nfull table written to "
                    << written;
      return;
    }
  }
}

}  // namespace
}  // namespace ballista
