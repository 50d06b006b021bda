// Crash-recovery integration tests: fork/exec the REAL stcd binary
// (examples/stc_daemon.cpp), kill it at the worst moments -- SIGKILL
// mid-sweep, an injected process death between result publish and job
// move -- then restart and assert every job retires exactly once. This is
// the durability contract of DESIGN.md "Durable daemon mode" executed
// end to end, not argued.
//
// The stcd path arrives via the STC_DAEMON_BIN compile definition
// (CMake sets it when examples are built); the suite skips without it.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "jobs/daemon.hpp"
#include "util/faultpoint.hpp"

namespace stc {
namespace {

namespace fs = std::filesystem;

struct TempSpool {
  std::string path;
  TempSpool() {
    char tmpl[] = "/tmp/stc_crash_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempSpool() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

#ifdef STC_DAEMON_BIN

/// fork/exec `stcd serve <spool> --drain --jobs 1 --quiet` with
/// STC_FAULTPOINTS set to `faults` (empty = none). Returns the child pid.
pid_t spawn_serve(const std::string& spool, const std::string& faults) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (faults.empty())
    ::unsetenv("STC_FAULTPOINTS");
  else
    ::setenv("STC_FAULTPOINTS", faults.c_str(), 1);
  ::execl(STC_DAEMON_BIN, STC_DAEMON_BIN, "serve", spool.c_str(), "--drain",
          "--jobs", "1", "--quiet", (char*)nullptr);
  std::_Exit(127);  // exec failed
}

int wait_exit_status(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Poll the spool until the daemon `pid` has claimed a job (one is in
/// running/), so a signal sent next lands mid-job however loaded the host
/// is. After 10 s the daemon is killed and the test fails.
void wait_for_claim(const std::string& spool, pid_t pid) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (JobQueue(spool).scan().running < 1) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      wait_exit_status(pid);
      FAIL() << "the daemon claimed no job within 10 s";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<std::string> submit_jobs(const std::string& spool, int n) {
  JobQueue q(spool);
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i) {
    SpoolJob job;
    job.spec.machine = i % 2 == 0 ? "shiftreg" : "dk27";
    job.spec.arch = ArchKind::kFig2;
    job.spec.bist_cycles = 64;
    ids.push_back(q.submit(std::move(job)));
  }
  return ids;
}

/// Every job must be in EXACTLY one state directory, and every retired job
/// must carry exactly one result record.
void assert_exactly_once(const std::string& spool,
                         const std::vector<std::string>& ids) {
  JobQueue q(spool);
  std::multiset<std::string> seen;
  for (const auto& id : q.list_pending()) seen.insert(id);
  for (const auto& id : q.list_running()) seen.insert(id);
  for (const auto& id : q.list_done()) seen.insert(id);
  for (const auto& id : q.list_failed()) seen.insert(id);
  for (const std::string& id : ids)
    EXPECT_EQ(seen.count(id), 1u) << "job " << id << " not in exactly one state";
  EXPECT_EQ(seen.size(), ids.size()) << "stray job files in the spool";
}

TEST(DaemonCrashTest, InjectedCrashAtCommitRenameRetiresExactlyOnce) {
  TempSpool spool;
  const auto ids = submit_jobs(spool.path, 3);

  // The child dies via std::_Exit -- no destructors, no cleanup -- right
  // between publishing done/<id>.result and moving the job file: the one
  // genuinely ambiguous window of the rename state machine.
  const pid_t pid =
      spawn_serve(spool.path, "queue.commit.rename@1!crash");
  const int status = wait_exit_status(pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kFaultCrashExitCode);

  {
    JobQueue q(spool.path);
    const auto counts = q.scan();
    EXPECT_EQ(counts.running, 1u);  // the half-retired job
    EXPECT_EQ(counts.done, 0u);
  }

  // Restart (in-process seam) and drain: recovery must COMPLETE the
  // half-retired job's move, not re-run it, and then run the rest.
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.recovery.completed_moves, 1u);
  EXPECT_EQ(rep.jobs_done, 2u);  // only the two never-run jobs execute

  JobQueue q(spool.path);
  EXPECT_EQ(q.scan().done, 3u);
  EXPECT_EQ(q.scan().running + q.scan().pending + q.scan().failed, 0u);
  EXPECT_TRUE(fs::is_empty(spool.path + "/tmp"));
  assert_exactly_once(spool.path, ids);
  for (const std::string& id : ids) {
    const auto r = q.result(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, "done");
  }
}

TEST(DaemonCrashTest, SigkillMidSweepRecoversEveryJobExactlyOnce) {
  TempSpool spool;
  const auto ids = submit_jobs(spool.path, 4);

  // Slow every job start by 120 ms (non-cooperative sleep) so SIGKILL,
  // sent once a job is claimed, lands while it runs.
  const pid_t pid =
      spawn_serve(spool.path, "orchestrator.job.start@1x100~120");
  ASSERT_NO_FATAL_FAILURE(wait_for_claim(spool.path, pid));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const int status = wait_exit_status(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  {
    JobQueue q(spool.path);
    EXPECT_GE(q.scan().running, 1u) << "SIGKILL missed the claim window";
  }

  JobCache cache;
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  const DaemonReport rep = run_daemon(opt, cache);
  EXPECT_GE(rep.recovery.requeued, 1u);  // the killed job came back

  JobQueue q(spool.path);
  EXPECT_EQ(q.scan().done, 4u);
  EXPECT_EQ(q.scan().running + q.scan().pending + q.scan().failed, 0u);
  EXPECT_TRUE(fs::is_empty(spool.path + "/tmp"));
  assert_exactly_once(spool.path, ids);
  // The interrupted job's recovery is recorded in its result attempts and
  // the restarted daemon's cache served later jobs warm (same machines).
  EXPECT_GT(rep.cache.machine_hits + rep.cache.structure_hits, 0u);
}

TEST(DaemonCrashTest, SigtermDrainsGracefullyWithExitZero) {
  TempSpool spool;
  const auto ids = submit_jobs(spool.path, 3);

  // 80 ms per job keeps the daemon alive long enough to signal it once a
  // job is claimed.
  const pid_t pid =
      spawn_serve(spool.path, "orchestrator.job.start@1x100~80");
  ASSERT_NO_FATAL_FAILURE(wait_for_claim(spool.path, pid));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const int status = wait_exit_status(pid);
  ASSERT_TRUE(WIFEXITED(status)) << "SIGTERM must drain, not kill";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Clean drain: nothing left claimed, every job either retired or back in
  // pending/ for the next daemon -- and nothing lost or duplicated.
  JobQueue q(spool.path);
  EXPECT_EQ(q.scan().running, 0u);
  EXPECT_TRUE(fs::is_empty(spool.path + "/tmp"));
  assert_exactly_once(spool.path, ids);
}

#else  // !STC_DAEMON_BIN

TEST(DaemonCrashTest, RequiresDaemonBinary) {
  GTEST_SKIP() << "built without STC_DAEMON_BIN (examples off)";
}

#endif

}  // namespace
}  // namespace stc
