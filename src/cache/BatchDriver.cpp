//===- cache/BatchDriver.cpp - Parallel batch trace generation ----------------===//

#include "cache/BatchDriver.h"

#include "cache/Generations.h"
#include "cache/SideCondCache.h"
#include "smt/TermBuilder.h"
#include "support/Guard.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

using namespace islaris;
using namespace islaris::cache;

BatchDriver::BatchDriver(unsigned Threads) : NThreads(Threads) {
  if (NThreads == 0) {
    NThreads = std::thread::hardware_concurrency();
    if (NThreads == 0)
      NThreads = 1;
  }
}

void BatchDriver::parallelFor(size_t N, unsigned Threads,
                              const std::function<void(size_t)> &Fn) {
  if (Threads <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    while (true) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      Fn(I);
    }
  };
  size_t NumWorkers = std::min<size_t>(Threads, N);
  std::vector<std::thread> Pool;
  Pool.reserve(NumWorkers - 1);
  for (size_t T = 1; T < NumWorkers; ++T)
    Pool.emplace_back(Worker);
  Worker(); // the calling thread participates
  for (std::thread &T : Pool)
    T.join();
}

namespace {

/// The batch watchdog: one thread polling the active attempts every 50 ms,
/// firing a job's private cancellation token once its deadline passes (or
/// once the caller's own token fires, which the private token replaces for
/// the duration of the attempt).  Started only when a job timeout is
/// configured; the zero-timeout path never touches tokens or threads.
class Watchdog {
public:
  struct Attempt {
    std::chrono::steady_clock::time_point Deadline;
    support::CancelToken Tok;
    const std::atomic<bool> *Caller = nullptr;
    std::atomic<bool> TimedOut{false};
  };

  ~Watchdog() { stop(); }

  std::shared_ptr<Attempt> arm(double Seconds,
                               const support::CancelToken &CallerTok) {
    auto A = std::make_shared<Attempt>();
    A->Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(Seconds));
    A->Tok = support::CancelToken::create();
    A->Caller = CallerTok.raw();
    std::lock_guard<std::mutex> L(Mu);
    Active.push_back(A);
    if (!Th.joinable())
      Th = std::thread([this] { loop(); });
    return A;
  }

  void disarm(const std::shared_ptr<Attempt> &A) {
    std::lock_guard<std::mutex> L(Mu);
    for (size_t I = 0; I < Active.size(); ++I)
      if (Active[I] == A) {
        Active.erase(Active.begin() + long(I));
        break;
      }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Cv.notify_all();
    if (Th.joinable())
      Th.join();
  }

private:
  void loop() {
    std::unique_lock<std::mutex> L(Mu);
    while (!Stop) {
      Cv.wait_for(L, std::chrono::milliseconds(50));
      auto Now = std::chrono::steady_clock::now();
      for (auto &A : Active) {
        if (Now >= A->Deadline) {
          A->TimedOut.store(true, std::memory_order_relaxed);
          A->Tok.requestCancel();
        } else if (A->Caller &&
                   A->Caller->load(std::memory_order_relaxed)) {
          A->Tok.requestCancel();
        }
      }
    }
  }

  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::shared_ptr<Attempt>> Active;
  bool Stop = false;
  std::thread Th;
};

} // namespace

std::vector<TraceJobResult>
BatchDriver::run(const std::vector<TraceJob> &Jobs, TraceCache *Cache) {
  Last = BatchStats();
  Last.Jobs = unsigned(Jobs.size());

  std::vector<TraceJobResult> Results(Jobs.size());

  // Canonicalize and group: one execution per distinct key.  std::map keeps
  // group iteration deterministic.
  struct Group {
    std::vector<size_t> Members; ///< Job indices, in submission order.
    bool Ok = false;
    bool FromCache = false;
    CacheEntry Entry;
    std::string Error;
    support::Diag D;
    unsigned Attempts = 0;
    unsigned TimedOut = 0;
    unsigned Exceptions = 0;
  };
  std::map<Fingerprint, Group> Groups;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const TraceJob &J = Jobs[I];
    if (!J.Model || !J.Assume) {
      // An incomplete job is the submitter's bug, but it must not take the
      // whole batch down (or, under NDEBUG, dereference null).
      Results[I].Ok = false;
      Results[I].D = support::Diag::error(
          support::ErrorCode::Internal, "batch-driver",
          "incomplete trace job (null model or assumptions)");
      Results[I].Error = Results[I].D.Message;
      ++Last.Failed;
      continue;
    }
    Results[I].Key =
        traceCacheKey(J.ArchName, *J.Model, J.Op, *J.Assume, J.Opts);
    Groups[Results[I].Key].Members.push_back(I);
  }

  // Serve what we can from the cache; collect the rest as work items.
  std::vector<std::pair<const Fingerprint *, Group *>> Work;
  for (auto &[K, G] : Groups) {
    if (Cache) {
      if (auto E = Cache->lookup(K)) {
        G.Entry = std::move(*E);
        G.Ok = true;
        G.FromCache = true;
        // A warm hit keeps its model's generation current, so steady-state
        // traffic never ages a live model into GC range.
        if (Cache->config().Persist)
          touchGeneration(Cache->dir(),
                          fingerprintModel(*Jobs[G.Members.front()].Model));
        continue;
      }
    }
    Work.emplace_back(&K, &G);
  }

  // Execute the misses.  Each execution gets a private TermBuilder and
  // Executor; groups are disjoint, so workers write without locks and the
  // shared cache synchronizes internally.  Every execution is fault-
  // contained: exceptions are caught into the job's result, a wedged job is
  // cancelled by the watchdog, and retryable failures get bounded retries
  // before the job is quarantined with its last diagnostic.
  Watchdog WD;
  parallelFor(Work.size(), NThreads, [&](size_t W) {
    const Fingerprint &K = *Work[W].first;
    Group &G = *Work[W].second;
    const TraceJob &J = Jobs[G.Members.front()];
    // The group's watchdog timeout and retry count ride on its options.
    const support::RunLimits &L = J.Opts.Limits;
    // Salt the shared side-condition store by this job's model so its
    // pruning/assert queries can never be answered by another model's
    // entries (fingerprintModel is memoized, so this is a map lookup).
    std::optional<SaltedSolverCache> SideCond;
    if (J.SideCond)
      SideCond.emplace(*J.SideCond, fingerprintModel(*J.Model));
    for (unsigned Attempt = 0; Attempt <= L.JobRetries; ++Attempt) {
      ++G.Attempts;
      isla::ExecOptions EO = J.Opts;
      std::shared_ptr<Watchdog::Attempt> Armed;
      if (L.JobTimeoutSeconds > 0) {
        Armed = WD.arm(L.JobTimeoutSeconds, EO.Cancel);
        EO.Cancel = Armed->Tok;
      }
      // The builder must outlive encode(): the result's trace and opcode
      // variables point into it until they are serialized.
      smt::TermBuilder TB;
      isla::ExecResult R;
      bool Threw = false;
      try {
        isla::Executor Ex(*J.Model, TB);
        if (SideCond)
          Ex.setSolverCache(&*SideCond);
        R = Ex.run(J.Op, *J.Assume, EO);
      } catch (const std::exception &E) {
        Threw = true;
        R.Ok = false;
        R.Error = std::string("exception escaped trace job: ") + E.what();
        R.D = support::Diag::error(support::ErrorCode::JobException,
                                   "batch-driver", R.Error);
      } catch (...) {
        Threw = true;
        R.Ok = false;
        R.Error = "non-standard exception escaped trace job";
        R.D = support::Diag::error(support::ErrorCode::JobException,
                                   "batch-driver", R.Error);
      }
      bool TimedOut =
          Armed && Armed->TimedOut.load(std::memory_order_relaxed);
      if (Armed)
        WD.disarm(Armed);
      if (R.Ok) {
        G.Entry = TraceCache::encode(R);
        G.Ok = true;
        G.Error.clear();
        G.D = support::Diag();
        if (Cache) {
          Cache->insert(K, G.Entry);
          // Generation bookkeeping for persistent stores: a fresh
          // execution mints an entry against this job's model, so record
          // the (model, key) pair for `cachectl gc --keep-generations`.
          if (Cache->config().Persist)
            recordEntryGeneration(Cache->dir(), fingerprintModel(*J.Model),
                                  K);
        }
        return;
      }
      G.Exceptions += Threw ? 1 : 0;
      G.TimedOut += TimedOut ? 1 : 0;
      G.D = R.D.ok() ? support::Diag::error(support::ErrorCode::Internal,
                                            "executor", R.Error)
                     : R.D;
      if (TimedOut) {
        // The executor reports Cancelled (it only sees the token); the
        // driver knows the cancellation was its own deadline.
        G.D = support::Diag::error(
            support::ErrorCode::JobTimeout, "batch-driver",
            "job exceeded " + std::to_string(L.JobTimeoutSeconds) +
                "s wall clock and was cancelled");
      }
      G.Error = G.D.Message;
      if (!support::isRetryable(G.D.Code))
        return; // deterministic failure: retrying cannot help
    }
  });
  WD.stop();

  for (auto &[K, G] : Groups) {
    (void)K;
    if (G.Attempts > 1)
      Last.Retries += G.Attempts - 1;
    Last.TimedOut += G.TimedOut;
    Last.Exceptions += G.Exceptions;
    for (size_t Rank = 0; Rank < G.Members.size(); ++Rank) {
      TraceJobResult &R = Results[G.Members[Rank]];
      R.Ok = G.Ok;
      R.Attempts = G.Attempts;
      if (!G.Ok) {
        R.Error = G.Error;
        R.D = G.D;
        ++Last.Failed;
        continue;
      }
      R.Entry = G.Entry;
      if (G.FromCache) {
        R.Source = ResultSource::CacheHit;
        ++Last.CacheHits;
      } else if (Rank == 0) {
        R.Source = ResultSource::Fresh;
        ++Last.Fresh;
      } else {
        R.Source = ResultSource::Deduped;
        ++Last.Deduped;
      }
    }
  }
  return Results;
}
