//===- benchmark/islaris_bench.cpp - The repository benchmark driver ------===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one seeded workload, a fixed amount of work sized from
/// --seconds, and prints one JSON document (correct, attempted, failed, and
/// metrics: every metric's name and value).  benchmark/README.md defines
/// the workloads and the metrics; run.py attaches their units from
/// BENCHMARK.json and metrics.json.
///
///   islaris_bench --workload <name> --seed <n> --seconds <s>
///                 [--trace <file>] [--workdir <dir>] [--expected <file>]
///
/// The driver only calls public library entry points and measures each
/// layer from outside: spans around the calls it makes, and the counters
/// those calls already return (CaseResult/ProofStats, store stats(),
/// DoneInfo, ServerStats).  Every verdict is checked against the oracle in
/// expected/verdicts.tsv; a mismatch is a failed operation and makes the
/// exit code 1.
///
//===----------------------------------------------------------------------===//

#include "cache/BatchDriver.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "models/Models.h"
#include "sail/Parser.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace islaris;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Clock, statistics, seeded randomness.
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

/// Linearly interpolated quantile (numpy's default); 0 without samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// splitmix64.  Every workload input is a function of --seed alone.
struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return size_t(next() % N); }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

//===----------------------------------------------------------------------===//
// Spans.  Every timed call goes through a Span, which always reads the clock
// (untraced and traced runs time identically) and, while tracing is on, keeps
// a record for the Chrome trace file and the per-layer self times.
//===----------------------------------------------------------------------===//

struct SpanRec {
  std::string Name;
  const char *Layer = "";
  uint64_t Id = 0, Parent = 0, Req = 0;
  double T0 = 0, T1 = 0;
  unsigned Tid = 0;
  std::vector<std::pair<const char *, double>> Args;
};

std::atomic<bool> Tracing{false};
std::atomic<uint64_t> NextSpanId{1};
std::atomic<unsigned> NextTid{0};
std::mutex SpansMu;
std::vector<SpanRec> Spans; // guarded by SpansMu
/// Open spans of this thread: (span id, request id).
thread_local std::vector<std::pair<uint64_t, uint64_t>> OpenSpans;
thread_local const unsigned ThreadId = NextTid++;

class Span {
public:
  /// \p Request starts a new request id, shared by the span's children.
  Span(const char *Layer, std::string Name, bool Request = false) {
    if (Tracing.load(std::memory_order_relaxed)) {
      On = true;
      R.Name = std::move(Name);
      R.Layer = Layer;
      R.Id = NextSpanId++;
      R.Parent = OpenSpans.empty() ? 0 : OpenSpans.back().first;
      R.Req = Request ? R.Id : (OpenSpans.empty() ? 0 : OpenSpans.back().second);
      R.Tid = ThreadId;
      OpenSpans.push_back({R.Id, R.Req});
    }
    R.T0 = now();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    close();
    if (On) {
      std::lock_guard<std::mutex> L(SpansMu);
      Spans.push_back(std::move(R));
    }
  }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double close() {
    if (!Closed) {
      Closed = true;
      R.T1 = now();
      if (On)
        OpenSpans.pop_back();
    }
    return R.T1 - R.T0;
  }
  /// Attaches a counter observed at this boundary (kept until destruction,
  /// so it may follow close()).
  void arg(const char *Key, double V) {
    if (On)
      R.Args.push_back({Key, V});
  }
  uint64_t id() const { return R.Id; }

private:
  SpanRec R;
  bool On = false;
  bool Closed = false;
};

/// Makes \p Parent (a span opened on another thread) the parent of the
/// spans this thread opens while the guard lives.
class AdoptParent {
public:
  explicit AdoptParent(uint64_t Parent) : Active(Parent != 0) {
    if (Active)
      OpenSpans.push_back({Parent, 0});
  }
  AdoptParent(const AdoptParent &) = delete;
  AdoptParent &operator=(const AdoptParent &) = delete;
  ~AdoptParent() {
    if (Active)
      OpenSpans.pop_back();
  }

private:
  bool Active;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap each
/// other, so the covered part is the union of their intervals).
std::vector<double> selfTimes() {
  std::map<uint64_t, size_t> Index;
  for (size_t I = 0; I < Spans.size(); ++I)
    Index[Spans[I].Id] = I;
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const SpanRec &S : Spans) {
    auto It = Index.find(S.Parent);
    if (It != Index.end())
      Kids[It->second].push_back({S.T0, S.T1});
  }
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::sort(Kids[I].begin(), Kids[I].end());
    double Covered = 0, End = Spans[I].T0;
    for (auto [B, E] : Kids[I]) {
      B = std::max(B, End);
      E = std::min(E, Spans[I].T1);
      if (E > B) {
        Covered += E - B;
        End = E;
      }
    }
    Self[I] = Spans[I].T1 - Spans[I].T0 - Covered;
  }
  return Self;
}

bool writeChromeTrace(const std::string &Path) {
  std::ofstream OS(Path);
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  I ? "," : "", S.Tid, S.T0 * 1e6, (S.T1 - S.T0) * 1e6);
    OS << Buf << "\"name\":\"" << S.Name << "\",\"cat\":\"" << S.Layer
       << "\",\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent
       << ",\"req\":" << S.Req;
    for (const auto &[K, V] : S.Args)
      OS << ",\"" << K << "\":" << V;
    OS << "}}";
  }
  OS << "\n]}\n";
  return bool(OS);
}

//===----------------------------------------------------------------------===//
// Correctness: every operation is checked; failures are counted, and the
// first few are named on stderr.
//===----------------------------------------------------------------------===//

struct Checks {
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  std::mutex Mu;
  unsigned Reported = 0; // guarded by Mu

  bool expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return true;
    ++Failed;
    std::lock_guard<std::mutex> L(Mu);
    if (Reported++ < 20)
      std::fprintf(stderr, "islaris_bench: FAIL %s\n", What.c_str());
    return false;
  }
} Check;

/// One row of expected/verdicts.tsv: the known verdict and the
/// deterministic counters of one study at one size.
struct Expected {
  bool Verified = false;
  unsigned Asm = 0, Itl = 0, Paths = 0, Entailments = 0;
  uint64_t Queries = 0;
};
std::map<std::string, Expected> Oracle; // key "<study>/<n>"

std::string oracleKey(const std::string &Study, unsigned N) {
  return Study + "/" + std::to_string(N);
}

void loadOracle(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS)
    throw std::runtime_error("cannot read " + Path);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Study, N, Verdict;
    Expected E;
    uint64_t SatCalls = 0; // recorded for reference only; see README
    if (!(LS >> Study >> N >> Verdict >> E.Asm >> E.Itl >> E.Paths >>
          E.Entailments >> E.Queries >> SatCalls))
      throw std::runtime_error("malformed line in " + Path + ": " + Line);
    E.Verified = Verdict == "verified";
    Oracle[oracleKey(Study, N == "-" ? 0 : unsigned(std::stoul(N)))] = E;
  }
  if (Oracle.empty())
    throw std::runtime_error("no rows in " + Path);
}

void checkRow(const frontend::CaseResult &R, const std::string &Study,
              unsigned N) {
  auto It = Oracle.find(oracleKey(Study, N));
  bool Ok = It != Oracle.end() && R.Ok == It->second.Verified &&
            R.AsmInstrs == It->second.Asm && R.ItlEvents == It->second.Itl &&
            R.Proof.PathsVerified == It->second.Paths &&
            R.Proof.Entailments == It->second.Entailments &&
            R.Proof.SolverQueries == It->second.Queries;
  Check.expect(Ok, Study + " n=" + std::to_string(N) +
                       ": verdict or counters differ from the oracle" +
                       (R.Ok ? "" : " (" + R.Error + ")"));
}

//===----------------------------------------------------------------------===//
// The case studies and the per-layer counters read from their rows.
//===----------------------------------------------------------------------===//

struct Study {
  const char *Id;
  unsigned N; ///< Paper size (0 for studies without a size parameter).
  frontend::CaseResult (*Run)(unsigned N);
};

/// The nine Fig. 12 studies in the paper's order, at paper sizes.  Ids are
/// islarisd's study names.
const Study Fig12Studies[] = {
    {"memcpy-arm", 4, [](unsigned N) { return frontend::runMemcpyArm(N); }},
    {"memcpy-rv", 4, [](unsigned N) { return frontend::runMemcpyRv(N); }},
    {"hvc", 0, [](unsigned) { return frontend::runHvc(); }},
    {"pkvm", 0, [](unsigned) { return frontend::runPkvm(); }},
    {"unaligned", 0, [](unsigned) { return frontend::runUnaligned(); }},
    {"uart", 0, [](unsigned) { return frontend::runUart(); }},
    {"rbit", 0, [](unsigned) { return frontend::runRbit(); }},
    {"binsearch-arm", 4,
     [](unsigned N) { return frontend::runBinSearchArm(N); }},
    {"binsearch-rv", 4, [](unsigned N) { return frontend::runBinSearchRv(N); }},
};
constexpr size_t NumStudies = std::size(Fig12Studies);

using Counters = std::map<std::string, double>;

void addRow(Counters &C, const frontend::CaseResult &R) {
  C["isla.s"] += R.IslaSeconds;
  C["isla.traces_executed"] += R.TracesExecuted;
  C["isla.stmts"] += double(R.IslaStmts);
  C["isla.trace_cache_hits"] += R.CacheHits;
  C["seplogic.automation_s"] += R.Proof.automationSeconds();
  C["seplogic.events"] += R.Proof.EventsProcessed;
  C["seplogic.entailments"] += R.Proof.Entailments;
  C["seplogic.paths_verified"] += R.Proof.PathsVerified;
  C["smt.sidecond_s"] += R.Proof.SideCondSeconds;
  C["smt.queries"] += double(R.Proof.SolverQueries);
  C["smt.sat_calls"] += double(R.Proof.SolverSatCalls);
  C["smt.memo_hits"] += double(R.Proof.SolverMemoHits);
  C["smt.store_hits"] += double(R.Proof.SolverStoreHits);
}

void addStores(Counters &C, const cache::CacheStats &T,
               const cache::SideCondStats &S) {
  C["cache.trace.hits"] += double(T.Hits);
  C["cache.trace.disk_hits"] += double(T.DiskHits);
  C["cache.trace.misses"] += double(T.Misses);
  C["cache.trace.insertions"] += double(T.Insertions);
  C["cache.sidecond.hits"] += double(S.Hits);
  C["cache.sidecond.disk_hits"] += double(S.DiskHits);
  C["cache.sidecond.misses"] += double(S.Misses);
  C["cache.sidecond.insertions"] += double(S.Insertions);
  C["cache.sidecond.disk_writes"] += double(S.DiskWrites);
}

/// The side-condition store's hit fraction, with its base (lookups).
void addHitFrac(Counters &C) {
  double Served = C["cache.sidecond.hits"] + C["cache.sidecond.disk_hits"];
  double Lookups = Served + C["cache.sidecond.misses"];
  C["cache.sidecond.lookups"] = Lookups;
  C["cache.sidecond.hit_frac"] = Lookups > 0 ? Served / Lookups : 0;
}

/// Runs one study call under a span, checks it, and adds its counters.
/// Returns the call's latency in milliseconds.
double verdict(const Study &S, unsigned N, Counters &C,
               std::vector<double> &OpMs) {
  Span Sp("frontend", S.Id, /*Request=*/true);
  frontend::CaseResult R;
  try {
    R = S.Run(N);
  } catch (const std::exception &E) {
    R.Ok = false;
    R.Error = std::string("exception: ") + E.what();
  }
  double Ms = Sp.close() * 1e3;
  Sp.arg("n", N);
  Sp.arg("itl_events", R.ItlEvents);
  Sp.arg("smt_queries", double(R.Proof.SolverQueries));
  Sp.arg("sat_calls", double(R.Proof.SolverSatCalls));
  Sp.arg("isla_stmts", double(R.IslaStmts));
  checkRow(R, S.Id, N);
  addRow(C, R);
  OpMs.push_back(Ms);
  return Ms;
}

/// A fresh parse of both ISA models: the work a new process does before its
/// first verdict (models::*Model() caches its parse, so set-up calls the
/// parser directly).
void parseModels() {
  Span S("sail", "model_parse");
  std::string Err;
  if (!sail::parseModel(models::aarch64Source(), Err) ||
      !sail::parseModel(models::rv64Source(), Err))
    throw std::runtime_error("model parse: " + Err);
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// A latency distribution reported as per-layer quantiles.
struct Dist {
  std::vector<double> Ms;
  bool WithP99 = false;
};

/// What one timed phase produced.
struct Phase {
  std::vector<double> PassS;      ///< Wall time of each pass.
  std::vector<double> OpMs;       ///< Latency of each operation.
  std::vector<Counters> PerPass;  ///< Per-layer counts of each pass.
  std::map<std::string, Dist> Dists;
  /// Seconds of load the phase offered (the denominator of op coverage):
  /// the summed pass times, plus the time of any further concurrent
  /// clients.
  double LoadS = 0;
};

template <class F> Phase runPasses(unsigned Count, F Pass) {
  Phase P;
  for (unsigned I = 0; I < Count; ++I) {
    Span S("bench", "pass");
    Pass(P);
    P.PassS.push_back(S.close());
  }
  P.LoadS += std::accumulate(P.PassS.begin(), P.PassS.end(), 0.0);
  return P;
}

/// Run lengths are fixed counts, so a parent and a change do identical work:
/// --seconds times a per-workload rate calibrated so that one timed phase
/// takes about --seconds on a 4-vCPU 2.1 GHz machine.
unsigned countFor(double Seconds, double PerSecond) {
  return unsigned(std::max(1L, std::lround(Seconds * PerSecond)));
}

/// Complete set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 3;

class Workload {
public:
  virtual ~Workload() = default;
  /// One complete set-up: everything between process start and the first
  /// timed operation, warm-up included.  Called several times; the last
  /// one is measured.
  virtual void setup(unsigned Rep) = 0;
  /// One timed phase.
  virtual Phase measure() = 0;
  /// Checks that run after all timed phases.
  virtual void finish() {}
  /// The tail percentile: the highest of p99, p90, p75 with at least ten
  /// samples beyond it at this workload's sample count.
  virtual double tailQuantile() const = 0;
};

//--- fig12_cold / fig12_warm -------------------------------------------------

/// The nine Fig. 12 studies per pass, in a seeded order, sharing a trace
/// cache and a side-condition store.  Cold passes each get fresh empty
/// stores, kept in memory: creating a store file costs 0.03 to 0.4 ms on
/// the shared VM disk, varying from run to run, which made a fifth of a
/// cold pass a measure of the disk.  Warm passes open fresh persistent store
/// instances on a directory filled during set-up (memory cold, disk warm,
/// as in a second process), so the publish path runs in set-up and the
/// read path in every warm pass.
class Fig12 : public Workload {
public:
  Fig12(bool Warm, uint64_t Seed, double Seconds)
      : Warm(Warm), Passes(countFor(Seconds, Warm ? 55 : 1)), R{Seed} {}

  /// Model parse, then (warm) one pass filling a fresh store directory,
  /// then discarded passes: one cold, or 20 warm, since the first warm
  /// passes run about 50% slower than the later ones.
  void setup(unsigned Rep) override {
    parseModels();
    Phase Discard;
    if (Warm) {
      Dir = "warm-" + std::to_string(Rep);
      pass(Dir, Discard);
    }
    for (unsigned I = 0; I < (Warm ? 20u : 1u); ++I)
      pass(Dir, Discard);
  }

  Phase measure() override {
    return runPasses(Passes, [&](Phase &P) { pass(Dir, P); });
  }

  double tailQuantile() const override { return Warm ? 0.99 : 0.90; }

private:
  /// One pass on fresh store instances: persistent under \p D, or in memory
  /// when \p D is empty.
  void pass(const std::string &D, Phase &P) {
    std::vector<size_t> Order(NumStudies);
    std::iota(Order.begin(), Order.end(), 0);
    R.shuffle(Order);
    Counters C;
    std::optional<cache::TraceCache> TC;
    std::optional<cache::SideCondStore> SC;
    {
      Span S("cache", "store_open");
      cache::TraceCacheConfig TCfg;
      cache::SideCondConfig SCfg;
      if (!D.empty()) {
        TCfg.Persist = SCfg.Persist = true;
        TCfg.Dir = D;
        SCfg.Dir = D + "/sidecond";
      }
      TC.emplace(TCfg);
      SC.emplace(SCfg);
      C["cache.store_open_ms"] = S.close() * 1e3;
    }
    cache::setAmbientTraceCache(&*TC);
    cache::setAmbientSideCondCache(&*SC);
    for (size_t I : Order) {
      const Study &S = Fig12Studies[I];
      double Ms = verdict(S, S.N, C, P.OpMs);
      P.Dists[std::string("frontend.study_ms.") + S.Id].Ms.push_back(Ms);
    }
    cache::setAmbientTraceCache(nullptr);
    cache::setAmbientSideCondCache(nullptr);
    addStores(C, TC->stats(), SC->stats());
    addHitFrac(C);
    P.PerPass.push_back(std::move(C));
  }

  bool Warm;
  unsigned Passes;
  Rng R;
  std::string Dir; ///< The warm store directory; empty when cold.
};

//--- verify_scaled ------------------------------------------------------------

/// Passes of 10 uncached, storeless verdicts on scaled inputs: per
/// architecture the binary search at N = 5, 6 and 7, and memcpy at
/// N = 4 + k and 16 - k, with k in 0..6 drawn from the seed.  Every pass
/// runs the same verdicts in a seeded order, so the fastest pass is a
/// floor of one amount of work.  The two memcpy sizes sum to 20 on every
/// seed (cost grows with N), which keeps a pass's work nearly independent
/// of the seed.
class Scaled : public Workload {
public:
  Scaled(uint64_t Seed, double Seconds)
      : Passes(countFor(Seconds, 0.25)), R{Seed} {
    for (bool Arm : {true, false}) {
      const Study *S = &find(Arm ? "binsearch-arm" : "binsearch-rv");
      for (unsigned N : {5u, 6u, 7u})
        Jobs.push_back({S, N});
      S = &find(Arm ? "memcpy-arm" : "memcpy-rv");
      unsigned K = unsigned(R.below(7));
      Jobs.push_back({S, 4 + K});
      Jobs.push_back({S, 16 - K});
    }
  }

  /// Model parse, then one discarded verdict of each scaled study at its
  /// paper size.
  void setup(unsigned) override {
    parseModels();
    Counters Discard;
    std::vector<double> DiscardMs;
    for (const char *Id :
         {"binsearch-arm", "binsearch-rv", "memcpy-arm", "memcpy-rv"})
      verdict(find(Id), find(Id).N, Discard, DiscardMs);
  }

  Phase measure() override {
    return runPasses(Passes, [&](Phase &P) {
      Counters C;
      R.shuffle(Jobs);
      for (const auto &[S, N] : Jobs)
        verdict(*S, N, C, P.OpMs);
      P.PerPass.push_back(std::move(C));
    });
  }

  double tailQuantile() const override { return 0.75; }

private:
  static const Study &find(const char *Id) {
    for (const Study &S : Fig12Studies)
      if (std::string(S.Id) == Id)
        return S;
    throw std::logic_error(Id);
  }

  unsigned Passes;
  Rng R;
  std::vector<std::pair<const Study *, unsigned>> Jobs;
};

//--- daemon_mixed -------------------------------------------------------------

/// One pass is one lifetime of an in-process islarisd with its default
/// scheduling (2 workers, Unix socket), serving the traffic that the
/// repository's own islarisd callers send, in their order:
///
///  1. bench_server's cold phase: 48 distinct keys, each a 64-path symbolic
///     add/sub, requested serially on one connection.  Each is executed and
///     its side conditions solved and published to the store.
///  2. The CI server-smoke job's first `islaris-cli study suite`: the nine
///     studies, cold, on the same connection.
///  3. bench_server's warm phase: 480 serial re-reads of the keys.
///  4. server-smoke's second suite request, now served from resident state.
///  5. bench_server's fleet phase: 2000 reads of the keys from concurrent
///     connections; 3 here where bench_server uses 8, since the benchmark
///     runs at most 3 load threads on its 4-vCPU machine.
///
/// A fresh daemon per pass gives every pass the same work, and keeps the
/// in-memory side-condition store far below SideCondConfig::MaxEntries (a
/// full store silently stops inserting), so every fresh key's publishes
/// land.  The stores stay in memory: as files, the publishes made the
/// latency tail follow the shared disk's write-back (fresh requests ranged
/// from 25 to 79 ms).  On-disk publishing is timed by fig12_warm's set-up.
class Daemon : public Workload {
public:
  static constexpr unsigned Keys = 48, WarmReads = 480, FleetReads = 2000;
  static constexpr unsigned FleetClients = 3;

  Daemon(uint64_t Seed, double Seconds)
      : Seed(Seed), Passes(countFor(Seconds, 0.5)), R{Seed} {}

  /// Model parse, then one discarded pass.
  void setup(unsigned) override {
    parseModels();
    Phase Discard;
    pass(Discard);
  }

  Phase measure() override {
    return runPasses(Passes, [&](Phase &P) { pass(P); });
  }

  /// A seeded sample of 16 fresh replies must equal a direct in-process
  /// BatchDriver run of the same job, byte for byte (compared by checksum).
  void finish() override {
    std::vector<std::pair<unsigned, uint64_t>> Sample = FreshReplies;
    Rng RS{Seed ^ 0x5eedull};
    RS.shuffle(Sample);
    Sample.resize(std::min<size_t>(Sample.size(), 16));
    if (!Check.expect(!Sample.empty(), "no fresh reply to check"))
      return;
    Span Sp("cache", "direct_batch");
    std::vector<server::TraceRequest> Reqs;
    for (const auto &[Key, Hash] : Sample)
      Reqs.push_back(traceFor(Key));
    isla::Assumptions Assume;
    for (const server::TraceRequest::Assume &A : Reqs.front().Assumes)
      Assume.assume(itl::Reg(A.Base, A.Field), BitVec(A.Width, A.Value));
    std::vector<cache::TraceJob> Jobs;
    for (const server::TraceRequest &T : Reqs) {
      cache::TraceJob J;
      J.Model = &models::aarch64Model();
      J.ArchName = T.Arch;
      J.Op = isla::OpcodeSpec{BitVec(32, T.Opcode), BitVec(32, T.SymMask)};
      J.Assume = &Assume;
      J.Opts.CacheRegReads = T.CacheRegReads;
      J.Opts.SinksOnly = T.SinksOnly;
      J.Opts.MaxPaths = T.MaxPaths;
      Jobs.push_back(J);
    }
    cache::TraceCache Local; // in memory, throwaway
    cache::BatchDriver BD(1);
    std::vector<cache::TraceJobResult> Res = BD.run(Jobs, &Local);
    for (size_t I = 0; I < Sample.size(); ++I)
      Check.expect(Res[I].Ok &&
                       cache::fnv1a64(cache::TraceCache::serializeEntry(
                           Res[I].Key, Res[I].Entry)) == Sample[I].second,
                   "fresh key " + std::to_string(Sample[I].first) +
                       ": daemon reply differs from a direct BatchDriver run");
  }

  double tailQuantile() const override { return 0.99; }

private:
  enum Kind : uint8_t { Fresh, Warm, SuiteCold, SuiteWarm };
  static constexpr const char *KindName[] = {"fresh_trace", "warm_trace",
                                             "suite_cold", "suite_warm"};
  struct Done {
    double Ms, SideMs;
    Kind K;
  };

  /// Key space: add/sub x<rd>, x<rn>, #imm{, lsl #12}, so 2 x 2 x 4096
  /// distinct executions of equal cost.
  static server::TraceRequest traceFor(unsigned Key) {
    server::TraceRequest T;
    T.Arch = "aarch64";
    T.Opcode = ((Key >> 13) & 1 ? 0xd10003e0u : 0x910003e0u) |
               (((Key >> 12) & 1u) << 22) | ((Key & 0xfffu) << 10);
    T.SymMask = 0x3fu; // rd and the low rn bit: 64 paths
    T.Assumes.push_back({"PSTATE", "EL", 2, 2});
    T.Assumes.push_back({"PSTATE", "SP", 1, 1});
    return T;
  }

  /// \p N key indices: seeded permutations of all keys, back to back, so
  /// every key is read equally often (to within one).
  std::vector<unsigned> readOrder(unsigned N) {
    std::vector<unsigned> Out, Perm(Keys);
    while (Out.size() < N) {
      std::iota(Perm.begin(), Perm.end(), 0u);
      R.shuffle(Perm);
      Out.insert(Out.end(), Perm.begin(), Perm.end());
    }
    Out.resize(N);
    return Out;
  }

  /// One trace request.  A fresh reply's text is stored in \p Text; a warm
  /// reply must be byte-identical to it.  A warm read that arrives while
  /// another connection's read of the same key is queued is attached to it
  /// and answered as "dedup".
  void trace(server::Client &Cl, unsigned Key, Kind K, std::string &Text,
             std::vector<Done> &Out) {
    Span Sp("server", KindName[K], /*Request=*/true);
    server::Client::TraceResult T;
    std::string Err;
    bool Ok = Cl.runTrace(traceFor(Key), T, Err) && T.Ok &&
              (K == Fresh ? T.Done.Source == "fresh"
                          : T.Done.Source == "warm" || T.Done.Source == "dedup");
    double Ms = Sp.close() * 1e3;
    if (K == Fresh)
      Text = T.EntryText;
    else
      Ok = Ok && T.EntryText == Text;
    Sp.arg("side_ms", T.Done.Seconds * 1e3);
    Out.push_back({Ms, T.Done.Seconds * 1e3, K});
    Check.expect(Ok, std::string(KindName[K]) + " request for key " +
                         std::to_string(Key) + " " + Err);
  }

  /// One suite request; its rows are checked like fig12 rows.
  void suite(server::Client &Cl, Kind K, Counters &C,
             std::vector<Done> &Out) {
    Span Sp("server", KindName[K], /*Request=*/true);
    server::Client::StudyResult SR;
    std::string Err;
    bool Ok = Cl.runStudy("suite", SR, Err) && SR.Rows.size() == NumStudies;
    Out.push_back({Sp.close() * 1e3, SR.Done.Seconds * 1e3, K});
    Sp.arg("side_ms", SR.Done.Seconds * 1e3);
    if (!Check.expect(Ok, std::string(KindName[K]) + " request: " + Err))
      return;
    for (size_t I = 0; I < NumStudies; ++I) {
      checkRow(SR.Rows[I], Fig12Studies[I].Id, Fig12Studies[I].N);
      addRow(C, SR.Rows[I]);
    }
  }

  void pass(Phase &P) {
    std::vector<unsigned> Key;
    while (Key.size() < Keys) {
      unsigned K = unsigned(R.below(1u << 14));
      if (std::find(Key.begin(), Key.end(), K) == Key.end())
        Key.push_back(K);
    }
    std::vector<unsigned> WarmOrder = readOrder(WarmReads);
    std::vector<unsigned> FleetOrder = readOrder(FleetReads);

    server::ServerConfig Cfg;
    // Relative to the run directory: sun_path holds only ~107 bytes.
    Cfg.SocketPath = "./daemon.sock";
    Cfg.Persist = false;
    server::Server S(Cfg);
    std::string Err;
    {
      Span Sp("server", "start");
      if (!S.start(Err))
        throw std::runtime_error("server start: " + Err);
    }

    Counters C;
    std::vector<std::string> Reply(Keys);
    std::vector<std::vector<Done>> Per(FleetClients);
    double ColdPublishes = 0;
    {
      server::Client Cl;
      if (!Cl.connect(Cfg.SocketPath, Err))
        throw std::runtime_error("connect: " + Err);
      for (unsigned I = 0; I < Keys; ++I)
        trace(Cl, Key[I], Fresh, Reply[I], Per[0]);
      // Every side-condition miss is solved and published with store().
      ColdPublishes = double(S.sideCondStore()->stats().Misses);
      suite(Cl, SuiteCold, C, Per[0]);
      for (unsigned I : WarmOrder)
        trace(Cl, Key[I], Warm, Reply[I], Per[0]);
      suite(Cl, SuiteWarm, C, Per[0]);
    }
    double FleetFrom = now();
    {
      Span Sp("bench", "fleet");
      std::atomic<size_t> Next{0};
      std::vector<std::thread> Ts;
      for (unsigned T = 0; T < FleetClients; ++T)
        Ts.emplace_back([&, T, Parent = Sp.id()] {
          AdoptParent A(Parent);
          server::Client Cl;
          std::string E;
          bool Connected = Cl.connect(Cfg.SocketPath, E);
          if (!Check.expect(Connected, "connect: " + E))
            return;
          for (size_t I = Next++; I < FleetOrder.size(); I = Next++)
            trace(Cl, Key[FleetOrder[I]], Warm, Reply[FleetOrder[I]], Per[T]);
        });
      for (std::thread &T : Ts)
        T.join();
    }
    double FleetEnd = now();

    server::ServerStats St = S.stats();
    C["server.executed"] = double(St.Executed);
    C["server.warm_hits"] = double(St.WarmHits);
    C["server.dedup_fanout"] = double(St.DedupFanout);
    C["server.shed"] = double(St.Shed);
    C["server.sidecond_publishes_per_fresh"] = ColdPublishes / Keys;
    addStores(C, S.traceCache()->stats(), S.sideCondStore()->stats());
    addHitFrac(C);
    {
      Span Sp("server", "stop");
      S.requestShutdown();
      S.wait();
    }
    // Return what the lifetime's threads freed to the system, as the exit
    // of a daemon process would.  Otherwise glibc keeps it in per-thread
    // arenas that later passes' new threads may or may not reuse, and
    // peak_rss_mb varied from 68 to 103 MB with thread timing.
    ::malloc_trim(0);

    for (unsigned I = 0; I < Keys; ++I)
      FreshReplies.push_back({Key[I], cache::fnv1a64(Reply[I])});
    for (const std::vector<Done> &V : Per)
      for (const Done &D : V) {
        P.OpMs.push_back(D.Ms);
        std::string K = KindName[D.K];
        P.Dists["server.req_ms." + K].Ms.push_back(D.Ms);
        P.Dists["server.side_ms." + K].Ms.push_back(D.SideMs);
        P.Dists["server.wire_ms"].Ms.push_back(D.Ms - D.SideMs);
      }
    P.Dists["server.req_ms.warm_trace"].WithP99 = true;
    // The pass time counts one connection; the fleet phase offers three.
    P.LoadS += (FleetEnd - FleetFrom) * (FleetClients - 1);
    P.PerPass.push_back(std::move(C));
  }

  uint64_t Seed;
  unsigned Passes;
  Rng R;
  /// (key, checksum of the daemon's reply) of every fresh request.
  std::vector<std::pair<unsigned, uint64_t>> FreshReplies;
};

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof Buf, V);
  return std::string(Buf, Ec == std::errc() ? End : Buf);
}

/// Per-layer metrics of one phase: the median over passes of each count,
/// and the quantiles of each latency distribution.
std::map<std::string, double> layerMetrics(const Phase &P) {
  std::map<std::string, double> M;
  std::map<std::string, std::vector<double>> ByKey;
  for (const Counters &C : P.PerPass)
    for (const auto &[K, V] : C)
      ByKey[K].push_back(V);
  for (const auto &[K, V] : ByKey)
    M[K] = median(V);
  for (const auto &[K, D] : P.Dists) {
    M[K + ".p50"] = median(D.Ms);
    if (D.WithP99)
      M[K + ".p99"] = quantile(D.Ms, 0.99);
  }
  return M;
}

/// Trace-derived metrics: per-layer share of self time over every recorded
/// span, and how much of the traced phase's load the operation spans cover.
void traceMetrics(std::map<std::string, double> &M, const Phase &Traced,
                  double TracedFrom) {
  std::vector<double> Self = selfTimes();
  std::map<std::string, double> ByLayer;
  double Total = 0, OpSelf = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    ByLayer[Spans[I].Layer] += Self[I];
    Total += Self[I];
    if (Spans[I].Req == Spans[I].Id && Spans[I].T0 >= TracedFrom)
      OpSelf += Self[I];
  }
  for (const char *L : {"bench", "sail", "cache", "frontend", "server"}) {
    auto It = ByLayer.find(L);
    double S = It == ByLayer.end() ? 0 : It->second;
    if (It != ByLayer.end()) // a time only where the layer has spans
      M[std::string("trace.self_s.") + L] = S;
    M[std::string("trace.self_frac.") + L] = Total > 0 ? S / Total : 0;
  }
  M["trace.op_cover_frac"] = Traced.LoadS > 0 ? OpSelf / Traced.LoadS : 0;
}

/// Waits until the file system holding \p Dir has written back its dirty
/// data, so a timed phase does not pay for write-back of earlier files
/// (set-up stores, or a previous run's deleted run directory).
void settleDisk(const fs::path &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       double Seconds) {
  if (Name == "fig12_cold")
    return std::make_unique<Fig12>(/*Warm=*/false, Seed, Seconds);
  if (Name == "fig12_warm")
    return std::make_unique<Fig12>(/*Warm=*/true, Seed, Seconds);
  if (Name == "verify_scaled")
    return std::make_unique<Scaled>(Seed, Seconds);
  if (Name == "daemon_mixed")
    return std::make_unique<Daemon>(Seed, Seconds);
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: islaris_bench --workload <fig12_cold|fig12_warm|"
               "verify_scaled|daemon_mixed> --seed <n> --seconds <s>\n"
               "                     [--trace <file>] [--workdir <dir>] "
               "[--expected <file>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TracePath, WorkDir = ".",
                                       ExpectedPath =
                                           "benchmark/expected/verdicts.tsv";
  uint64_t Seed = 0;
  double Seconds = 0;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string A = Argv[I], V = Argv[I + 1];
    if (A == "--workload")
      WorkloadName = V;
    else if (A == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10), HaveSeed = true;
    else if (A == "--seconds")
      Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      TracePath = V;
    else if (A == "--workdir")
      WorkDir = V;
    else if (A == "--expected")
      ExpectedPath = V;
    else
      return usage();
  }
  if (Argc % 2 != 1 || !HaveSeed || Seconds <= 0)
    return usage();
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName, Seed, Seconds);
  if (!W)
    return usage();

  // Throwaway stores: durability syncs would measure the shared disk, not
  // the program.  Fault injection and cache-location overrides from the
  // environment must not leak into a measurement.
  ::setenv("ISLARIS_NO_FSYNC", "1", 1);
  ::unsetenv("ISLARIS_FAULTS");
  ::unsetenv("ISLARIS_FAULT_SEED");
  ::unsetenv("ISLARIS_CACHE_DIR");

  fs::path Home = fs::current_path();
  fs::path Root;
  std::map<std::string, double> M;
  std::string Report;
  int Exit = 0;
  try {
    loadOracle(ExpectedPath);
    if (!TracePath.empty())
      TracePath = fs::absolute(TracePath).string();
    fs::create_directories(WorkDir);
    std::string Tmpl = (fs::absolute(WorkDir) / "islaris-bench-XXXXXX").string();
    if (!::mkdtemp(Tmpl.data()))
      throw std::runtime_error("cannot create a run directory in " + WorkDir);
    Root = Tmpl;
    fs::current_path(Root); // stores and the daemon socket live here

    double ParseMs;
    {
      Span S("sail", "first_model_load");
      models::aarch64Model();
      models::rv64Model();
      ParseMs = S.close() * 1e3;
    }

    bool Trace = !TracePath.empty();
    std::vector<double> SetupS;
    settleDisk(Root);
    Tracing = Trace;
    for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
      Span S("bench", "setup");
      W->setup(Rep);
      SetupS.push_back(S.close());
    }
    Tracing = false;
    settleDisk(Root);
    Phase E = W->measure();
    Phase T;
    double TracedFrom = 0;
    if (Trace) {
      Tracing = true;
      TracedFrom = now();
      Span S("bench", "workload");
      settleDisk(Root);
      T = W->measure();
      S.close();
      Tracing = false;
    }
    W->finish();
    double TailQ = W->tailQuantile();

    bool TraceOk = true;
    if (Trace) {
      traceMetrics(M, T, TracedFrom);
      M["trace.overhead_frac"] = median(T.PassS) / median(E.PassS) - 1;
      TraceOk = Check.expect(writeChromeTrace(TracePath),
                             "cannot write " + TracePath);
    }
    const Phase &Layers = Trace ? T : E;
    for (const auto &[K, V] : layerMetrics(Layers))
      M[K] = V;
    M["latency_ms.tail"] = quantile(Layers.OpMs, TailQ);
    struct rusage RU;
    ::getrusage(RUSAGE_SELF, &RU);
    M["sail.model_parse_ms"] = ParseMs;
    M["setup_s"] = median(SetupS);
    // Interference from the rest of the machine only ever adds time, in
    // bursts shorter than a run, so the fastest of the run's identical
    // passes is the steadiest measure of the work's own cost.
    M["pass_s.best"] = *std::min_element(E.PassS.begin(), E.PassS.end());
    M["pass_s.p50"] = median(E.PassS);
    M["latency_ms.p50"] = median(E.OpMs);
    M["peak_rss_mb"] = double(RU.ru_maxrss) / 1024.0;
    M["op_count"] = double(E.OpMs.size());
    M["pass_count"] = double(E.PassS.size());
    M["tail_quantile"] = TailQ;

    uint64_t Attempted = Check.Attempted, Failed = Check.Failed;
    M["fail_frac"] = Attempted ? double(Failed) / double(Attempted) : 0;
    std::ostringstream J;
    J << "{\"correct\":" << (Failed == 0 && TraceOk ? "true" : "false")
      << ",\"attempted\":" << Attempted << ",\"failed\":" << Failed
      << ",\"metrics\":{";
    bool First = true;
    for (const auto &[K, V] : M) {
      J << (First ? "" : ",") << "\"" << K << "\":" << num(V);
      First = false;
    }
    J << "}}";
    Report = J.str();
    Exit = Failed == 0 && TraceOk ? 0 : 1;
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "islaris_bench: %s\n", Ex.what());
    Exit = 2;
  }
  W.reset();
  std::error_code EC;
  fs::current_path(Home, EC);
  if (!Root.empty())
    fs::remove_all(Root, EC);
  settleDisk(Home);
  if (!Report.empty())
    std::printf("%s\n", Report.c_str());
  return Exit;
}
