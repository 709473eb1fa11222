#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/algorithm.h"
#include "relation/generator.h"
#include "service/service.h"
#include "spans.h"

namespace ppj::perfbench {

/// One operation of a closed-loop client.
enum class OpKind {
  kJoin,          ///< Fresh serial join.
  kShardJoin,     ///< Fresh join at ExecuteOptions::shards = P.
  kParallelJoin,  ///< Fresh join at ExecuteOptions::parallelism = P.
  kRepeat,        ///< Repeat of a completed fresh join: a reuse-cache hit.
  kResubmit,      ///< Provider write: both relations of one contract.
};

const char* ToString(OpKind kind);
inline bool IsFresh(OpKind kind) {
  return kind == OpKind::kJoin || kind == OpKind::kShardJoin ||
         kind == OpKind::kParallelJoin;
}

/// Everything that defines a workload. Every thread count is a constant
/// here — nothing is derived from the host's core count.
struct WorkloadSpec {
  std::string name;
  core::Algorithm algorithm = core::Algorithm::kAlgorithm5;
  /// Relation shape of every contract (the seed field is ignored: inputs
  /// are derived from the run's --seed).
  relation::EquijoinSpec shape;
  std::uint64_t memory_tuples = 16;
  double epsilon = 1e-20;
  /// Fresh joins alternate shards = scale_out and parallelism = scale_out;
  /// otherwise every fresh join is serial.
  bool alternate_engines = false;
  unsigned scale_out = 4;
  unsigned workers = 1;      ///< SchedulerOptions::workers.
  unsigned outstanding = 1;  ///< Requests the client keeps in flight.
  unsigned tenants = 1;
  unsigned contracts = 1;
  /// Measured mix (multi-contract workloads): the rest are fresh joins.
  double repeat_share = 0;
  double resubmit_share = 0;
  /// Work per run: ops_per_second * --seconds operations, a fixed count.
  unsigned ops_per_second = 10;
  /// Rounds per run, each a fresh set-up followed by an equal slice of the
  /// measured operations; setup_s is the median set-up.
  unsigned setups = 5;
  /// Mix operations after the per-contract fresh joins of a
  /// multi-contract warm-up.
  unsigned warmup_mix_ops = 0;
};

/// Every workload the program runs. BENCHMARK.json gates alg6-scaleout
/// and service-mix; alg5-serial did not repeat on the measuring host
/// (perfbench/README.md#steadiness).
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// One contract's generated inputs plus the plaintext join they must give.
struct Dataset {
  relation::TwoTableWorkload tables;
  /// baseline::HashJoin on the key column, each row serialized, sorted:
  /// the multiset every delivery is compared with.
  std::vector<std::string> expected;
};

Result<std::shared_ptr<const Dataset>> MakeDataset(
    const relation::EquijoinSpec& spec);

/// True when `delivered` equals the dataset's plaintext join as a multiset.
bool MatchesExpected(const Dataset& data,
                     const std::vector<relation::Tuple>& delivered);

/// The outcome of one operation as the client saw it.
struct OpRecord {
  OpKind kind = OpKind::kJoin;
  bool ok = false;      ///< Admitted, succeeded and delivered the right rows.
  bool reused = false;  ///< Served from the reuse cache.
  bool telemetry = false;  ///< Ran with ExecuteOptions::telemetry on.
  double latency_ms = 0;  ///< Submit until Wait returns (both
                          ///< SubmitRelation calls for a resubmit).
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: operations attempted and failed (a failure is an
/// error status, a refusal, or a result that differs from the plaintext
/// join) and its metrics.
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The client-side latency summary of one set of operations.
struct LoopSummary {
  double latency_p50_ms = 0;
  double tail_ms = 0;
  double tail_pct = 0;       ///< The percentile tail_ms reports.
  std::size_t fresh = 0;     ///< Fresh joins behind the percentiles.
  double shard_p50_ms = 0;
  double parallel_p50_ms = 0;
  double reuse_p50_ms = 0;
  double resubmit_p50_ms = 0;
  double requests_per_s = 0;
};

/// Summarizes a run or one round of it: percentiles of the measured fresh
/// joins, medians of every repeat and resubmit (warm-up included), and
/// completed operations per second of the measured loop. On a workload that
/// runs one engine, the shard and parallel p50s are its joins at P = 1,
/// which is the serial plan.
LoopSummary Summarize(const WorkloadSpec& spec,
                      const std::vector<OpRecord>& warmup,
                      const std::vector<OpRecord>& measured, double seconds);

/// Adds the counts of `records` to `outcome`.
void Count(const std::vector<OpRecord>& records, RunOutcome* outcome);

/// Called after each completed request when set: the client-side record,
/// the time the Submit call itself took, the delivery (null on failure)
/// and the ticket's lifecycle record.
using Observer = std::function<void(
    const OpRecord& record, double submit_us,
    const service::JoinDelivery* delivery,
    const std::optional<service::RequestTrace>& lifecycle)>;

/// One set-up of a workload: a service on the mem backend with its parties,
/// contracts and relations, driven by one client thread. Every run of the
/// same spec and seed issues the same operations in the same order.
///
/// A traced workload turns ExecuteOptions::telemetry on for every other
/// request (every other pair when engines alternate), so traced and
/// untraced requests share the machine's conditions; untraced workloads
/// never turn it on.
class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed, bool traced);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the service and runs the warm-up; returns the seconds from
  /// before the service is constructed until the warm-up is done. The
  /// warm-up's operations are appended to `warmup`.
  Result<double> SetUp(std::vector<OpRecord>* warmup,
                       const Observer& observer = {});

  /// Runs `ops` measured operations (fresh joins, alternating engines where
  /// the spec says so, or the seeded mix) and appends them to `out`.
  /// `first` is the run-wide index of the first of them: alternating
  /// engines start with shards on an even index, so a run split into
  /// slices still alternates exactly. Returns the loop's wall time in
  /// seconds.
  double Run(std::size_t ops, std::vector<OpRecord>* out,
             const Observer& observer = {}, std::size_t first = 0);

  service::SovereignJoinService& service() { return *service_; }
  /// The dataset contract `c` currently holds.
  const Dataset& dataset(std::size_t c) const { return *contracts_[c].data; }
  /// Milliseconds the set-up spent in SubmitRelation, per contract.
  double ingest_ms_per_contract() const { return ingest_ms_; }
  /// Records a span around every call into the service (null = none).
  void set_spans(SpanLog* spans) { spans_ = spans; }

 private:
  struct Op {
    OpKind kind = OpKind::kJoin;
    std::size_t contract = 0;
    std::uint64_t copro_seed = 0;
    bool reuse = false;
    bool telemetry = false;
    unsigned shards = 1;
    unsigned parallelism = 1;
  };
  struct ContractState {
    std::string id;
    std::string provider_a;
    std::string provider_b;
    std::shared_ptr<const Dataset> data;
    std::uint64_t version = 0;
  };
  struct Pending {
    Op op;
    service::Ticket ticket;
    std::chrono::steady_clock::time_point start;
    double submit_us = 0;
    std::shared_ptr<const Dataset> data;
    std::uint64_t version = 0;
  };

  relation::EquijoinSpec ShapeFor(std::size_t contract,
                                  std::uint64_t version) const;
  Op FreshOp(std::size_t contract, bool reuse);
  Op MixOp();
  std::optional<Op> RepeatOp() const;
  /// Issues `next()` until it returns nullopt, keeping up to `outstanding`
  /// requests in flight and waiting for them in submission order.
  void RunOps(const std::function<std::optional<Op>()>& next,
              std::size_t outstanding, std::vector<OpRecord>* out,
              const Observer& observer);
  OpRecord Resubmit(std::size_t contract);
  void Submit(Op op, std::deque<Pending>* pending,
              std::vector<OpRecord>* out);
  OpRecord Complete(const Pending& p, const Observer& observer);

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const bool traced_;
  std::uint64_t submitted_ = 0;
  std::mt19937_64 rng_;
  std::uint64_t next_copro_seed_;
  bool next_engine_shards_ = true;
  std::vector<ContractState> contracts_;
  /// Repeats admitted and not yet waited for, per contract.
  std::vector<unsigned> repeats_in_flight_;
  /// The last completed fresh join that filled the reuse cache, and the
  /// contract version it ran on.
  std::optional<std::pair<Op, std::uint64_t>> last_fresh_;
  double ingest_ms_ = 0;
  SpanLog* spans_ = nullptr;
  /// Declared before the service, which publishes into it.
  metrics::Registry registry_;
  std::unique_ptr<service::SovereignJoinService> service_;
};

/// Workload::SetUp, or exit(1) with the error on stderr: a run whose
/// service cannot be set up has nothing to measure.
double SetUpOrExit(Workload& workload, std::vector<OpRecord>* warmup,
                   const Observer& observer = {});

}  // namespace ppj::perfbench

#endif  // PERFBENCH_WORKLOAD_H_
