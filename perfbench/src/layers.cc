#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "core/join_result.h"
#include "core/parallel.h"
#include "crypto/key.h"
#include "crypto/ocb.h"
#include "plan/builder.h"
#include "plan/context.h"
#include "plan/executor.h"
#include "plan/sharded.h"
#include "relation/encrypted_relation.h"
#include "sim/coprocessor.h"
#include "sim/host_store.h"
#include "sim/sharded_store.h"
#include "spans.h"
#include "stats.h"

namespace ppj::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double PerJoin(double total, std::size_t joins) {
  return joins == 0 ? 0 : total / static_cast<double>(joins);
}

/// Times `body` `reps` times and returns the median duration in ms.
template <typename Body>
double MedianMs(int reps, Body body) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    ms.push_back(Ms(Clock::now() - start));
  }
  return Median(ms);
}

// --- The program's span tree --------------------------------------------

/// The plan operators whose self time plan.op_ms.<op> reports.
constexpr std::array<std::string_view, 8> kPlanOps = {
    "scan",     "screen",   "epsilon-partition", "filter", "shard-screen",
    "shard-segment-emit", "exchange", "output"};

bool IsPlanOp(std::string_view name) {
  return std::find(kPlanOps.begin(), kPlanOps.end(), name) != kPlanOps.end();
}

/// Wall time of the nearest plan-operator spans below `node`.
std::uint64_t NestedOpWall(const telemetry::SpanNode& node) {
  std::uint64_t ns = 0;
  for (const auto& child : node.children) {
    ns += IsPlanOp(child->name) ? child->wall_ns : NestedOpWall(*child);
  }
  return ns;
}

/// Wall time of the outermost spans with a coprocessor bound: the time
/// devices were busy, summed over every shard and worker.
std::uint64_t DeviceWall(const telemetry::SpanNode& node) {
  if (node.has_metrics) return node.wall_ns;
  std::uint64_t ns = 0;
  for (const auto& child : node.children) ns += DeviceWall(*child);
  return ns;
}

const telemetry::SpanNode* FindDescendant(const telemetry::SpanNode& node,
                                          std::string_view name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
    if (const auto* found = FindDescendant(*child, name)) return found;
  }
  return nullptr;
}

/// Per-request figures taken from the program's own span trees, summed
/// over every fresh join of the traced loop.
struct TreeTotals {
  std::size_t joins = 0;
  std::size_t sharded = 0;
  std::size_t parallel = 0;
  std::map<std::string, double, std::less<>> op_ms;
  double device_ms = 0;
  double lead_ms = 0;
  double worker_max_ms = 0;
  double shard_wait_ms = 0;
  double parallel_ms = 0;
  double sort_ms = 0;
  double filter_ms = 0;
  std::uint64_t sort_transfers = 0;

  void Visit(const telemetry::SpanNode& node) {
    if (IsPlanOp(node.name)) {
      op_ms[node.name] += NsToMs(node.wall_ns - NestedOpWall(node));
    }
    if (node.name.starts_with("parallel-algorithm")) {
      ++parallel;
      parallel_ms += NsToMs(node.wall_ns);
    }
    if (node.name == "windowed-filter" || node.name == "parallel-filter") {
      filter_ms += NsToMs(node.wall_ns);
    }
    if (node.name == "bitonic-sort" || node.name.starts_with("sort-worker-")) {
      sort_ms += NsToMs(node.wall_ns);
      sort_transfers += telemetry::InclusiveMetrics(node).TupleTransfers();
    }
    for (const auto& child : node.children) Visit(*child);
  }

  void Add(const telemetry::SpanNode& root) {
    const telemetry::SpanNode* join = root.Find("execute-join");
    if (join == nullptr) return;
    ++joins;
    device_ms += NsToMs(DeviceWall(*join));
    Visit(*join);
    if (join->Find("shard-0") != nullptr) {
      // The lead screens alone while the worker shards wait in
      // shard-screen with zero transfers.
      ++sharded;
      double worker_max = 0, wait = 0;
      std::size_t workers = 0;
      for (const auto& shard : join->children) {
        if (shard->name == "shard-0") {
          lead_ms += NsToMs(shard->wall_ns);
          continue;
        }
        ++workers;
        worker_max = std::max(worker_max, NsToMs(shard->wall_ns));
        const auto* screen = FindDescendant(*shard, "shard-screen");
        if (screen != nullptr && screen->metrics.TupleTransfers() == 0) {
          wait += NsToMs(screen->wall_ns);
        }
      }
      worker_max_ms += worker_max;
      shard_wait_ms += workers == 0 ? 0 : wait / static_cast<double>(workers);
    }
  }
};

/// Service-layer figures from the client and the lifecycle records of the
/// measured requests that ran with telemetry on.
struct ServiceTotals {
  /// During the warm-up only repeats and sharded joins are counted.
  bool warmup = true;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_join_ms;
  std::vector<double> exec_repeat_ms;
  std::vector<double> outside_plan_ms;
  std::size_t repeats = 0;
  std::size_t hits = 0;
  std::size_t shard_joins = 0;
  std::size_t fresh = 0;
  sim::TransferMetrics fresh_metrics;
  TreeTotals tree;

  void Observe(const OpRecord& rec, double submit_us,
               const service::JoinDelivery* delivery,
               const std::optional<service::RequestTrace>& lifecycle) {
    if (rec.ok && rec.kind == OpKind::kShardJoin) ++shard_joins;
    if (rec.kind == OpKind::kRepeat) {
      ++repeats;
      if (rec.reused) ++hits;
      if (lifecycle) {
        exec_repeat_ms.push_back(NsToMs(lifecycle->execution_ns()));
      }
    }
    if (warmup || !rec.telemetry) return;
    this->submit_us.push_back(submit_us);
    if (lifecycle) queue_wait_ms.push_back(NsToMs(lifecycle->queue_wait_ns()));
    if (!rec.ok || delivery == nullptr || !IsFresh(rec.kind)) return;
    ++fresh;
    fresh_metrics += delivery->metrics;
    if (lifecycle) exec_join_ms.push_back(NsToMs(lifecycle->execution_ns()));
    if (delivery->telemetry == nullptr) return;
    tree.Add(*delivery->telemetry);
    const telemetry::SpanNode* join = delivery->telemetry->Find("execute-join");
    if (join != nullptr && lifecycle) {
      // Device set-up, plan build, decode and cache insert: execution
      // outside the plan's root span.
      outside_plan_ms.push_back(NsToMs(lifecycle->execution_ns()) -
                                NsToMs(join->wall_ns));
    }
  }
};

// --- Unit costs of the layer primitives ---------------------------------

struct UnitCosts {
  double ocb_open_ns = 0;
  double ocb_seal_ns = 0;
  double staged_open_ns = 0;
  double decode_ns = 0;
  double predicate_ns = 0;
  double seal_ms = 0;
  /// Primitive calls that failed or gave a wrong answer; any makes the
  /// unit costs invalid.
  std::uint64_t failures = 0;
};

crypto::Block Nonce(std::uint64_t counter) {
  crypto::Block nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
  }
  return nonce;
}

/// Times each primitive on the workload's shapes: the input slot size, the
/// gather size (M slots per batched transfer), the relations themselves.
UnitCosts MeasureUnitCosts(const WorkloadSpec& spec, const Dataset& data,
                           SpanLog* spans) {
  constexpr int kRounds = 5;
  const relation::Relation& a = *data.tables.a;
  const relation::Relation& b = *data.tables.b;
  const crypto::Ocb key(crypto::DeriveKey(7, "perfbench-unit"));
  UnitCosts u;

  {
    SpanLog::Scope span(spans, "crypto.Ocb");
    const std::size_t plain_size =
        relation::wire::PlainSize(a.schema().tuple_size());
    const std::size_t sealed_size = plain_size + crypto::Ocb::kTagSize;
    constexpr std::size_t kMessages = 256;
    constexpr int kCalls = 20000;
    std::vector<std::uint8_t> plain(plain_size, 0x5a);
    std::vector<std::uint8_t> sealed(kMessages * sealed_size);
    std::vector<std::uint8_t> opened(plain_size);
    for (std::size_t m = 0; m < kMessages; ++m) {
      key.EncryptInto(Nonce(m), plain.data(), plain_size,
                      sealed.data() + m * sealed_size);
    }
    u.ocb_seal_ns = MedianMs(kRounds, [&] {
      std::vector<std::uint8_t> out(sealed_size);
      for (int i = 0; i < kCalls; ++i) {
        key.EncryptInto(Nonce(i), plain.data(), plain_size, out.data());
      }
    }) * 1e6 / kCalls;
    u.ocb_open_ns = MedianMs(kRounds, [&] {
      for (int i = 0; i < kCalls; ++i) {
        const std::size_t m = static_cast<std::size_t>(i) % kMessages;
        if (!key.DecryptInto(Nonce(m), sealed.data() + m * sealed_size,
                             sealed_size, opened.data())
                 .ok()) {
          ++u.failures;
        }
      }
    }) * 1e6 / kCalls;
  }

  {
    // GetOpenRange + NextOpen: staging, position check, OCB open and the
    // per-slot accounting, as a scan's batched read runs them.
    SpanLog::Scope span(spans, "sim.GetOpenRange");
    sim::HostStore host;
    Result<relation::EncryptedRelation> sealed =
        relation::EncryptedRelation::Seal(&host, a, &key);
    if (!sealed.ok()) {
      ++u.failures;
    } else {
      sim::CoprocessorOptions copts;
      copts.memory_tuples = spec.memory_tuples;
      sim::Coprocessor copro(&host, copts);
      const std::uint64_t slots = sealed->padded_size();
      const std::uint64_t gather =
          std::min<std::uint64_t>(spec.memory_tuples, slots);
      const std::uint64_t passes = std::max<std::uint64_t>(1, 20000 / slots);
      u.staged_open_ns = MedianMs(kRounds, [&] {
        for (std::uint64_t p = 0; p < passes; ++p) {
          for (std::uint64_t first = 0; first < slots; first += gather) {
            const std::uint64_t count = std::min(gather, slots - first);
            Result<sim::ReadRun> run =
                copro.GetOpenRange(sealed->region(), first, count, &key);
            if (!run.ok()) {
              ++u.failures;
              return;
            }
            for (std::uint64_t j = 0; j < count; ++j) {
              if (!run->NextOpen().ok()) ++u.failures;
            }
          }
        }
      }) * 1e6 / static_cast<double>(passes * slots);
    }
  }

  {
    SpanLog::Scope span(spans, "relation.Tuple::DeserializeInto");
    std::vector<std::vector<std::uint8_t>> bytes;
    for (const relation::Tuple& t : a.tuples()) bytes.push_back(t.Serialize());
    const std::size_t passes = std::max<std::size_t>(1, 20000 / bytes.size());
    relation::Tuple out;
    u.decode_ns = MedianMs(kRounds, [&] {
      for (std::size_t p = 0; p < passes; ++p) {
        for (const auto& row : bytes) {
          if (!relation::Tuple::DeserializeInto(a.schema_ptr(), row, &out)
                   .ok()) {
            ++u.failures;
          }
        }
      }
    }) * 1e6 / static_cast<double>(passes * bytes.size());
  }

  {
    SpanLog::Scope span(spans, "relation.PairPredicate::Match");
    const relation::PairPredicate& pred = *data.tables.predicate;
    const std::size_t pairs = a.size() * b.size();
    const std::size_t passes = std::max<std::size_t>(1, 100000 / pairs);
    u.predicate_ns = MedianMs(kRounds, [&] {
      std::size_t matches = 0;
      for (std::size_t p = 0; p < passes; ++p) {
        for (const relation::Tuple& ta : a.tuples()) {
          for (const relation::Tuple& tb : b.tuples()) {
            matches += pred.Match(ta, tb) ? 1 : 0;
          }
        }
      }
      if (matches != passes * data.expected.size()) ++u.failures;
    }) * 1e6 / static_cast<double>(passes * pairs);
  }

  {
    SpanLog::Scope span(spans, "relation.EncryptedRelation::Seal");
    u.seal_ms = MedianMs(9, [&] {
      sim::HostStore host;
      if (!relation::EncryptedRelation::Seal(&host, a, &key).ok() ||
          !relation::EncryptedRelation::Seal(&host, b, &key).ok()) {
        ++u.failures;
      }
    });
  }
  return u;
}

// --- The request stages, driven directly --------------------------------

struct StageTimes {
  double build_us = 0;
  double replicate_ms = 0;
  double decode_ms = 0;
  bool ok = true;
};

StageTimes Failed() {
  StageTimes t;
  t.ok = false;
  return t;
}

/// Runs one request of `kind` through its stages without the service —
/// Seal or ReplicateSealed, the plan build, PlanExecutor::Run or
/// RunShardedJoin or RunParallelPlan, then DecodeJoinOutput — and checks
/// the decoded rows against the plaintext join.
StageTimes DriveStages(const WorkloadSpec& spec, const Dataset& data,
                       OpKind kind, SpanLog* spans) {
  constexpr int kReps = 15;
  const char* root = kind == OpKind::kShardJoin      ? "direct.shard-join"
                     : kind == OpKind::kParallelJoin ? "direct.parallel-join"
                                                     : "direct.join";
  SpanLog::Scope root_span(spans, root);
  const relation::Relation& a = *data.tables.a;
  const relation::Relation& b = *data.tables.b;
  const crypto::Ocb key_a(crypto::DeriveKey(11, "perfbench-a"));
  const crypto::Ocb key_b(crypto::DeriveKey(12, "perfbench-b"));
  const crypto::Ocb out_key(crypto::DeriveKey(13, "perfbench-out"));
  const relation::PairAsMultiway predicate(data.tables.predicate.get());
  const relation::Schema result_schema =
      relation::Schema::Concat(a.schema(), b.schema());
  sim::CoprocessorOptions copts;
  copts.memory_tuples = spec.memory_tuples;
  copts.seed = 5;
  StageTimes t;

  sim::HostStore host;
  sim::RegionId output_region = 0;
  std::uint64_t output_slots = 0;
  const sim::HostStore* output_host = &host;
  std::optional<sim::ShardedStore> store;

  if (kind == OpKind::kShardJoin) {
    std::vector<relation::EncryptedRelation> ra, rb;
    t.replicate_ms = MedianMs(5, [&] {
      store.emplace(spec.scale_out);
      SpanLog::Scope span(spans, "plan.ReplicateSealed");
      auto sa = plan::ReplicateSealed(*store, a, &key_a);
      auto sb = plan::ReplicateSealed(*store, b, &key_b);
      t.ok = t.ok && sa.ok() && sb.ok();
      if (sa.ok() && sb.ok()) {
        ra = std::move(*sa);
        rb = std::move(*sb);
      }
    });
    if (!t.ok) return t;
    plan::ShardedRunOptions ropts;
    ropts.shards = spec.scale_out;
    ropts.epsilon = spec.epsilon;
    ropts.order_seed = 5;
    t.build_us = MedianMs(kReps, [&] {
      SpanLog::Scope span(spans, "plan.BuildShardedPlan");
      t.ok = t.ok && plan::BuildShardedPlan(spec.algorithm, ropts).ok();
    }) * 1e3;
    std::vector<core::MultiwayJoin> joins(spec.scale_out);
    std::vector<const core::MultiwayJoin*> join_ptrs;
    for (unsigned p = 0; p < spec.scale_out; ++p) {
      joins[p].tables = {&ra[p], &rb[p]};
      joins[p].predicate = &predicate;
      joins[p].output_key = &out_key;
      join_ptrs.push_back(&joins[p]);
    }
    SpanLog::Scope span(spans, "plan.RunShardedJoin");
    Result<plan::ShardedOutcome> run =
        plan::RunShardedJoin(*store, spec.algorithm, join_ptrs, copts, ropts);
    if (!run.ok()) return Failed();
    output_host = &store->shard(0);
    output_region = run->output_region;
    output_slots = run->result_size;
  } else {
    Result<relation::EncryptedRelation> sa = Status::Internal("unsealed");
    Result<relation::EncryptedRelation> sb = Status::Internal("unsealed");
    {
      SpanLog::Scope span(spans, "relation.EncryptedRelation::Seal");
      sa = relation::EncryptedRelation::Seal(&host, a, &key_a);
      sb = relation::EncryptedRelation::Seal(&host, b, &key_b);
    }
    if (!sa.ok() || !sb.ok()) return Failed();
    const core::MultiwayJoin join{{&*sa, &*sb}, &predicate, &out_key};
    plan::JoinPlanOptions popts;
    popts.epsilon = spec.epsilon;
    popts.order_seed = 5;
    t.build_us = MedianMs(kReps, [&] {
      SpanLog::Scope span(spans, "plan.BuildJoinPlan");
      t.ok = t.ok &&
             plan::BuildJoinPlan(spec.algorithm, nullptr, &join, popts).ok();
    }) * 1e3;
    if (kind == OpKind::kParallelJoin) {
      SpanLog::Scope span(spans, "plan.RunParallelPlan");
      Result<core::ParallelOutcome> run = plan::RunParallelPlan(
          &host, spec.algorithm, join, spec.scale_out, copts,
          {.epsilon = spec.epsilon, .order_seed = 5});
      if (!run.ok()) return Failed();
      output_region = run->output_region;
      output_slots = run->result_size;
    } else {
      Result<plan::PhysicalPlan> physical =
          plan::BuildJoinPlan(spec.algorithm, nullptr, &join, popts);
      if (!physical.ok()) return Failed();
      sim::Coprocessor copro(&host, copts);
      plan::PlanContext ctx(nullptr, &join);
      SpanLog::Scope span(spans, "plan.PlanExecutor::Run");
      if (!plan::PlanExecutor().Run(copro, *physical, ctx).ok()) {
        return Failed();
      }
      const core::Ch5Outcome outcome = plan::TakeCh5Outcome(ctx);
      output_region = outcome.output_region;
      output_slots = outcome.result_size;
    }
  }

  std::vector<relation::Tuple> rows;
  t.decode_ms = MedianMs(kReps, [&] {
    SpanLog::Scope span(spans, "core.DecodeJoinOutput");
    Result<std::vector<relation::Tuple>> decoded = core::DecodeJoinOutput(
        *output_host, output_region, output_slots, out_key, &result_schema);
    t.ok = t.ok && decoded.ok();
    if (decoded.ok()) rows = std::move(*decoded);
  });
  t.ok = t.ok && MatchesExpected(data, rows);
  return t;
}

// --- The report ---------------------------------------------------------

/// One per-layer metric: its name, unit, and the gated end-to-end metrics it
/// should move (the prediction for every other metric and workload is no
/// change).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr const char* kBothEngines =
    "shard_ and parallel_latency_p50_ms @ alg6-scaleout";
/// The per-transfer path: every fresh join pays it, on both workloads.
constexpr const char* kTransferPath =
    "shard_ and parallel_latency_p50_ms @ alg6-scaleout; latency_p50_ms, "
    "requests_per_s @ service-mix";
constexpr const char* kIngest =
    "setup_s, resubmit_latency_p50_ms @ both workloads";

constexpr LayerMetric kLayerMetrics[] = {
    {"service.submit_us", "us", "requests_per_s @ service-mix"},
    {"service.queue_wait_ms", "ms", "latency_p50_ms @ service-mix"},
    {"service.exec_ms.join", "ms", "latency_p50_ms @ service-mix"},
    {"service.exec_ms.repeat", "ms", "reuse_latency_p50_ms @ service-mix"},
    {"service.reuse_hit_ratio", "ratio", "reuse_latency_p50_ms @ service-mix"},
    {"service.ingest_ms", "ms", kIngest},
    {"service.outside_plan_ms", "ms", "requests_per_s @ service-mix"},
    {"plan.op_ms.scan", "ms", "latency_p50_ms, requests_per_s @ service-mix"},
    {"plan.op_ms.screen", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.epsilon-partition", "ms",
     "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.filter", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.shard-screen", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.shard-segment-emit", "ms",
     "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.exchange", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.op_ms.output", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.ns_per_transfer", "ns", kTransferPath},
    {"plan.unattributed_ns_per_transfer", "ns", kTransferPath},
    {"plan.build_us", "us", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.replicate_ms", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.shard_wait_ms", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.lead_ms", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"plan.worker_max_ms", "ms", "shard_latency_p50_ms @ alg6-scaleout"},
    {"core.parallel_ms", "ms", "parallel_latency_p50_ms @ alg6-scaleout"},
    {"core.decode_ms", "ms", "requests_per_s @ service-mix"},
    {"oblivious.sort_ms", "ms", kBothEngines},
    {"oblivious.filter_ms", "ms", kBothEngines},
    {"oblivious.sort_transfers", "count", kBothEngines},
    {"sim.transfers_per_join", "count", kTransferPath},
    {"sim.slots_per_gather", "slots", kTransferPath},
    {"sim.staged_open_ns", "ns", kTransferPath},
    {"sim.channel_bytes", "bytes", "shard_latency_p50_ms @ alg6-scaleout"},
    {"sim.channel_messages", "count", "shard_latency_p50_ms @ alg6-scaleout"},
    {"sim.host_retries", "count", kTransferPath},
    {"crypto.cipher_calls_per_join", "count", kTransferPath},
    {"crypto.ocb_open_ns", "ns", kTransferPath},
    {"crypto.ocb_seal_ns", "ns",
     "shard_ and parallel_latency_p50_ms @ alg6-scaleout; latency_p50_ms, "
     "requests_per_s @ service-mix; setup_s, resubmit_latency_p50_ms @ both "
     "workloads"},
    {"relation.decode_ns", "ns", kTransferPath},
    {"relation.predicate_ns", "ns", kTransferPath},
    {"relation.seal_ms", "ms", kIngest},
    {"common.tracing_overhead_pct", "%", "none: end-to-end runs are untraced"},
};

/// Why a metric reads zero on this workload, or nullptr when it applies.
const char* NotApplicable(const WorkloadSpec& spec, std::string_view name) {
  const bool sorts = spec.algorithm == core::Algorithm::kAlgorithm6;
  const bool sharded = spec.alternate_engines;
  if (name.starts_with("oblivious.") || name == "plan.op_ms.filter" ||
      name == "plan.op_ms.screen") {
    return sorts ? nullptr : "Algorithm 5 neither screens nor sorts";
  }
  if (name == "plan.op_ms.scan") {
    return sorts ? "the Algorithm 6 engines have no scan operator" : nullptr;
  }
  if (name == "plan.op_ms.epsilon-partition") {
    return "only the serial Algorithm 6 plan runs it; no workload does";
  }
  if (name == "core.parallel_ms") {
    return sharded ? nullptr : "no parallel-engine requests";
  }
  if (name == "plan.replicate_ms" || name == "plan.shard_wait_ms" ||
      name == "plan.lead_ms" || name == "plan.worker_max_ms" ||
      name.starts_with("sim.channel_") ||
      name.starts_with("plan.op_ms.shard-") || name == "plan.op_ms.exchange") {
    return sharded ? nullptr : "no sharded requests";
  }
  if (name == "sim.host_retries") return "zero on fault-free runs";
  return nullptr;
}

/// Operations the traced run issues on its one set-up. HostStore never
/// reclaims regions: all 480,000 operations of a 30-s service-mix run on
/// one set-up took the process to 711 MB. 40,000 still give thousands of
/// span trees.
constexpr std::size_t kMaxTracedOps = 40000;

}  // namespace

RunOutcome RunTraced(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t ops, const std::string& spans_out) {
  RunOutcome outcome;
  SpanLog spans;
  ops = std::min(ops, kMaxTracedOps);

  // One set-up; telemetry alternates request by request, so the traced
  // and untraced halves run under the same machine conditions.
  ServiceTotals svc;
  const Observer observer =
      [&](const OpRecord& rec, double submit_us,
          const service::JoinDelivery* delivery,
          const std::optional<service::RequestTrace>& lifecycle) {
        svc.Observe(rec, submit_us, delivery, lifecycle);
      };
  Workload workload(spec, seed, /*traced=*/true);
  workload.set_spans(&spans);
  std::vector<OpRecord> warmup, measured;
  {
    SpanLog::Scope span(&spans, "workload.setup");
    SetUpOrExit(workload, &warmup, observer);
  }
  svc.warmup = false;
  double seconds = 0;
  {
    SpanLog::Scope span(&spans, "workload.traced");
    seconds = workload.Run(ops, &measured, observer);
  }
  workload.set_spans(nullptr);
  Count(warmup, &outcome);
  Count(measured, &outcome);
  std::vector<OpRecord> with_telemetry, without;
  for (const OpRecord& r : measured) {
    (r.telemetry ? with_telemetry : without).push_back(r);
  }
  const LoopSummary traced = Summarize(spec, {}, with_telemetry, seconds);
  const LoopSummary untraced = Summarize(spec, {}, without, seconds);
  const metrics::Snapshot snapshot = workload.service().MetricsSnapshot();

  // Stages driven directly, one request of each kind the workload runs.
  const Dataset& data = workload.dataset(0);
  std::vector<OpKind> kinds = {OpKind::kJoin};
  if (spec.alternate_engines) {
    kinds = {OpKind::kShardJoin, OpKind::kParallelJoin};
  }
  StageTimes stages;
  for (OpKind kind : kinds) {
    const StageTimes t = DriveStages(spec, data, kind, &spans);
    ++outcome.attempted;
    if (!t.ok) {
      ++outcome.failed;
      std::fprintf(stderr, "perfbench: direct %s failed\n", ToString(kind));
    }
    if (kind != OpKind::kParallelJoin) {
      stages.build_us = t.build_us;
      stages.decode_ms = t.decode_ms;
    }
    stages.replicate_ms = std::max(stages.replicate_ms, t.replicate_ms);
  }
  const UnitCosts unit = MeasureUnitCosts(spec, data, &spans);
  ++outcome.attempted;
  if (unit.failures != 0) {
    ++outcome.failed;
    std::fprintf(stderr, "perfbench: %llu unit-cost calls failed\n",
                 static_cast<unsigned long long>(unit.failures));
  }

  // Per fresh join of the traced loop.
  const TreeTotals& tree = svc.tree;
  const sim::TransferMetrics& m = svc.fresh_metrics;
  const std::size_t joins = svc.fresh;
  const double transfers = static_cast<double>(m.TupleTransfers());
  const double gets = static_cast<double>(m.gets);
  const double ns_per_transfer =
      transfers == 0 ? 0 : tree.device_ms * 1e6 / transfers;
  // Unit cost times the exact counters: time per layer, per join.
  struct Share {
    const char* layer;
    const char* formula;
    double ms;
  };
  const std::vector<Share> shares = {
      {"sim staging", "gets x (staged_open_ns - ocb_open_ns)",
       PerJoin(gets * std::max(unit.staged_open_ns - unit.ocb_open_ns, 0.0),
               joins) / 1e6},
      {"crypto OCB open", "gets x ocb_open_ns",
       PerJoin(gets * unit.ocb_open_ns, joins) / 1e6},
      {"crypto OCB seal", "puts x ocb_seal_ns",
       PerJoin(static_cast<double>(m.puts) * unit.ocb_seal_ns, joins) / 1e6},
      {"relation decode", "gets x decode_ns",
       PerJoin(gets * unit.decode_ns, joins) / 1e6},
      {"relation predicate", "comparisons x predicate_ns",
       PerJoin(static_cast<double>(m.comparisons) * unit.predicate_ns, joins) /
           1e6},
  };
  double layer_sum_ms = 0;
  for (const Share& s : shares) layer_sum_ms += s.ms;
  const double device_ms = PerJoin(tree.device_ms, joins);
  const double attributed_ns =
      transfers == 0
          ? 0
          : layer_sum_ms * 1e6 * static_cast<double>(joins) / transfers;

  const double shard_joins = static_cast<double>(svc.shard_joins);
  std::map<std::string, double, std::less<>> v = {
      {"service.submit_us", Median(svc.submit_us)},
      {"service.queue_wait_ms", Median(svc.queue_wait_ms)},
      {"service.exec_ms.join", Median(svc.exec_join_ms)},
      {"service.exec_ms.repeat", Median(svc.exec_repeat_ms)},
      {"service.reuse_hit_ratio",
       svc.repeats == 0 ? 0
                        : static_cast<double>(svc.hits) /
                              static_cast<double>(svc.repeats)},
      {"service.ingest_ms", workload.ingest_ms_per_contract()},
      {"service.outside_plan_ms", Median(svc.outside_plan_ms)},
      {"plan.ns_per_transfer", ns_per_transfer},
      {"plan.unattributed_ns_per_transfer", ns_per_transfer - attributed_ns},
      {"plan.build_us", stages.build_us},
      {"plan.replicate_ms", stages.replicate_ms},
      {"plan.shard_wait_ms", PerJoin(tree.shard_wait_ms, tree.sharded)},
      {"plan.lead_ms", PerJoin(tree.lead_ms, tree.sharded)},
      {"plan.worker_max_ms", PerJoin(tree.worker_max_ms, tree.sharded)},
      {"core.parallel_ms", PerJoin(tree.parallel_ms, tree.parallel)},
      {"core.decode_ms", stages.decode_ms},
      {"oblivious.sort_ms", PerJoin(tree.sort_ms, joins)},
      {"oblivious.filter_ms", PerJoin(tree.filter_ms, joins)},
      {"oblivious.sort_transfers",
       PerJoin(static_cast<double>(tree.sort_transfers), joins)},
      {"sim.transfers_per_join", PerJoin(transfers, joins)},
      {"sim.slots_per_gather",
       m.batch_gets == 0 ? 0 : gets / static_cast<double>(m.batch_gets)},
      {"sim.staged_open_ns", unit.staged_open_ns},
      {"sim.channel_bytes",
       shard_joins == 0 ? 0
                        : static_cast<double>(snapshot.CounterTotal(
                              metrics::kShardChannelBytes)) / shard_joins},
      {"sim.channel_messages",
       shard_joins == 0 ? 0
                        : static_cast<double>(snapshot.CounterTotal(
                              metrics::kShardChannelMessages)) / shard_joins},
      {"sim.host_retries", static_cast<double>(m.host_retries)},
      {"crypto.cipher_calls_per_join",
       PerJoin(static_cast<double>(m.cipher_calls), joins)},
      {"crypto.ocb_open_ns", unit.ocb_open_ns},
      {"crypto.ocb_seal_ns", unit.ocb_seal_ns},
      {"relation.decode_ns", unit.decode_ns},
      {"relation.predicate_ns", unit.predicate_ns},
      {"relation.seal_ms", unit.seal_ms},
      {"common.tracing_overhead_pct",
       untraced.latency_p50_ms == 0
           ? 0
           : (traced.latency_p50_ms / untraced.latency_p50_ms - 1) * 100},
  };
  for (std::string_view op : kPlanOps) {
    const auto it = tree.op_ms.find(op);
    v["plan.op_ms." + std::string(op)] =
        it == tree.op_ms.end() ? 0 : PerJoin(it->second, joins);
  }

  std::printf(
      "== per-layer report: %s, seed %llu, %zu operations, telemetry on for "
      "every other request (%zu fresh joins with span trees)\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed), ops,
      tree.joins);
  std::printf(
      "tracing overhead: latency_p50_ms %.4f ms untraced, %.4f ms traced: "
      "%+.2f %%\n",
      untraced.latency_p50_ms, traced.latency_p50_ms,
      v["common.tracing_overhead_pct"]);
  std::printf("%-36s %14s %-6s %s\n", "metric", "value", "unit",
              "should move (no change predicted elsewhere)");
  for (const LayerMetric& lm : kLayerMetrics) {
    const char* why = NotApplicable(spec, lm.name);
    std::printf("%-36s %14.4f %-6s %s", lm.name, v[lm.name], lm.unit,
                lm.moves);
    if (why != nullptr) std::printf("  [zero here: %s]", why);
    std::printf("\n");
    outcome.metrics.push_back({lm.name, v[lm.name], lm.unit});
  }

  std::printf("== layer sum vs measured device time, per fresh join\n");
  for (const Share& s : shares) {
    std::printf("  %-20s %-42s %10.4f ms\n", s.layer, s.formula, s.ms);
  }
  std::printf("  %-63s %10.4f ms\n", "sum of layers", layer_sum_ms);
  std::printf("  %-63s %10.4f ms\n",
              "measured device time (plan spans, every shard and worker)",
              device_ms);
  std::printf("  %-63s %10.4f ms (%.1f ns per transfer)\n",
              "unattributed remainder", device_ms - layer_sum_ms,
              v["plan.unattributed_ns_per_transfer"]);
  std::printf("  %-63s %10.4f ms\n", "service execution outside the plan (p50)",
              v["service.outside_plan_ms"]);

  std::printf("== benchmark spans (self time over the traced process)\n");
  for (const SpanLog::Summary& s : spans.Summarize()) {
    std::printf("  %-36s %8llu calls %12.3f ms total %12.3f ms self\n",
                s.name.c_str(), static_cast<unsigned long long>(s.count),
                s.total_ms, s.self_ms);
  }
  if (!spans_out.empty()) {
    constexpr std::size_t kWrittenRequestSpans = std::size_t{1} << 16;
    if (spans.Write(spans_out, kWrittenRequestSpans)) {
      std::printf(
          "spans: %zu recorded; written to %s (request spans: the first "
          "%zu)\n",
          spans.size(), spans_out.c_str(), kWrittenRequestSpans);
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   spans_out.c_str());
    }
  }
  return outcome;
}

}  // namespace ppj::perfbench
