#ifndef APLUS_PERFBENCH_WORKLOADS_H_
#define APLUS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/database.h"

namespace perfbench {

// Each workload builds its inputs from options.seed, times its set-up
// (median of several fresh set-ups), runs its closed-loop window for
// options.seconds, checks its answers, and fills `report` with the
// end-to-end metrics (options.trace == false) or the per-layer metrics
// (options.trace == true). See perfbench/METRICS.md.
void RunWirePoint(const Options& options, Report* report);
void RunFraudTuned(const Options& options, Report* report);
void RunSegRecs(const Options& options, Report* report);

// Streams `count` seeded edges into `db` in one ingest phase
// (BeginConcurrentIngest, then Graph::AddEdge plus numeric edge
// properties and Maintainer::OnEdgeInserted per edge, then
// EndConcurrentIngest) and returns edges per second of stream plus
// close; 0 when an insert fails. `db` must be a heap database without
// secondary indexes and without queries in flight. Every workload's
// traced run probes once and reports the rate as index.ingest_eps.
double ProbeIngestEps(aplus::Database* db, uint64_t seed, uint64_t count);

// Edges the ingest probe streams (about 1-2 s).
constexpr uint64_t kProbeEdges = 50000;

// query.parse_us and optimizer.plan_us: ParseCypher vs Database::Prepare
// over the workload's query texts (prepare time minus parse time).
void ReportParsePlan(aplus::Database* db, const std::vector<std::string>& texts,
                     Report* report);

// Per-layer metrics every workload reports in its traced run: the
// kernel probes on adjacency lists sampled from `graph`, the span-derived
// self time per layer, and the tracing overhead of `loop`.
void ReportCommonLayers(const aplus::Graph& graph, const LoopResult& loop, Report* report);

}  // namespace perfbench

#endif  // APLUS_PERFBENCH_WORKLOADS_H_
