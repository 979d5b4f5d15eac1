// aplusd: the A+ index engine behind the wire protocol (docs/PROTOCOL.md).
//
//   aplusd [--port=N] [--workers=N] [--scale=F] [--deadline-ms=N]
//          [--graph=SEGMENT] [--seal=PATH]
//
// --workers sets the request threads: each reads a request, runs it and
// writes its response, so it also caps how many queries run at once.
// Serves the synthetic power-law financial workload of the benches
// (vertices with sequential IDs, :E edges with an integer `amt`
// property) so aplus_loadgen and external drivers have a deterministic
// dataset to query. --graph skips generation and serves a sealed
// segment file (storage/segment.h) instead: the file is mapped
// read-only and both primary indexes come up without a rebuild, so
// startup is O(graph copy), not O(index build). --seal generates (or
// opens) the dataset, writes it to a segment file, and exits — the
// companion of --graph for ahead-of-time dataset preparation. Env knobs:
//   APLUS_MAX_CONCURRENT / APLUS_ADMISSION_QUEUE /
//   APLUS_ADMISSION_TIMEOUT_MS  — admission control (core/admission.h)
//   APLUS_SERVER_BATCH=on|off   — identical-request batching
//   APLUS_QUERY_TIMEOUT_MS      — default per-query deadline
//   APLUS_MEM_CAP[_TOTAL]       — per-query / process memory budget

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "server/server.h"
#include "util/rng.h"

using namespace aplus;  // NOLINT: binary brevity

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options = ServerOptions::FromEnv();
  options.port = 7601;
  double scale = 0.02;
  std::string graph_path;
  std::string seal_path;
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--port", &value)) {
      options.port = std::atoi(value);
    } else if (FlagValue(argv[i], "--workers", &value)) {
      options.num_workers = std::atoi(value);
    } else if (FlagValue(argv[i], "--scale", &value)) {
      scale = std::atof(value);
    } else if (FlagValue(argv[i], "--deadline-ms", &value)) {
      options.default_deadline_millis = std::atoll(value);
    } else if (FlagValue(argv[i], "--graph", &value)) {
      graph_path = value;
    } else if (FlagValue(argv[i], "--seal", &value)) {
      seal_path = value;
    } else {
      std::fprintf(stderr,
                   "usage: aplusd [--port=N] [--workers=N] [--scale=F] [--deadline-ms=N] "
                   "[--graph=SEGMENT] [--seal=PATH]\n"
                   "  --workers=N  threads that each read a request, run it and write\n"
                   "               its response (default 4); at most N queries run at once\n");
      return 2;
    }
  }

  std::unique_ptr<Database> owned_db;
  if (!graph_path.empty()) {
    std::string error;
    owned_db = Database::OpenFromSegment(graph_path, &error);
    if (owned_db == nullptr) {
      std::fprintf(stderr, "aplusd: --graph=%s: %s\n", graph_path.c_str(), error.c_str());
      return 1;
    }
  } else {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
    params.avg_degree = 8.0;
    params.preferential_fraction = 0.75;
    params.seed = 97;
    GeneratePowerLawGraph(params, &graph);
    prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
    {
      PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
      Rng rng(13);
      for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
        amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
      }
    }
    owned_db = std::make_unique<Database>(std::move(graph));
    owned_db->BuildPrimaryIndexes();
  }
  Database& db = *owned_db;

  if (!seal_path.empty()) {
    std::string error;
    if (!db.SealToSegment(seal_path, &error)) {
      std::fprintf(stderr, "aplusd: --seal=%s: %s\n", seal_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("aplusd: sealed %llu vertices, %llu edges to %s\n",
                static_cast<unsigned long long>(db.graph().num_vertices()),
                static_cast<unsigned long long>(db.graph().num_edges()), seal_path.c_str());
    return 0;
  }

  Server server(&db, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "aplusd: %s\n", error.c_str());
    return 1;
  }
  std::printf("aplusd listening on port %d (%llu vertices, %llu edges, %d workers, batch %s)\n",
              server.port(), static_cast<unsigned long long>(db.graph().num_vertices()),
              static_cast<unsigned long long>(db.graph().num_edges()), options.num_workers,
              options.batching ? "on" : "off");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("aplusd: shutting down (%llu queries served, %llu batched, "
              "plan cache %llu hits / %llu misses)\n",
              static_cast<unsigned long long>(server.queries()),
              static_cast<unsigned long long>(server.batch_saved()),
              static_cast<unsigned long long>(db.plan_cache().hits()),
              static_cast<unsigned long long>(db.plan_cache().misses()));
  server.Stop();
  return 0;
}
