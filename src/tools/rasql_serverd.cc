// rasql_serverd — the standalone RaSQL query server (DESIGN.md §12).
//
// Seeds a catalog (from a SQL setup script and/or generated graphs), then
// serves the wire protocol until SIGINT/SIGTERM:
//
//   rasql_serverd [--port=N] [--port-file=PATH]
//                 [--io-slots=N] [--exec-slots=N] [--max-queue=N]
//                 [--engine-threads=N] [--plan-cache=N] [--result-cache=N]
//                 [--no-result-cache] [--incremental]
//                 [--gen-rmat=<table>:<vertices>] [--load=<table>:<file>]
//                 [--setup=<script.sql>] [--distributed] [--workers=N]
//
// Prints `RASQL_SERVER_PORT=<port>` on stdout once listening (port 0
// picks an ephemeral port) so scripts can connect without racing, and a
// serving-stats summary on stderr at shutdown.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "server/server.h"
#include "storage/csv.h"

namespace rasql::tools {
namespace {

int Fail(const char* what, const common::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  engine::EngineConfig config;
  server::ServerOptions options;
  std::string port_file;
  std::string setup_path;
  std::vector<std::pair<std::string, int64_t>> gen_rmat;
  std::vector<std::pair<std::string, std::string>> loads;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* name, int* out) {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) != 0) return false;
      *out = std::atoi(arg.c_str() + len);
      return true;
    };
    int port = 0;
    int size = 0;
    if (int_flag("--port=", &port)) {
      options.port = static_cast<uint16_t>(port);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
    } else if (int_flag("--io-slots=", &options.io_slots) ||
               int_flag("--exec-slots=", &options.exec_slots) ||
               int_flag("--max-queue=", &options.max_queue_depth) ||
               int_flag("--engine-threads=", &options.engine_threads)) {
      // int_flag stored the value.
    } else if (int_flag("--workers=", &config.cluster.num_workers)) {
      if (config.cluster.num_workers < 1) {
        std::fprintf(stderr, "--workers wants a positive count, got '%s'\n",
                     arg.c_str() + 10);
        return 1;
      }
      config.cluster.num_partitions = config.cluster.num_workers * 2;
    } else if (int_flag("--plan-cache=", &size)) {
      options.plan_cache_entries = static_cast<size_t>(size);
    } else if (int_flag("--result-cache=", &size)) {
      options.result_cache_entries = static_cast<size_t>(size);
    } else if (arg == "--no-result-cache") {
      options.enable_result_cache = false;
    } else if (arg == "--distributed") {
      config.distributed = true;
    } else if (arg == "--incremental") {
      config.incremental = true;
    } else if (arg.rfind("--setup=", 0) == 0) {
      setup_path = arg.substr(8);
    } else if (arg.rfind("--gen-rmat=", 0) == 0) {
      const std::string spec = arg.substr(11);
      const size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--gen-rmat wants <table>:<vertices>\n");
        return 1;
      }
      gen_rmat.emplace_back(spec.substr(0, colon),
                            std::atoll(spec.c_str() + colon + 1));
    } else if (arg.rfind("--load=", 0) == 0) {
      const std::string spec = arg.substr(7);
      const size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--load wants <table>:<file.csv>\n");
        return 1;
      }
      loads.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }

  engine::RaSqlContext ctx(config);
  for (const auto& [table, vertices] : gen_rmat) {
    datagen::RmatOptions opt;
    opt.num_vertices = vertices;
    opt.weighted = true;
    auto status = ctx.RegisterTable(
        table, datagen::ToEdgeRelation(datagen::GenerateRmat(opt)));
    if (!status.ok()) return Fail("--gen-rmat", status);
  }
  for (const auto& [table, file] : loads) {
    auto relation = storage::LoadCsv(file, {});
    if (!relation.ok()) return Fail("--load", relation.status());
    auto status = ctx.RegisterTable(table, std::move(*relation));
    if (!status.ok()) return Fail("--load", status);
  }
  if (!setup_path.empty()) {
    std::ifstream in(setup_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", setup_path.c_str());
      return 1;
    }
    std::ostringstream script;
    script << in.rdbuf();
    auto result = ctx.Execute(script.str());
    if (!result.ok()) return Fail("--setup", result.status());
  }

  // Block shutdown signals before Start so server threads inherit the mask
  // and sigwait below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  server::Server server(&ctx, options);
  auto status = server.Start();
  if (!status.ok()) return Fail("start", status);
  std::printf("RASQL_SERVER_PORT=%u\n", server.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  int sig = 0;
  sigwait(&set, &sig);
  server.Stop();

  const server::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "sessions=%llu queries=%llu prepares=%llu executes=%llu "
               "errors=%llu rejected=%llu plan_cache{hit=%llu miss=%llu} "
               "result_cache{hit=%llu miss=%llu invalidated=%llu "
               "refreshed=%llu}\n",
               static_cast<unsigned long long>(stats.sessions_opened),
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.prepares),
               static_cast<unsigned long long>(stats.executes),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.admission_rejects),
               static_cast<unsigned long long>(stats.plan_cache.hits),
               static_cast<unsigned long long>(stats.plan_cache.misses),
               static_cast<unsigned long long>(stats.result_cache.hits),
               static_cast<unsigned long long>(stats.result_cache.misses),
               static_cast<unsigned long long>(
                   stats.result_cache.invalidations),
               static_cast<unsigned long long>(stats.result_cache.refreshes));
  return 0;
}

}  // namespace
}  // namespace rasql::tools

int main(int argc, char** argv) { return rasql::tools::Main(argc, argv); }
