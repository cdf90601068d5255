// wym_serve — long-lived matcher service over a Unix-domain socket.
//
//   wym_serve --socket /tmp/wym.sock --model default=/path/model.wym
//             [--model name=path]        # one extra named model
//             [--models models.conf]     # name=path lines, all must load
//             [--queue-bound 64]         # admission bound (shed beyond)
//             [--deadline-ms 0]          # default per-request budget
//             [--watchdog-ms 30000]      # wedge timeout (0 disables)
//             [--watchdog-interval-ms 1000]  # watchdog scan cadence
//             [--cache 4096]             # prediction cache entries
//             [--stats-out stats.json]   # final snapshot on shutdown
//             [--journal req.jsonl]      # request journal (JSONL)
//             [--journal-max-kb 65536]   # journal rotation bound
//             [--recorder 256]           # flight-recorder ring size
//             [--recorder-out post.json] # postmortem dump path
//             [--telemetry-out tele.json]  # windowed stats artifact
//             [--telemetry-period 1]       # export period, seconds
//             [--enable-debug-ops]       # test-only debug_sleep op
//
// Speaks the JSON-lines protocol of src/serve/protocol.h. Models load
// through v2 frame verification: a corrupt file is rejected at startup
// (exit 3) or, when hot-loaded over the socket, answered with a typed
// Corruption error while the previous model keeps serving.
//
// Telemetry (see DESIGN.md "Telemetry"): --journal appends one
// wym-journal/v1 line per answered request; --recorder keeps the last
// N request records in a ring and dumps a wym-flight-recorder/v1
// postmortem to --recorder-out on watchdog fire, SIGQUIT, and drain;
// --telemetry-out rewrites a wym-telemetry/v1 windowed-stats artifact
// every --telemetry-period seconds (windows also appear in the stats
// op whenever --telemetry-out or --journal is given).
//
// SIGTERM/SIGINT begin a graceful drain: stop accepting, shed new work
// with ResourceExhausted, finish or deadline-out everything in flight,
// then flush a final stats snapshot (stdout, plus --stats-out when
// given) and exit 0. SIGQUIT dumps the flight recorder without
// stopping. Worker threads come from the global pool (WYM_THREADS).
//
// Exit codes match wym_cli: 0 clean shutdown, 1 usage, 2 I/O error,
// 3 corrupt model file.

#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "obs/event_log.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/io.h"
#include "flags.h"

namespace {

using namespace wym;
using namespace wym::tools;

constexpr uint64_t kMaxUint = std::numeric_limits<uint64_t>::max();

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }
void HandleDumpSignal(int) { g_dump_requested = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: wym_serve --socket <path> "
               "(--model name=path | --models <conf>) [flags]\n"
               "see the header of tools/wym_serve.cc for the flag list\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags args(argc, argv, /*first=*/1);
  const std::string socket_path = args.Get("socket");
  if (socket_path.empty()) return Usage();

  serve::ModelRegistry registry;
  if (args.Has("models")) {
    const Status status = registry.LoadConfigFile(args.Get("models"));
    if (!status.ok()) return StatusExit(status);
  }
  if (args.Has("model")) {
    const std::string spec = args.Get("model");
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::fprintf(stderr, "--model expects name=path, got '%s'\n",
                   spec.c_str());
      return kExitUsage;
    }
    const Status status =
        registry.LoadModel(spec.substr(0, eq), spec.substr(eq + 1));
    if (!status.ok()) return StatusExit(status);
  }
  if (registry.size() == 0) {
    std::fprintf(stderr,
                 "no models: pass --model name=path or --models <conf>\n");
    return kExitUsage;
  }

  // Telemetry sinks: each exists only when its flag is given, and the
  // service takes plain pointers — off means a null check and nothing
  // else on the serve path.
  std::unique_ptr<obs::EventLog> journal;
  if (args.Has("journal")) {
    obs::EventLog::Options journal_options;
    journal_options.path = args.Get("journal");
    journal_options.max_bytes =
        args.GetUint("journal-max-kb", 65536, kMaxUint / 1024) * 1024;
    journal = std::make_unique<obs::EventLog>(journal_options);
    std::string error;
    if (!journal->Open(&error)) {
      std::fprintf(stderr, "--journal: %s\n", error.c_str());
      return kExitIo;
    }
  }
  std::unique_ptr<obs::FlightRecorder> recorder;
  const std::string recorder_out =
      args.Get("recorder-out", socket_path + ".postmortem.json");
  if (args.Has("recorder") || args.Has("recorder-out")) {
    recorder = std::make_unique<obs::FlightRecorder>(
        static_cast<size_t>(args.GetUint("recorder", 256)));
  }
  // Windowed stats come along whenever any telemetry is on: the stats
  // op's "windows" section and the --telemetry-out artifact share one
  // tracker.
  std::unique_ptr<obs::WindowTracker> windows;
  const bool telemetry_export = args.Has("telemetry-out");
  if (telemetry_export || journal != nullptr || recorder != nullptr) {
    windows = std::make_unique<obs::WindowTracker>();
  }

  serve::ServiceOptions service_options;
  service_options.queue_bound =
      static_cast<size_t>(args.GetUint("queue-bound", 64));
  service_options.default_deadline_ms = args.GetUint("deadline-ms", 0);
  service_options.wedge_timeout_ms = args.GetUint("watchdog-ms", 30000);
  service_options.cache_entries =
      static_cast<size_t>(args.GetUint("cache", 4096));
  service_options.enable_debug_ops = args.Has("enable-debug-ops");
  service_options.journal = journal.get();
  service_options.recorder = recorder.get();
  service_options.windows = windows.get();
  serve::MatcherService service(&registry, service_options);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGQUIT, HandleDumpSignal);

  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.stop_requested = [] { return g_stop_requested != 0; };
  server_options.watchdog_interval_ms =
      args.GetUint("watchdog-interval-ms", 1000);
  if (recorder != nullptr) {
    server_options.on_watchdog_recover =
        [&recorder, &recorder_out](size_t recovered) {
          (void)recovered;
          const Status written = io::WriteFileAtomic(
              recorder_out, recorder->DumpJson("watchdog"));
          if (!written.ok()) {
            std::fprintf(stderr, "flight-recorder dump: %s\n",
                         written.ToString().c_str());
          }
        };
  }
  const std::string telemetry_out = args.Get("telemetry-out");
  const uint64_t telemetry_period_ns =
      args.GetUint("telemetry-period", 1, kMaxUint / 1000000000ull) *
      1000000000ull;
  uint64_t last_tick_ns = 0;
  uint64_t last_export_ns = 0;
  server_options.on_tick = [&] {
    const uint64_t now_ns = obs::NowNanos();
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      if (recorder != nullptr) {
        const Status written = io::WriteFileAtomic(
            recorder_out, recorder->DumpJson("sigquit"));
        if (!written.ok()) {
          std::fprintf(stderr, "flight-recorder dump: %s\n",
                       written.ToString().c_str());
        }
      }
    }
    if (windows == nullptr) return;
    // Sample about once a second: fine enough for 10s windows, cheap
    // enough (one registry snapshot) to never matter on the accept
    // loop.
    if (now_ns - last_tick_ns >= 1000000000ull) {
      last_tick_ns = now_ns;
      windows->Tick(now_ns);
    }
    if (telemetry_export && now_ns - last_export_ns >= telemetry_period_ns) {
      last_export_ns = now_ns;
      const Status written =
          io::WriteFileAtomic(telemetry_out, windows->TelemetryJson());
      if (!written.ok()) {
        std::fprintf(stderr, "--telemetry-out: %s\n",
                     written.ToString().c_str());
      }
    }
  };
  serve::SocketServer server(&service, server_options);

  std::printf("wym_serve listening on %s (%zu model(s), queue bound %zu)\n",
              socket_path.c_str(), registry.size(),
              service_options.queue_bound);
  std::fflush(stdout);

  const Status served = server.Serve();
  if (!served.ok()) return StatusExit(served.Annotate("serve"));

  // Drain-time telemetry flush: one last window sample + export, and a
  // "drain" postmortem so every shutdown leaves a diagnosable trail.
  if (windows != nullptr) {
    windows->Tick(obs::NowNanos());
    if (telemetry_export) {
      const Status written =
          io::WriteFileAtomic(telemetry_out, windows->TelemetryJson());
      if (!written.ok()) return StatusExit(written.Annotate("--telemetry-out"));
    }
  }
  if (recorder != nullptr) {
    const Status written =
        io::WriteFileAtomic(recorder_out, recorder->DumpJson("drain"));
    if (!written.ok()) {
      std::fprintf(stderr, "flight-recorder dump: %s\n",
                   written.ToString().c_str());
      return kExitIo;
    }
  }
  if (journal != nullptr) journal->Close();

  // Final stats snapshot: the drain's last word, so an operator (or the
  // smoke test) can see what the process did before it went away.
  const std::string stats = service.StatsJson();
  std::printf("%s\n", stats.c_str());
  if (args.Has("stats-out")) {
    const Status written = io::WriteFileAtomic(args.Get("stats-out"), stats);
    if (!written.ok()) return StatusExit(written.Annotate("--stats-out"));
  }
  return kExitOk;
}
