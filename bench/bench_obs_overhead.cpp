// Experiment O1 — observability overhead (DESIGN.md §5g): what does the
// introspection layer cost when it is off, on, and actively scraped?
//
// Five configurations bootstrap the demonstration scenario:
//
//  1. obs disabled          — ObsOptions{enabled = false}; every
//     instrumentation site reduces to a null-pointer check. This is the
//     zero-cost contract: it must stay within noise (<1%) of...
//  2. obs enabled, no HTTP  — metrics + spans recorded in-process,
//     http_port unset (the default -1), no exposition thread.
//  2b. metrics only         — the same with collect_spans = false, so
//     rows 1, 2b and 2 split the enabled cost into metrics and spans.
//  3. obs enabled + HTTP    — introspection server on an ephemeral port,
//     idle (bound and listening, never scraped).
//  4. obs enabled + scrapes — same, with a /metrics GET after every
//     session Run, the worst realistic scrape cadence.
//
// A fifth row times EXPLAIN ANALYZE of a transitive-closure program
// against plain evaluation of the same program, bounding the cost of
// per-literal attribution (only paid when Explain is called; Run never
// materializes explain structures).
//
// Every time is the median [p10, p90] of kReps runs after kWarmup
// discarded ones. The configurations are interleaved (each rep runs all
// of them in turn), so host drift cannot land on one row only.
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/explain.h"
#include "datalog/parser.h"
#include "obs/http_server.h"
#include "wrangler/session.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

// Minimal blocking GET against 127.0.0.1:port; returns the raw response
// (empty on any socket failure). Enough to exercise the scrape path.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

constexpr size_t kReps = 11;
constexpr size_t kWarmup = 1;

}  // namespace

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("O1: observability overhead\n");
  std::printf("(wall ms: median [p10, p90] of %zu interleaved reps after %zu "
              "warm-up)\n\n",
              kReps, kWarmup);

  Scenario sc = MakeScenario(41, 300, 40);
  std::vector<Relation> sources = {sc.rightmove, sc.onthemarket,
                                   sc.deprivation};

  // One full bootstrap on a fresh session; only Run (and the scrape) is
  // timed. `scrape` GETs /metrics after the Run.
  auto bootstrap_ms = [&](const obs::ObsOptions& obs, bool scrape) {
    WranglerConfig config;
    config.obs = obs;
    auto session = std::make_unique<WranglingSession>(config);
    Status s = session->SetTargetSchema(PaperTargetSchema());
    for (const Relation& src : sources) {
      if (s.ok()) s = session->AddSource(src);
    }
    double ms = TimeMs([&] {
      if (s.ok()) s = session->Run();
      if (scrape && session->obs().http_server() != nullptr) {
        std::string r = HttpGet(session->obs().http_port(), "/metrics");
        if (r.find("vada_") == std::string::npos) {
          std::fprintf(stderr, "scrape returned no metrics\n");
          std::exit(1);
        }
      }
    });
    if (!s.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    return ms;
  };

  obs::ObsOptions disabled;
  disabled.enabled = false;
  obs::ObsOptions enabled;  // defaults: metrics + spans, no HTTP
  obs::ObsOptions metrics_only = enabled;
  metrics_only.collect_spans = false;
  obs::ObsOptions with_http = enabled;
  with_http.http_port = 0;  // ephemeral

  const std::vector<std::function<double()>> configs = {
      [&] { return bootstrap_ms(disabled, false); },
      [&] { return bootstrap_ms(enabled, false); },
      [&] { return bootstrap_ms(with_http, false); },
      [&] { return bootstrap_ms(with_http, true); },
      [&] { return bootstrap_ms(metrics_only, false); },
  };
  std::vector<Measurement> boot = MeasureInterleaved(kReps, kWarmup, configs);
  const Measurement& off = boot[0];
  const Measurement& on = boot[1];
  const Measurement& http_idle = boot[2];
  const Measurement& http_scrape = boot[3];
  const Measurement& metrics = boot[4];

  // EXPLAIN ANALYZE attribution cost vs plain Run of the same program.
  const std::string kProgram =
      "tc(X,Y) :- edge(X,Y).\n"
      "tc(X,Z) :- edge(X,Y), tc(Y,Z).\n";
  Relation edges(Schema::Untyped("edge", {"src", "dst"}));
  for (int i = 0; i < 400; ++i) {
    (void)edges.Insert(Tuple{Value::Int(i), Value::Int((i + 1) % 400)});
  }
  auto eval_ms = [&](bool analyze) {
    Result<datalog::Program> program = datalog::Parser::Parse(kProgram);
    datalog::Database db;
    db.LoadRelation(edges);
    datalog::Evaluator eval(std::move(program).value());
    Status s = eval.Prepare();
    double ms = TimeMs([&] {
      if (!s.ok()) return;
      if (analyze) {
        datalog::PlanExplain plan;
        s = eval.Explain(&db, &plan, /*analyze=*/true);
      } else {
        s = eval.Run(&db);
      }
    });
    if (!s.ok()) {
      std::fprintf(stderr, "eval failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    return ms;
  };
  const std::vector<std::function<double()>> evals = {
      [&] { return eval_ms(false); },
      [&] { return eval_ms(true); },
  };
  std::vector<Measurement> attribution =
      MeasureInterleaved(kReps, kWarmup, evals);
  const Measurement& run = attribution[0];
  const Measurement& explain = attribution[1];

  auto pct = [](const Measurement& base, const Measurement& v) {
    return base.median > 0.0 ? (v.median - base.median) / base.median * 100.0
                             : 0.0;
  };

  Table table({"configuration", "bootstrap ms", "vs disabled"});
  table.AddRow({"obs disabled", FmtSpread(off), "--"});
  table.AddRow({"metrics only (collect_spans = false)", FmtSpread(metrics),
                Fmt(pct(off, metrics), 1) + "%"});
  table.AddRow({"obs enabled, no http", FmtSpread(on),
                Fmt(pct(off, on), 1) + "%"});
  table.AddRow({"obs + http idle", FmtSpread(http_idle),
                Fmt(pct(off, http_idle), 1) + "%"});
  table.AddRow({"obs + /metrics scrape", FmtSpread(http_scrape),
                Fmt(pct(off, http_scrape), 1) + "%"});
  table.Print();

  std::printf("\nEXPLAIN ANALYZE attribution: run=%s ms analyze=%s ms (%s%%)\n",
              FmtSpread(run, 2).c_str(), FmtSpread(explain, 2).c_str(),
              Fmt(pct(run, explain), 1).c_str());

  BenchReport report("obs_overhead");
  report.AddMeasurement("disabled_ms", off);
  report.AddMeasurement("enabled_ms", on);
  report.AddMeasurement("metrics_only_ms", metrics);
  report.AddMeasurement("http_idle_ms", http_idle);
  report.AddMeasurement("http_scrape_ms", http_scrape);
  report.Add("enabled_overhead_pct", pct(off, on));
  report.Add("metrics_only_overhead_pct", pct(off, metrics));
  report.AddMeasurement("run_ms", run);
  report.AddMeasurement("explain_analyze_ms", explain);
  report.WriteJson();
  return 0;
}
