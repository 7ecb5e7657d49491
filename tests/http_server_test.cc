// Live introspection server (DESIGN.md §5g): the dependency-free HTTP
// exposition loop, its routes, and the ObsContext wiring. Every test
// binds port 0 (kernel-assigned ephemeral) so runs never collide.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/session_registry.h"

namespace vada::obs {
namespace {

// Blocking GET against 127.0.0.1:`port`; returns the raw response text
// (status line, headers, body), empty on socket failure.
std::string Get(uint16_t port, const std::string& path) {
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

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(HttpServerTest, ServesRegisteredRoutesAndResolvesEphemeralPort) {
  HttpServer server;
  server.Handle("/hello", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "hi " + request.method + " " + request.path;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  std::string response = Get(server.port(), "/hello");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_EQ(Body(response), "hi GET /hello");
  EXPECT_EQ(server.requests_served(), 1u);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // idempotent
}

TEST(HttpServerTest, UnknownPathIs404AndRootListsRoutes) {
  HttpServer server;
  server.Handle("/metrics", [](const HttpRequest&) { return HttpResponse(); });
  ASSERT_TRUE(server.Start(0).ok());

  std::string missing = Get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  std::string index = Get(server.port(), "/");
  EXPECT_NE(index.find("200"), std::string::npos) << index;
  EXPECT_NE(Body(index).find("/metrics"), std::string::npos) << index;
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(HttpServerTest, ConcurrentClientsAllGetAnswers) {
  HttpServer server;
  server.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &responses, i] {
      responses[i] = Get(server.port(), "/healthz");
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& response : responses) {
    EXPECT_EQ(Body(response), "ok\n");
  }
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kClients));
}

// Stop() hands the listening socket back while the accept thread may
// still be blocked on it; repeated Start/scrape/Stop cycles must neither
// race on the fd (ThreadSanitizer) nor leave a cycle unanswered.
TEST(HttpServerTest, RepeatedStartScrapeStopCycles) {
  HttpServer server;
  server.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  for (int cycle = 0; cycle < 20; ++cycle) {
    SCOPED_TRACE(cycle);
    ASSERT_TRUE(server.Start(0).ok());
    EXPECT_EQ(Body(Get(server.port(), "/healthz")), "ok\n");
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

// The full ObsContext wiring: /metrics, /healthz, /sessions and /trace
// all answer, with the right content types and fresh data.
TEST(ObsHttpTest, ContextServesAllIntrospectionRoutes) {
  SessionRegistry sessions;
  ObsOptions options;
  options.http_port = 0;
  options.sessions = &sessions;
  ObsContext ctx(options);
  ASSERT_NE(ctx.http_server(), nullptr);
  const uint16_t port = ctx.http_port();
  ASSERT_NE(port, 0);

  std::string health = Get(port, "/healthz");
  EXPECT_EQ(Body(health), "ok\n");

  ctx.metrics()->GetCounter("vada_test_scrapes", "test")->Increment(3);
  auto handle = sessions.Register("test-session");
  SessionSnapshot snapshot;
  snapshot.name = "test-session";
  snapshot.fields = {{"relations", "2"}};
  handle.Update(std::move(snapshot));

  std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos)
      << metrics;
  EXPECT_NE(Body(metrics).find("vada_test_scrapes 3"), std::string::npos);
  // Process gauges are refreshed per scrape (memory accounting tentpole).
  EXPECT_NE(Body(metrics).find("vada_process_peak_rss_bytes"),
            std::string::npos);
  // The server exports its own request counter; by this scrape it has
  // answered at least the /healthz request.
  EXPECT_NE(Body(metrics).find("vada_obs_http_requests"), std::string::npos);

  std::string sessions_response = Get(port, "/sessions");
  EXPECT_NE(sessions_response.find("application/json"), std::string::npos);
  std::string sessions_body = Body(sessions_response);
  std::string error;
  EXPECT_TRUE(JsonLint(sessions_body, &error)) << error;
  EXPECT_NE(sessions_body.find("\"name\":\"test-session\""),
            std::string::npos);
  EXPECT_NE(sessions_body.find("\"relations\":\"2\""), std::string::npos);

  {
    ScopedSpan span(ctx.spans(), nullptr, "probe", "test");
  }
  std::string trace_body = Body(Get(port, "/trace"));
  EXPECT_TRUE(JsonLint(trace_body, &error)) << error;
  EXPECT_NE(trace_body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace_body.find("\"name\":\"probe\""), std::string::npos);
}

TEST(ObsHttpTest, NoServerUnlessPortConfigured) {
  ObsContext defaults;  // http_port = -1
  EXPECT_EQ(defaults.http_server(), nullptr);
  EXPECT_EQ(defaults.http_port(), 0);

  ObsOptions disabled;
  disabled.enabled = false;
  disabled.http_port = 0;  // ignored: observability is off
  ObsContext off(disabled);
  EXPECT_EQ(off.http_server(), nullptr);
}

TEST(ObsHttpTest, BindFailureDisablesServerWithoutFailingContext) {
  ObsOptions first_options;
  first_options.http_port = 0;
  ObsContext first(first_options);
  ASSERT_NE(first.http_server(), nullptr);

  // Same fixed port again: the second context must come up working, just
  // without the server (a wrangle never fails because a port is taken).
  ObsOptions second_options;
  second_options.http_port = static_cast<int>(first.http_port());
  ObsContext second(second_options);
  EXPECT_EQ(second.http_server(), nullptr);
  EXPECT_NE(second.metrics(), nullptr);
}

}  // namespace
}  // namespace vada::obs
