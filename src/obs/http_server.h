#ifndef VADA_OBS_HTTP_SERVER_H_
#define VADA_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace vada::obs {

/// One parsed request. Only what the introspection routes need: method,
/// path (query string stripped) and the raw query text.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", ...
  std::string path;    ///< "/metrics"
  std::string query;   ///< text after '?', no parsing
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal, dependency-free HTTP/1.0-style server for live introspection
/// (DESIGN.md §5g): a blocking accept loop on one dedicated thread,
/// exact-match routes, one request per connection (`Connection: close`).
/// It binds to 127.0.0.1 only — this is an operator window into the
/// process, not a public endpoint — and is deliberately not a general
/// web server: no keep-alive, no chunking, no TLS.
///
/// Thread-safety: Handle() must finish before Start(); handlers run on
/// the server thread and must be safe against the threads that mutate
/// the data they expose (the introspection routes only read mutex- or
/// atomic-guarded state). Stop() is idempotent and joins the thread.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers the exact-match route `path`. Later registrations of the
  /// same path win. Unknown paths get 404; "/" returns a plain-text
  /// index of the registered routes.
  void Handle(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, see
  /// port()), then starts the accept loop on a dedicated thread.
  Status Start(uint16_t port);

  /// Closes the listening socket and joins the accept thread. Safe to
  /// call repeatedly and from the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The actually bound port (resolves port 0), 0 when not running.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Requests served since Start (including 404s).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop(int listen_fd);
  void ServeClient(int client_fd);
  HttpResponse Dispatch(const HttpRequest& request);

  mutable Mutex mutex_;
  std::map<std::string, Handler> routes_ VADA_GUARDED_BY(mutex_);
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_{0};
  int listen_fd_ = -1;
};

}  // namespace vada::obs

#endif  // VADA_OBS_HTTP_SERVER_H_
