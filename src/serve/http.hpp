// Embedded HTTP front end of the analysis server.
//
// Deliberately minimal, in the spirit of the embedded servers that made
// interactive omics exploration practical (an accept loop, per-connection
// handling, Content-Length bodies): the serving logic lives in
// AnalysisService, which is plain request-in/response-out and is what the
// tests and the many-user bench drive directly. This layer only adds the
// wire: request parsing with hard size bounds, response formatting, and a
// loopback TCP listener with a clean-shutdown path.
//
// Protocol subset: HTTP/1.0-and-1.1 requests with optional Content-Length
// bodies; every response carries Content-Length and Connection: close (one
// request per connection — long-running work goes through the async job
// queue, so connections never need to be held open).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace fv::serve {

struct HttpRequest {
  std::string method;                          ///< "GET", "POST", "DELETE"
  std::string path;                            ///< target path, no query
  std::map<std::string, std::string> query;    ///< decoded query params
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string body;                            ///< JSON payload
  std::string content_type = "application/json";
};

/// Reason phrase of the status codes the service emits ("OK", "Bad
/// Request", ...); "Unknown" otherwise.
const char* http_status_reason(int status);

/// Parses one request from raw bytes: request line, headers, and exactly
/// Content-Length body bytes. Throws fv::ParseError on a malformed or
/// oversized (`max_bytes`) request — including a Content-Length that is
/// not plain ASCII digits, overflows, or disagrees with a repeated
/// Content-Length header (the listener frames bodies with the same rule). The parser is byte-complete: it is
/// given the full buffered request, framing is the listener's job.
HttpRequest parse_http_request(std::string_view raw,
                               std::size_t max_bytes = 1 << 20);

/// Serializes a response with Content-Length and Connection: close.
std::string format_http_response(const HttpResponse& response);

/// A blocking loopback TCP listener: accept loop on its own thread, each
/// connection read-to-completion, handed to `handler`, answered, closed.
/// Concurrency lives in the service's job queue, not in connection count —
/// request handling itself is cheap (submit/poll/fetch), so connections
/// are served one at a time per listener thread, bounded and predictable.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::uint16_t port = 0;        ///< 0 = kernel-assigned (tests)
    std::size_t max_request_bytes = 1 << 20;
    std::size_t listener_threads = 1;
  };

  /// Binds 127.0.0.1:<port> and starts the accept loop. Throws fv::IoError
  /// when the socket cannot be created or bound.
  HttpServer(Handler handler, const Options& options);
  explicit HttpServer(Handler handler) : HttpServer(std::move(handler), Options{}) {}

  /// Stops accepting, joins the listener threads, closes the socket.
  ~HttpServer();

  void stop();

  /// The bound port (the kernel's pick when Options::port was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Requests fully served since start.
  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void listener_loop();
  void serve_connection(int fd);

  Handler handler_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::vector<std::thread> listeners_;
};

/// Test/tool helper: one blocking HTTP exchange against 127.0.0.1:port.
/// Returns the raw response bytes. Throws fv::IoError on socket failure.
std::string http_exchange(std::uint16_t port, std::string_view raw_request);

}  // namespace fv::serve
