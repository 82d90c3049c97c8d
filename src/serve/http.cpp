#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>

#include "serve/json.hpp"

namespace fv::serve {

namespace {

[[noreturn]] void io_fail(const char* what) {
  throw IoError(std::string("http: ") + what + ": " + std::strerror(errno));
}

/// %XX decoding for query parameter names/values ('+' is a space).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) throw ParseError("http: bad %-escape in query");
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// The header lines of a request whose blank line starts at `header_end`:
/// everything after the request line's CRLF, up to that blank line.
std::string_view header_block(std::string_view raw, std::size_t header_end) {
  const std::size_t begin = std::min(raw.find("\r\n") + 2, header_end);
  return raw.substr(begin, header_end - begin);
}

/// The body length a header block declares: 0 without a Content-Length
/// header, else its value. Only a header name at the start of a line
/// counts, so "content-length:" inside a value (or the request target)
/// never does. The value must be ASCII digits with optional surrounding
/// spaces or tabs — no sign, no trailing bytes, no overflow — and repeated
/// headers must agree. Anything else throws fv::ParseError (a 400).
std::size_t declared_content_length(std::string_view headers) {
  std::optional<std::size_t> length;
  while (!headers.empty()) {
    const std::size_t eol = headers.find("\r\n");
    const std::string_view line = headers.substr(0, eol);
    headers.remove_prefix(eol == std::string_view::npos ? headers.size()
                                                        : eol + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        lower(line.substr(0, colon)) != "content-length") {
      continue;
    }
    std::string_view value = line.substr(colon + 1);
    const auto blank = [](char c) { return c == ' ' || c == '\t'; };
    while (!value.empty() && blank(value.front())) value.remove_prefix(1);
    while (!value.empty() && blank(value.back())) value.remove_suffix(1);
    if (value.empty()) throw ParseError("http: empty Content-Length");
    std::size_t parsed = 0;
    for (const char c : value) {
      if (c < '0' || c > '9') throw ParseError("http: bad Content-Length");
      const auto digit = static_cast<std::size_t>(c - '0');
      if (parsed > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        throw ParseError("http: Content-Length overflows");
      }
      parsed = parsed * 10 + digit;
    }
    if (length.has_value() && *length != parsed) {
      throw ParseError("http: conflicting Content-Length headers");
    }
    length = parsed;
  }
  return length.value_or(0);
}

/// Reads until the buffer holds a complete request (headers + declared
/// body) or the peer closes. Returns false on overflow of `max_bytes`;
/// throws fv::ParseError on a malformed Content-Length.
bool read_request(int fd, std::size_t max_bytes, std::string& buffer) {
  char chunk[4096];
  std::size_t need = std::string::npos;  ///< total bytes once known
  while (buffer.size() < max_bytes) {
    if (need == std::string::npos) {
      const std::size_t header_end = buffer.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::size_t content_length =
            declared_content_length(header_block(buffer, header_end));
        if (content_length > max_bytes) return false;
        need = header_end + 4 + content_length;
      }
    }
    if (need != std::string::npos && buffer.size() >= need) return true;
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got == 0) return need != std::string::npos && buffer.size() >= need;
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  return false;
}

void write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing useful to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

HttpRequest parse_http_request(std::string_view raw, std::size_t max_bytes) {
  if (raw.size() > max_bytes) throw ParseError("http: request too large");
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string_view::npos) {
    throw ParseError("http: missing request line");
  }
  const std::string_view line = raw.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    throw ParseError("http: malformed request line");
  }
  HttpRequest request;
  request.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") {
    throw ParseError("http: bad protocol version");
  }
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    std::string_view qs = target.substr(qmark + 1);
    while (!qs.empty()) {
      const std::size_t amp = qs.find('&');
      const std::string_view pair = qs.substr(0, amp);
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request.query[url_decode(pair)] = "";
      } else {
        request.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
      }
      if (amp == std::string_view::npos) break;
      qs.remove_prefix(amp + 1);
    }
    target = target.substr(0, qmark);
  }
  request.path = url_decode(target);
  if (request.path.empty() || request.path[0] != '/') {
    throw ParseError("http: target must be an absolute path");
  }

  std::size_t cursor = line_end + 2;
  const std::size_t headers_end = raw.find("\r\n\r\n", line_end);
  if (headers_end == std::string_view::npos) {
    throw ParseError("http: missing header terminator");
  }
  while (cursor < headers_end) {
    const std::size_t eol = raw.find("\r\n", cursor);
    const std::string_view header = raw.substr(cursor, eol - cursor);
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      throw ParseError("http: malformed header line");
    }
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    request.headers[lower(header.substr(0, colon))] = std::string(value);
    cursor = eol + 2;
  }

  const std::size_t content_length =
      declared_content_length(header_block(raw, headers_end));
  const std::string_view body = raw.substr(headers_end + 4);
  if (body.size() < content_length) {
    throw ParseError("http: body shorter than Content-Length");
  }
  request.body = std::string(body.substr(0, content_length));
  return request;
}

std::string format_http_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    http_status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer(Handler handler, const Options& options)
    : handler_(std::move(handler)), options_(options) {
  FV_REQUIRE(handler_ != nullptr, "HttpServer needs a handler");
  FV_REQUIRE(options_.listener_threads >= 1,
             "HttpServer needs at least one listener thread");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) io_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("listen");
  }
  listeners_.reserve(options_.listener_threads);
  for (std::size_t i = 0; i < options_.listener_threads; ++i) {
    listeners_.emplace_back([this] { listener_loop(); });
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    for (std::thread& t : listeners_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  for (std::thread& t : listeners_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::listener_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // Bounded poll so the stop flag is observed promptly; accept never
    // blocks indefinitely.
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  std::string buffer;
  HttpResponse response;
  try {
    if (!read_request(fd, options_.max_request_bytes, buffer)) {
      response.status = 413;
      JsonValue error = JsonValue::object();
      error["error"] = "request too large or truncated";
      response.body = error.dump();
      write_all(fd, format_http_response(response));
      return;
    }
    const HttpRequest request =
        parse_http_request(buffer, options_.max_request_bytes);
    response = handler_(request);
  } catch (const ParseError& error) {
    response.status = 400;
    JsonValue body = JsonValue::object();
    body["error"] = std::string(error.what());
    response.body = body.dump();
  } catch (const std::exception& error) {
    // The handler (AnalysisService) maps typed errors itself; anything
    // that still escapes is a server bug answered as 500, never a dropped
    // connection.
    response.status = 500;
    JsonValue body = JsonValue::object();
    body["error"] = std::string(error.what());
    response.body = body.dump();
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  write_all(fd, format_http_response(response));
}

std::string http_exchange(std::uint16_t port, std::string_view raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail("connect");
  }
  write_all(fd, raw_request);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

}  // namespace fv::serve
