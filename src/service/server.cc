#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/journal.h"
#include "common/json.h"
#include "common/log.h"
#include "service/protocol.h"

namespace stemroot::service {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error("server: " + what + ": " +
                           std::strerror(errno));
}

sockaddr_un MakeAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("server: socket path empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Write all of `data` (+'\n'); MSG_NOSIGNAL so a vanished client is an
/// error return, not a process signal.
bool SendLine(int fd, const std::string& data) {
  std::string line = data;
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

enum class LineRead { kLine, kEnd, kTooLong };

/// Read one '\n'-terminated line into `line` using `buffer` as carry-over
/// between calls. kEnd on EOF/error with no complete line; kTooLong once
/// the line runs past `max_bytes`, without reading further. Each read's
/// bytes are scanned for the newline once.
LineRead ReadLine(int fd, std::string& buffer, std::string& line,
                  size_t max_bytes = SIZE_MAX) {
  size_t scanned = 0;
  while (true) {
    const size_t pos = buffer.find('\n', scanned);
    if (pos != std::string::npos) {
      if (pos > max_bytes) return LineRead::kTooLong;
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return LineRead::kLine;
    }
    if (buffer.size() > max_bytes) return LineRead::kTooLong;
    scanned = buffer.size();
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return LineRead::kEnd;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

void HandleConnection(int fd, SessionBroker& broker,
                      std::atomic<bool>& stop,
                      const std::string& socket_path) {
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "conn.open",
                  {{"fd", static_cast<uint64_t>(fd)}});
  std::string buffer;
  std::string line;
  LineRead status;
  while ((status = ReadLine(fd, buffer, line, kMaxRequestLineBytes)) ==
         LineRead::kLine) {
    if (line.empty()) continue;
    const BrokerResult result = broker.HandleLine(line);
    if (!result.ok && journal::Enabled())
      journal::Emit(journal::Severity::kWarn, "request.error",
                    {{"fd", static_cast<uint64_t>(fd)},
                     {"response", result.response}});
    if (!SendLine(fd, result.response)) {
      if (journal::Enabled())
        journal::Emit(journal::Severity::kError, "conn.send_error",
                      {{"fd", static_cast<uint64_t>(fd)},
                       {"errno", std::strerror(errno)}});
      break;
    }
    if (result.shutdown) {
      stop.store(true);
      // Wake the accept loop with a throw-away connection.
      const int wake = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (wake >= 0) {
        sockaddr_un addr = MakeAddress(socket_path);
        (void)::connect(wake, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr));
        ::close(wake);
      }
      break;
    }
  }
  if (status == LineRead::kTooLong) {
    // A line this long is no request; reading on would only grow the
    // buffer, so the connection ends here.
    if (journal::Enabled())
      journal::Emit(journal::Severity::kWarn, "request.too_long",
                    {{"fd", static_cast<uint64_t>(fd)},
                     {"max_bytes", static_cast<uint64_t>(
                                       kMaxRequestLineBytes)}});
    (void)SendLine(fd, json::Writer()
                           .Bool("ok", false)
                           .String("error",
                                   "request line exceeds " +
                                       std::to_string(kMaxRequestLineBytes) +
                                       " bytes")
                           .Finish());
  }
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "conn.close",
                  {{"fd", static_cast<uint64_t>(fd)}});
  ::close(fd);
}

}  // namespace

int RunServer(const ServerOptions& options) {
  sockaddr_un addr = MakeAddress(options.socket_path);

  if (!options.journal_path.empty()) {
    journal::Open(options.journal_path);
    journal::Emit(journal::Severity::kInfo, "server.start",
                  {{"socket", options.socket_path}});
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) ThrowErrno("socket");
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd);
    ThrowErrno("bind '" + options.socket_path + "'");
  }
  if (::listen(listen_fd, 16) < 0) {
    ::close(listen_fd);
    ThrowErrno("listen");
  }

  Service service(options.service);
  SessionBroker broker(service);
  std::atomic<bool> stop{false};
  std::vector<std::thread> connections;
  Inform("serve: listening on %s", options.socket_path.c_str());

  while (!stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // EINTR (signal) and ECONNABORTED (client gone before accept
      // completed) are transient: keep serving.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      Warn("serve: accept failed: %s", std::strerror(errno));
      if (journal::Enabled())
        journal::Emit(journal::Severity::kError, "server.accept_error",
                      {{"errno", std::strerror(errno)}});
      break;
    }
    if (stop.load()) {
      ::close(fd);
      break;
    }
    connections.emplace_back(
        [fd, &broker, &stop, &options] {
          HandleConnection(fd, broker, stop, options.socket_path);
        });
  }

  for (std::thread& t : connections) t.join();
  ::close(listen_fd);
  ::unlink(options.socket_path.c_str());
  if (journal::Enabled()) {
    journal::Emit(journal::Severity::kInfo, "server.stop",
                  {{"open_sessions",
                    static_cast<uint64_t>(service.NumOpenSessions())}});
    journal::Close();
  }
  Inform("serve: shut down (%zu sessions still open)",
         service.NumOpenSessions());
  return 0;
}

int RunClient(const ClientOptions& options, std::istream& script,
              std::ostream& out) {
  sockaddr_un addr = MakeAddress(options.socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    ThrowErrno("connect '" + options.socket_path + "'");
  }

  int exit_code = 0;
  std::string buffer;
  std::string request;
  std::string response;
  while (std::getline(script, request)) {
    const size_t start = request.find_first_not_of(" \t");
    if (start == std::string::npos || request[start] == '#') continue;
    if (!SendLine(fd, request)) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(
          std::string("server: connection lost mid-script (send: ") +
          std::strerror(err) + ")");
    }
    errno = 0;  // lets the failure path tell clean EOF from a read error
    if (ReadLine(fd, buffer, response) != LineRead::kLine) {
      const int err = errno;
      ::close(fd);
      // errno 0 here means a clean EOF: the server hung up, nothing
      // failed at the syscall level.
      throw std::runtime_error(
          err == 0 ? std::string("server: no response before hangup "
                                 "(connection closed)")
                   : std::string("server: no response before hangup "
                                 "(read: ") +
                         std::strerror(err) + ")");
    }
    out << response << "\n";
    if (options.fail_on_error) {
      json::Value parsed;
      const json::Value* ok = nullptr;
      if (!json::Parse(response, parsed, nullptr) ||
          (ok = parsed.Find("ok")) == nullptr || ok->number == 0.0)
        exit_code = 1;
    }
  }
  ::close(fd);
  return exit_code;
}

std::string RequestOnce(const std::string& socket_path,
                        const std::string& request_line) {
  sockaddr_un addr = MakeAddress(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    ThrowErrno("connect '" + socket_path + "'");
  }
  if (!SendLine(fd, request_line)) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("server: send failed: ") +
                             std::strerror(err));
  }
  std::string buffer;
  std::string response;
  errno = 0;
  if (ReadLine(fd, buffer, response) != LineRead::kLine) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(
        err == 0 ? std::string("server: hung up without a response")
                 : std::string("server: read failed: ") +
                       std::strerror(err));
  }
  ::close(fd);
  return response;
}

}  // namespace stemroot::service
