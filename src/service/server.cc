#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cache.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/log.h"
#include "service/metrics.h"
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

/// Read one '\n'-terminated line into `line` using `buffer` as carry-over
/// between calls. Returns false on EOF/error with no complete line.
bool ReadLine(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

/// Write one Prometheus scrape. A plain path is written atomically (temp
/// + rename, the manifest Save convention) so a concurrently-reading
/// scraper never sees a torn exposition; "fd:N" rewrites descriptor N in
/// place (truncate + write), the pipe-friendly mode.
void WriteMetrics(const std::string& target, const std::string& text) {
  if (target.rfind("fd:", 0) == 0) {
    const int fd = std::atoi(target.c_str() + 3);
    if (::lseek(fd, 0, SEEK_SET) >= 0) (void)::ftruncate(fd, 0);
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          ::write(fd, text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        Warn("serve: metrics write to %s failed: %s", target.c_str(),
             std::strerror(errno));
        return;
      }
      off += static_cast<size_t>(n);
    }
    return;
  }
  const std::string tmp = UniqueTempPath(target);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      Warn("serve: cannot write metrics temp file %s", tmp.c_str());
      return;
    }
    out << text;
    out.flush();
    if (!out) {
      Warn("serve: metrics write failed: %s", tmp.c_str());
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) {
    Warn("serve: metrics rename into %s failed: %s", target.c_str(),
         ec.message().c_str());
    std::error_code ignore;
    std::filesystem::remove(tmp, ignore);
  }
}

/// Background scrape loop: exports every `interval_seconds` until
/// stopped, then once more so the final file reflects the full run.
class MetricsExporter {
 public:
  MetricsExporter(const Service& service, std::string target,
                  double interval_seconds)
      : service_(service), target_(std::move(target)),
        interval_(interval_seconds <= 0.0 ? 0.1 : interval_seconds),
        thread_([this] { Loop(); }) {}

  ~MetricsExporter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    WriteMetrics(target_, PrometheusText(service_.GetStats()));
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      WriteMetrics(target_, PrometheusText(service_.GetStats()));
      lock.lock();
    }
  }

  const Service& service_;
  const std::string target_;
  const double interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

void HandleConnection(int fd, SessionBroker& broker,
                      std::atomic<bool>& stop,
                      const std::string& socket_path) {
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "conn.open",
                  {{"fd", static_cast<uint64_t>(fd)}});
  std::string buffer;
  std::string line;
  while (ReadLine(fd, buffer, line)) {
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
  std::optional<MetricsExporter> exporter;
  if (!options.metrics_path.empty())
    exporter.emplace(service, options.metrics_path,
                     options.metrics_interval_seconds);
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
  // Final export happens in the exporter's destructor, after every
  // connection drained — the on-disk file ends at the true final counts.
  exporter.reset();
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
    if (!ReadLine(fd, buffer, response)) {
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
  if (!ReadLine(fd, buffer, response)) {
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
