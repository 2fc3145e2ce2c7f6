#include "service/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"

namespace stemroot::service {
namespace {

/// A client connection whose reads and writes time out, so a server that
/// never answers fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server binds on its own thread: retry until it listens.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        break;
      ::close(fd_);
      fd_ = -1;
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  ~Client() { Close(); }

  bool Connected() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next line without its newline; "" on timeout or EOF first.
  std::string ReadLine() {
    std::string line;
    char c;
    while (Read(&c) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return "";
  }

  /// True when the server has closed its end: a read returns EOF
  /// rather than data or a timeout.
  bool AtEof() {
    char c;
    return Read(&c) == 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  ssize_t Read(char* c) {
    ssize_t n;
    do {
      n = ::read(fd_, c, 1);
    } while (n < 0 && errno == EINTR);
    return n;
  }

  int fd_ = -1;
};

json::Value Reply(Client& client, const std::string& request) {
  json::Value value;
  EXPECT_TRUE(client.Send(request + "\n")) << request;
  const std::string line = client.ReadLine();
  EXPECT_TRUE(json::Parse(line, value, nullptr)) << request << " -> " << line;
  return value;
}

bool Ok(const json::Value& reply) {
  const json::Value* ok = reply.Find("ok");
  return ok != nullptr && ok->number != 0.0;
}

TEST(ServerTest, OversizedRequestLineIsRefusedAndTheServerServesOn) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sr_server_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ServerOptions options;
  options.socket_path = (dir / "sock").string();
  options.journal_path = (dir / "journal.jsonl").string();
  int rc = -1;
  std::thread server([&] {
    try {
      rc = RunServer(options);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  });

  // No ASSERT until the server thread is joined: an early return would
  // destroy a joinable std::thread.
  // A line one byte over the cap, with no newline: one error reply, then
  // the server hangs up.
  Client flood(options.socket_path);
  EXPECT_TRUE(flood.Connected());
  EXPECT_TRUE(flood.Send(std::string(kMaxRequestLineBytes + 1, 'x')));
  const std::string refused = flood.ReadLine();
  json::Value reply;
  EXPECT_TRUE(json::Parse(refused, reply, nullptr)) << refused;
  EXPECT_FALSE(Ok(reply)) << refused;
  const json::Value* error = reply.Find("error");
  EXPECT_EQ(error == nullptr ? "" : error->string,
            "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
                " bytes");
  EXPECT_TRUE(flood.AtEof());
  flood.Close();

  // Another connection is served as if nothing happened.
  Client probe(options.socket_path);
  EXPECT_TRUE(Ok(Reply(probe, R"({"op":"health"})")));

  Client admin(options.socket_path);
  EXPECT_TRUE(Ok(Reply(admin, R"({"op":"shutdown"})")));
  probe.Close();
  admin.Close();
  server.join();
  EXPECT_EQ(rc, 0);

  std::ifstream journal(options.journal_path);
  std::stringstream events;
  events << journal.rdbuf();
  EXPECT_NE(events.str().find("\"request.too_long\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stemroot::service
