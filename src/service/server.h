/// \file
/// A minimal AF_UNIX line-protocol server and script client around
/// service::SessionBroker — the transport behind `stemroot serve` and
/// `stemroot session`.
///
/// The server owns one resident Service; each accepted connection gets a
/// handler thread, so concurrent clients drive concurrent sessions (the
/// Service is the synchronization point). It runs until a client sends
/// {"op":"shutdown"}. A request line longer than kMaxRequestLineBytes
/// gets one error reply and ends its connection, so a client that never
/// sends a newline cannot grow the server's memory. Unix sockets keep
/// the surface local and permission-guarded by the filesystem — there
/// is no network listener.
///
/// The client connects, replays a script of request lines (blank lines
/// and '#' comments skipped), and prints one response line per request.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "service/service.h"

namespace stemroot::service {

/// The longest request line a server reads (the newline excluded). Valid
/// requests are well under 4 KiB; an `open` with sampler params is the
/// longest.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

struct ServerOptions {
  std::string socket_path;  ///< AF_UNIX path; unlinked + rebound at start
  ServiceOptions service;   ///< resident service configuration
  /// Structured event journal file ("" = off); opened before the service
  /// starts so session lifecycle events from the first connection land
  /// in it. See common/journal.h.
  std::string journal_path;
};

/// Serve until a shutdown request arrives. Returns 0 on a clean shutdown;
/// throws std::runtime_error on socket setup failure.
int RunServer(const ServerOptions& options);

struct ClientOptions {
  std::string socket_path;
  bool fail_on_error = false;  ///< exit 1 when any response is not ok
};

/// Send each request line of `script` and echo responses to `out`.
/// Returns 0, or 1 when fail_on_error saw an error response. Throws
/// std::runtime_error (with errno detail) when the socket cannot be
/// reached or the server hangs up mid-script.
int RunClient(const ClientOptions& options, std::istream& script,
              std::ostream& out);

/// One-shot request: connect, send `request_line`, return the response
/// line. The transport behind `stemroot stats` (and anything else that
/// wants a single answer without a script). Throws std::runtime_error
/// with errno detail on connect/send/read failure.
std::string RequestOnce(const std::string& socket_path,
                        const std::string& request_line);

}  // namespace stemroot::service
