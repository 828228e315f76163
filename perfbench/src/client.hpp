#pragma once

// Blocking keep-alive HTTP/1.1 client for one loopback server. Written for
// the benchmark rather than reusing the program's client: every socket
// carries a receive and send timeout, and each request is timed from the
// first byte sent to the last response byte received.

#include <cstdint>
#include <string>

namespace perfbench {

struct Reply {
  int status = 0;       ///< 0 on a transport error or timeout
  std::string body;
  std::string error;    ///< why status is 0
  double ms = 0.;       ///< send -> last response byte
  [[nodiscard]] bool ok() const noexcept {
    return status >= 200 && status < 300;
  }
};

class Client {
public:
  Client(std::uint16_t port, int timeoutMs);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The exact bytes `request` sends for these arguments.
  static std::string encode(const std::string& method,
                            const std::string& target,
                            const std::string& body);

  Reply request(const std::string& method, const std::string& target,
                const std::string& body = "");

private:
  bool connectNow(std::string& error);
  void closeNow();

  std::uint16_t port;
  int timeoutMs;
  int fd = -1;
  std::string buffer;
};

} // namespace perfbench
