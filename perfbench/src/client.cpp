#include "client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return s;
}

} // namespace

Client::Client(std::uint16_t port, int timeoutMs)
    : port(port), timeoutMs(timeoutMs) {}

Client::~Client() { closeNow(); }

void Client::closeNow() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
  buffer.clear();
}

bool Client::connectNow(std::string& error) {
  fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeoutMs / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeoutMs % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    closeNow();
    return false;
  }
  return true;
}

std::string Client::encode(const std::string& method,
                           const std::string& target,
                           const std::string& body) {
  std::string out;
  out.reserve(96 + target.size() + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

Reply Client::request(const std::string& method, const std::string& target,
                      const std::string& body) {
  Reply reply;
  const std::string wire = encode(method, target, body);
  if (fd < 0 && !connectNow(reply.error)) {
    return reply;
  }
  const auto t0 = Clock::now();
  const auto failWith = [&](const std::string& what) {
    reply.status = 0;
    reply.error = what;
    reply.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                   .count();
    closeNow(); // the connection state is unknown now
    return reply;
  };

  for (std::size_t sent = 0; sent < wire.size();) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return failWith(errno == EAGAIN || errno == EWOULDBLOCK
                          ? "send timeout"
                          : std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }

  const auto fill = [&]() -> bool {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  const auto recvError = [&]() {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return std::string("receive timeout");
    }
    return std::string("connection closed by server");
  };

  std::size_t headerEnd = std::string::npos;
  while ((headerEnd = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      return failWith(recvError());
    }
  }
  // status line: HTTP/1.1 200 OK
  const std::size_t sp = buffer.find(' ');
  if (sp == std::string::npos || sp > headerEnd) {
    return failWith("malformed status line");
  }
  const int status = std::atoi(buffer.c_str() + sp + 1);
  std::size_t contentLength = 0;
  bool closeAfter = false;
  std::size_t line = buffer.find("\r\n") + 2;
  while (line < headerEnd) {
    const std::size_t eol = buffer.find("\r\n", line);
    const std::size_t colon = buffer.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      const std::string name = lower(buffer.substr(line, colon - line));
      std::size_t v = colon + 1;
      while (v < eol && buffer[v] == ' ') {
        ++v;
      }
      const std::string value = buffer.substr(v, eol - v);
      if (name == "content-length") {
        contentLength = static_cast<std::size_t>(std::strtoull(
            value.c_str(), nullptr, 10));
      } else if (name == "connection" && lower(value) == "close") {
        closeAfter = true;
      }
    }
    line = eol + 2;
  }
  const std::size_t bodyStart = headerEnd + 4;
  while (buffer.size() < bodyStart + contentLength) {
    if (!fill()) {
      return failWith(recvError());
    }
  }
  reply.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  reply.status = status;
  reply.body = buffer.substr(bodyStart, contentLength);
  buffer.erase(0, bodyStart + contentLength);
  if (closeAfter) {
    closeNow();
  }
  return reply;
}

} // namespace perfbench
