#include "pss/obs/pull_endpoint.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace pss::obs {

namespace {
// Accept-poll granularity: the upper bound on stop() latency.
constexpr int kPollMs = 100;
}  // namespace

PullEndpoint::PullEndpoint(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  port_ = ntohs(bound.sin_port);
  ok_ = true;
  thread_ = std::thread([this] { serve_loop(); });
}

PullEndpoint::~PullEndpoint() { stop(); }

void PullEndpoint::set_text(std::string text) {
  const std::lock_guard<std::mutex> lock(mutex_);
  text_ = std::move(text);
}

void PullEndpoint::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PullEndpoint::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Bounded wait for the request, then drain it; content ignored — every
    // path serves the current document. Closing with the request still
    // unread would make the kernel reset the connection, which can discard
    // the response before the client has read it.
    pollfd request{};
    request.fd = client;
    request.events = POLLIN;
    char sink[512];
    if (::poll(&request, 1, kPollMs) > 0) {
      (void)::recv(client, sink, sizeof(sink), MSG_DONTWAIT);
    }
    std::string body;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      body = text_;
    }
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::send(client, response.data() + sent, response.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    // Count before closing: a client that has read the whole response
    // must already see its scrape in requests_served().
    served_.fetch_add(1, std::memory_order_relaxed);
    ::close(client);
  }
}

}  // namespace pss::obs
