#include "net/delta_server.hpp"

namespace ipd {

DeltaServer::DeltaServer(DeltaService& service, const ServerConfig& config)
    : service_(service), config_(config.validated()) {}

DeltaServer::~DeltaServer() { stop(); }

void DeltaServer::start_reactor(std::unique_ptr<TcpListener> listener) {
  // Built in locals and committed only once running: a failed start must
  // not leave the server looking started.
  auto reactor = std::make_unique<Reactor>(service_, config_, listener.get());
  reactor->start();
  listener_ = std::move(listener);
  reactor_ = std::move(reactor);
}

void DeltaServer::start() {
  MutexLock lock(state_mutex_);
  if (reactor_) throw Error("DeltaServer: already started");
  start_reactor(std::make_unique<TcpListener>(config_.port));
}

void DeltaServer::stop() {
  MutexLock lock(state_mutex_);
  reactor_.reset();  // ~Reactor stops and joins the loop first
  listener_.reset();
}

std::uint16_t DeltaServer::port() const {
  MutexLock lock(state_mutex_);
  if (!listener_) throw Error("DeltaServer: not started");
  return listener_->port();
}

std::unique_ptr<TcpTransport> DeltaServer::connect_local() {
  auto [client_end, server_end] = make_socket_pair();
  MutexLock lock(state_mutex_);
  if (!reactor_) start_reactor(nullptr);
  reactor_->adopt(std::move(server_end));
  return std::move(client_end);
}

std::size_t DeltaServer::active_sessions() const {
  MutexLock lock(state_mutex_);
  return reactor_ ? reactor_->active_connections() : 0;
}

}  // namespace ipd
