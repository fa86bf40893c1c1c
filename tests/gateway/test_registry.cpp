// Replica-registry health tests. The eject/readmit state machine is a pure
// function of probe outcomes (record_probe), so most tests run without a
// prober thread; one integration test drives the real prober against a
// live serve::Server.
#include "gateway/registry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "serve/server.hpp"

namespace {

using mcmm::gateway::RegistryConfig;
using mcmm::gateway::ReplicaEndpoint;
using mcmm::gateway::ReplicaHealth;
using mcmm::gateway::ReplicaRegistry;

RegistryConfig no_probing() {
  RegistryConfig config;  // start_probing() is simply never called
  config.eject_after = 3;
  config.readmit_after = 2;
  return config;
}

std::vector<ReplicaEndpoint> endpoints(std::size_t n) {
  std::vector<ReplicaEndpoint> eps(n);
  for (std::size_t i = 0; i < n; ++i) {
    eps[i].port = static_cast<std::uint16_t>(9000 + i);
  }
  return eps;
}

/// Records one successful probe per replica: the state every test of the
/// eject/readmit ladder starts from.
void admit_all(ReplicaRegistry& registry) {
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.record_probe(i, true, 0, 42);
  }
}

TEST(ReplicaRegistry, StartsIneligibleUntilTheFirstSuccessfulProbe) {
  ReplicaRegistry registry(endpoints(3), no_probing());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.healthy_count(), 0u);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Starting);
  std::vector<std::size_t> out;
  registry.eligible(out);
  EXPECT_TRUE(out.empty());

  registry.record_probe(1, true, 0, 42);
  EXPECT_EQ(registry.at(1).health.load(), ReplicaHealth::Healthy);
  registry.eligible(out);
  EXPECT_EQ(out, (std::vector<std::size_t>{1}));
  admit_all(registry);
  registry.eligible(out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ReplicaRegistry, FailuresBeforeTheFirstSuccessNeitherEjectNorAdmit) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  for (int i = 0; i < 10; ++i) registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Starting);
  EXPECT_EQ(registry.ejections_total(), 0u);
  EXPECT_EQ(registry.healthy_count(), 0u);
  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, EjectsAfterConsecutiveFailures) {
  ReplicaRegistry registry(endpoints(2), no_probing());
  admit_all(registry);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.healthy_count(), 1u);
  EXPECT_EQ(registry.ejections_total(), 1u);
  std::vector<std::size_t> out;
  registry.eligible(out);
  EXPECT_EQ(out, (std::vector<std::size_t>{1}));
}

TEST(ReplicaRegistry, SuccessResetsTheFailureStreak) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  admit_all(registry);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, true, 0, 42);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, ReadmissionGoesThroughHalfOpen) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  admit_all(registry);
  for (int i = 0; i < 3; ++i) registry.record_probe(0, false, 0, -1);
  ASSERT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);

  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::HalfOpen);
  EXPECT_EQ(registry.healthy_count(), 0u);  // half-open is not eligible

  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
  EXPECT_EQ(registry.healthy_count(), 1u);
}

TEST(ReplicaRegistry, HalfOpenFailureEjectsAgain) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  admit_all(registry);
  for (int i = 0; i < 3; ++i) registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, true, 0, 42);
  ASSERT_EQ(registry.at(0).health.load(), ReplicaHealth::HalfOpen);

  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.ejections_total(), 2u);

  // Readmission still works after the relapse.
  registry.record_probe(0, true, 0, 42);
  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, SuccessfulProbeRefreshesLoadAndPid) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  EXPECT_EQ(registry.at(0).pid.load(), -1);
  registry.record_probe(0, true, 7, 1234);
  EXPECT_EQ(registry.at(0).reported_in_flight.load(), 7u);
  EXPECT_EQ(registry.at(0).pid.load(), 1234);
  registry.at(0).in_flight.store(2);
  EXPECT_EQ(registry.at(0).load(), 9u);
}

TEST(ReplicaRegistry, LiveProberTracksAServer) {
  mcmm::serve::ServerConfig server_config;
  server_config.port = 0;
  server_config.threads = 2;
  auto server = std::make_unique<mcmm::serve::Server>(
      mcmm::data::paper_matrix(), server_config);
  server->start();

  RegistryConfig config;
  config.probe_interval_ms = 25;
  config.probe_timeout_ms = 250;
  config.eject_after = 2;
  config.readmit_after = 1;
  std::vector<ReplicaEndpoint> eps(1);
  eps[0].port = server->port();
  ReplicaRegistry registry(std::move(eps), config);
  registry.start_probing();

  // The prober should discover the replica's pid (our own, in-process).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.at(0).pid.load() <= 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(registry.at(0).pid.load(), 0);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);

  // Kill the replica; the prober must eject it.
  server.reset();
  while (registry.at(0).health.load() != ReplicaHealth::Ejected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.healthy_count(), 0u);
  registry.stop_probing();
}

TEST(ReplicaHealthNames, ToString) {
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::Healthy), "healthy");
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::Ejected), "ejected");
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::HalfOpen),
               "half-open");
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::Starting),
               "starting");
}

}  // namespace
