// SelectionServer behavior: the full request lifecycle (complete, degraded
// mid-solve, degraded-in-queue, rejected, error), deadline accounting from
// admission, load shedding, graceful drain, per-server counters, response
// schema, and the serve.* failpoint contract — a mid-request injected fault
// yields a typed error response while the daemon keeps serving.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "data/datasets.h"
#include "graph/ground_set.h"

namespace subsel::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  /// One resident toy dataset, shared by every test (read-only).
  static const data::Dataset& dataset() {
    static const data::Dataset shared = data::toy_dataset(2000, 8, 42);
    return shared;
  }

  static const graph::InMemoryGroundSet& ground_set() {
    static const graph::InMemoryGroundSet shared(dataset().graph,
                                                 dataset().utilities);
    return shared;
  }

  static std::unique_ptr<SelectionServer> make_server(
      std::size_t max_concurrent = 2, std::size_t queue_capacity = 64) {
    ServerConfig config;
    config.max_concurrent = max_concurrent;
    config.queue_capacity = queue_capacity;
    auto server = std::make_unique<SelectionServer>(config);
    server->register_ground_set("toy", &ground_set());
    return server;
  }

  static ServeRequest select_request(const std::string& id, std::size_t k = 100) {
    ServeRequest request;
    request.id = id;
    request.dataset = "toy";
    request.k = k;
    return request;
  }
};

TEST_F(ServeTest, CompletesAndEchoesTheRequest) {
  auto server = make_server();
  auto response = server->submit(select_request("r1")).get();
  EXPECT_EQ(response.id, "r1");
  EXPECT_EQ(response.status, ServeResponse::Status::kComplete);
  EXPECT_EQ(response.dataset, "toy");
  EXPECT_EQ(response.solver, "distributed-greedy");
  EXPECT_EQ(response.selected.size(), 100u);
  EXPECT_EQ(response.selected_count, 100u);
  EXPECT_GT(response.objective, 0.0);
  EXPECT_GT(response.latency.total_seconds, 0.0);
  EXPECT_GE(response.latency.total_seconds,
            response.latency.solve_seconds);
  EXPECT_EQ(response.counters.accepted, 1u);
  EXPECT_EQ(response.counters.completed, 1u);
}

TEST_F(ServeTest, ResponseJsonCarriesSchemaAndVersion) {
  auto server = make_server();
  const auto response = server->submit(select_request("r1", 10)).get();
  const std::string json = response.to_json();
  EXPECT_NE(json.find("\"schema\":\"subsel.serve_response.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"server\":{"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
}

TEST_F(ServeTest, IdenticalRequestsYieldBitIdenticalSelections) {
  auto server = make_server();
  const auto first = server->submit(select_request("a", 150)).get();
  const auto second = server->submit(select_request("b", 150)).get();
  ASSERT_EQ(first.status, ServeResponse::Status::kComplete);
  ASSERT_EQ(second.status, ServeResponse::Status::kComplete);
  EXPECT_EQ(first.selected, second.selected);
  EXPECT_DOUBLE_EQ(first.objective, second.objective);
}

TEST_F(ServeTest, DeadlineExpiringMidSolveDegradesWithValidSelection) {
  auto server = make_server();
  // Every pool task sleeps 5 ms, so round 1 alone outlasts the 1 ms budget
  // and the round loop sees it expired before round 2, however fast the
  // machine solves the toy set.
  failpoint::arm_from_spec("pool.task=delay(5)");
  auto request = select_request("tight", 500);
  request.deadline_ms = 1;
  const auto response = server->submit(std::move(request)).get();
  EXPECT_EQ(response.status, ServeResponse::Status::kDegraded);
  // Either the solver degraded mid-run or the budget was gone by dispatch;
  // both are the deadline contract, and both return a VALID selection.
  EXPECT_TRUE(response.reason == "deadline_expired" ||
              response.reason == "queued_past_deadline")
      << response.reason;
  EXPECT_EQ(response.selected.size(), response.selected_count);
  EXPECT_EQ(response.counters.degraded, 1u);
}

TEST_F(ServeTest, RequestExpiringInQueueDegradesWithoutSolving) {
  // One slot: a slow request holds it while a 1 ms-deadline request waits
  // in the queue past its whole budget. The 5 ms sleep in every pool task
  // keeps the slow request's 8 rounds on the slot for at least 40 ms.
  auto server = make_server(/*max_concurrent=*/1);
  failpoint::arm_from_spec("pool.task=delay(5)");
  auto slow = server->submit(select_request("slow", 600));

  auto tight = select_request("tight", 10);
  tight.deadline_ms = 1;
  const auto response = server->submit(std::move(tight)).get();
  EXPECT_EQ(response.status, ServeResponse::Status::kDegraded);
  EXPECT_EQ(response.reason, "queued_past_deadline");
  EXPECT_EQ(response.counters.expired_in_queue, 1u);
  // It never held a solver slot, so there is no solve time to report.
  EXPECT_DOUBLE_EQ(response.latency.solve_seconds, 0.0);
  EXPECT_EQ(slow.get().status, ServeResponse::Status::kComplete);
}

TEST_F(ServeTest, UnknownDatasetRejectsWithKnownList) {
  auto server = make_server();
  auto request = select_request("r1");
  request.dataset = "nonexistent";
  const auto response = server->submit(std::move(request)).get();
  EXPECT_EQ(response.status, ServeResponse::Status::kRejected);
  EXPECT_EQ(response.reason, "unknown_dataset");
  EXPECT_NE(response.detail.find("toy"), std::string::npos);
  EXPECT_EQ(response.counters.rejected, 1u);
  EXPECT_EQ(response.counters.accepted, 0u);
}

TEST_F(ServeTest, OverloadShedsWithQueueFull) {
  // One slot + capacity-1 queue. Occupy the slot (poll inflight so the
  // ordering is deterministic), fill the queue, then overflow it.
  auto server = make_server(/*max_concurrent=*/1, /*queue_capacity=*/1);
  auto slow = server->submit(select_request("slow", 600));
  for (int i = 0; i < 2000 && server->counters().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server->counters().inflight, 1u);

  auto queued = server->submit(select_request("queued", 10));
  const auto shed = server->submit(select_request("shed", 10)).get();
  EXPECT_EQ(shed.status, ServeResponse::Status::kRejected);
  EXPECT_EQ(shed.reason, "queue_full");
  EXPECT_NE(shed.detail.find("capacity"), std::string::npos);

  EXPECT_EQ(slow.get().status, ServeResponse::Status::kComplete);
  EXPECT_EQ(queued.get().status, ServeResponse::Status::kComplete);
  const auto counters = server->counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(counters.completed, 2u);
}

TEST_F(ServeTest, DrainRejectsNewWorkAndFinishesBacklog) {
  auto server = make_server(/*max_concurrent=*/1);
  auto inflight = server->submit(select_request("inflight", 400));
  server->begin_drain();

  const auto late = server->submit(select_request("late", 10)).get();
  EXPECT_EQ(late.status, ServeResponse::Status::kRejected);
  EXPECT_EQ(late.reason, "draining");

  // Work admitted before the pivot still completes.
  EXPECT_EQ(inflight.get().status, ServeResponse::Status::kComplete);
  server->shutdown();
  EXPECT_EQ(server->counters().queue_depth, 0u);
  EXPECT_EQ(server->counters().inflight, 0u);
}

TEST_F(ServeTest, StatsReportsResidentDatasetsAndCounters) {
  auto server = make_server();
  ASSERT_EQ(server->submit(select_request("warm", 50)).get().status,
            ServeResponse::Status::kComplete);

  ServeRequest stats;
  stats.kind = ServeRequest::Kind::kStats;
  stats.id = "s1";
  const auto response = server->submit(std::move(stats)).get();
  EXPECT_EQ(response.status, ServeResponse::Status::kStats);
  EXPECT_STREQ(response.status_name(), "ok");
  ASSERT_EQ(response.datasets.size(), 1u);
  EXPECT_EQ(response.datasets[0].name, "toy");
  EXPECT_EQ(response.datasets[0].num_points, ground_set().num_points());
  EXPECT_FALSE(response.datasets[0].disk);
  EXPECT_GT(response.uptime_seconds, 0.0);
  EXPECT_EQ(response.counters.accepted, 1u);
  EXPECT_EQ(response.counters.completed, 1u);
}

TEST_F(ServeTest, PriorityClassesAreCountedSeparately) {
  auto server = make_server();
  auto interactive = select_request("i1", 50);
  interactive.priority = Priority::kInteractive;
  auto batch = select_request("b1", 50);
  batch.priority = Priority::kBatch;
  ASSERT_EQ(server->submit(std::move(interactive)).get().status,
            ServeResponse::Status::kComplete);
  ASSERT_EQ(server->submit(std::move(batch)).get().status,
            ServeResponse::Status::kComplete);
  const auto counters = server->counters();
  EXPECT_EQ(counters.completed_by_class[static_cast<std::size_t>(
                Priority::kInteractive)],
            1u);
  EXPECT_EQ(counters.completed_by_class[static_cast<std::size_t>(
                Priority::kBatch)],
            1u);
}

TEST_F(ServeTest, InvalidRequestIsTypedErrorNotCrash) {
  auto server = make_server();
  // k beyond the ground set fails the registry's validation post-admission.
  const auto response =
      server->submit(select_request("too-big", 1u << 20)).get();
  EXPECT_EQ(response.status, ServeResponse::Status::kError);
  EXPECT_EQ(response.reason, "invalid_request");
  EXPECT_EQ(response.counters.errors, 1u);
  // The daemon is still serving.
  EXPECT_EQ(server->submit(select_request("after", 10)).get().status,
            ServeResponse::Status::kComplete);
}

// --- fault injection at the serve.* sites -------------------------------

TEST_F(ServeTest, FaultAtAcceptIsTypedErrorAndServerKeepsServing) {
  auto server = make_server();
  failpoint::arm_from_spec("serve.accept=nth(1)");
  const auto faulted = server->submit(select_request("faulted", 50)).get();
  EXPECT_EQ(faulted.status, ServeResponse::Status::kError);
  EXPECT_EQ(faulted.reason, "injected_fault");
  EXPECT_NE(faulted.detail.find("serve.accept"), std::string::npos);

  const auto next = server->submit(select_request("next", 50)).get();
  EXPECT_EQ(next.status, ServeResponse::Status::kComplete);
  const auto counters = server->counters();
  EXPECT_EQ(counters.errors, 1u);
  EXPECT_EQ(counters.completed, 1u);
}

TEST_F(ServeTest, FaultAtEnqueueIsTypedErrorAndServerKeepsServing) {
  auto server = make_server();
  failpoint::arm_from_spec("serve.enqueue=nth(1)");
  const auto faulted = server->submit(select_request("faulted", 50)).get();
  EXPECT_EQ(faulted.status, ServeResponse::Status::kError);
  EXPECT_EQ(faulted.reason, "injected_fault");
  EXPECT_NE(faulted.detail.find("serve.enqueue"), std::string::npos);
  EXPECT_EQ(server->submit(select_request("next", 50)).get().status,
            ServeResponse::Status::kComplete);
}

TEST_F(ServeTest, FaultAtRespondReplacesPayloadButCountsOnce) {
  auto server = make_server();
  failpoint::arm_from_spec("serve.respond=nth(1)");
  const auto faulted = server->submit(select_request("faulted", 50)).get();
  EXPECT_EQ(faulted.status, ServeResponse::Status::kError);
  EXPECT_EQ(faulted.reason, "injected_fault");
  EXPECT_EQ(faulted.id, "faulted");  // identity survives the fault
  EXPECT_TRUE(faulted.selected.empty());  // payload does not

  const auto next = server->submit(select_request("next", 50)).get();
  EXPECT_EQ(next.status, ServeResponse::Status::kComplete);
  // Exactly one outcome counter moved per request: the faulted one counted
  // as an error, never ALSO as completed.
  const auto counters = server->counters();
  EXPECT_EQ(counters.errors, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.accepted, 2u);
}

TEST_F(ServeTest, MidSolveWorkerFaultIsTypedErrorAndServerRecovers) {
  auto server = make_server();
  // A fault INSIDE the solve (thread-pool task) surfaces as a typed
  // worker_fault/injected_fault response, not a dead dispatcher.
  failpoint::arm_from_spec("pool.task=nth(1)");
  const auto faulted = server->submit(select_request("faulted", 200)).get();
  EXPECT_EQ(faulted.status, ServeResponse::Status::kError);
  EXPECT_TRUE(faulted.reason == "worker_fault" ||
              faulted.reason == "injected_fault")
      << faulted.reason;
  failpoint::disarm_all();
  EXPECT_EQ(server->submit(select_request("next", 50)).get().status,
            ServeResponse::Status::kComplete);
}

}  // namespace
}  // namespace subsel::serve
